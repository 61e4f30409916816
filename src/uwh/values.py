"""Cell values and their canonical text forms.

Cells are plain Python objects: ``None``, ``int``, ``decimal.Decimal``,
``str``, ``bool``, and ``datetime.date``. Decimals live on a fixed-point
grid of four fractional digits; every parser and constructor here
quantizes onto that grid so sums and means never pick up binary drift.

Each type's grammar is written once, as a regex or BOOLEAN's literal
table, which :func:`cell_converter` applies to one text and
:func:`convert_all` to a column's distinct texts in one pass. A cell that
fails its declared-type parse at extraction is kept as a :class:`RawCell`
(a ``str`` subclass) so the cleansing stage can still repair it. Raw
cells only ever appear in non-TEXT columns.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Callable, Iterator
from datetime import date
from decimal import ROUND_HALF_EVEN, Decimal, InvalidOperation
from enum import Enum

DEC4 = Decimal("0.0001")
INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# the six comparison operators of plans, rules and query filters
COMPARISONS = {
    "=": operator.eq,
    "<>": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")

_INT, _DEC, _ISO_DATE = r"[+-]?[0-9]+", r"[+-]?[0-9]+(?:\.[0-9]{1,4})?", r"[0-9]{4}-[0-9]{2}-[0-9]{2}"
_INT_RE, _DEC_RE, _ISO_DATE_RE = (re.compile(rf"{grammar}\Z") for grammar in (_INT, _DEC, _ISO_DATE))
_NUMERIC_DATE_RE = re.compile(r"([0-9]{1,2})[/-]([0-9]{1,2})[/-]([0-9]{4})\Z")
_MONTH_NAME_DATE_RE = re.compile(r"([A-Za-z]+)\s+([0-9]{1,2}),\s*([0-9]{4})\Z")
_BOOLEANS = {"true": True, "false": False}  # by lowercased text

_MONTHS = {
    name: i + 1
    for i, name in enumerate(
        [
            "january", "february", "march", "april", "may", "june",
            "july", "august", "september", "october", "november", "december",
        ]
    )
}


class ValueType(str, Enum):
    INTEGER = "INTEGER"
    DECIMAL = "DECIMAL"
    TEXT = "TEXT"
    BOOLEAN = "BOOLEAN"
    DATE = "DATE"

    def __str__(self) -> str:  # manifest/plan rendering
        return self.value


class RawCell(str):
    """Unparsed cell text staged for repair by the cleansing stage."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"RawCell({str.__repr__(self)})"


def is_identifier(name: str) -> bool:
    return bool(IDENT_RE.match(name))


def make_decimal(value: int | str | Decimal) -> Decimal:
    """Quantize onto the 4-fractional-digit grid (half-even ties)."""
    try:
        return Decimal(value).quantize(DEC4, rounding=ROUND_HALF_EVEN)
    except InvalidOperation as exc:
        raise ValueError(f"decimal out of range: {value!r}") from exc


def value_tag(value: object) -> ValueType | None:
    """Type tag of a cell, or None for Null. Raw cells tag as TEXT."""
    if value is None:
        return None
    if isinstance(value, bool):  # bool is an int subclass, test first
        return ValueType.BOOLEAN
    if isinstance(value, int):
        return ValueType.INTEGER
    if isinstance(value, Decimal):
        return ValueType.DECIMAL
    if isinstance(value, str):
        return ValueType.TEXT
    if isinstance(value, date):
        return ValueType.DATE
    raise TypeError(f"not a cell value: {value!r}")


# the types whose values <, <=, >, >=, MIN and MAX order
ORDERED_TYPES = (ValueType.INTEGER, ValueType.DECIMAL, ValueType.TEXT, ValueType.DATE)


def coerce_literal(value, vtype: ValueType):
    """A literal as a value of ``vtype``: INTEGER widens to DECIMAL, ISO date
    TEXT becomes a DATE, and any other mismatch, Null too, is a ValueError."""
    tag = value_tag(value)
    if tag is vtype:
        return value
    if vtype is ValueType.DECIMAL and tag is ValueType.INTEGER:
        return make_decimal(value)
    if vtype is ValueType.DATE and tag is ValueType.TEXT:
        try:
            return parse_iso_date(value)
        except ValueError:
            raise ValueError(f"{value!r} is not a valid date literal") from None
    raise ValueError(f"literal {value!r} does not match type {vtype.value}")


def _int64(text: str) -> int:
    n = int(text)
    if not INT64_MIN <= n <= INT64_MAX:
        raise ValueError(f"{text} is outside the 64-bit range")
    return n


# the grammar's match and the parse of a matching text, which raises ValueError for a value the type cannot hold
_GRAMMARS = {
    ValueType.INTEGER: (_INT_RE.match, _int64),
    ValueType.DECIMAL: (_DEC_RE.match, make_decimal),
    ValueType.DATE: (_ISO_DATE_RE.match, date.fromisoformat),
}


def cell_converter(vtype: ValueType) -> Callable[[str], object]:
    """The one grammar of ``vtype``, as a function of a field's text: empty
    text is Null, text of the type is its value (a 64-bit INTEGER, a DECIMAL
    of at most four fractional digits, a BOOLEAN in any letter case, an ISO
    DATE), and any other text becomes a ``RawCell``."""
    if vtype is ValueType.TEXT:
        return lambda text: text or None
    if vtype is ValueType.BOOLEAN:

        def convert(text, literals=_BOOLEANS):
            value = literals.get(text.lower())
            if value is not None:
                return value
            return RawCell(text) if text else None

        return convert
    match, parse = _GRAMMARS[vtype]

    def convert(text):
        if match(text):
            try:
                return parse(text)
            except ValueError:
                pass
        elif not text:
            return None
        return RawCell(text)

    return convert


# per type, its grammar over LF-ended lines (None: the pass checks each text), and one C-level pass that converts texts
_BATCH = {
    ValueType.TEXT: (None, lambda texts: texts),
    ValueType.BOOLEAN: (None, lambda texts: map(_BOOLEANS.__getitem__, map(str.lower, texts))),
    ValueType.INTEGER: (re.compile(rf"(?:{_INT}\n)*\Z"), lambda texts: map(int, texts)),
    ValueType.DECIMAL: (re.compile(rf"(?:{_DEC}\n)*\Z"), lambda texts: map(Decimal.quantize, map(Decimal, texts), [DEC4] * len(texts))),
    ValueType.DATE: (re.compile(rf"(?:{_ISO_DATE}\n)*\Z"), lambda texts: map(date.fromisoformat, texts)),
}


def convert_all(vtype: ValueType, texts: set[str]) -> Iterator[tuple[str, object]] | None:
    """(text, cell) for each distinct non-empty field text, as ``cell_converter`` types it: one match checks
    every text against the grammar, then one C-level pass converts them. None if a text does not parse."""
    lines, convert = _BATCH[vtype]
    try:  # a date the calendar lacks, a decimal wider than the context, or a word not a BOOLEAN literal, raises
        cells = list(convert(texts)) if not lines or lines.match("\n".join([*texts, ""])) else None
    except (ValueError, ArithmeticError, KeyError):
        return None
    if cells is None or vtype is ValueType.INTEGER and cells and not INT64_MIN <= min(cells) <= max(cells) <= INT64_MAX:
        return None
    return zip(texts, cells)


def parse_iso_date(text: str) -> date:
    if not _ISO_DATE_RE.match(text):
        raise ValueError(f"not an ISO date: {text!r}")
    return date.fromisoformat(text)


def parse_date_flexible(text: str, priority: tuple[str, ...]) -> date | None:
    """Try each format in ``priority`` order; None if none fits.

    Formats: ``iso`` (YYYY-MM-DD), ``day_first`` (D/M/YYYY), ``month_first``
    (M/D/YYYY), ``month_name`` ("Month D, YYYY"). Surrounding whitespace is
    ignored; the first format that yields a real calendar date wins.
    """
    text = text.strip()
    for fmt in priority:
        if fmt == "iso":
            try:
                return parse_iso_date(text)
            except ValueError:
                continue
        m = None
        if fmt in ("day_first", "month_first"):
            m = _NUMERIC_DATE_RE.match(text)
            if not m:
                continue
            a, b, y = (int(g) for g in m.groups())
            day, month = (a, b) if fmt == "day_first" else (b, a)
        elif fmt == "month_name":
            m = _MONTH_NAME_DATE_RE.match(text)
            if not m:
                continue
            month = _MONTHS.get(m.group(1).lower())
            if month is None:
                continue
            day, y = int(m.group(2)), int(m.group(3))
        else:
            raise ValueError(f"unknown date format name: {fmt!r}")
        try:
            return date(y, month, day)
        except ValueError:
            continue
    return None


def decimal_text(d: Decimal) -> str:
    """Canonical minimal rendering: quantized, trailing zeros stripped."""
    s = format(d.quantize(DEC4, rounding=ROUND_HALF_EVEN), "f")
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    if s in ("-0", ""):
        s = "0"
    return s


# render_cell by the cell's exact class. A subclass (RawCell, datetime) takes
# the isinstance chain; None and bool cannot be subclassed, so it omits them.
CELL_TEXT = {
    type(None): lambda value: "",
    bool: lambda value: "true" if value else "false",
    int: str,
    Decimal: decimal_text,
    str: str,
    date: date.isoformat,
}


def render_cell(value: object) -> str:
    """Canonical text form of a cell (Null renders as the empty string)."""
    render = CELL_TEXT.get(value.__class__)
    if render is not None:
        return render(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        return decimal_text(value)
    if isinstance(value, str):
        return value
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"not a cell value: {value!r}")
