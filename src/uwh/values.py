"""Cell values and their canonical text forms.

Cells are plain Python objects: ``None``, ``int``, ``decimal.Decimal``,
``str``, ``bool``, and ``datetime.date``. Decimals live on a fixed-point
grid of four fractional digits; every parser and constructor here
quantizes onto that grid so sums and means never pick up binary drift.

A cell that fails its declared-type parse at extraction is kept as a
:class:`RawCell` (a ``str`` subclass) so the cleansing stage can still
repair it. Raw cells only ever appear in non-TEXT columns.
"""

from __future__ import annotations

import operator
import re
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

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_DEC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]{1,4})?\Z")
_ISO_DATE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}\Z")
_NUMERIC_DATE_RE = re.compile(r"([0-9]{1,2})[/-]([0-9]{1,2})[/-]([0-9]{4})\Z")
_MONTH_NAME_DATE_RE = re.compile(r"([A-Za-z]+)\s+([0-9]{1,2}),\s*([0-9]{4})\Z")

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


def parse_typed(text: str, vtype: ValueType):
    """Parse ``text`` as ``vtype``; raise ValueError if it does not conform."""
    if vtype is ValueType.TEXT:
        return text
    if vtype is ValueType.INTEGER:
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer literal: {text!r}")
        n = int(text)
        if not INT64_MIN <= n <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {text!r}")
        return n
    if vtype is ValueType.DECIMAL:
        if not _DEC_RE.match(text):
            raise ValueError(f"not a decimal literal: {text!r}")
        return make_decimal(text)
    if vtype is ValueType.BOOLEAN:
        low = text.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ValueError(f"not a boolean literal: {text!r}")
    if vtype is ValueType.DATE:
        return parse_iso_date(text)
    raise TypeError(f"unknown value type {vtype!r}")


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


def render_cell(value: object) -> str:
    """Canonical text form of a cell (Null renders as the empty string)."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Decimal):
        return decimal_text(value)
    if isinstance(value, str):
        return value
    if isinstance(value, date):
        return value.isoformat()
    raise TypeError(f"not a cell value: {value!r}")
