"""The one CSV dialect used everywhere: comma, double-quote with ``""``
escape, UTF-8, a header in every file but a column file. No other module
knows how a field is quoted or where a record ends.

A hand-rolled parser instead of the csv module for one reason: the
dialect distinguishes a bare empty field (Null) from a quoted empty
field (empty text), and stdlib readers erase that distinction. The
parser reads each field with one compiled pattern, reports a ``quoted``
flag per field and accepts LF, CRLF, and CR line ends; embedded
newlines inside quoted fields are preserved.
Source, staging table and dirt ledger files are read by ``iter_records``,
which splits lines with no quote and no CR on commas and hands any other
record to the parser (``parse_csv`` is the whole-text reference it is
tested against); a warehouse column file that is not ``is_bare`` by
``parse_column``; and a quarantine file's records by ``split_records``.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import ValidationError

# a quoted field, where (?!") keeps a doubled quote at the end of the input unterminated, or
# an unquoted one, which does not start with a quote; no match is an unterminated quoted field
_FIELD = re.compile(r'"([^"]*(?:""[^"]*)*)"(?!")|(?!")[^,\r\n]*')
NEEDS_QUOTES = re.compile(r'[,"\r\n]').search

Field = tuple[str, bool]  # (text, was_quoted)
_UNTERMINATED = "unterminated quoted field"  # the fault of a quoted field that the input ends inside


def parse_record(text: str, pos: int) -> tuple[list[Field], int]:
    """Parse the record at offset ``pos`` of ``text``. Return its fields and
    the offset just past its line end; the fields are empty at the end of
    the input and for a blank line."""
    fields: list[Field] = []
    n = len(text)
    if pos < n and text[pos] in "\r\n":
        return fields, pos + (2 if text.startswith("\r\n", pos) else 1)
    while pos < n:
        m = _FIELD.match(text, pos)
        if m is None:
            raise ValidationError(f"{_UNTERMINATED} at offset {pos}")
        fields.append((m[0], False) if m[1] is None else (m[1].replace('""', '"'), True))
        pos = m.end()
        if pos >= n:
            break
        ch = text[pos]
        if ch == ",":
            pos += 1
            if pos >= n:  # input ends on a separator: one last empty field
                fields.append(("", False))
            continue
        if ch in "\r\n":
            pos += 2 if text.startswith("\r\n", pos) else 1
            return fields, pos
        raise ValidationError(f"expected separator after quoted field at offset {pos}")
    return fields, pos


def parse_csv(text: str) -> list[list[Field]]:
    records: list[list[Field]] = []
    pos = 0
    while pos < len(text):
        fields, pos = parse_record(text, pos)
        if fields:
            records.append(fields)
    return records


def iter_records(text: str) -> Iterator[tuple[list[str], list[bool] | None]]:
    """The records of ``parse_csv(text)`` as (field texts, quoted flags).

    A line holding no ``"`` and no ``\\r`` is one record (or, when empty,
    a skipped blank line), split on commas, with flags None: no field is
    quoted. Any other line starts a record that ``parse_record`` reads
    from that line's offset, however many lines it spans; the split
    resumes at the next line start after it.
    """
    lines = text.split("\n")
    n = len(text)
    i = start = 0  # the current line and its offset in text
    while i < len(lines):
        line = lines[i]
        if '"' not in line and "\r" not in line:
            if line:
                yield line.split(","), None
            start += len(line) + 1
            i += 1
            continue
        pos = start
        while True:
            fields, pos = parse_record(text, pos)
            if fields:
                yield [t for t, _ in fields], [q for _, q in fields]
            if pos >= n:
                return
            while start + len(lines[i]) < pos:  # line i ends before pos
                start += len(lines[i]) + 1
                i += 1
            if start == pos:
                break  # the record ended at a line end (a lone CR may not)


def is_bare(text: str) -> bool:  # LF-ended lines free of quote, CR and comma
    return text.endswith("\n") and '"' not in text and "\r" not in text and "," not in text


def parse_column(text: str) -> list[Field]:
    """The fields of a column file, one per LF, CRLF or CR ended line; a
    blank line is a bare empty field. A line that is not one field and its
    line end, or a bare field holding a quote, is a ``ValidationError``."""
    fields: list[Field] = []
    pos = 0
    while pos < len(text):
        fault = "is not one field and a line end"
        try:
            record, pos = parse_record(text, pos)
        except ValidationError as exc:
            if str(exc).startswith(_UNTERMINATED):
                fault = f"is an {_UNTERMINATED}"
            record = None
        if record is None or len(record) > 1 or text[pos - 1] not in "\r\n" or any('"' in t for t, q in record if not q):
            raise ValidationError(f"field {len(fields) + 1} {fault}")
        fields += record or [("", False)]  # a blank line is a bare empty field
    return fields


def split_records(text: str) -> list[str]:
    """The records of ``text``, ``format_row`` output ended by LF, without
    their line ends: a line leaving an odd number of quotes open is joined
    to the next, as a quoted field holds the line end. Text that ends
    inside a quoted field is a ``ValidationError``."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final line end
    records: list[str] = []
    quoted = False  # whether the last record ends inside a quoted field
    for line in lines:
        records.append(records.pop() + "\n" + line if quoted else line)
        quoted ^= line.count('"') % 2 == 1
    if quoted:
        raise ValidationError(_UNTERMINATED)
    return records


def format_field(text: str, force_quote: bool = False) -> str:
    if force_quote or NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_row(fields: list[Field]) -> str:
    return ",".join(format_field(t, q) for t, q in fields)
