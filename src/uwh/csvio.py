"""The one CSV dialect used everywhere: comma, double-quote with ``""``
escape, UTF-8, mandatory header.

A hand-rolled parser instead of the csv module for one reason: the
dialect distinguishes a bare empty field (Null) from a quoted empty
field (empty text), and stdlib readers erase that distinction. The
parser reports a ``quoted`` flag per field and accepts LF, CRLF, and CR
line ends; embedded newlines inside quoted fields are preserved.
Every CSV read goes through ``iter_records``, which splits lines with no
quote and no CR on commas and hands any other record to the parser;
``parse_csv`` is the whole-text reference it is tested against.
"""

from __future__ import annotations

import re
from collections.abc import Iterator

from .errors import ValidationError

_UNQUOTED_END = re.compile(r"[,\r\n]")
NEEDS_QUOTES = re.compile(r'[,"\r\n]').search

Field = tuple[str, bool]  # (text, was_quoted)


def parse_record(text: str, pos: int) -> tuple[list[Field], int]:
    """Parse the record at offset ``pos`` of ``text``, skipping blank lines
    before it. Return its fields and the offset just past its line end;
    the fields are empty only at the end of the input."""
    fields: list[Field] = []
    n = len(text)
    while pos < n and text[pos] in "\r\n":
        # blank line: never produced by the writer, skip it
        pos += 2 if text.startswith("\r\n", pos) else 1
    while pos < n:
        if text[pos] == '"':
            i = pos + 1
            parts: list[str] = []
            while True:
                j = text.find('"', i)
                if j < 0:
                    raise ValidationError(f"unterminated quoted field at offset {pos}")
                parts.append(text[i:j])
                if text.startswith('""', j):
                    parts.append('"')
                    i = j + 2
                    continue
                pos = j + 1
                break
            fields.append(("".join(parts), True))
        else:
            m = _UNQUOTED_END.search(text, pos)
            end = m.start() if m else n
            fields.append((text[pos:end], False))
            pos = end
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


def format_field(text: str, force_quote: bool = False) -> str:
    if force_quote or NEEDS_QUOTES(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_row(fields: list[Field]) -> str:
    return ",".join(format_field(t, q) for t, q in fields)
