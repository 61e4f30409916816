"""The one CSV dialect used everywhere: comma, double-quote with ``""``
escape, UTF-8, mandatory header.

A hand-rolled parser instead of the csv module for one reason: the
dialect distinguishes a bare empty field (Null) from a quoted empty
field (empty text), and stdlib readers erase that distinction. The
parser reports a ``quoted`` flag per field and accepts LF, CRLF, and CR
line ends; embedded newlines inside quoted fields are preserved.
"""

from __future__ import annotations

import re

from .errors import ValidationError

_UNQUOTED_END = re.compile(r"[,\r\n]")

Field = tuple[str, bool]  # (text, was_quoted)


def parse_csv(text: str) -> list[list[Field]]:
    records: list[list[Field]] = []
    fields: list[Field] = []
    pos = 0
    n = len(text)
    at_record_start = True
    while pos < n:
        ch = text[pos]
        if at_record_start and ch in "\r\n":
            # blank line: never produced by the writer, skip it
            pos += 2 if text.startswith("\r\n", pos) else 1
            continue
        at_record_start = False
        if ch == '"':
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
            records.append(fields)
            fields = []
            at_record_start = True
            continue
        raise ValidationError(f"expected separator after quoted field at offset {pos}")
    if fields:
        records.append(fields)
    return records


def format_field(text: str, force_quote: bool = False) -> str:
    if force_quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def format_row(fields: list[Field]) -> str:
    return ",".join(format_field(t, q) for t, q in fields)
