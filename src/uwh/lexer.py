"""Tokenizer shared by plans, rules, schema manifests and query expressions.

Keywords are case-insensitive; identifiers keep their case. ``--``
comments run to end of line. String literals are single-quoted with
``''`` as the escape. One compiled pattern reads every token, blank run
and comment; every token carries its 1-based line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError

KEYWORDS = frozenset(
    {
        "DROP", "TABLE", "MERGE", "INTO", "ON", "KEEP", "ADD", "COLUMN", "AS",
        "REMOVE", "CLEAN", "WITH", "FACT", "DIMENSION", "KEY",
        "AND", "OR", "NOT", "TRUE", "FALSE", "NULL",
        "INTEGER", "DECIMAL", "TEXT", "BOOLEAN", "DATE",
        "COALESCE", "IS_NULL", "PAID_ON_DUE", "DIFFICULTY",
        "GROUP", "BY", "THRESHOLDS",
    }
)

# alternatives tried in order, <= before <; a string holds no LF, and (?!') keeps
# a doubled quote at the end of the input unterminated
_TOKEN = re.compile(
    r"""(?P<newline>\n) | [ \t\r]+ | --[^\n]*
    | '(?P<string>[^'\n]*(?:''[^'\n]*)*)'(?!')
    | (?P<number>-?[0-9]+(?:\.[0-9]+)?)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<symbol><=|>=|<>|[=<>;,().])""",
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # kw | ident | number | string | symbol | eof
    lexeme: str
    line: int
    column: int

    @property
    def norm(self) -> str:
        """Keyword-normalized lexeme (uppercased for keywords)."""
        return self.lexeme.upper() if self.kind == "kw" else self.lexeme

    def describe(self) -> str:
        if self.kind == "eof":
            return "end of input"
        return f"{self.kind} {self.lexeme!r}"


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN.match(text, pos)
        col = pos - line_start + 1
        if m is None:
            fault = "unterminated string literal" if text[pos] == "'" else f"illegal character {text[pos]!r}"
            raise ParseError(fault, line, col)
        pos = m.end()
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = pos
        elif kind == "string":
            tokens.append(Token(kind, m[kind].replace("''", "'"), line, col))
        elif kind == "word":
            tokens.append(Token("kw" if m[kind].upper() in KEYWORDS else "ident", m[kind], line, col))
        elif kind:
            tokens.append(Token(kind, m[kind], line, col))
    tokens.append(Token("eof", "", line, n - line_start + 1))
    return tokens
