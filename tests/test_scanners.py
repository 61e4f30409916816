"""The two scanners, ``lexer.tokenize`` and ``csvio.parse_record``, against
character-dispatch references (``oracles``): the same tokens, fields, end
offsets and error texts on text drawn from the characters that decide a
token's or a field's end, including quotes doubled just before the end of
the input and non-ASCII digits, blanks and line breaks that neither
scanner accepts as its own. ``iter_records`` and ``parse_column`` are
compared with themselves running on the reference record parser."""

from __future__ import annotations

from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import parse_record_reference, tokenize_reference
from uwh import csvio
from uwh.csvio import iter_records, parse_column, parse_record
from uwh.errors import ParseError, ValidationError
from uwh.lexer import tokenize

# quotes single and doubled, separators, each line end, and U+0663 (an Arabic-Indic
# digit), U+0085 (NEL) and U+2028 (line separator), which str.isdigit, str.isspace
# and str.splitlines accept
_AWKWARD = ["'", "''", '"', '""', ",", "\r", "\n", "\r\n", "\u0663", "\x85", "\u2028"]
_TOKEN_PIECES = _AWKWARD + [" ", "\t", "a", "Z_", "9", "-", "--", ".", "<", ">", "=", ";", "(", "drop", "@"]
_CSV_PIECES = _AWKWARD + [" ", "a", "b"]


def _texts(pieces: list[str]):
    return st.lists(st.sampled_from(pieces), max_size=16).map("".join)


def _outcome(scan, *args):
    """What ``scan`` gives back, or the type and text of the fault it raises;
    a generator's items are collected up to the fault."""
    items: list = []
    try:
        result = scan(*args)
        if not isinstance(result, (list, tuple)):
            items.extend(result)
            result = items
        return result
    except (ParseError, ValidationError) as exc:
        return items, type(exc).__name__, str(exc)


def _on_reference_records(scan, text: str):
    with mock.patch.object(csvio, "parse_record", parse_record_reference):
        return _outcome(scan, text)


@given(_texts(_TOKEN_PIECES))
@example("'a''")
@example("'it''s' <= -1.5 --c\r\nx.y")
@settings(max_examples=600, deadline=None)
def test_tokenize_matches_the_reference(text):
    assert _outcome(tokenize, text) == _outcome(tokenize_reference, text)


@given(_texts(_CSV_PIECES), st.integers(0, 16))
@example('"ab""', 0)
@example('a,"b""c"\r\n"\r",', 0)
@settings(max_examples=600, deadline=None)
def test_parse_record_matches_the_reference(text, pos):
    pos = min(pos, len(text))
    assert _outcome(parse_record, text, pos) == _outcome(parse_record_reference, text, pos)


@given(_texts(_CSV_PIECES))
@example('"ab""')
@example('a,b\n"c""d",\r\n\n"e\rf"')
@settings(max_examples=400, deadline=None)
def test_iter_records_matches_the_reference(text):
    assert _outcome(iter_records, text) == _on_reference_records(iter_records, text)


@given(_texts(_CSV_PIECES))
@example('"ab""')
@example('a\n"b""c"\r\n\r"d\ne"\n')
@settings(max_examples=400, deadline=None)
def test_parse_column_matches_the_reference(text):
    assert _outcome(parse_column, text) == _on_reference_records(parse_column, text)
