"""The typed table codec: ``decode_table`` and ``decode_column`` against
the reference composition ``parse_csv`` + ``parse_cell``,
``render_table_csv`` against ``format_row`` + ``render_cell``, and round
trips through the staging dump and the warehouse."""

from __future__ import annotations

import tempfile
from dataclasses import replace
from datetime import date
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from test_cli import _files, _run
from test_golden import _digests
from uwh.csvio import format_row, parse_csv
from uwh.errors import IntegrityError, ValidationError
from uwh.ingest import extract_table
from uwh.plan import parse_plan
from uwh.schema import ColumnDef, ForeignKey, Table, TableSchema
from uwh.staging import (
    QRow,
    StagingArea,
    decode_column,
    decode_table,
    dump_staging,
    dumps_staging,
    load_staging,
    parse_cell,
    render_table_csv,
)
from uwh.transform import execute_plan
from uwh.values import INT64_MAX, INT64_MIN, RawCell, ValueType, make_decimal, render_cell
from uwh.warehouse import Measure, StarQuery, load, open_warehouse, star_query

TS = "2026-01-01T00:00:00Z"
NAMES = ("a", "b", "c", "d")


def _schema(types, nullable=None) -> TableSchema:
    nullable = nullable or [True] * len(types)
    columns = tuple(ColumnDef(n, t, z) for n, t, z in zip(NAMES, types, nullable))
    return TableSchema("t", columns, (NAMES[0],))


def _typed(rows) -> list[list[tuple[type, object]]]:
    return [[(type(v), v) for v in row] for row in rows]


def _reference_decode(data: bytes, schema: TableSchema) -> list[tuple]:
    """What the staging table reader did before the typed codec: parse the
    whole text, then each cell with the reference ``oracles.parse_cell``.
    Every fault is a ``ValidationError``."""
    try:
        records = parse_csv(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ValidationError(str(exc)) from exc
    if not records or [t for t, _ in records[0]] != list(schema.column_names):
        raise ValidationError("header")
    rows = []
    for rec in records[1:]:
        if len(rec) != len(schema.columns):
            raise ValidationError("arity")
        rows.append(tuple(oracles.parse_cell(t, q, c.type) for (t, q), c in zip(rec, schema.columns)))
    return rows


def _outcome(fn, *args):
    try:
        return "rows", _typed(fn(*args))
    except (ValidationError, IntegrityError) as exc:
        return "error", type(exc)


# --- decode: differential against parse_csv + parse_cell ---------------------

_TEXT_CHARS = st.sampled_from(list('ab Z,"\r\n\t-.+:é0123456789'))

# texts at the edges of each type's grammar: out of range, 5 fractional
# digits, impossible dates, letter case
_EDGE_TEXTS = {
    ValueType.INTEGER: [
        "0", "-0", "+7", "007", str(INT64_MAX), str(INT64_MIN), str(INT64_MAX + 1), str(INT64_MIN - 1),
        "12x", " 5", "1_0", "\u0663", "1.0",
    ],
    ValueType.DECIMAL: [
        "0", "-0", "+3.5", "1.2345", "1.23456", "-0.00001", "4.", ".5", "1e3", "9" * 24, "9" * 30, "-12.0000", "NaN",
    ],
    ValueType.DATE: ["2012-02-29", "2013-02-29", "2012-13-01", "0000-01-01", "2012-2-29", "12/01/2012", "2012-01-01T0"],
    ValueType.BOOLEAN: ["true", "false", "TRUE", "False", "tRuE", "yes", "0", "truee", " true"],
    ValueType.TEXT: ["x", " ", "NULL", "\t"],
}

_VALUE_TEXT = {
    ValueType.INTEGER: st.one_of(st.integers(INT64_MIN, INT64_MAX).map(str), st.sampled_from(_EDGE_TEXTS[ValueType.INTEGER])),
    ValueType.DECIMAL: st.one_of(
        st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**9, max_value=10**9).map(str),
        st.sampled_from(_EDGE_TEXTS[ValueType.DECIMAL]),
    ),
    ValueType.DATE: st.one_of(
        st.dates().map(date.isoformat),
        st.builds("{:04d}-{:02d}-{:02d}".format, st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32)),
        st.sampled_from(_EDGE_TEXTS[ValueType.DATE]),
    ),
    ValueType.BOOLEAN: st.sampled_from(_EDGE_TEXTS[ValueType.BOOLEAN]),
    ValueType.TEXT: st.text(_TEXT_CHARS, max_size=6),
}


def _field(vtype: ValueType):
    """A field as it may appear in a file: any text of or near the
    column's type, bare or quoted, so bare fields may hold quotes and
    separators too."""
    text = st.one_of(_VALUE_TEXT[vtype], st.text(_TEXT_CHARS, max_size=6))
    return st.one_of(text, text.map(lambda t: '"' + t.replace('"', '""') + '"'))


@st.composite
def _csv_files(draw):
    types = draw(st.lists(st.sampled_from(list(ValueType)), min_size=1, max_size=4))
    k = len(types)
    header = list(NAMES[:k])
    if draw(st.integers(0, 9)) == 0:
        header[draw(st.integers(0, k - 1))] = "x"
    lines = [",".join(draw(st.sampled_from([h, f'"{h}"'])) for h in header)]
    # a small pool of field texts per column, so texts repeat down a column
    # and the decoder's per-column memo is hit, unparsable and empty texts too
    pools = [draw(st.lists(st.one_of(_field(t), st.sampled_from(["", '""'])), min_size=1, max_size=3)) for t in types]
    for _ in range(draw(st.integers(0, 5))):
        arity = draw(st.sampled_from([k] * 8 + [k - 1, k + 1]))
        lines.append(",".join(draw(st.sampled_from(pools[i % k])) for i in range(arity)))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n", "\r\n\r\n", "\n\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return _schema(types), data


@settings(max_examples=400, deadline=None)
@given(_csv_files())
@example((_schema([ValueType.TEXT, ValueType.TEXT]), b'a,b\nx"y,"c\nd"\n'))
@example((_schema([ValueType.INTEGER, ValueType.TEXT]), b'a,b\r1,""\r\r2,\n'))
def test_decode_matches_parse_csv_and_parse_cell(case):
    schema, data = case
    expected = _outcome(_reference_decode, data, schema)
    assert _outcome(lambda: decode_table(data, "t.csv", schema).rows) == expected


@st.composite
def _column_files(draw):
    """A column file of one type's fields, each bare or quoted and ended by
    LF, CRLF or CR, and the cells ``oracles.parse_cell`` reads from them;
    None when the file holds a fault: a field that does not parse, a comma
    after a field, or a byte that is not UTF-8."""
    vtype = draw(st.sampled_from(list(ValueType)))
    texts = draw(st.lists(st.one_of(_VALUE_TEXT[vtype], st.sampled_from(["", "x"])), max_size=5))
    data, cells = b"", []
    for text in texts:
        # a field that holds a comma, a quote or a line end is quoted
        quoted = bool(set(text) & set(',"\r\n')) or draw(st.booleans())
        field = '"' + text.replace('"', '""') + '"' if quoted else text
        if draw(st.integers(0, 19)) == 0:
            field, cells = field + ",x", None
        # after a CR, an empty field ended by LF would make a CRLF
        ends = ["\r\n", "\r"] if field == "" and data.endswith(b"\r") else ["\n", "\r\n", "\r"]
        data += (field + draw(st.sampled_from(ends))).encode("utf-8")
        cell = oracles.parse_cell(text, quoted, vtype)
        if cells is not None:
            cells = None if isinstance(cell, RawCell) else cells + [cell]
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data, cells = data[:at] + b"\xff" + data[at:], None
    return vtype, data, cells


@settings(max_examples=400, deadline=None)
@given(_column_files())
@example((ValueType.TEXT, b'""\n\n"a\r\nb"\r', ["", None, "a\r\nb"]))
@example((ValueType.INTEGER, b'""\n', None))
def test_decode_column_matches_parse_cell(case):
    """A warehouse column file reads as ``parse_cell`` reads each field,
    and a cell that does not parse is an error, as is any other fault."""
    vtype, data, cells = case
    expected = ("error", IntegrityError) if cells is None else ("rows", _typed([cells]))
    assert _outcome(lambda: [decode_column(data, "t.col", vtype)]) == expected


# texts that int, Decimal or date.fromisoformat accept but the grammar
# refuses, and one the grammar matches but fromisoformat refuses
_LENIENT = ["1_000", " 7", "\u0663", "1e5", "NaN", "Infinity", "20240101", "2024-02-30"]
_SIGN = st.sampled_from(["", "-", "+"])
_BARE_TEXT = {
    ValueType.INTEGER: st.one_of(
        st.builds("{}{}".format, _SIGN, st.integers(0, 10**20)),
        st.sampled_from([str(INT64_MAX), str(INT64_MIN), str(INT64_MAX + 1), "12345678901234567890"]),
    ),
    # up to 20 integer digits and up to 5 fractional ones, one more than the grammar allows
    ValueType.DECIMAL: st.builds("{}{}{}".format, _SIGN, st.integers(0, 10**20), st.from_regex(r"(\.[0-9]{1,5})?", fullmatch=True)),
    ValueType.DATE: st.one_of(st.dates().map(date.isoformat), st.builds("{:04d}-{:02d}-{:02d}".format, st.integers(0, 9999), st.integers(0, 13), st.integers(0, 32))),
    ValueType.TEXT: st.text(st.sampled_from(list("ab Z\t-.+:é09")), min_size=1, max_size=6),
    # a case-insensitive regex matches ſ (long s) as s, but lower() keeps it, so "falſe" is raw
    ValueType.BOOLEAN: st.one_of(
        st.sampled_from(_EDGE_TEXTS[ValueType.BOOLEAN]), st.text(st.sampled_from(list("truefalsTRUEFALSſ")), min_size=1, max_size=6)
    ),
}


@st.composite
def _bare_column_files(draw):
    """A bare column file (no quote, CR or comma; each line ended by LF)
    of one type, with Null lines and texts at the edge of its grammar."""
    vtype = draw(st.sampled_from(list(_BARE_TEXT)))
    texts = st.one_of(_BARE_TEXT[vtype], st.just(""), st.sampled_from(_LENIENT))
    return vtype, "".join(t + "\n" for t in draw(st.lists(texts, max_size=8))).encode()


@settings(max_examples=500, deadline=None)
@given(_bare_column_files())
@example((ValueType.INTEGER, b"\n\n\n"))
@example((ValueType.DECIMAL, b"1.5\n\n-2\n1.5\n"))
@example((ValueType.INTEGER, b"7\n1_000\n"))
@example((ValueType.DATE, b"2024-02-29\n2024-02-30\n"))
@example((ValueType.BOOLEAN, "falſe\n".encode()))
@example((ValueType.BOOLEAN, "ſ\n".encode()))
@example((ValueType.BOOLEAN, b"TRUE\nfAlSe\n\n"))
def test_batch_typing_of_a_bare_column_follows_the_reference_grammar(case):
    """A bare column typed in one pass over its distinct texts
    (``convert_all``) gives the cells and cell classes that the reference
    ``oracles.parse_cell`` gives each line, and an ``IntegrityError``
    wherever a line is raw."""
    vtype, data = case
    cells = [oracles.parse_cell(line, False, vtype) for line in data.decode().split("\n")[:-1]]
    expected = ("error", IntegrityError) if any(isinstance(c, RawCell) for c in cells) else ("rows", _typed([cells]))
    assert _outcome(lambda: [decode_column(data, "t.col", vtype)]) == expected


@pytest.mark.parametrize("vtype", list(ValueType), ids=lambda t: t.value)
def test_decode_matches_parse_cell_on_edge_texts(vtype):
    texts = _EDGE_TEXTS[vtype]
    data = ("a\n" + "".join(f'{t}\n"{t}"\n' for t in texts) + '\n""\n').encode()
    schema = _schema([vtype])
    decoded = decode_table(data, "t.csv", schema).rows
    assert _typed(decoded) == _typed(_reference_decode(data, schema))
    assert len(decoded) == 2 * len(texts) + 1


_GRAMMAR_EDGES = ["", " 0", "-0", "+1", "9223372036854775808", "9" * 5000, "1.23456", "TRUE", "2011-02-30"]


def _edge_examples(test):
    for text in _GRAMMAR_EDGES:
        for quoted in (False, True):
            test = example(text=text, quoted=quoted)(test)
    return test


@pytest.mark.parametrize("vtype", list(ValueType), ids=lambda t: t.value)
@settings(max_examples=150, deadline=None)
@given(text=st.one_of(*_VALUE_TEXT.values(), st.text(max_size=8)), quoted=st.booleans())
@_edge_examples
def test_parse_cell_matches_the_reference_grammar(vtype, text, quoted):
    """The cell rule built on ``cell_converter`` gives the reference
    grammar's cell, class included: a RawCell is not a str."""
    got, want = parse_cell(text, quoted, vtype), oracles.parse_cell(text, quoted, vtype)
    assert (type(got), got) == (type(want), want)


def test_quote_inside_a_bare_field_does_not_open_a_quoted_one():
    # the record holds a"b and then a quoted field spanning two lines; a
    # quote-parity split would cut it after "c and fail
    schema = _schema([ValueType.TEXT, ValueType.TEXT])
    table = decode_table(b'a,b\na"b,"c\nd"\n1,2\n', "t.csv", schema)
    assert table.rows == [('a"b', "c\nd"), ("1", "2")]


@pytest.mark.parametrize(
    "data, words",
    [
        (b"a,b\n1,2,3\n", "row arity 3"),
        (b"a,c\n1,2\n", "header does not match"),
        (b"", "header does not match"),
        (b'a,b\n1,"2\n', "unterminated quoted field"),
        (b"a,b\n1,\xff\n", "not valid UTF-8"),
    ],
)
def test_decode_faults_name_the_file(data, words):
    schema = _schema([ValueType.INTEGER, ValueType.TEXT])
    with pytest.raises(ValidationError) as exc:
        decode_table(data, "t.csv", schema)
    assert str(exc.value).startswith("t.csv: ") and words in str(exc.value)


@pytest.mark.parametrize(
    "data, words",
    [
        (b"1\n1x\n", "does not parse as its declared type"),
        (b'1\n"1x"\n', "does not parse as its declared type"),
        (b"1\n2", "field 2 is not one field and a line end"),
        (b'1\n"2\n', "t.0.col: field 2 is an unterminated quoted field"),
        (b'"1"x\n', "field 1 is not one field and a line end"),
    ],
)
def test_decode_column_faults_name_the_file(data, words):
    # test_warehouse's tampered-relation cases cover the other faults through open
    with pytest.raises(IntegrityError) as exc:
        decode_column(data, "t.0.col", ValueType.INTEGER)
    assert str(exc.value).startswith("t.0.col: ") and words in str(exc.value)


# --- the per-column memo: hits convert as misses do --------------------------


def test_each_occurrence_of_a_bad_cell_is_a_raw_cell():
    schema = _schema([ValueType.INTEGER, ValueType.INTEGER], [False, True])
    table, stats, _ = extract_table(b"a,b\n1,9x\n2,9x\n3,9x\n", schema)
    assert stats.raw_cells == 3
    assert [type(row[1]) for row in table.rows] == [RawCell] * 3


def test_bare_empty_and_quoted_empty_stay_apart_in_one_column():
    schema = _schema([ValueType.INTEGER, ValueType.TEXT], [False, True])
    data = b'a,b\n1,\n2,""\n3,\n4,""\n5,x\n6,x\n'
    rows = decode_table(data, "t.csv", schema).rows
    assert rows == [(1, None), (2, ""), (3, None), (4, ""), (5, "x"), (6, "x")]


def test_equal_cells_of_a_column_are_one_object():
    decimals = decode_column(b"2.5\n2.5\n2.50\n", "t.1.col", ValueType.DECIMAL)
    dates = decode_column(b"2012-01-02\n2012-01-02\n2012-01-03\n", "t.2.col", ValueType.DATE)
    assert decimals[0] is decimals[1] and dates[0] is dates[1]
    assert decimals[2] == decimals[0] and dates[2] != dates[0]
    quoted = decode_table(b'a,b\n"2.5","x,y"\n"2.5","x,y"\n', "t.csv", _schema([ValueType.DECIMAL, ValueType.TEXT])).rows
    assert quoted[0][0] is quoted[1][0] and quoted[0][1] is quoted[1][1]


# --- render: against format_row + render_cell, and the round trip ------------


def _unparsable(vtype: ValueType):
    def fails(text: str) -> bool:
        try:
            oracles.parse_typed(text, vtype)
        except ValueError:
            return True
        return False

    return st.text(_TEXT_CHARS, max_size=6).filter(fails).map(RawCell)


_VALUES = {
    ValueType.INTEGER: st.integers(INT64_MIN, INT64_MAX),
    ValueType.DECIMAL: st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**12, max_value=10**12).map(make_decimal),
    ValueType.DATE: st.dates(),
    ValueType.BOOLEAN: st.booleans(),
    # no lone surrogates: every cell is decoded from UTF-8, which holds none
    ValueType.TEXT: st.text(st.one_of(_TEXT_CHARS, st.characters(exclude_categories=("Cs",))), max_size=8),
}


@st.composite
def _tables(draw):
    types = draw(st.lists(st.sampled_from(list(ValueType)), min_size=1, max_size=4))
    # every table needs a non-nullable primary key, so a one-column table
    # cannot hold a row that renders as a blank line
    nullable = [False] + [draw(st.booleans()) for _ in types[1:]]
    schema = _schema(types, nullable)
    cells = []
    for c in schema.columns:
        options = [_VALUES[c.type]]
        if c.type is not ValueType.TEXT:
            options.append(_unparsable(c.type))
        if c.nullable:
            options.append(st.none())
        cells.append(st.one_of(options))
    rows = draw(st.lists(st.tuples(*cells), max_size=6))
    return Table(schema, rows)


def _reference_render(table: Table) -> str:
    lines = [",".join(table.schema.column_names)]
    for row in table.rows:
        lines.append(format_row([(render_cell(v), isinstance(v, str) and render_cell(v) == "") for v in row]))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_tables())
def test_render_matches_format_row_and_decode_inverts_it(table):
    text = render_table_csv(table)
    assert text == _reference_render(table)
    decoded = decode_table(text.encode("utf-8"), "t.csv", table.schema)
    assert _typed(decoded.rows) == _typed(table.rows)


def test_render_of_a_foreign_value_raises_type_error():
    with pytest.raises(TypeError):
        render_table_csv(Table(_schema([ValueType.DECIMAL]), [(1.5,)]))


def test_render_keeps_exact_types_apart():
    # bool before int, RawCell as text, Decimal on the 4-digit grid
    table = Table(
        _schema([ValueType.TEXT] * 4),
        [(True, 3, Decimal("2.5000"), RawCell("")), ("", None, date(2012, 1, 2), "a,b")],
    )
    assert render_table_csv(table) == 'a,b,c,d\ntrue,3,2.5,""\n"",,2012-01-02,"a,b"\n'
    # True == 1 == Decimal(1) and False == 0, with equal hashes, in one column, in either order
    for cells, fields in [
        ((True, 1, Decimal("1.0000"), False, 0), "true,1,1,false,0"),
        ((1, True, 0, False, Decimal("1.0000")), "1,true,0,false,1"),
        ((0, False, Decimal("1.0000"), 1, True), "0,false,1,1,true"),
    ]:
        column = Table(_schema([ValueType.INTEGER]), [(c,) for c in cells])
        assert [render_cell(c) for c in cells] == fields.split(",")
        assert render_table_csv(column) == "a\n" + fields.replace(",", "\n") + "\n"


_IN_PLACE_EDITS = {
    "assign-row": lambda t: t.rows.__setitem__(0, (9, "x")),
    "append": lambda t: t.rows.append((3, "z")),
    "delete": lambda t: t.rows.pop(),
    "reverse": lambda t: t.rows.reverse(),
    "new-rows": lambda t: setattr(t, "rows", [(9, "z")]),
    "renamed-column": lambda t: setattr(t, "schema", replace(t.schema, columns=(t.schema.columns[0], ColumnDef("e", ValueType.TEXT)))),
}


@pytest.mark.parametrize("edit", list(_IN_PLACE_EDITS))
@pytest.mark.parametrize("kept_by", ["load", "dump"])
def test_a_table_edited_after_its_bytes_were_kept_is_rendered_again(tmp_path, edit, kept_by):
    schema = _schema([ValueType.INTEGER, ValueType.TEXT], [False, True])
    staging = StagingArea({"t": Table(schema, [(1, "x"), (2, "y")])})
    dump_staging(staging, tmp_path / "st")  # keeps the bytes it rendered
    if kept_by == "load":
        staging = load_staging(tmp_path / "st")
    table = staging.tables["t"]
    assert staging.encoded["t"].encodes(table)
    _IN_PLACE_EDITS[edit](table)
    assert not staging.encoded["t"].encodes(table)
    assert dumps_staging(staging)["t.csv"] == render_table_csv(table).encode("utf-8")
    assert staging.encoded["t"].encodes(table)


# --- carriage returns survive every stage ------------------------------------

_CR_VALUES = ("Ann\r\nLee", "Bo\rKim", "\r")


def test_quoted_carriage_returns_survive_the_staging_dump(tmp_path):
    schema = _schema([ValueType.INTEGER, ValueType.TEXT], [False, True])
    staging = StagingArea({"t": Table(schema, [(i, v) for i, v in enumerate(_CR_VALUES)])})
    staging.add_quarantine("t", schema.column_names, [QRow("arity", ("9", "Cy\r\nDee\r", "x"))])
    dump_staging(staging, tmp_path / "st")
    again = load_staging(tmp_path / "st")
    assert again.tables["t"].rows == staging.tables["t"].rows
    assert again.quarantine == staging.quarantine


def test_invalid_utf8_staging_table_is_a_validation_error(tmp_path, capsys):
    from uwh.cli import run

    schema = _schema([ValueType.INTEGER, ValueType.TEXT], [False, True])
    dump_staging(StagingArea({"t": Table(schema, [(1, "x")])}), tmp_path / "st")
    (tmp_path / "st" / "t.csv").write_bytes(b"a,b\n1,\xff\n")
    oracles.resign_dump(tmp_path / "st")
    with pytest.raises(ValidationError, match="t.csv: not valid UTF-8"):
        load_staging(tmp_path / "st")
    assert run(["report", "--staging", str(tmp_path / "st")]) == 1
    err = capsys.readouterr().err
    assert "t.csv" in err and "Traceback" not in err


def test_invalid_utf8_quarantine_file_is_a_validation_error(tmp_path):
    schema = _schema([ValueType.INTEGER], [False])
    staging = StagingArea({"t": Table(schema, [(1,)])})
    staging.add_quarantine("t", schema.column_names, [QRow("arity", ("1", "2"))])
    dump_staging(staging, tmp_path / "st")
    (tmp_path / "st" / "quarantine" / "t.csv").write_bytes(b"_reason,a\narity,\xff\n")
    oracles.resign_dump(tmp_path / "st")
    with pytest.raises(ValidationError, match="quarantine/t.csv: not valid UTF-8"):
        load_staging(tmp_path / "st")


# quarantine fields as the writer writes them: bare, or quoted when empty
# or when they hold a comma, a quote or a line end
_QUARANTINE_FIELDS = ["", '""', "x", "a b", "é", '"a,b"', '"q"""', '"\r"', '"x\ny"', '"a\r\nb"', '""""', "TRUE"]


@st.composite
def _quarantine_files(draw):
    """A quarantine file as the writer writes it, but for a header that
    does not start with ``_reason``, a record whose quoted field is never
    closed, or a byte no UTF-8 text holds."""
    lines = [draw(st.sampled_from(["_reason,a,b"] * 6 + ["reason,a,b", "_reason"]))]
    for _ in range(draw(st.integers(0, 5))):
        reason = draw(st.sampled_from(["arity", "", '"r,1"', "orphan:fk", '"q"""']))
        fields = draw(st.lists(st.sampled_from(_QUARANTINE_FIELDS), min_size=0 if reason else 1, max_size=3))
        lines.append(",".join([reason, *fields]))
    if draw(st.integers(0, 9)) == 0:
        lines.append('arity,"1')
    data = "".join(line + "\n" for line in lines).encode("utf-8")
    if draw(st.integers(0, 19)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def quarantine_dump(tmp_path_factory):
    out = tmp_path_factory.mktemp("quarantine") / "st"
    dump_staging(StagingArea({"t": Table(_schema([ValueType.INTEGER], [False]), [(1,)])}), out)
    (out / "quarantine").mkdir()
    return out


@settings(max_examples=400, deadline=None)
@given(_quarantine_files())
@example(b'_reason,a,b\narity,1,""\n')
@example(b"_reason,a,b\narity,1,\n")
@example(b'_reason,a,b\narity,"x\ny",2\n"r,1","a\r\nb\n""c"""\n')
@example(b'_reason,a,b\narity,"1\n')
def test_a_quarantine_file_loads_and_dumps_as_the_parser_reads_it(quarantine_dump, data):
    """A signed quarantine file loads as its records, one per row, whose
    rows are the ones the whole-text parser reads, and dumps back to its
    bytes. A header that does not start with ``_reason``, a quoted field
    never closed, or invalid UTF-8 is a ``ValidationError``."""
    (quarantine_dump / "quarantine" / "t.csv").write_bytes(data)
    oracles.resign_dump(quarantine_dump)
    try:
        records = parse_csv(data.decode("utf-8"))
    except (UnicodeDecodeError, ValidationError):
        records = None
    if records is None or records[0][0] != ("_reason", False):
        with pytest.raises(ValidationError):
            load_staging(quarantine_dump)
        return
    q = load_staging(quarantine_dump).quarantine["t"]
    rows = [QRow(rec[0][0], tuple(t for t, _ in rec[1:])) for rec in records[1:]]
    assert q.columns == tuple(t for t, _ in records[0][1:])
    assert q.rows == rows and len(q) == len(rows)
    assert q.to_csv() == data


# quarantine texts: empty, and holding each character the writer quotes
_QUARANTINE_TEXTS = st.text(st.sampled_from(list('ab ,"\r\né')), max_size=4)
# a row with an empty reason and no fields renders an empty record, which
# a quarantine file cannot hold; no stage quarantines one
_QROWS = st.builds(QRow, _QUARANTINE_TEXTS, st.lists(_QUARANTINE_TEXTS, max_size=3).map(tuple)).filter(
    lambda row: row.reason or row.fields
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(_QROWS, max_size=4), min_size=1, max_size=3))
def test_quarantined_rows_survive_the_staging_dump(batches):
    staging = StagingArea({"t": Table(_schema([ValueType.INTEGER], [False]), [(1,)])})
    for batch in batches:
        staging.add_quarantine("t", ("a", "b"), batch)
    rows = [row for batch in batches for row in batch]
    q = staging.quarantine.get("t")
    assert (q is None) == (not rows)
    with tempfile.TemporaryDirectory() as tmp:
        dump_staging(staging, Path(tmp) / "st")
        again = load_staging(Path(tmp) / "st").quarantine.get("t")
    if q is None:
        assert again is None
        return
    assert q.rows == rows and len(q) == len(rows)
    assert again.rows == rows and len(again) == len(rows)
    assert again.to_csv() == q.to_csv() and again == q


# a table that holds raw cells, Null beside empty text, decimals and quoted
# CR, LF and CRLF, with a quarantine whose fields hold them too
_ODD_TABLE = Table(
    _schema([ValueType.INTEGER, ValueType.TEXT, ValueType.DECIMAL, ValueType.DATE], [False, True, True, True]),
    [(1, "a\r\nb", Decimal("2.5000"), RawCell("soon")), (2, "", None, None), (3, None, Decimal("-0.0001"), RawCell("")),
     (4, '"\r', Decimal("1"), date(2012, 1, 2)), (5, "\n", None, None)],
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_tables(), min_size=1, max_size=3), st.lists(st.lists(_QROWS, min_size=1, max_size=3), max_size=3))
@example([_ODD_TABLE], [[QRow("arity", ("1\r\n", '"', "")), QRow("type:d", ("5", "x\ny", "\r", ""))]])
def test_a_dump_loads_and_dumps_back_to_its_bytes(tables, quarantines):
    """A loaded dump keeps every table's bytes and dumps back to the same
    files, and each of those bytes is what rendering its rows gives."""
    staging = StagingArea({f"t{i}": Table(replace(t.schema, name=f"t{i}"), t.rows) for i, t in enumerate(tables)})
    for i, rows in enumerate(quarantines):
        staging.add_quarantine(f"t{i}", ("a", "b"), rows)
    with tempfile.TemporaryDirectory() as tmp:
        dump_staging(staging, Path(tmp) / "st")
        files = _files(Path(tmp) / "st")
        loaded = load_staging(Path(tmp) / "st")
    assert dumps_staging(loaded) == files
    for name, table in loaded.tables.items():
        data = render_table_csv(table).encode("utf-8")
        assert loaded.encoded[name].encodes(table) and loaded.encoded[name].data == data
        assert _typed(table.rows) == _typed(staging.tables[name].rows)
    assert loaded.quarantine == staging.quarantine


def test_add_quarantine_on_a_clone_leaves_the_original_as_it_was():
    staging = StagingArea({"t": Table(_schema([ValueType.INTEGER], [False]), [(1,)])})
    staging.add_quarantine("t", ("a",), [QRow("arity", ("1", "2"))])
    original = staging.quarantine["t"]
    records = list(original.records)
    clone = staging.clone()
    assert clone.quarantine["t"] is original
    clone.add_quarantine("t", ("a",), [QRow("orphan:fk", ("3",))])
    assert staging.quarantine["t"] is original and original.records == records and len(original) == 1
    assert len(clone.quarantine["t"]) == 2
    assert clone.quarantine["t"].rows == [QRow("arity", ("1", "2")), QRow("orphan:fk", ("3",))]
    clone.add_quarantine("t", ("a",), [])
    assert len(clone.quarantine["t"]) == 2


# characters str.splitlines breaks a line at, besides "\n"
_LINE_BREAKS = "\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", _LINE_BREAKS, ids=[f"U+{ord(b):04X}" for b in _LINE_BREAKS])
def test_statement_text_survives_the_staging_dump(tmp_path, brk):
    schema = _schema([ValueType.INTEGER, ValueType.TEXT], [False, True])
    staging = StagingArea({"t": Table(schema, [(1, "x")])})
    text = f"CLEAN t.b WITH null_standardize('N{brk}A') ;"
    out, report = execute_plan(staging, parse_plan(text), timestamp=TS)
    assert [s["statement"] for s in report["statements"]] == [text]
    dump_staging(out, tmp_path / "st")
    assert load_staging(tmp_path / "st").reports == out.reports


# what older dumps hold besides the files a dump writes now
_OLD_LINEAGE_LOGS = {
    "written": b"extract\tt\t1\t2026-01-01T00:00:00Z\t\t\tread=1 staged=1 rejected=0\n",
    "not-utf8": b"extract\tt\t1\tT\t\t\tread=\xff\n",
}


@pytest.mark.parametrize("log", list(_OLD_LINEAGE_LOGS))
def test_a_dump_with_a_lineage_log_is_read_without_it(tmp_path, capsys, seed42_cleansed, seed42_transformed, log):
    """``report`` and ``load`` ignore a ``lineage.log`` in a dump, and a stage
    that rewrites the dump in place leaves none."""
    plain, old = tmp_path / "plain", tmp_path / "old"
    for staging in (plain, old):
        dump_staging(seed42_transformed, staging)
    (old / "lineage.log").write_bytes(_OLD_LINEAGE_LOGS[log])
    for flags in ([], ["--json"]):
        reports = [_run(capsys, "report", "--staging", str(staging), *flags) for staging in (old, plain)]
        assert reports[0] == reports[1] and reports[0][0] == 0
    for staging in (plain, old):
        assert _run(capsys, "load", "--staging", str(staging), "--out", str(tmp_path / f"{staging.name}-wh"), "--timestamp", TS)[0] == 0
    assert _digests(tmp_path / "old-wh") == _digests(tmp_path / "plain-wh")

    cleansed = tmp_path / "cleansed"
    dump_staging(seed42_cleansed, cleansed)
    (cleansed / "lineage.log").write_bytes(_OLD_LINEAGE_LOGS[log])
    assert _run(capsys, "transform", "--staging", str(cleansed), "--timestamp", TS)[0] == 0
    assert not (cleansed / "lineage.log").exists()
    assert "transform" in load_staging(cleansed).reports


def test_quoted_carriage_returns_survive_the_warehouse(tmp_path, seed42_transformed):
    staging = seed42_transformed.clone()
    student = staging.tables["student"]
    name = student.schema.column_index("st_name")
    enrolled = {row[0] for row in staging.tables["transcript"].rows}  # tr_st_id
    rows = list(student.rows)
    victims = [i for i, row in enumerate(rows) if row[0] in enrolled][: len(_CR_VALUES)]
    for i, value in zip(victims, _CR_VALUES):
        rows[i] = rows[i][:name] + (value,) + rows[i][name + 1 :]
    staging.tables["student"] = Table(student.schema, rows)
    load(tmp_path / "wh", staging, timestamp=TS)
    handle = open_warehouse(tmp_path / "wh")
    assert handle.relation("student").rows == rows
    result = star_query(handle, StarQuery((Measure("COUNT", None),), ("st_name",)))
    assert set(_CR_VALUES) <= {row[0] for row in result.rows}


# --- the warehouse's column files: a round trip through load and open --------

# TEXT cells the general field grammar reads: separators, quotes and line
# ends, and empty text; the plain ones a column file holds bare
_ODD_TEXTS = st.one_of(st.none(), st.text(st.sampled_from(list('ab,"\r\n ')), max_size=5))
_PLAIN_TEXTS = st.one_of(st.none(), st.text(st.sampled_from(list("abz -.é")), min_size=1, max_size=5))


def _keyed(name: str, columns: list[tuple[str, ValueType]], parent: str | None) -> TableSchema:
    """``name`` with an INTEGER key ``<name>_id``, a key column into
    ``parent``'s, and ``columns``; without a parent, the key alone."""
    defs = [ColumnDef(f"{name}_id", ValueType.INTEGER)]
    fks: tuple = ()
    if parent is not None:
        defs.append(ColumnDef(f"{name}_{parent}", ValueType.INTEGER))
        fks = (ForeignKey((f"{name}_{parent}",), parent, (f"{parent}_id",)),)
    defs += [ColumnDef(c, t, True) for c, t in columns]
    return TableSchema(name, tuple(defs), (f"{name}_id",), fks)


@st.composite
def _snowflakes(draw) -> StagingArea:
    """A fact ``f`` over a one-column dimension ``d`` and six dimensions
    that hang from ``d``, the first of them with no rows."""
    fact = _keyed("f", [("f_plain", ValueType.TEXT), ("f_odd", ValueType.TEXT), ("f_num", ValueType.DECIMAL),
                        ("f_flag", ValueType.BOOLEAN), ("f_day", ValueType.DATE)], "d")
    cells = st.tuples(
        st.sampled_from([0, 1]),
        _PLAIN_TEXTS,
        _ODD_TEXTS,
        st.one_of(st.none(), st.decimals(places=4, min_value=-10**6, max_value=10**6, allow_nan=False)),
        st.one_of(st.none(), st.booleans()),
        st.one_of(st.none(), st.dates(min_value=date(1000, 1, 1))),
    )
    tables = {
        "f": Table(fact, [(n, *row) for n, row in enumerate(draw(st.lists(cells, max_size=6)))]),
        "d": Table(_keyed("d", [], None), [(0,), (1,)]),
    }
    for k in range(1, 7):
        name = f"c{k}"
        texts = [] if k == 1 else draw(st.lists(_ODD_TEXTS, max_size=3))
        tables[name] = Table(_keyed(name, [(f"{name}_text", ValueType.TEXT)], "d"), [(n, n % 2, t) for n, t in enumerate(texts)])
    return StagingArea(tables, fact_table="f", dimensions=[(name, f"{name}_id") for name in tables if name != "f"])


@settings(max_examples=60, deadline=None)
@given(staging=_snowflakes())
def test_column_files_give_back_the_rows_they_store(staging):
    with tempfile.TemporaryDirectory() as work:
        out = Path(work) / "wh"
        load(out, staging, timestamp=TS)
        handle = open_warehouse(out)
        for name, table in staging.tables.items():
            assert _typed(handle.relation(name).rows) == _typed(table.rows), name
        # f_plain is read by the split, f_odd by the field grammar once it holds a separator
        assert not set(b',"\r') & set((out / "f.2.col").read_bytes())
        odd = [row[3] for row in staging.tables["f"].rows]
        if any(v is not None and (v == "" or set(v) & set(',"\r\n')) for v in odd):
            assert b'"' in (out / "f.3.col").read_bytes()
