from __future__ import annotations

import json
from datetime import date

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import extract_table_reference
from uwh import canonical
from uwh.csvio import format_row, parse_csv
from uwh.errors import MissingInputError, UwhError, ValidationError
from uwh.ingest import extract_database, extract_table
from uwh.manifest import parse_schema_manifest
from uwh.schema import ColumnDef, TableSchema, check_row
from uwh.staging import dump_staging, load_staging, render_table_csv, staging_fingerprint
from uwh.values import RawCell, ValueType

ITEM_MANIFEST = "TABLE item\n  item_id INTEGER PK\n  item_name TEXT\n  item_category TEXT NULL\n"


def _item_schema():
    return parse_schema_manifest(ITEM_MANIFEST).tables["item"]


# --- dialect ----------------------------------------------------------------


def test_quoted_empty_differs_from_bare_empty():
    [row] = parse_csv('a,"",b\n')
    assert row == [("a", False), ("", True), ("b", False)]


def test_quote_escape_and_embedded_delimiters():
    [row] = parse_csv('"he said ""hi""","a,b","line\nbreak"\n')
    assert [t for t, _ in row] == ['he said "hi"', "a,b", "line\nbreak"]


def test_crlf_and_lf_parse_identically():
    assert parse_csv("a,b\r\n1,2\r\n") == parse_csv("a,b\n1,2\n")


def test_unterminated_quote_is_an_error():
    with pytest.raises(ValidationError):
        parse_csv('"abc\n')


def test_missing_final_newline():
    assert parse_csv("a,b") == [[("a", False), ("b", False)]]
    # a trailing separator at end of input still yields the empty field
    assert parse_csv("a,") == [[("a", False), ("", False)]]
    assert parse_csv('a,""') == [[("a", False), ("", True)]]


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.tuples(st.text(max_size=8), st.booleans()), min_size=1, max_size=5),
        min_size=1,
        max_size=6,
    )
)
def test_csv_roundtrip_property(rows):
    # rows whose every field is bare-empty encode as blank lines, which the
    # reader (correctly) skips; the writer never produces them from tables
    rows = [r for r in rows if any(t != "" or q for t, q in r)]
    decoded = parse_csv("".join(format_row(r) + "\n" for r in rows))
    assert [[t for t, _ in row] for row in decoded] == [[t for t, _ in row] for row in rows]
    # Null (bare empty) vs empty text (quoted empty) survives the round trip
    for drow, srow in zip(decoded, rows):
        for (_, dq), (stext, sq) in zip(drow, srow):
            if stext == "":
                assert dq == sq


def test_format_row_minimal_quoting():
    assert format_row([("plain", False), ("with,comma", False), ("", True), ("", False)]) == 'plain,"with,comma","",'


# --- extract_table ----------------------------------------------------------


def test_extract_three_conformant_rows():
    table, stats, quarantine = extract_table(
        b"item_id,item_name,item_category\n1,Pen,STATIONERY\n2,Ink,STATIONERY\n3,Clip,\n", _item_schema()
    )
    assert stats.rows_read == 3 and stats.rows_staged == 3 and stats.rows_rejected == 0
    assert table.rows[2] == (3, "Clip", None)
    assert not quarantine.rows


def test_extract_wrong_field_count_quarantines():
    table, stats, quarantine = extract_table(
        b"item_id,item_name,item_category\n1,Pen,X\n2,Ink\n3,Clip,Y\n", _item_schema()
    )
    assert stats.rows_staged == 2 and stats.rows_rejected == 1
    assert stats.reasons == {"arity": 1}
    assert quarantine.rows[0].reason == "arity"
    assert quarantine.rows[0].fields == ("2", "Ink")


def test_extract_crlf_equals_lf():
    lf, _, _ = extract_table(b"item_id,item_name,item_category\n1,Pen,X\n", _item_schema())
    crlf, _, _ = extract_table(b"item_id,item_name,item_category\r\n1,Pen,X\r\n", _item_schema())
    assert lf == crlf


def test_extract_header_any_order():
    table, _, _ = extract_table(b"item_name,item_id,item_category\nPen,1,X\n", _item_schema())
    assert table.rows == [(1, "Pen", "X")]


def test_extract_header_errors():
    with pytest.raises(ValidationError):
        extract_table(b"item_id,item_name\n", _item_schema())  # missing column
    with pytest.raises(ValidationError):
        extract_table(b"item_id,item_name,item_name,item_category\n", _item_schema())  # duplicate
    with pytest.raises(ValidationError):
        extract_table(b"item_id,item_name,item_category,extra\n", _item_schema())  # unknown


def test_extract_unparseable_cell_stages_raw():
    schema = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  day DATE NULL\n").tables["r"]
    table, stats, _ = extract_table(b"id,day\n1,31/12/2011\n2,2011-12-31\n", schema)
    assert stats.raw_cells == 1
    assert isinstance(table.rows[0][1], RawCell)
    assert table.rows[1][1] == date(2011, 12, 31)
    assert check_row(schema, table.rows[0]) is not None


def test_extract_counts_raw_cells_of_staged_rows_only():
    # row 1 has a raw date before its Null name, so it is quarantined and
    # its raw cell is not counted
    schema = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  day DATE NULL\n  name TEXT\n").tables["r"]
    table, stats, quarantine = extract_table(b"id,day,name\n1,31/12/2011,\n2,31/12/2011,x\n", schema)
    assert [row[0] for row in table.rows] == [2]
    assert len(quarantine.rows) == 1
    assert stats.raw_cells == 1


def test_extract_null_in_nonnullable_quarantines():
    table, stats, quarantine = extract_table(b"item_id,item_name,item_category\n1,,X\n", _item_schema())
    assert stats.rows_rejected == 1 and not table.rows
    assert quarantine.rows[0].reason.startswith("null-in-nonnullable")


def test_extract_quoted_empty_is_empty_text_not_null():
    table, stats, _ = extract_table(b'item_id,item_name,item_category\n1,"",X\n', _item_schema())
    assert table.rows == [(1, "", "X")]


def test_extract_non_utf8_is_hard_error():
    with pytest.raises(ValidationError):
        extract_table(b"item_id,item_name,item_category\n1,\xff,X\n", _item_schema())


# --- extract_table against the whole-text reference -------------------------

_NAMES = ("a", "b", "c", "d")
# texts each type accepts or rejects, bare empty (Null), and bare texts
# that hold a separator, a quote or a line end
_TEXTS = st.one_of(
    st.sampled_from(["", "0", "-7", "12x", "1.5", "2.12345", "2012-02-29", "2013-02-29", "true", "FALSE", "yes", "N/A"]),
    st.text(st.sampled_from(list('ab ,"\r\n')), max_size=4),
)


def _quoted(text: str) -> str:
    return '"' + text.replace('"', '""') + '"'


@st.composite
def _extract_cases(draw):
    k = draw(st.integers(1, 4))
    columns = tuple(
        ColumnDef(n, draw(st.sampled_from(list(ValueType))), draw(st.booleans())) for n in _NAMES[:k]
    )
    schema = TableSchema("t", columns, (_NAMES[0],))
    header = list(draw(st.permutations(_NAMES[:k])))
    fault = draw(st.sampled_from([None] * 12 + ["unknown", "duplicate", "missing"]))
    if fault == "unknown":
        header[draw(st.integers(0, k - 1))] = "x"
    elif fault == "duplicate":
        header.append(header[0])
    elif fault == "missing":
        header.pop()
    lines = [",".join(draw(st.sampled_from([h, _quoted(h)])) for h in header)]
    for _ in range(draw(st.integers(0, 6))):
        arity = draw(st.sampled_from([k] * 6 + [k - 1, k + 1]))
        fields = [draw(_TEXTS) for _ in range(arity)]
        lines.append(",".join(_quoted(t) if draw(st.booleans()) else t for t in fields))
    ends = st.sampled_from(["\n", "\r\n", "\r", "\n\n"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final line end
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xff" + data[at:]
    return schema, data


def _extraction(extract, source, schema):
    try:
        table, stats, quarantine = extract(source, schema)
    except UwhError as exc:
        return type(exc)
    typed = [[(type(v), v) for v in row] for row in table.rows]
    return typed, stats, quarantine


_PAIR = TableSchema("t", (ColumnDef("a", ValueType.INTEGER, False), ColumnDef("b", ValueType.TEXT, False)), ("a",))


@settings(max_examples=500, deadline=None)
@given(_extract_cases())
@example((_PAIR, b"b,a\n,1\nx,2x\n"))  # a Null in a permuted header: quarantine texts in schema order
@example((_PAIR, b'b,a\r\n"",\r\n"x\ny",3\r\n'))
def test_extract_matches_whole_text_reference(case):
    schema, source = case
    assert _extraction(extract_table, source, schema) == _extraction(extract_table_reference, source, schema)


# --- extract_database -------------------------------------------------------


def test_extract_database_seed42_matches_generator_rowcounts(seed42_src, seed42_extracted):
    staging, report = seed42_extracted
    assert len(staging.tables) == 14
    manifest = json.loads((seed42_src / "gen_manifest.json").read_text())
    for name, stats in report.tables.items():
        assert stats.rows_read == manifest["row_counts"][name], name
        assert stats.rows_read == stats.rows_staged + stats.rows_rejected
    assert staging.reports["extraction"]["tables"] == report.to_json_dict()


def test_extract_database_missing_table_file(tmp_path, seed42_src):
    import shutil

    src = tmp_path / "src"
    shutil.copytree(seed42_src, src)
    (src / "alumni.csv").unlink()
    with pytest.raises(MissingInputError) as exc:
        extract_database(src, canonical.canonical_schema())
    assert "alumni" in str(exc.value)


def test_extract_database_headers_only(tmp_path):
    db = canonical.canonical_schema()
    src = tmp_path / "src"
    src.mkdir()
    for name, schema in db.tables.items():
        (src / f"{name}.csv").write_text(",".join(schema.column_names) + "\n")
    staging, report = extract_database(src, db)
    assert len(staging.tables) == 14
    assert all(len(t.rows) == 0 for t in staging.tables.values())
    assert all(s.rows_read == 0 for s in report.tables.values())


def test_extraction_is_deterministic(seed42_src):
    db = canonical.canonical_schema()
    a, _ = extract_database(seed42_src, db, timestamp="T")
    b, _ = extract_database(seed42_src, db, timestamp="T")
    assert staging_fingerprint(a) == staging_fingerprint(b)


def test_staging_dump_roundtrip(tmp_path, seed42_staging):
    out = tmp_path / "dump"
    dump_staging(seed42_staging, out)
    again = load_staging(out)
    assert again.tables == seed42_staging.tables
    assert again.quarantine == seed42_staging.quarantine
    assert again.reports == seed42_staging.reports
    assert staging_fingerprint(again) == staging_fingerprint(seed42_staging)


def test_table_csv_roundtrip_preserves_raw_cells(seed42_staging):
    for name in ("student", "receipt"):
        table = seed42_staging.tables[name]
        text = render_table_csv(table)
        reloaded, stats, quarantine = extract_table(text.encode("utf-8"), table.schema)
        assert not quarantine.rows
        assert reloaded == table
