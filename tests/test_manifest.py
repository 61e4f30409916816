from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwh import canonical
from uwh.errors import ManifestError
from uwh.manifest import parse_schema_manifest, render_manifest
from uwh.schema import ColumnDef, DatabaseSchema, ForeignKey, TableSchema, validate_schema
from uwh.values import ValueType


def test_single_table_manifest():
    db = parse_schema_manifest("TABLE item\n  item_id INTEGER PK\n  item_name TEXT\n")
    assert list(db.tables) == ["item"]
    item = db.tables["item"]
    assert item.column_names == ("item_id", "item_name")
    assert item.primary_key == ("item_id",)
    assert item.columns[0].type is ValueType.INTEGER


def test_comment_runs_to_the_newline():
    # "\x85" and U+2028 end a line for str.splitlines, not for the manifest
    db = parse_schema_manifest("TABLE a -- note\u2028x\r\n  id INTEGER PK -- old\x85y INTEGER\r\n")
    assert db.tables["a"].column_names == ("id",)


def test_missing_primary_key_reports_table_line():
    text = "-- comment\nTABLE t\n  a INTEGER\n"
    with pytest.raises(ManifestError) as exc:
        parse_schema_manifest(text)
    assert "missing primary key" in str(exc.value)
    assert exc.value.line == 2


def test_unknown_type_name():
    with pytest.raises(ManifestError) as exc:
        parse_schema_manifest("TABLE t\n  a FLOAT PK\n")
    assert "unknown type" in str(exc.value) and exc.value.line == 2


def test_dangling_fk_is_a_manifest_error():
    text = "TABLE receipt\n  re_id INTEGER PK\n  re_ac_id INTEGER FK account(ac_id)\n"
    with pytest.raises(ManifestError) as exc:
        parse_schema_manifest(text)
    assert "account" in str(exc.value)


def test_column_line_outside_table():
    with pytest.raises(ManifestError) as exc:
        parse_schema_manifest("  a INTEGER PK\n")
    assert exc.value.line == 1


def test_duplicate_table_rejected():
    with pytest.raises(ManifestError):
        parse_schema_manifest("TABLE t\n  a INTEGER PK\nTABLE t\n  b INTEGER PK\n")


def test_flag_order_is_fixed():
    with pytest.raises(ManifestError):
        parse_schema_manifest("TABLE t\n  a INTEGER NULL PK\n")


def test_canonical_manifest_parses_and_validates():
    db = parse_schema_manifest(canonical.canonical_schema_text())
    assert len(db.tables) == 14
    assert validate_schema(db) == []
    # every column the source SQL names is housed somewhere
    housed = {c for t in db for c in t.column_names}
    for name in [
        "co_name", "co_code", "se_num", "se_code", "tr_se_num", "re_dueDate",
        "re_dateOfPayment", "ac_supervisor", "st_phone", "st_email",
        "act_id", "act_name", "reg_act_id",
    ]:
        assert name in housed, name


def test_manifest_roundtrip_canonical():
    db = canonical.canonical_schema()
    again = parse_schema_manifest(render_manifest(db))
    assert again == db


def test_fk_target_with_a_space_inside_a_name_is_refused():
    # whitespace inside a name is not glued away: "ma jor(mj_ id)" is not major(mj_id)
    text = "TABLE major\n  mj_id INTEGER PK\nTABLE m\n  id INTEGER PK\n  m INTEGER FK ma jor(mj_ id)\n"
    with pytest.raises(ManifestError, match="bad FK target") as exc:
        parse_schema_manifest(text)
    assert exc.value.line == 5


def test_first_bad_line_wins_over_a_later_illegal_character():
    with pytest.raises(ManifestError, match="unknown type name 'FLOAT'") as exc:
        parse_schema_manifest("TABLE t\n  id FLOAT PK\n  a TEXT\n  b@ TEXT\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("space", ["\x0c", "\xa0"], ids=["form-feed", "nbsp"])
def test_any_whitespace_separates_words(space):
    db = parse_schema_manifest(f"TABLE{space}t\n  id{space}INTEGER PK{space}\n  a TEXT{space}NULL\n")
    assert db.tables["t"] == TableSchema(
        "t", (ColumnDef("id", ValueType.INTEGER), ColumnDef("a", ValueType.TEXT, True)), ("id",)
    )


@pytest.mark.parametrize("line", ["a integer PK", "a 'INTEGER' PK", "a INTEGER pk", "a INTEGER PK null"])
def test_type_names_and_flags_are_capitals(line):
    with pytest.raises(ManifestError) as exc:
        parse_schema_manifest(f"TABLE t\n  {line}\n")
    assert exc.value.line == 2


# keyword-spelled words are names; only a line's leading TABLE opens a block
_NAME_POOL = ["t", "st_id", "_x9", "date", "key", "group", "NULL", "PK", "FK", "table", "INTEGER"]


@st.composite
def _schemas(draw) -> DatabaseSchema:
    names = draw(st.lists(st.sampled_from(_NAME_POOL), min_size=1, max_size=3, unique=True))
    columns = {}
    for name in names:
        cols = [
            ColumnDef(c, draw(st.sampled_from(list(ValueType))), draw(st.booleans()))
            for c in draw(st.lists(st.sampled_from(_NAME_POOL), min_size=1, max_size=4, unique=True))
        ]
        columns[name] = [replace(cols[0], nullable=False)] + cols[1:]
    tables = {}
    for name, cols in columns.items():
        pk = tuple(c.name for i, c in enumerate(cols) if not c.nullable and (i == 0 or draw(st.booleans())))
        fks = []
        for c in cols:
            targets = [(t, tc.name) for t, tcs in columns.items() for tc in tcs if tc.type is c.type]
            target = draw(st.none() | st.sampled_from(targets))
            if target is not None:
                fks.append(ForeignKey((c.name,), target[0], (target[1],)))
        tables[name] = TableSchema(name, tuple(cols), pk, tuple(fks))
    return DatabaseSchema(tables)


@settings(max_examples=200, deadline=None)
@given(db=_schemas())
def test_manifest_roundtrip_with_crlf_line_ends(db):
    assert validate_schema(db) == []
    assert parse_schema_manifest(render_manifest(db).replace("\n", "\r\n")) == db
