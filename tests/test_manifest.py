from __future__ import annotations

import pytest

from uwh import canonical
from uwh.errors import ManifestError
from uwh.manifest import parse_schema_manifest, render_manifest
from uwh.schema import validate_schema
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
