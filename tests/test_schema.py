from __future__ import annotations

from datetime import date, datetime
from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import check_row_reference, orphan_rows_nested_loop
from test_reconcile_oracle import fk_graphs
from uwh import canonical
from uwh.schema import (
    ColumnDef,
    DatabaseSchema,
    ForeignKey,
    Table,
    TableSchema,
    check_referential_integrity,
    check_row,
    validate_schema,
)
from uwh.values import RawCell, ValueType, make_decimal


def _table(name, cols, pk, fks=()):
    return TableSchema(name, tuple(cols), tuple(pk), tuple(fks))


ITEM = _table("item", [ColumnDef("item_id", ValueType.INTEGER), ColumnDef("item_name", ValueType.TEXT)], ["item_id"])


def test_canonical_schema_has_fourteen_valid_tables():
    db = canonical.canonical_schema()
    assert len(db.tables) == 14
    assert validate_schema(db) == []


def test_dangling_foreign_key_is_diagnosed():
    receipt = _table(
        "receipt",
        [ColumnDef("re_id", ValueType.INTEGER), ColumnDef("re_ac_id", ValueType.INTEGER)],
        ["re_id"],
        [ForeignKey(("re_ac_id",), "account", ("ac_id",))],
    )
    diags = validate_schema(DatabaseSchema({"receipt": receipt}))
    assert any("receipt" in d.table and "account" in d.message for d in diags)


def test_duplicate_column_is_diagnosed():
    student = _table(
        "student",
        [ColumnDef("st_id", ValueType.INTEGER), ColumnDef("st_name", ValueType.TEXT), ColumnDef("st_name", ValueType.TEXT)],
        ["st_id"],
    )
    diags = validate_schema(DatabaseSchema({"student": student}))
    assert any(d.column == "st_name" and "duplicate" in d.message for d in diags)


def test_missing_primary_key_is_diagnosed():
    t = _table("t", [ColumnDef("a", ValueType.INTEGER, nullable=True)], [])
    assert any("missing primary key" in d.message for d in validate_schema(DatabaseSchema({"t": t})))


def test_fk_type_mismatch_is_diagnosed():
    a = _table("a", [ColumnDef("id", ValueType.INTEGER), ColumnDef("b_ref", ValueType.TEXT)], ["id"],
               [ForeignKey(("b_ref",), "b", ("id",))])
    b = _table("b", [ColumnDef("id", ValueType.INTEGER)], ["id"])
    diags = validate_schema(DatabaseSchema({"a": a, "b": b}))
    assert any("type mismatch" in d.message for d in diags)


def test_check_row_type_rejection_names_column():
    issue = check_row(ITEM, ("abc", "x"))
    assert issue is not None and issue.reason == "type" and issue.column == "item_id"


def test_check_row_accepts_conformant_row():
    assert check_row(ITEM, (1, "pen")) is None


def test_check_row_null_in_primary_key():
    issue = check_row(ITEM, (None, "pen"))
    assert issue is not None and issue.reason == "null-in-nonnullable" and issue.column == "item_id"


def test_check_row_arity():
    issue = check_row(ITEM, (1,))
    assert issue is not None and issue.reason == "arity"


def test_check_row_rejects_raw_cells():
    schema = _table("t", [ColumnDef("id", ValueType.INTEGER), ColumnDef("d", ValueType.DATE, nullable=True)], ["id"])
    issue = check_row(schema, (1, RawCell("31/12/2011")))
    assert issue is not None and str(issue) == "type:d"


def test_referential_integrity_reports_orphan_transcript():
    section = _table("section", [ColumnDef("se_num", ValueType.INTEGER)], ["se_num"])
    transcript = _table(
        "transcript",
        [ColumnDef("tr_st_id", ValueType.INTEGER), ColumnDef("tr_se_num", ValueType.INTEGER)],
        ["tr_st_id", "tr_se_num"],
        [ForeignKey(("tr_se_num",), "section", ("se_num",))],
    )
    tables = {
        "section": Table(section, [(1,)]),
        "transcript": Table(transcript, [(7, 1), (8, 99)]),
    }
    orphans = check_referential_integrity(tables)
    assert [(e.table, e.row_index) for e in orphans] == [("transcript", 1)]
    assert "section" in orphans[0].fk


def test_referential_integrity_empty_database():
    assert check_referential_integrity({}) == []


def test_null_fk_components_are_not_orphans():
    parent = _table("p", [ColumnDef("id", ValueType.INTEGER)], ["id"])
    child = _table(
        "c",
        [ColumnDef("id", ValueType.INTEGER), ColumnDef("p_ref", ValueType.INTEGER, nullable=True)],
        ["id"],
        [ForeignKey(("p_ref",), "p", ("id",))],
    )
    tables = {"p": Table(parent, [(1,)]), "c": Table(child, [(1, None), (2, 1)])}
    assert check_referential_integrity(tables) == []


def test_referential_integrity_matches_nested_loop_oracle(seed42_staging):
    got = {(e.table, e.fk, e.row_index) for e in check_referential_integrity(seed42_staging.tables)}
    assert got == orphan_rows_nested_loop(seed42_staging.tables)
    assert got, "seed-42 dirty staging should contain orphans before reconciliation"



def _check_targets(tables, targets):
    """The orphans restricted to ``targets`` are the full list's entries
    for the FKs into those tables, in the same order."""
    into = {fk.label(t.name): fk.target_table for t in tables.values() for fk in t.schema.foreign_keys}
    full = check_referential_integrity(tables)
    got = check_referential_integrity(tables, targets=set(targets))
    assert got == [e for e in full if into[e.fk] in targets]


def test_referential_integrity_targets_filter_seed42(seed42_staging):
    tables = seed42_staging.tables
    for targets in ([], ["student"], ["section", "course"], ["account", "activities", "item"], list(tables)):
        _check_targets(tables, targets)


@settings(max_examples=80)
@given(tables=fk_graphs(), data=st.data())
def test_referential_integrity_targets_filter_random_graphs(tables, data):
    _check_targets(tables, data.draw(st.lists(st.sampled_from(sorted(tables)), unique=True)))


_cells = {
    ValueType.INTEGER: st.integers(min_value=-(2**31), max_value=2**31),
    ValueType.TEXT: st.text(max_size=12),
    ValueType.DECIMAL: st.decimals(min_value=-1000, max_value=1000, places=2, allow_nan=False).map(make_decimal),
    ValueType.BOOLEAN: st.booleans(),
    ValueType.DATE: st.dates(min_value=date(1990, 1, 1), max_value=date(2030, 1, 1)),
}


# cells that do not conform to a column of each type; a Null does not conform
# to a non-nullable column, and a datetime is a date to value_tag
_misfits = {
    ValueType.INTEGER: st.booleans(),
    ValueType.TEXT: st.integers(0, 9),
    ValueType.DECIMAL: st.integers(-9, 9),
    ValueType.BOOLEAN: st.integers(0, 1),
    ValueType.DATE: st.datetimes(datetime(1990, 1, 1), datetime(2030, 1, 1)),
}


# the canonical schema has no BOOLEAN column
ALL_TYPES = _table(
    "all_types",
    [ColumnDef(f"{t.value.lower()}_{n}", t, n == "null") for t in ValueType for n in ("set", "null")],
    ["integer_set"],
)


@settings(max_examples=60)
@given(data=st.data())
def test_conformant_rows_always_pass_check_row(data):
    """Schemas that validate never reject rows drawn from their own types,
    and on any row, conformant or not, the compiled check_row gives the
    value_tag reference's verdict."""
    db = canonical.canonical_schema()
    assert validate_schema(db) == []
    for schema in [*db, ALL_TYPES]:
        row = tuple(
            data.draw(st.none() | _cells[c.type]) if c.nullable else data.draw(_cells[c.type])
            for c in schema.columns
        )
        assert check_row(schema, row) is None
        misfit = {c.name: st.none() | st.text(max_size=3).map(RawCell) | _misfits[c.type] for c in schema.columns}
        spoiled = tuple(data.draw(st.just(cell) | misfit[c.name]) for c, cell in zip(schema.columns, row))
        spoiled = data.draw(st.sampled_from((spoiled, spoiled[:-1], spoiled + (None,))))
        assert check_row(schema, spoiled) == check_row_reference(schema, spoiled)


def test_decimal_cells_compare_across_trailing_zeros():
    assert make_decimal("80") == Decimal("80.0000")
    t = Table(
        _table("g", [ColumnDef("id", ValueType.INTEGER), ColumnDef("v", ValueType.DECIMAL)], ["id"]),
        [(1, make_decimal("80")), (2, make_decimal("80.0000"))],
    )
    assert t.rows[0][1] == t.rows[1][1]
