"""``reconcile_foreign_keys`` against the fixpoint of the nested-loop orphan
oracle, over random FK graphs: chains and diamonds of up to four tables,
composite FKs with Null components, and random orphans."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import orphan_rows_nested_loop
from uwh.cleanse import reconcile_foreign_keys
from uwh.schema import ColumnDef, ForeignKey, Table, TableSchema, check_referential_integrity
from uwh.staging import QRow, StagingArea
from uwh.values import ValueType, render_cell

# parents of each table, by position; every FK is (p_id, p_k) -> p(id, k)
SHAPES = {
    "chain2": [(), (0,)],
    "chain3": [(), (0,), (1,)],
    "chain4": [(), (0,), (1,), (2,)],
    "diamond3": [(), (0,), (0, 1)],
    "diamond4": [(), (0,), (0,), (1, 2)],
}

_INT = ValueType.INTEGER


@st.composite
def fk_graphs(draw):
    shape = SHAPES[draw(st.sampled_from(sorted(SHAPES)))]
    names = [f"t{i}" for i in range(len(shape))]
    tables: dict[str, Table] = {}
    for name, parents in zip(names, shape):
        columns = [ColumnDef("id", _INT), ColumnDef("k", _INT)]
        fks = []
        for p in parents:
            nullable = draw(st.booleans())
            columns += [ColumnDef(f"{names[p]}_id", _INT, nullable), ColumnDef(f"{names[p]}_k", _INT, nullable)]
            fks.append(ForeignKey((f"{names[p]}_id", f"{names[p]}_k"), names[p], ("id", "k")))
        schema = TableSchema(name, tuple(columns), ("id",), tuple(fks))
        ref = st.one_of(st.none(), st.integers(0, 4))
        n = draw(st.integers(0, 6))
        rows = []
        for i in range(n):
            row = [i, draw(st.integers(0, 1))]
            for c in columns[2:]:
                row.append(draw(ref if c.nullable else st.integers(0, 4)))
            rows.append(tuple(row))
        tables[name] = Table(schema, rows)
    return tables


def _oracle_fixpoint(tables: dict[str, Table]):
    """Quarantine the oracle's orphans round by round until none is left; a
    row's reason is the last of its orphaned FKs in declaration order.
    Returns the tables, the quarantine rows, the number of rounds, and per
    orphaned FK the rows it quarantined (by reason)."""
    tables = dict(tables)
    quarantine: dict[str, list[QRow]] = {}
    per_fk: dict[str, dict] = {}
    rounds = 0
    while True:
        orphans = orphan_rows_nested_loop(tables)
        if not orphans:
            return tables, quarantine, rounds, per_fk
        rounds += 1
        for _, label, _ in orphans:
            per_fk.setdefault(label, {"quarantined": 0})
        for name, table in tables.items():
            rows = []
            for n, row in enumerate(table.rows):
                hit = [fk.label(name) for fk in table.schema.foreign_keys if (name, fk.label(name), n) in orphans]
                if hit:
                    quarantine.setdefault(name, []).append(QRow(f"orphan:{hit[-1]}", tuple(map(render_cell, row))))
                    per_fk[hit[-1]]["quarantined"] += 1
                else:
                    rows.append(row)
            tables[name] = Table(table.schema, rows)


@settings(max_examples=300, deadline=None)
@given(fk_graphs())
def test_reconcile_equals_oracle_fixpoint(tables):
    out, stats = reconcile_foreign_keys(StagingArea(dict(tables)))
    want_tables, want_quarantine, rounds, per_fk = _oracle_fixpoint(tables)

    assert {name: t.rows for name, t in out.tables.items()} == {name: t.rows for name, t in want_tables.items()}
    assert {name: q.rows for name, q in out.quarantine.items()} == want_quarantine
    assert stats.iterations == rounds
    assert stats.per_fk == per_fk
    assert check_referential_integrity(out.tables).is_empty()
