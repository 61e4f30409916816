"""``reconcile_foreign_keys`` against the fixpoint of the nested-loop orphan
oracle, over random FK graphs: chains and diamonds of up to four tables,
composite FKs with Null components, random orphans, and a random
quarantine-or-nullify policy per FK."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import orphan_rows_nested_loop
from uwh.cleanse import ReconcilePolicy, reconcile_foreign_keys
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
    overrides: dict[str, str] = {}
    for name, parents in zip(names, shape):
        columns = [ColumnDef("id", _INT), ColumnDef("k", _INT)]
        fks = []
        for p in parents:
            nullable = draw(st.booleans())
            columns += [ColumnDef(f"{names[p]}_id", _INT, nullable), ColumnDef(f"{names[p]}_k", _INT, nullable)]
            fk = ForeignKey((f"{names[p]}_id", f"{names[p]}_k"), names[p], ("id", "k"))
            fks.append(fk)
            if nullable and draw(st.booleans()):
                overrides[fk.label(name)] = "nullify"
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
    return tables, ReconcilePolicy(overrides=overrides)


def _oracle_fixpoint(tables: dict[str, Table], policy: ReconcilePolicy):
    """Apply the oracle's orphans round by round until none is left: a row
    with an orphaned quarantine FK is quarantined, its reason the last such
    FK in declaration order; otherwise each orphaned nullify FK is set to
    Null. Returns the tables, the quarantine rows, the (table, id, FK
    label) nullified, the number of rounds, and per orphaned FK its policy
    and the rows it quarantined (by reason) and nullified (kept rows)."""
    tables = dict(tables)
    quarantine: dict[str, list[QRow]] = {}
    nullified: set[tuple[str, int, str]] = set()
    per_fk: dict[str, dict] = {}
    rounds = 0
    while True:
        orphans = orphan_rows_nested_loop(tables)
        if not orphans:
            return tables, quarantine, nullified, rounds, per_fk
        rounds += 1
        for _, label, _ in orphans:
            per_fk.setdefault(label, {"policy": policy.for_fk(label), "quarantined": 0, "nullified": 0})
        for name, table in tables.items():
            schema = table.schema
            rows = []
            for n, row in enumerate(table.rows):
                hit = [fk for fk in schema.foreign_keys if (name, fk.label(name), n) in orphans]
                dropped = [fk for fk in hit if policy.for_fk(fk.label(name)) == "quarantine"]
                if dropped:
                    reason = f"orphan:{dropped[-1].label(name)}"
                    quarantine.setdefault(name, []).append(QRow(reason, tuple(map(render_cell, row))))
                    per_fk[dropped[-1].label(name)]["quarantined"] += 1
                    continue
                for fk in hit:
                    nullified.add((name, row[0], fk.label(name)))
                    per_fk[fk.label(name)]["nullified"] += 1
                    cols = {schema.column_index(c) for c in fk.columns}
                    row = tuple(None if j in cols else v for j, v in enumerate(row))
                rows.append(row)
            tables[name] = Table(schema, rows)


@settings(max_examples=300, deadline=None)
@given(fk_graphs())
def test_reconcile_equals_oracle_fixpoint(graph):
    tables, policy = graph
    out, stats = reconcile_foreign_keys(StagingArea(dict(tables)), policy)
    want_tables, want_quarantine, nullified, rounds, per_fk = _oracle_fixpoint(tables, policy)

    assert {name: t.rows for name, t in out.tables.items()} == {name: t.rows for name, t in want_tables.items()}
    assert {name: q.rows for name, q in out.quarantine.items()} == want_quarantine
    assert stats.iterations == rounds
    assert stats.per_fk == per_fk
    for name, row_id, label in nullified:  # a row nullified, then quarantined in a later round, is gone
        table = out.tables[name]
        fk = next(f for f in table.schema.foreign_keys if f.label(name) == label)
        for row in (r for r in table.rows if r[0] == row_id):
            assert all(row[table.schema.column_index(c)] is None for c in fk.columns)
    assert check_referential_integrity(out.tables).is_empty()
