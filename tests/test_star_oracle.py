"""The star join checked against independent oracles: random queries
against the nested-loop ``star_aggregate_bruteforce`` and against the
benchmark's stdlib ``sqlite3`` copy of the warehouse, a ternary-logic
partitioning identity (Rigger & Su, OOPSLA 2020), a filter-versus-group
identity, one targeted case per way a join multiplies rows, and the
bench mix on fresh handles."""

from __future__ import annotations

import importlib.util
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import star_aggregate_bruteforce
from uwh.cli import run
from uwh.schema import ColumnDef, Table, TableSchema
from uwh.staging import render_table_csv
from uwh.values import DEC4, ValueType
from uwh.warehouse import Filter, Measure, StarQuery, open_warehouse, star_query

ORDERED = (ValueType.INTEGER, ValueType.DECIMAL, ValueType.TEXT, ValueType.DATE)
NUMERIC = (ValueType.INTEGER, ValueType.DECIMAL)
OPERATORS = ("=", "<>", "<", "<=", ">", ">=")


def _columns(handle) -> list[tuple[str, ValueType, list]]:
    """(qualified attribute, type, sorted distinct non-Null values) of
    every column of every relation."""
    out = []
    for name in handle.relation_names():
        table = handle.relation(name)
        for i, col in enumerate(table.schema.columns):
            values = sorted({row[i] for row in table.rows if row[i] is not None})
            out.append((f"{name}.{col.name}", col.type, values))
    return out


def _assert_on_dec4_grid(result: Table) -> None:
    for i, col in enumerate(result.schema.columns):
        if col.type is ValueType.DECIMAL:
            for row in result.rows:
                assert row[i] is None or row[i] == row[i].quantize(DEC4), (col.name, row[i])


@st.composite
def star_queries(draw, columns):
    measures = []
    for _ in range(draw(st.integers(1, 3))):
        attr, vtype, _ = draw(st.sampled_from(columns))
        aggs = ["COUNT", "COUNT(*)"]
        if vtype in NUMERIC:
            aggs += ["SUM", "AVG"]
        if vtype in ORDERED:
            aggs += ["MIN", "MAX"]
        agg = draw(st.sampled_from(aggs))
        measures.append(Measure("COUNT", None) if agg == "COUNT(*)" else Measure(agg, attr))
    group_by = tuple(draw(st.lists(st.sampled_from([c[0] for c in columns]), max_size=2)))
    filters = []
    for _ in range(draw(st.integers(0, 2))):
        attr, vtype, values = draw(st.sampled_from(columns))
        op = draw(st.sampled_from(OPERATORS if vtype in ORDERED else ("=", "<>")))
        literals = [None]
        if values:
            literals.append(draw(st.sampled_from(values)))
        if vtype is ValueType.DECIMAL and values:
            literals.append(int(draw(st.sampled_from(values))))  # coerced to DECIMAL
        filters.append(Filter(attr, op, draw(st.sampled_from(literals))))
    return StarQuery(tuple(measures), group_by, tuple(filters))


@pytest.fixture(scope="module")
def columns(seed42_handle):
    return _columns(seed42_handle)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_queries_match_bruteforce(seed42_handle, columns, data):
    query = data.draw(star_queries(columns))
    got = star_query(seed42_handle, query)
    assert got.rows == star_aggregate_bruteforce(seed42_handle, query)
    _assert_on_dec4_grid(got)



@pytest.fixture(scope="module")
def sqlite_oracle(seed42_handle):
    return _perfbench_module("oracle").SqliteOracle(seed42_handle)


def _bare(attr):
    """The column of a ``relation.column`` attribute; each column name of
    the warehouse is unique, and the sqlite oracle keys on it."""
    return attr.rsplit(".", 1)[-1]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_queries_match_sqlite(seed42_handle, columns, sqlite_oracle, data):
    query = data.draw(star_queries(columns))
    spec = {
        "measures": [(m.agg, m.column and _bare(m.column)) for m in query.measures],
        "group_by": [_bare(g) for g in query.group_by],
        "filters": [(_bare(f.attribute), f.op, f.value) for f in query.filters],
    }
    problems, _ = sqlite_oracle.check(spec, star_query(seed42_handle, query).rows)
    assert problems == []


@pytest.mark.parametrize("arms", [None, ("receipt", "registeredActivities")], ids=["any", "one-to-many"])
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_filter_on_a_value_is_its_group(seed42_handle, columns, arms, data):
    """With the same measures and other filters, filtering on a = v gives
    exactly the v row of GROUP BY a, without its group column."""
    pool = [c for c in columns if c[2] and (arms is None or c[0].split(".")[0] in arms)]
    attr, _, values = data.draw(st.sampled_from(pool))
    v = data.draw(st.sampled_from(values))
    drawn = data.draw(star_queries(columns))
    filtered = star_query(seed42_handle, StarQuery(drawn.measures, (), drawn.filters + (Filter(attr, "=", v),)))
    grouped = star_query(seed42_handle, StarQuery(drawn.measures, (attr,), drawn.filters))
    assert filtered.rows == [row[1:] for row in grouped.rows if row[0] == v]

def _count(handle, filters=(), group_by=()) -> list[tuple]:
    return star_query(handle, StarQuery((Measure("COUNT", None),), group_by, filters)).rows


@pytest.mark.parametrize("arms", [None, ("receipt", "registeredActivities")], ids=["any", "one-to-many"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_ternary_partition_of_count(seed42_handle, columns, arms, data):
    """COUNT(*) where a < v, plus where a >= v, plus the Null group of
    GROUP BY a, is the unfiltered COUNT(*) over the same join. For an
    attribute on a one-to-many arm that join is the expanded grain, which
    the sum over GROUP BY a gives; for a fact attribute it is also the
    plain COUNT(*)."""
    pool = [c for c in columns if c[1] in ORDERED and c[2] and (arms is None or c[0].split(".")[0] in arms)]
    attr, _, values = data.draw(st.sampled_from(pool))
    v = data.draw(st.sampled_from(values))
    by_value = _count(seed42_handle, group_by=(attr,))
    total = sum(row[-1] for row in by_value)
    null_group = sum(row[-1] for row in by_value if row[0] is None)
    if attr.startswith("transcript."):
        assert total == _count(seed42_handle)[0][0]
    below = _count(seed42_handle, (Filter(attr, "<", v),))
    above = _count(seed42_handle, (Filter(attr, ">=", v),))
    assert sum(rows[0][0] if rows else 0 for rows in (below, above)) + null_group == total


MULTIPLICITY_CASES = {
    # re_amount sits under student, in_rank on the other fact-level arm
    "measure-scaled-by-other-arm": StarQuery((Measure("SUM", "re_amount"),), ("in_rank",)),
    # receipts and registered activities both fan out under student
    "two-one-to-many-branches": StarQuery(
        (Measure("COUNT", None), Measure("SUM", "tr_grade")), ("act_type", "re_semester")
    ),
    "min-max-not-scaled": StarQuery(
        (Measure("MIN", "re_amount"), Measure("MAX", "re_amount"), Measure("MAX", "reg_date")), ("dep_name",)
    ),
    # students without an alumni row drop their fact rows
    "arm-key-without-children": StarQuery((Measure("COUNT", None), Measure("AVG", "tr_grade")), ("al_degree",)),
    "repeated-group-attribute": StarQuery((Measure("COUNT", None),), ("dep_name", "transcript.dep_name")),
}


@pytest.mark.parametrize("case", list(MULTIPLICITY_CASES))
def test_multiplicity_matches_bruteforce(seed42_handle, case):
    query = MULTIPLICITY_CASES[case]
    got = star_query(seed42_handle, query)
    assert got.rows == star_aggregate_bruteforce(seed42_handle, query)
    assert got.rows
    _assert_on_dec4_grid(got)
    fact_rows = seed42_handle.row_count("transcript")
    if case == "arm-key-without-children":
        assert 0 < sum(row[1] for row in got.rows) < fact_rows
    if case == "repeated-group-attribute":
        assert all(row[0] == row[1] for row in got.rows)
        assert sum(row[2] for row in got.rows) == fact_rows


def test_min_max_over_one_to_many_arm_are_receipt_values(seed42_handle):
    receipts = seed42_handle.relation("receipt")
    amounts = {row[receipts.schema.column_index("re_amount")] for row in receipts.rows}
    got = star_query(seed42_handle, MULTIPLICITY_CASES["min-max-not-scaled"])
    assert all(row[1] in amounts and row[2] in amounts for row in got.rows)


def test_cli_fan_out_sum_prints_bruteforce_result(seed42_warehouse_dir, seed42_handle, capsys):
    argv = ["query", "--warehouse", str(seed42_warehouse_dir), "--measure", "SUM(re_amount)", "--group-by", "ac_status"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0
    expected_rows = star_aggregate_bruteforce(
        seed42_handle, StarQuery((Measure("SUM", "re_amount"),), ("ac_status",))
    )
    schema = TableSchema(
        "result", (ColumnDef("ac_status", ValueType.TEXT), ColumnDef("sum_re_amount", ValueType.DECIMAL)), ()
    )
    assert out == render_table_csv(Table(schema, expected_rows))


def _perfbench_module(name):
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


QUERIES = _perfbench_module("queries")
TEMPLATE_IDS = [(cls, k) for cls in QUERIES.CLASSES for k in range(len(QUERIES.TEMPLATES[cls]))]


@pytest.mark.parametrize("cls, k", TEMPLATE_IDS, ids=[f"{cls}-{k}" for cls, k in TEMPLATE_IDS])
def test_bench_template_same_on_cold_and_warm_handle(seed42_warehouse_dir, cls, k):
    handle = open_warehouse(seed42_warehouse_dir)
    spec = QUERIES.draw(random.Random(k), QUERIES.domains(handle), cls, k)
    query = QUERIES.to_star_query(spec)
    cold = star_query(handle, query)
    warm = star_query(handle, query)
    assert cold.schema == warm.schema
    assert [[(type(c), c) for c in row] for row in cold.rows] == [[(type(c), c) for c in row] for row in warm.rows]
    assert cold.rows == star_aggregate_bruteforce(handle, query)
