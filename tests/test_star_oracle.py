"""The star join checked against independent oracles: random queries
against the nested-loop ``star_aggregate_bruteforce`` and against the
benchmark's stdlib ``sqlite3`` copy of the warehouse, also on a warehouse
whose joins miss, a ternary-logic partitioning identity (Rigger & Su,
OOPSLA 2020), a filter-versus-group identity, one targeted case per way a
join multiplies rows, and the bench mix on fresh handles, pinned byte for
byte."""

from __future__ import annotations

import importlib.util
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import star_aggregate_bruteforce
from uwh.cli import run
from uwh.schema import ColumnDef, ForeignKey, Table, TableSchema
from uwh.staging import render_table_csv
from uwh.values import DEC4, ValueType
from uwh.warehouse import Filter, Measure, StarQuery, load, open_warehouse, star_query

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


def _sqlite_spec(query: StarQuery) -> dict:
    return {
        "measures": [(m.agg, m.column and _bare(m.column)) for m in query.measures],
        "group_by": [_bare(g) for g in query.group_by],
        "filters": [(_bare(f.attribute), f.op, f.value) for f in query.filters],
    }


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_queries_match_sqlite(seed42_handle, columns, sqlite_oracle, data):
    query = data.draw(star_queries(columns))
    problems, _ = sqlite_oracle.check(_sqlite_spec(query), star_query(seed42_handle, query).rows)
    assert problems == []


def _with_column(row: tuple, i: int, value) -> tuple:
    return row[:i] + (value,) + row[i + 1 :]


@pytest.fixture(scope="module")
def sparse_handle(tmp_path_factory, seed42_transformed):
    """The seed-42 warehouse, loaded with the join misses its generated
    data never has: a nullable student -> major key that is Null for five
    students with fact rows, a major and an instructor no fact row
    reaches, and five students with fact rows but no account. Alumni join
    student on its major id, a non-key column, so an alumni row reaches
    every student of that major."""
    tables = dict(seed42_transformed.tables)
    student, alumni = tables["student"], tables["alumni"]
    ids = sorted({row[0] for row in tables["transcript"].rows})
    nulled, unbanked = set(ids[:5]), set(ids[5:10])
    m = student.schema.column_index("st_major_id")
    major_of = {row[0]: row[m] for row in student.rows}
    columns = tuple(replace(c, nullable=True) if c.name == "st_major_id" else c for c in student.schema.columns)
    tables["student"] = Table(
        replace(student.schema, columns=columns),
        [_with_column(row, m, None) if row[0] in nulled else row for row in student.rows],
    )
    major, instructor = tables["major"], tables["instructor"]
    tables["major"] = Table(major.schema, major.rows + [(max(r[0] for r in major.rows) + 1, "Unreached", 1)])
    tables["instructor"] = Table(
        instructor.schema, instructor.rows + [(max(r[0] for r in instructor.rows) + 1, "Nobody", 1, "Lecturer")]
    )
    account, receipt = tables["account"], tables["receipt"]
    kept = [row for row in account.rows if row[1] not in unbanked]
    tables["account"] = Table(account.schema, kept)
    kept_ids = {row[0] for row in kept}
    tables["receipt"] = Table(receipt.schema, [row for row in receipt.rows if row[1] in kept_ids])
    a = alumni.schema.column_index("al_st_id")
    tables["alumni"] = Table(
        replace(alumni.schema, foreign_keys=(ForeignKey(("al_st_id",), "student", ("st_major_id",)),)),
        [_with_column(row, a, major_of[row[a]]) for row in alumni.rows],
    )
    out = tmp_path_factory.mktemp("sparse") / "wh"
    load(out, replace(seed42_transformed, tables=tables), timestamp="2026-01-01T00:00:00Z")
    return open_warehouse(out)


def test_sparse_warehouse_has_its_misses(sparse_handle):
    joins = {j["relation"]: j for j in sparse_handle.catalog["joins"]}
    assert joins["alumni"]["parent_columns"] == ["st_major_id"]
    majors = _count(sparse_handle, group_by=("mj_id",))
    assert len(majors) < sparse_handle.row_count("major")
    with_fact = _count(sparse_handle, group_by=("transcript.tr_st_id",))
    assert len(with_fact) > len(_count(sparse_handle, group_by=("mj_name", "transcript.tr_st_id")))
    assert len(with_fact) > len(_count(sparse_handle, group_by=("ac_id", "transcript.tr_st_id")))
    students_per_alumnus = Counter(row[0] for row in _count(sparse_handle, group_by=("al_id", "st_id")))
    assert max(students_per_alumnus.values()) > 1
    assert _count(sparse_handle, (Filter("in_name", "=", "Nobody"),)) == []


@pytest.fixture(scope="module")
def sparse_columns(sparse_handle):
    return _columns(sparse_handle)


@pytest.fixture(scope="module")
def sparse_oracle(sparse_handle):
    return _perfbench_module("oracle").SqliteOracle(sparse_handle)


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_random_queries_over_join_misses(sparse_handle, sparse_columns, sparse_oracle, data):
    query = data.draw(star_queries(sparse_columns))
    got = star_query(sparse_handle, query)
    assert got.rows == star_aggregate_bruteforce(sparse_handle, query)
    problems, _ = sparse_oracle.check(_sqlite_spec(query), got.rows)
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


# SHA-256 of ``render_table_csv`` of each result followed by ``repr`` of its
# rows (so Decimal exponents and cell classes count), for the first 48
# queries of the bench mix, seed 42, on a fresh handle over the seed-42
# fixture warehouse; recorded before the star join read through join
# indices, which must reproduce them
MIX_DIGESTS = [
    "c2a0a76739b01b90db7238eee3dae32236f443691441cc77ed124c31a5b9678c",
    "624306388e8df69442a2bc7fc255750879249313569f21c0709828aae1047191",
    "575914ac43ad6bc3212d7b43b8fc87f90acbdd867fa173270741126751270c26",
    "84d30bdee056417e375225f67960ff632bdaba2838cee3e7f7581044a1802a6c",
    "800349f53eb4ceea9d5787998dedddb97700a0a6aa2e379c4f8dbf021216ab56",
    "c6cf7bc7d3deb50e4aa3adeb8537a33d7624e815604aecdf2150fe16f726d834",
    "0f42fa3cf1489ccf65a9fee89aa9a1a38bca61f61dc0019edd81884abdb07b7b",
    "6da79626e8204d39631102240a81f47f43e084a86387db6e0975eb7a951c4331",
    "b9855284f9c108f73411cdb0ff0c3a08afbda1fef82a70730877a5ee339a720f",
    "6a807dc2c5cd3da900d2ae656bcaee47ce2aa702eeeb9ba7f69a0a577b669248",
    "25b94b8208ab23ccfd79d1f22aec57bf37fc70f7dc755f9e753ba10e1707b660",
    "d52f80f8736074c5c892f5aeb6ac5ab9ddde283e04d07bacffe80eca91974d06",
    "e220381194774b9821ab0157e1d1bd1d4203354f67c631260d082c378594dc5f",
    "d5178fb25db0db0531f5d5cd3b4e8acc4585cce957b7524203bc8b2d0ba7d1bb",
    "12ee7b330cbb150b1305cfd0552785dce7e0d997e0528531c18c09e7a974438e",
    "b324dfd47a92765d54941b19e27deb623727f7a0ac9ae4d019187c0c10f3def7",
    "aad99073db427f6735422ae859670b5361f45acd6aebf4139b383d11890e8c12",
    "0fbd46b3ef1b16e1259fd978dfb53688b1d4c13a5d12f0343edbf7661e16b5dc",
    "e6b1bbd76892a7d9d0f21d223040b918d0bd3f5ea7dab0fd32da7b3dd8b1fecf",
    "9f396da0d331a4d548d4e3bbf2430b79373a9f0ee969767ff2e928f4930a2843",
    "9f80e569e8ba427a70e6173335a6cadfcea21273612449955a87878c165c121e",
    "9aa8e637d79000a631596f12c80bcec52b4c022aba67a9861890a999611d449c",
    "da84203d541e76104979f1a9cc3224afac658d13bcfbbe79901a4a7b954a4116",
    "c0a9ab6ef8c2f76e258dc450dfea840e9e8a30a15f497a46ad700cf2d0ff768c",
    "c2a0a76739b01b90db7238eee3dae32236f443691441cc77ed124c31a5b9678c",
    "913a782b1047693aa4cbc5fabcaf1f4975b86bfae2ae601487a5221d309c6017",
    "22c09bdedce4ee366f47d9ffb41929c06d2a11d96286a7c3daaefcf22631aea5",
    "7dba5cd57e44f395d162a24b6516859060d24a3ec0c12e8638f5fa250a8829a6",
    "ef639f5f5ac72ef41874f1337287b87b85675178ee74a44ce3618fe8f9a4a3ef",
    "5b31339147a49d18b23756cb4e9fbb444b90904169e21431b705a8fad10334d4",
    "4a08f376a5aeb3c525299547745273ef8f8e5928f295edabfd5d0946032d9257",
    "d5a838bff2ad11130d98c1b955c83d4743d628f74e9cc55c9027a1e42135d11d",
    "6a807dc2c5cd3da900d2ae656bcaee47ce2aa702eeeb9ba7f69a0a577b669248",
    "d86891d82add0f4ce30149555bf9f715c479f6712f759db589ada56eadbbd4ac",
    "48e4bfb932697d606842ec2d0dbea94eed50f339bb9674479f0d16231f005942",
    "b9855284f9c108f73411cdb0ff0c3a08afbda1fef82a70730877a5ee339a720f",
    "49174a3f29d44d16a328ffa81556d006e35146c7fdfae9e6c86d04f7862c4ed9",
    "e220381194774b9821ab0157e1d1bd1d4203354f67c631260d082c378594dc5f",
    "aa606f95c23ffb9a6f7f78fa91613538eaab10f4d5c4acd2bd32797c893615e6",
    "d5178fb25db0db0531f5d5cd3b4e8acc4585cce957b7524203bc8b2d0ba7d1bb",
    "0fbd46b3ef1b16e1259fd978dfb53688b1d4c13a5d12f0343edbf7661e16b5dc",
    "153e15acb53b83a919ee942312b584c3dee815b2826ee4f3f5c434178532b0bc",
    "c0a9ab6ef8c2f76e258dc450dfea840e9e8a30a15f497a46ad700cf2d0ff768c",
    "cdf1fad3da1ce67879f67216f53e78e4e2e0aef1bfaf8a45ff8e4c47b4254ccc",
    "da84203d541e76104979f1a9cc3224afac658d13bcfbbe79901a4a7b954a4116",
    "e6b1bbd76892a7d9d0f21d223040b918d0bd3f5ea7dab0fd32da7b3dd8b1fecf",
    "e6f0027ab335c6b124d250950f00f129da7e10548b20287eef669adbc0441dbb",
    "9f396da0d331a4d548d4e3bbf2430b79373a9f0ee969767ff2e928f4930a2843",
]


def test_bench_mix_results_are_pinned(seed42_warehouse_dir):
    from hashlib import sha256
    from itertools import islice

    handle = open_warehouse(seed42_warehouse_dir)
    got = []
    for spec in islice(QUERIES.stream(42, QUERIES.domains(handle)), len(MIX_DIGESTS)):
        result = star_query(handle, QUERIES.to_star_query(spec))
        got.append(sha256((render_table_csv(result) + repr(result.rows)).encode()).hexdigest())
    assert got == MIX_DIGESTS
