"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass. Numbers cited inline (14 tables, 8 relations, 1 fact + 7
dimensions, 19-statement plan) are the build's structural contract.
"""

from __future__ import annotations

import filecmp
import json
import random
import shutil
import time

import pytest

from oracles import (
    full_scan_ordinals,
    ledger_recovery_failures,
    left_merge_nested_loop,
    paid_on_due_recompute,
    star_aggregate_bruteforce,
)
from test_warehouse import catalog_indexes
from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.cli import run
from uwh.datagen import GenConfig, generate
from uwh.ingest import extract_database
from uwh.plan import parse_plan
from uwh.schema import check_referential_integrity
from uwh.transform import exec_merge, execute_plan
from uwh.values import ValueType
from uwh.warehouse import (
    Filter,
    Measure,
    StarQuery,
    load,
    open_warehouse,
    star_query,
)

TS = "2026-01-01T00:00:00Z"
RULES = list(canonical.canonical_rules())
PLAN = canonical.canonical_plan()
DB = canonical.canonical_schema()


def _build_pipeline(src):
    staging, report = extract_database(src, DB, timestamp=TS)
    cleansed, _ = cleanse_staging(staging, RULES, timestamp=TS)
    transformed, _ = execute_plan(cleansed, PLAN, timestamp=TS)
    return staging, cleansed, transformed


@pytest.fixture(scope="module")
def small_warehouse(tmp_path_factory):
    """A compact but fully dirty build for oracle-heavy criteria."""
    base = tmp_path_factory.mktemp("acceptance-small")
    src = base / "src"
    generate(GenConfig(seed=42, students=30, semesters=3, dirty_rate=0.05), src)
    _, _, transformed = _build_pipeline(src)
    wh = base / "wh"
    load(wh, transformed, timestamp=TS)
    return base, src, wh, open_warehouse(wh)


def test_criterion_01_structural_counts(tmp_path):
    src = tmp_path / "src"
    generate(GenConfig(seed=42, students=100, semesters=3, dirty_rate=0.05), src)
    started = time.perf_counter()
    staging, cleansed, transformed = _build_pipeline(src)
    wh = tmp_path / "wh"
    load(wh, transformed, timestamp=TS)
    elapsed = time.perf_counter() - started
    assert len(staging.tables) == 14
    catalog = json.loads((wh / "catalog.json").read_text())
    assert len(catalog["relations"]) == 8
    assert len(catalog["dimensions"]) == 7
    assert catalog["fact"] == "transcript"
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: 14 staged tables -> 8 relations (1 fact + 7 dims) in {elapsed:.2f}s")


def test_criterion_02_transformation_fidelity(seed42_transformed):
    tables = seed42_transformed.tables
    for gone in ("assets", "item", "department", "section", "course"):
        assert gone not in tables, gone
    assert "registeredActivities" in tables
    fact_cols = tables["transcript"].schema.column_names
    for merged in ("co_code", "co_name", "co_credits", "dep_name"):
        assert merged in fact_cols, merged
    assert "tr_courseDifficulty" in fact_cols
    receipt_cols = tables["receipt"].schema.column_names
    assert "re_paidOnDueDate" in receipt_cols
    for gone_col in ("re_dueDate", "re_dateOfPayment"):
        assert gone_col not in receipt_cols
    assert "ac_supervisor" not in tables["registeredActivities"].schema.column_names
    student_cols = tables["student"].schema.column_names
    assert "st_phone" not in student_cols and "st_email" not in student_cols
    print("ACCEPTANCE 2 PASS: drops, merges, adds, and removes all present in the final schema")


MERGE_STMT = (
    "MERGE department, course, section INTO transcript"
    " ON transcript.tr_se_num = section.se_num"
    " AND transcript.tr_semester = section.se_semester"
    " AND transcript.tr_year = section.se_year"
    " AND section.se_code = course.co_code"
    " AND course.co_dep_id = department.dep_id"
    " KEEP course.co_code, course.co_name, course.co_credits, department.dep_name, section.se_in_id ;"
)
MERGE_CONDS = [
    (("transcript", "tr_se_num"), ("section", "se_num")),
    (("transcript", "tr_semester"), ("section", "se_semester")),
    (("transcript", "tr_year"), ("section", "se_year")),
    (("section", "se_code"), ("course", "co_code")),
    (("course", "co_dep_id"), ("department", "dep_id")),
]
MERGE_KEEP = [
    ("course", "co_code"), ("course", "co_name"), ("course", "co_credits"),
    ("department", "dep_name"), ("section", "se_in_id"),
]


def test_criterion_03_merge_oracle(tmp_path):
    stmt = parse_plan(MERGE_STMT).statements[0]
    rng = random.Random(1337)
    started = time.perf_counter()
    total_rows = 0
    for trial in range(20):
        seed = rng.randint(0, 10_000)
        src = tmp_path / f"m{trial}"
        generate(GenConfig(seed=seed, students=rng.randint(30, 90), semesters=2, dirty_rate=0.03), src)
        staging, _ = extract_database(src, DB, timestamp=TS)
        cleansed, _ = cleanse_staging(staging, RULES, timestamp=TS)
        n = len(cleansed.tables["transcript"].rows)
        assert n <= 5000
        total_rows += n
        merged = exec_merge(cleansed, stmt).tables["transcript"]
        expected = left_merge_nested_loop(
            cleansed.tables, "transcript", ["department", "course", "section"], MERGE_CONDS, MERGE_KEEP
        )
        assert merged.rows == expected  # cell-for-cell
        assert len(merged.rows) == n
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"ACCEPTANCE 3 PASS: 20 seeds, {total_rows} merged rows equal the nested-loop oracle in {elapsed:.1f}s")


def test_criterion_04_derived_column_oracles(seed42_cleansed, seed42_transformed):
    # re_paidOnDueDate: recompute payment <= due from the pre-transform receipts
    pre = seed42_cleansed.tables["receipt"]
    p = pre.schema.column_index("re_dateOfPayment")
    d = pre.schema.column_index("re_dueDate")
    dates = {row[pre.schema.column_index("re_id")]: (row[p], row[d]) for row in pre.rows}
    post = seed42_transformed.tables["receipt"]
    rid = post.schema.column_index("re_id")
    flag = post.schema.column_index("re_paidOnDueDate")
    assert post.rows
    for row in post.rows:
        payment, due = dates[row[rid]]
        assert row[flag] is paid_on_due_recompute(payment, due)

    # tr_courseDifficulty: independent exact-rational group-mean bucketing
    from oracles import difficulty_recompute

    fact = seed42_transformed.tables["transcript"]
    g = fact.schema.column_index("tr_grade")
    k = fact.schema.column_index("co_code")
    label = fact.schema.column_index("tr_courseDifficulty")
    expected = difficulty_recompute([(row[k], row[g]) for row in fact.rows], 80, 65)
    assert fact.rows
    for row in fact.rows:
        assert row[label] == expected[row[k]]
    print(f"ACCEPTANCE 4 PASS: {len(post.rows)} paid flags and {len(fact.rows)} difficulty labels match recomputation")


def test_criterion_05_cleansing(tmp_path, seed42_staging, seed42_ledger):
    # dirt recovery on the canonical seed-42 build
    cleansed, _ = cleanse_staging(seed42_staging, RULES, timestamp=TS)
    failures = ledger_recovery_failures(cleansed, seed42_ledger)
    assert failures == []
    assert check_referential_integrity(cleansed.tables) == []

    # idempotence across 100 random seeds
    rng = random.Random(99)
    for trial in range(100):
        seed = rng.randint(0, 100_000)
        src = tmp_path / f"i{trial}"
        generate(GenConfig(seed=seed, students=8, semesters=2, dirty_rate=0.08), src)
        staging, _ = extract_database(src, DB, timestamp=TS)
        once, _ = cleanse_staging(staging, RULES, timestamp=TS)
        again, report = cleanse_staging(once, RULES, timestamp=TS)
        assert all(r["cells_changed"] == 0 for f in report.tables.values() for r in f["rules"]), seed
        assert sum(f["rows_quarantined"] for f in report.tables.values()) == 0, seed
        assert all(d["exact_removed"] + d["pk_conflicts"] == 0 for d in report.dedup.values()), seed
        assert report.reconcile == {}, seed
    print(f"ACCEPTANCE 5 PASS: {len(seed42_ledger.entries)} dirt entries recovered; idempotent over 100 seeds")


def test_criterion_06_index_scan_equivalence(seed42_handle):
    rng = random.Random(6)
    probes_done = 0
    indexes = catalog_indexes(seed42_handle)
    for index in indexes:
        table = seed42_handle.relation(index.relation)
        present = list(index.entries)
        for key in present:
            assert index.entries.get(key, []) == full_scan_ordinals(table, index.columns, key)
        for _ in range(1000):
            if rng.random() < 0.5 and present:
                key = rng.choice(present)
            else:
                key = tuple(
                    rng.randint(-99999, 99999) if isinstance(v, int) and not isinstance(v, bool) else v
                    for v in rng.choice(present)
                )
            assert index.entries.get(key, []) == full_scan_ordinals(table, index.columns, key)
            probes_done += 1
    print(f"ACCEPTANCE 6 PASS: {probes_done} random probes over {len(indexes)} indexes equal full scans")


_GROUPABLE = [
    "dep_name", "tr_semester", "tr_year", "tr_courseDifficulty", "co_code",
    "st_gender", "mj_name", "ac_status", "re_paidOnDueDate", "act_type",
    "al_degree", "in_rank",
]
_NUMERIC = ["tr_grade", "co_credits", "re_amount", "ac_balance", "as_quantityXX"]


def test_criterion_07_query_oracle(small_warehouse):
    _, _, _, handle = small_warehouse
    numeric = [c for c in _NUMERIC if _resolves(handle, c)]
    orderable = numeric + ["st_name", "al_gradDate", "tr_semester"]
    rng = random.Random(2024)
    for trial in range(50):
        measures = []
        for _ in range(rng.randint(1, 2)):
            agg = rng.choice(["COUNT", "SUM", "AVG", "MIN", "MAX"])
            if agg == "COUNT":
                col = rng.choice([None, rng.choice(_GROUPABLE)])
            elif agg in ("SUM", "AVG"):
                col = rng.choice(numeric)
            else:
                col = rng.choice(orderable)
            m = Measure(agg, col)
            if m not in measures:
                measures.append(m)
        group_by = tuple(rng.sample(_GROUPABLE, rng.randint(0, 2)))
        filters = []
        for _ in range(rng.randint(0, 2)):
            attr = rng.choice(_GROUPABLE + numeric)
            rel, idx, cdef = handle.resolve_attribute(attr)
            values = [r[idx] for r in handle.relation(rel).rows if r[idx] is not None]
            if not values:
                continue
            ops = ("=", "<>") if cdef.type is ValueType.BOOLEAN else ("=", "<>", "<", "<=", ">", ">=")
            filters.append(Filter(attr, rng.choice(ops), rng.choice(values)))
        q = StarQuery(tuple(measures), group_by, tuple(filters))
        got = star_query(handle, q)
        expected = star_aggregate_bruteforce(handle, q)
        assert got.rows == expected, f"spec {trial}: {q}"
    print("ACCEPTANCE 7 PASS: 50 randomized star queries equal brute-force join-then-aggregate")


def _resolves(handle, attr):
    try:
        handle.resolve_attribute(attr)
        return True
    except Exception:
        return False


def test_criterion_08_read_only_and_integrity(small_warehouse, tmp_path, capsys):
    base, src, wh, _ = small_warehouse
    mutating = [
        ["transform", "--staging", str(wh)],
        ["cleanse", "--staging", str(wh)],
        ["extract", "--src", str(src), "--out", str(wh)],
        ["gen", "--out", str(wh)],
        ["build", "--src", str(src), "--out", str(wh)],
    ]
    for argv in mutating:
        assert run(argv) == 4, argv
    capsys.readouterr()

    rng = random.Random(8)
    files = sorted(p.name for p in wh.iterdir())
    for trial in range(50):
        work = tmp_path / f"t{trial}"
        shutil.copytree(wh, work)
        victim = work / rng.choice(files)
        data = bytearray(victim.read_bytes())
        pos = rng.randrange(len(data))
        data[pos] ^= 1 + rng.randrange(255)
        victim.write_bytes(bytes(data))
        code = run(["query", "--warehouse", str(work), "--measure", "COUNT(*)"])
        assert code == 5, f"flip {trial} in {victim.name} byte {pos} exited {code}"
        shutil.rmtree(work)
    capsys.readouterr()
    print("ACCEPTANCE 8 PASS: mutating commands exit 4; 50/50 single-byte tampers exit 5")


def test_criterion_09_determinism(tmp_path, capsys):
    src = tmp_path / "src"
    assert run(["gen", "--out", str(src), "--seed", "42", "--students", "100", "--dirty-rate", "0.05"]) == 0
    whs = []
    for name in ("wh-a", "wh-b"):
        out = tmp_path / name
        assert run(["build", "--src", str(src), "--out", str(out), "--timestamp", TS]) == 0
        whs.append(out)
    capsys.readouterr()
    names = sorted(p.name for p in whs[0].iterdir())
    assert names == sorted(p.name for p in whs[1].iterdir())
    match, mismatch, errors = filecmp.cmpfiles(whs[0], whs[1], names, shallow=False)
    assert mismatch == [] and errors == []
    assert len(match) == len(names)
    print(f"ACCEPTANCE 9 PASS: two pinned-timestamp builds are byte-identical across {len(names)} files")


def test_criterion_10_desk_scale_performance(tmp_path):
    src = tmp_path / "src"
    generate(GenConfig(seed=42, students=10_000, semesters=3, dirty_rate=0.02), src)
    started = time.perf_counter()
    staging, cleansed, transformed = _build_pipeline(src)
    wh = tmp_path / "wh"
    load(wh, transformed, timestamp=TS)
    build_elapsed = time.perf_counter() - started
    staged_rows = sum(len(t.rows) for t in staging.tables.values())
    assert staged_rows >= 100_000
    assert build_elapsed < 60.0

    handle = open_warehouse(wh)
    queries = [
        StarQuery((Measure("AVG", "tr_grade"),), ("dep_name",)),
        StarQuery((Measure("COUNT", None),), ("tr_semester", "tr_year")),
        StarQuery((Measure("SUM", "re_amount"),), ("ac_status",), (Filter("tr_year", "=", 2012),)),
        StarQuery((Measure("AVG", "tr_grade"), Measure("MAX", "tr_grade")), ("mj_name", "st_gender")),
        StarQuery((Measure("COUNT", None),), ("act_type",)),
    ]
    worst = 0.0
    for q in queries:
        t0 = time.perf_counter()
        star_query(handle, q)
        worst = max(worst, time.perf_counter() - t0)
    assert worst < 1.0
    print(
        f"ACCEPTANCE 10 PASS: {staged_rows} staged rows built in {build_elapsed:.1f}s;"
        f" slowest of {len(queries)} star queries {worst * 1000:.0f}ms"
    )
