"""Tests of the benchmark's own correctness checks: each must pass the
engine's real output and report a failure for a deliberately wrong one.

    python3 -m pytest perfbench/test_oracle.py
"""

from __future__ import annotations

import random
import sys
from decimal import Decimal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import queries  # noqa: E402
from oracle import SqliteOracle, conservation_problems, fact_key_problems, ledger_problems  # noqa: E402
from uwh import (  # noqa: E402
    GenConfig,
    canonical_rules,
    canonical_schema,
    cleanse_staging,
    extract_database,
    generate,
    open_warehouse,
    star_query,
)
from uwh.cli import run  # noqa: E402
from uwh.datagen import load_ledger  # noqa: E402

TS = "2026-01-01T00:00:00Z"


@pytest.fixture(scope="module")
def drop(tmp_path_factory):
    src = tmp_path_factory.mktemp("src")
    generate(GenConfig(seed=3, students=60, semesters=3, dirty_rate=0.1), src)
    return src


@pytest.fixture(scope="module")
def handle(drop, tmp_path_factory):
    wh = tmp_path_factory.mktemp("wh") / "wh"
    assert run(["build", "--src", str(drop), "--out", str(wh), "--timestamp", TS]) == 0
    return open_warehouse(wh)


@pytest.fixture(scope="module")
def oracle(handle):
    return SqliteOracle(handle)


def _mix(handle):
    rng = random.Random(5)
    dom = queries.domains(handle)
    return [queries.draw(rng, dom, cls, k) for cls in queries.CLASSES for k in range(4)]


def test_oracle_agrees_with_engine_on_every_class(handle, oracle):
    for spec in _mix(handle):
        rows = star_query(handle, queries.to_star_query(spec)).rows
        problems, joined = oracle.check(spec, rows)
        assert problems == [], spec
        assert joined >= len(rows)


def _wrong(rows):
    """Bump the first numeric aggregate cell by the smallest decimal step."""
    for r, row in enumerate(rows):
        for c in range(len(row) - 1, -1, -1):
            v = row[c]
            if isinstance(v, Decimal):
                bumped = v + Decimal("0.0001")
            elif isinstance(v, int) and not isinstance(v, bool):
                bumped = v + 1
            else:
                continue
            return rows[:r] + [row[:c] + (bumped,) + row[c + 1:]] + rows[r + 1:]
    raise AssertionError("no numeric cell to corrupt")


def test_oracle_reports_a_wrong_result(handle, oracle):
    for spec in _mix(handle):
        rows = star_query(handle, queries.to_star_query(spec)).rows
        if not rows:
            continue
        assert oracle.check(spec, _wrong(rows))[0], spec
        assert oracle.check(spec, rows[1:])[0], spec  # a missing group
        assert oracle.check(spec, rows[::-1])[0] or len(rows) == 1, spec  # group order


def test_avg_is_rounded_half_even(oracle):
    # 0.00005 lies half-way between two four-place values: half-even keeps the even one
    from oracle import _round4
    from fractions import Fraction

    assert _round4(Fraction(5, 100000)) == Decimal("0.0000")
    assert _round4(Fraction(15, 100000)) == Decimal("0.0002")


def test_etl_checks_pass_real_output_and_catch_tampering(drop, handle):
    staging, report = extract_database(drop, canonical_schema(), timestamp=TS)
    assert conservation_problems(report, drop) == []
    report.tables["student"].rows_read += 1
    assert conservation_problems(report, drop)

    cleansed, _ = cleanse_staging(staging, list(canonical_rules()), timestamp=TS)
    ledger = load_ledger(drop / "dirt_ledger.csv")
    assert ledger_problems(cleansed, ledger) == []
    # undo the repairs of one table: its ledger entries are no longer met
    table = next(e.table for e in ledger.entries if e.kind != "duplicate_row")
    cleansed.tables[table] = staging.tables[table]
    cleansed.quarantine.pop(table, None)
    assert ledger_problems(cleansed, ledger)

    assert fact_key_problems(handle) == []
