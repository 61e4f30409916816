"""Tests of the benchmark driver: a broken engine step must end as counted
failures, not as a run that never ends.

    python3 -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def test_reads_of_a_missing_warehouse_count_failures_and_stop(tmp_path):
    b = run.Bench(HERE.parent, "build-desk", seed=1, seconds=1, trace=False)
    b.work = tmp_path
    assert not b.read(tmp_path / "missing", count=4)
    assert b.queries == []
    assert b.attempted == b.failed == 2  # the open, and the queries it could not run
    assert b.errors[0].startswith("open: ")
