"""The benchmark's tracer wraps engine functions by rebinding them where
their callers look them up. Each of those names must exist, and each
hook must read what the engine returns, or ``perfbench/run.py --trace 1``
breaks."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
_HOOKS = [(m, a) for m, a, *_ in tracer.SPANS + tracer.AGGREGATES]


@pytest.mark.parametrize("module, attr", _HOOKS, ids=[f"{m}.{a}" for m, a in _HOOKS])
def test_traced_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


def test_a_traced_run_of_every_stage_and_a_build(tmp_path, capsys):
    # the hooks read what a stage returns: a change to it fails here
    from uwh.cli import run

    ts = ["--timestamp", "2026-01-01T00:00:00Z"]
    src, st = str(tmp_path / "src"), str(tmp_path / "st")
    assert run(["gen", "--out", src, "--seed", "42", "--students", "60", "--dirty-rate", "0.25"]) == 0
    commands = [
        ["extract", "--src", src, "--out", st, *ts],
        ["cleanse", "--staging", st, *ts],
        ["transform", "--staging", st, *ts],
        ["load", "--staging", st, "--out", str(tmp_path / "wh"), *ts],
        ["report", "--staging", st],
        ["build", "--src", src, "--out", str(tmp_path / "wh2"), "--keep-staging", str(tmp_path / "kept"), *ts],
    ]
    t = tracer.Tracer("t")
    t.install()
    try:
        codes = [run(argv) for argv in commands]
    finally:
        t.uninstall()
    assert codes == [0] * len(commands), capsys.readouterr().err
    spans = t.dump()
    cleanses = [s for s in spans if s["name"] == "cleanse.cleanse_staging"]
    assert len(cleanses) == 2 and all(s["counts"]["rows_quarantined"] > 0 for s in cleanses)
    extracts = [s for s in spans if s["name"] == "ingest.extract_table"]
    assert len(extracts) == 28 and sum(s["counts"]["rows_read"] for s in extracts) > 0
