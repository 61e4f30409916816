"""The benchmark's tracer wraps engine functions by rebinding them where
their callers look them up. Each of those names must exist, or
``perfbench/run.py --trace 1`` breaks."""

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
