"""Spans around the public functions of each ``uwh`` module, installed
from outside the program by rebinding the names its callers look up.

Two wrapper kinds:

* a *span* records (name, start, end, parent, operation id) per call;
* an *aggregate* is for functions called once per line or cell: it adds
  its call count, time and bytes to the enclosing span instead of
  recording a span per call.

Spans stay in memory; :meth:`Tracer.dump` returns them when the traced
operation ends. A span's self time is its duration minus its child spans
and the aggregated calls made under it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

_clock = time.perf_counter


def _text_bytes(text) -> int:
    if isinstance(text, bytes):
        return len(text)
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# Post-call hooks: (args, result) -> {counter: amount}, added to the span.
def _extract_counts(args, result):
    stats = result[1]
    return {
        "rows_read": stats.rows_read,
        "rows_staged": stats.rows_staged,
        "rows_rejected": stats.rows_rejected,
        "raw_cells": stats.raw_cells,
    }


def _rule_counts(args, result):
    stats = result[1]
    return {"cells_examined": stats.cells_examined, "cells_changed": stats.cells_changed}


def _cleanse_counts(args, result):
    report = result[1]
    quarantined = sum(t["rows_quarantined"] for t in report.tables.values())
    quarantined += sum(d["pk_conflicts"] for d in report.dedup.values())
    quarantined += sum(e["quarantined"] for e in report.reconcile.values())
    return {"rows_quarantined": quarantined, "reconcile_iterations": report.reconcile_iterations}


def _index_counts(args, result):
    return {"entries": sum(len(v) for v in result.entries.values())}


def _result_bytes(args, result):
    return {"bytes": _text_bytes(result)}


def _arg_bytes(args, result):
    return {"bytes": _text_bytes(args[0])}


def _dump_bytes(args, result):
    return {"bytes": sum(_text_bytes(v) for v in result.values())}


# (module, attribute, span name, hook). Every place a caller on a
# benchmarked path looks a function up is listed, so calls from the CLI
# and from inside the library are both seen.
SPANS = [
    ("uwh.cli", "extract_database", "ingest.extract_database", None),
    ("uwh.cli", "cleanse_staging", "cleanse.cleanse_staging", _cleanse_counts),
    ("uwh.cli", "validate_plan", "plan.validate_plan", None),
    ("uwh.cli", "execute_plan", "transform.execute_plan", None),
    ("uwh.cli", "assemble_snowflake", "warehouse.assemble_snowflake", None),
    ("uwh.cli", "load", "warehouse.load", None),
    ("uwh.cli", "dump_staging", "staging.dump_staging", None),
    ("uwh.cli", "load_staging", "staging.load_staging", None),
    ("uwh.cli", "staging_fingerprint", "staging.staging_fingerprint", None),
    ("uwh.cli", "sha256_hex", "warehouse.sha256_hex", _arg_bytes),
    ("uwh.ingest", "extract_table", "ingest.extract_table", _extract_counts),
    ("uwh.staging", "dumps_staging", "staging.dumps_staging", _dump_bytes),
    ("uwh.staging", "render_table_csv", "staging.render_table_csv", _result_bytes),
    ("uwh.cleanse", "cleanse_table", "cleanse.cleanse_table", None),
    ("uwh.cleanse", "apply_rule", "cleanse.apply_rule", _rule_counts),
    ("uwh.cleanse", "dedup", "cleanse.dedup", None),
    ("uwh.cleanse", "reconcile_foreign_keys", "cleanse.reconcile_foreign_keys", None),
    ("uwh.cleanse", "check_referential_integrity", "schema.check_referential_integrity", None),
    ("uwh.plan", "parse_plan", "plan.parse_plan", None),
    ("uwh.transform", "validate_plan", "plan.validate_plan", None),
    ("uwh.transform", "exec_drop", "transform.exec_drop", None),
    ("uwh.transform", "exec_merge", "transform.exec_merge", None),
    ("uwh.transform", "exec_add_column", "transform.exec_add_column", None),
    ("uwh.transform", "exec_remove_column", "transform.exec_remove_column", None),
    ("uwh.transform", "exec_clean", "transform.exec_clean", None),
    ("uwh.transform", "cleanse_table", "cleanse.cleanse_table", None),
    ("uwh.warehouse", "sha256_hex", "warehouse.sha256_hex", _arg_bytes),
    ("uwh.warehouse", "build_index", "warehouse.build_index", _index_counts),
    ("uwh.warehouse", "render_index", "warehouse.render_index", _result_bytes),
    ("uwh.warehouse", "parse_index", "warehouse.parse_index", None),
    ("uwh.warehouse", "render_table_csv", "staging.render_table_csv", _result_bytes),
    ("uwh.warehouse", "open_warehouse", "warehouse.open_warehouse", None),
]

# (module, attribute, aggregate name, timed). A timed aggregate adds its
# time and the bytes of its first argument; an untimed one only counts
# calls, so its time stays in the enclosing span's self time.
AGGREGATES = [
    ("uwh.ingest", "parse_csv", "csvio.parse_csv", True),
    ("uwh.staging", "parse_csv", "csvio.parse_csv", True),
    ("uwh.warehouse", "parse_csv", "csvio.parse_csv", True),
    ("uwh.ingest", "parse_cell", "values.parse_cell", False),
]


def rebind(module: str, attr: str, make) -> tuple:
    """Replace ``module.attr`` by ``make(original)``, where callers look it
    up; return the ``(module, attr, original)`` that undoes it."""
    mod = importlib.import_module(module)
    original = getattr(mod, attr)
    setattr(mod, attr, make(original))
    return mod, attr, original


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts", "agg")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.counts: dict[str, float] = {}
        self.agg: dict[str, list] = {}  # name -> [calls, seconds, bytes]

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "counts": self.counts,
            "agg": self.agg,
        }


class Tracer:
    def __init__(self, op: str):
        self.op = op
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around a call into uwh."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        span = Span(name, _clock(), parent, self.op)
        self.stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = _clock()
        self.stack.pop()

    def install(self) -> None:
        for module, attr, name, hook in SPANS:
            self._undo.append(rebind(module, attr, self._span_wrapper(name, hook)))
        for module, attr, name, timed in AGGREGATES:
            wrapper = self._agg_wrapper(name) if timed else self._count_wrapper(name)
            self._undo.append(rebind(module, attr, wrapper))

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)

    def _span_wrapper(self, name, hook):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                span = tracer._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer._close(span)
                if hook is not None:
                    for key, amount in hook(args, result).items():
                        span.counts[key] = span.counts.get(key, 0) + amount
                return result

            return wrapper

        return make

    def _agg_wrapper(self, name):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                t0 = _clock()
                result = fn(*args, **kwargs)
                dt = _clock() - t0
                if tracer.stack:
                    slot = tracer.spans[tracer.stack[-1]].agg.setdefault(name, [0, 0.0, 0])
                    slot[0] += 1
                    slot[1] += dt
                    slot[2] += _text_bytes(args[0])
                return result

            return wrapper

        return make

    def _count_wrapper(self, name):
        tracer = self

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if tracer.stack:
                    span = tracer.spans[tracer.stack[-1]]
                    span.counts[name] = span.counts.get(name, 0) + 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def dump(self) -> list[dict]:
        return [s.to_json() for s in self.spans]


# ---------------------------------------------------------------------------
# Derivation of the per-layer metrics from recorded spans


def self_times(spans: list[dict]) -> list[float]:
    """Duration minus child spans minus aggregated calls, per span.
    ``spans`` is one child process's list, so parents are list indexes."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    out = []
    for i, s in enumerate(spans):
        agg_time = sum(a[1] for a in s["agg"].values())
        out.append(s["end"] - s["start"] - child_time[i] - agg_time)
    return out
