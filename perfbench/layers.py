"""Per-layer metrics of a traced run, derived from the spans of its traced
children (see ``tracer.py``) and the counts they recorded.

A traced run traces every second operation: every second ``uwh build`` or
stage-by-stage pass, and every second read interpreter. Span metrics are
totals over one traced operation, reported as the median over the traced
operations of their phase (ETL or read). Query metrics come from every
query of the run. ``trace.*`` compares the traced and untraced samples of
the same run: the difference is the tracing overhead.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from queries import CLASSES
from tracer import self_times

# parent span -> label of the parse_csv calls made under it, by phase
ETL_CSV_PARENTS = {"ingest.extract_table": "ingest", "staging.load_staging": "load_staging"}
OPEN_CSV_PARENTS = {"warehouse.open_warehouse": "open_warehouse", "warehouse.parse_index": "parse_index"}
CONTEXTS = {"warehouse.load": "load", "warehouse.open_warehouse": "open"}
COMMANDS = ("build", "extract", "cleanse", "transform", "load", "report")
# the first MIX queries of ``queries.stream`` run each of the 4 templates
# of each class once
MIX = 4 * len(CLASSES)


class _Totals:
    """Sums over the spans of one traced operation, by span name and by
    ``name@load`` / ``name@open`` for spans inside that warehouse step."""

    def __init__(self, span_lists: list[list[dict]]):
        self.span_lists = span_lists
        self.s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)  # (span name, counter)
        self.agg = defaultdict(lambda: [0, 0.0, 0])  # (span name, aggregate) -> calls, s, bytes
        for spans in span_lists:
            selfs = self_times(spans)
            for i, span in enumerate(spans):
                dur = span["end"] - span["start"]
                names = [span["name"]]
                ctx = _context(spans, i)
                if ctx:
                    names.append(f"{span['name']}@{ctx}")
                for name in names:
                    self.s[name] += dur
                    self.self_s[name] += selfs[i]
                    self.calls[name] += 1
                    for key, amount in span["counts"].items():
                        self.counts[name, key] += amount
                for agg, (n, t, nbytes) in span["agg"].items():
                    slot = self.agg[span["name"], agg]
                    slot[0] += n
                    slot[1] += t
                    slot[2] += nbytes


def _context(spans: list[dict], i: int) -> str | None:
    """``load`` or ``open`` when the span runs inside that warehouse step."""
    p = spans[i]["parent"]
    while p is not None:
        ctx = CONTEXTS.get(spans[p]["name"])
        if ctx:
            return ctx
        p = spans[p]["parent"]
    return None


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _dumped_bytes(t: _Totals) -> int:
    """Bytes of the files ``dump_staging`` writes: what the ``dumps_staging``
    calls under it render (``staging_fingerprint`` renders them too)."""
    return sum(
        span["counts"].get("bytes", 0)
        for spans in t.span_lists
        for span in spans
        if span["name"] == "staging.dumps_staging"
        and span["parent"] is not None
        and spans[span["parent"]]["name"] == "staging.dump_staging"
    )


def _csv_layers(t: _Totals, parents: dict[str, str], m: dict) -> None:
    for parent, label in parents.items():
        calls, seconds, nbytes = t.agg[parent, "csvio.parse_csv"]
        m[f"csvio.parse_csv.{label}.s"] = (seconds, "s")
        m[f"csvio.parse_csv.{label}.calls"] = (calls, "count")
        m[f"csvio.parse_csv.{label}.bytes"] = (nbytes, "B")


def _etl_layers(t: _Totals) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def secs(name: str) -> None:
        m[name] = (t.s[name.rsplit(".", 1)[0]], "s")

    for cmd in COMMANDS:
        secs(f"cli.{cmd}.s")
    _csv_layers(t, ETL_CSV_PARENTS, m)

    secs("ingest.extract_table.s")
    m["ingest.extract_table.self_s"] = (t.self_s["ingest.extract_table"], "s")
    for key in ("rows_read", "rows_staged", "rows_rejected", "raw_cells"):
        m[f"ingest.{key}"] = (t.counts["ingest.extract_table", key], "count")
    m["values.cells_parsed"] = (t.counts["ingest.extract_table", "values.parse_cell"], "count")

    for name in ("cleanse.cleanse_staging", "cleanse.cleanse_table", "cleanse.apply_rule"):
        secs(f"{name}.s")
    m["cleanse.apply_rule.calls"] = (t.calls["cleanse.apply_rule"], "count")
    examined = t.counts["cleanse.apply_rule", "cells_examined"]
    changed = t.counts["cleanse.apply_rule", "cells_changed"]
    m["cleanse.cells_examined"] = (examined, "count")
    m["cleanse.cells_changed"] = (changed, "count")
    m["cleanse.changed_per_examined"] = (_ratio(changed, examined), "ratio")
    secs("cleanse.dedup.s")
    m["cleanse.rows_quarantined"] = (t.counts["cleanse.cleanse_staging", "rows_quarantined"], "count")
    secs("cleanse.reconcile_foreign_keys.s")
    m["cleanse.reconcile_iterations"] = (t.counts["cleanse.cleanse_staging", "reconcile_iterations"], "count")
    secs("schema.check_referential_integrity.s")
    m["schema.check_referential_integrity.calls"] = (t.calls["schema.check_referential_integrity"], "count")

    for name in ("plan.parse_plan", "plan.validate_plan", "transform.execute_plan"):
        secs(f"{name}.s")
    for stmt in ("merge", "add_column", "remove_column", "drop", "clean"):
        secs(f"transform.exec_{stmt}.s")

    secs("staging.dump_staging.s")
    m["staging.dump_staging.bytes"] = (_dumped_bytes(t), "B")
    secs("staging.load_staging.s")
    secs("staging.staging_fingerprint.s")
    secs("staging.render_table_csv.s")
    m["staging.render_table_csv.bytes"] = (t.counts["staging.render_table_csv", "bytes"], "B")

    secs("warehouse.assemble_snowflake.s")
    secs("warehouse.load.s")
    m["warehouse.load.self_s"] = (t.self_s["warehouse.load"], "s")
    m["warehouse.sha256_hex.load.s"] = (t.s["warehouse.sha256_hex@load"], "s")
    m["warehouse.sha256_hex.load.bytes"] = (t.counts["warehouse.sha256_hex@load", "bytes"], "B")
    m["warehouse.build_index.load.s"] = (t.s["warehouse.build_index@load"], "s")
    m["warehouse.build_index.load.calls"] = (t.calls["warehouse.build_index@load"], "count")
    secs("warehouse.render_index.s")
    m["warehouse.render_index.bytes"] = (t.counts["warehouse.render_index", "bytes"], "B")
    m["warehouse.index_entries"] = (t.counts["warehouse.build_index@load", "entries"], "count")
    return m


def _open_layers(t: _Totals) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    _csv_layers(t, OPEN_CSV_PARENTS, m)
    m["warehouse.open_warehouse.s"] = (t.s["warehouse.open_warehouse"], "s")
    m["warehouse.open_warehouse.self_s"] = (t.self_s["warehouse.open_warehouse"], "s")
    m["warehouse.parse_index.s"] = (t.s["warehouse.parse_index"], "s")
    m["warehouse.build_index.open.s"] = (t.s["warehouse.build_index@open"], "s")
    m["warehouse.sha256_hex.open.s"] = (t.s["warehouse.sha256_hex@open"], "s")
    return m


def _median_each(per_op: list[dict], empty: dict) -> dict[str, tuple[float, str]]:
    """Metric by metric, the median over the traced operations; ``empty``
    (all zeros) when none was traced."""
    if not per_op:
        return empty
    return {name: (statistics.median(m[name][0] for m in per_op), unit) for name, (_, unit) in empty.items()}


def per_layer(b) -> dict[str, tuple[float, str]]:
    etl = [_Totals(lists) for op, lists in b.traced.items() if not op.startswith("read")]
    reads = [_Totals(lists) for op, lists in b.traced.items() if op.startswith("read")]
    m = _median_each([_etl_layers(t) for t in etl], _etl_layers(_Totals([])))
    m.update(_median_each([_open_layers(t) for t in reads], _open_layers(_Totals([]))))
    m["warehouse.cells_decoded"] = (b.cells_decoded, "count")

    by_class = defaultdict(list)
    for record in b.queries:
        by_class[record[0]].append(record[1])
    for cls in CLASSES:
        m[f"warehouse.star_query.{cls}.s"] = (statistics.median(by_class[cls]) if by_class[cls] else 0.0, "s")
    joined = sum(record[4] for record in b.queries[:MIX])
    groups = sum(record[5] for record in b.queries[:MIX])
    m["query.joined_rows"] = (joined, "count")
    m["query.groups"] = (groups, "count")
    m["query.joined_rows_per_group"] = (_ratio(joined, groups), "ratio")

    # the sum of the self times of every span of an operation is its root
    # span: by construction the traced time, averaged like the samples
    etl_sums = [sum(t.s[f"cli.{c}"] for c in COMMANDS) for t in etl]
    open_sums = [t.s["warehouse.open_warehouse"] for t in reads]
    for metric, untraced, traced, sums in (
        ("etl_s", b.etl_s, b.etl_traced, etl_sums),
        ("open_s", b.open_s, b.open_traced, open_sums),
    ):
        u = statistics.fmean(untraced) if untraced else 0.0
        v = statistics.fmean(traced) if traced else 0.0
        m[f"trace.{metric}.untraced"] = (u, "s")
        m[f"trace.{metric}.traced"] = (v, "s")
        m[f"trace.{metric}.overhead"] = (v - u if traced and untraced else 0.0, "s")
        m[f"trace.{metric}.layer_sum"] = (statistics.fmean(sums) if sums else 0.0, "s")
    return m


def write_spans(traced: dict[str, list[list[dict]]], path: Path) -> None:
    """All spans of the run, one JSON object a line; ``parent`` indexes the
    spans of the same ``child``."""
    span_lists = [spans for lists in traced.values() for spans in lists]
    with path.open("w", encoding="utf-8") as f:
        for child, spans in enumerate(span_lists):
            for i, span in enumerate(spans):
                f.write(json.dumps(dict(span, child=child, index=i)) + "\n")
