"""Stage 2: scrub and data cleansing.

Rule-driven repair and standardization, exact-duplicate collapse, and
foreign-key reconciliation. Rules are pure cell transformations applied
in listed order, in one pass over each table's rows; anything a rule
cannot repair quarantines its row, so no anomaly survives silently into
cleansed staging. Quarantined rows go by rule, then by row. Reconcile
quarantines every orphaned row; rounds after the first recheck only the
FKs into tables that shrank.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from decimal import Decimal

from .errors import ParseError, ValidationError
from .plan import Clean, parse_plan, pretty_stmt
from .schema import Table, TableSchema, check_referential_integrity, key_getter, row_checker
from .staging import DEFAULT_TIMESTAMP, QRow, StagingArea
from .values import RawCell, ValueType, cell_converter, coerce_literal, parse_date_flexible, render_cell

RULE_KINDS = ("trim", "collapse_whitespace", "case", "normalize_date", "null_standardize", "domain", "range")

_CASE_MODES = ("upper", "lower", "title")
_DATE_FORMATS = ("iso", "day_first", "month_first", "month_name")

_WORD_RE = re.compile(r"[A-Za-z]+")
_WS_RUN_RE = re.compile(r"\s+")


def rule_label(rule: Clean) -> str:
    """The rule as the cleanse report names it: ``table.column kind(args)``."""
    args = "" if not rule.args else "(" + ", ".join(render_cell(a) for a in rule.args) + ")"
    return f"{rule.table}.{rule.name} {rule.kind}{args}"


def make_rule(table: str, column: str, kind: str, args: tuple) -> Clean:
    """Arg-shape validation; raises ValueError on a malformed rule."""
    if kind not in RULE_KINDS:
        raise ValueError(f"unknown rule kind {kind!r}")
    args = tuple(args)
    if kind in ("trim", "collapse_whitespace") and args:
        raise ValueError(f"{kind} takes no arguments")
    if kind == "case":
        if len(args) != 1 or args[0] not in _CASE_MODES:
            raise ValueError(f"case needs one of {_CASE_MODES}")
    if kind == "normalize_date":
        if not args or any(a not in _DATE_FORMATS for a in args):
            raise ValueError(f"normalize_date needs a priority list drawn from {_DATE_FORMATS}")
    if kind == "null_standardize":
        if not args or any(not isinstance(a, str) for a in args):
            raise ValueError("null_standardize needs one or more text tokens")
    if kind == "domain":
        if not args:
            raise ValueError("domain needs at least one allowed value")
    if kind == "range":
        if len(args) != 2 or any(isinstance(a, bool) or not isinstance(a, (int, Decimal)) for a in args):
            raise ValueError("range needs two numeric bounds")
        if args[0] > args[1]:
            raise ValueError("range bounds must satisfy min <= max")
    return Clean(table, column, kind, args)


@dataclass
class RuleStats:
    rule: Clean
    cells_examined: int = 0
    cells_changed: int = 0
    cells_quarantined: int = 0


class _Flag(str):
    """The reason a rule gives for a cell it cannot repair."""

    __slots__ = ()


# kind -> (the column types it applies to, their name in its error)
_COLUMN_TYPES = {
    "case": ((ValueType.TEXT,), "TEXT"),
    "normalize_date": ((ValueType.DATE,), "DATE"),
    "range": ((ValueType.INTEGER, ValueType.DECIMAL), "numeric"),
}


def _title_case(s: str) -> str:
    return _WORD_RE.sub(lambda m: m.group(0).capitalize(), s)


def compile_rule(rule: Clean, schema: TableSchema):
    """Check a rule made by ``make_rule`` against its table's schema and
    compile it, raising a ValueError that names the rule if it names an
    unknown column, does not fit the column's type or has an argument of
    another type. Returns its RuleStats, whose rule has its args coerced
    to the column's type, and its row step: row -> the row after the rule,
    or the _Flag of the anomaly it finds. A changed raw cell whose text
    now parses as the declared type becomes that typed value."""

    def fault(msg) -> ValueError:
        return ValueError(f"rule {rule_label(rule)}: {msg}")

    if not schema.has_column(rule.name):
        raise fault(f"{schema.name} has no column {rule.name!r}")
    col_idx = schema.column_index(rule.name)
    col_type = schema.columns[col_idx].type
    kind = rule.kind
    types, what = _COLUMN_TYPES.get(kind, (ValueType, ""))
    if col_type not in types:
        raise fault(f"{kind} applies to {what} columns, {rule.name} is {col_type.value}")
    if kind in ("range", "domain"):
        try:
            rule = replace(rule, args=tuple(coerce_literal(a, col_type) for a in rule.args))
        except ValueError as exc:
            raise fault(exc) from None
    args = rule.args

    # fn: cell -> the same cell object when the rule leaves it alone, the
    # new cell when it changes it, or a _Flag
    if kind in ("trim", "collapse_whitespace"):
        fix = str.strip if kind == "trim" else lambda s: _WS_RUN_RE.sub(" ", s)

        def fn(cell):
            if isinstance(cell, RawCell):
                new = fix(cell)
                return cell if new == cell else RawCell(new)
            if col_type is ValueType.TEXT and isinstance(cell, str):
                new = fix(cell)
                return cell if new == cell else new
            return cell
    elif kind == "case":
        fix = {"upper": str.upper, "lower": str.lower, "title": _title_case}[args[0]]

        def fn(cell):
            if not isinstance(cell, str):
                return cell
            new = fix(cell)
            return cell if new == cell else new
    elif kind == "normalize_date":
        def fn(cell):
            if not isinstance(cell, RawCell):
                return cell
            parsed = parse_date_flexible(cell, args)
            return _Flag("unparseable-date") if parsed is None else parsed
    elif kind == "null_standardize":
        tokens = set(args)

        def fn(cell):
            return None if isinstance(cell, str) and cell.strip() in tokens else cell
    elif kind == "domain":
        allowed = set(args)

        def fn(cell):
            if cell is None:
                return cell
            return _Flag("out-of-domain") if isinstance(cell, RawCell) or cell not in allowed else cell
    else:  # range
        lo, hi = args

        def fn(cell):
            if cell is None:
                return cell
            if isinstance(cell, RawCell):
                return _Flag("unparseable-number")
            return cell if lo <= cell <= hi else _Flag("out-of-range")

    convert = cell_converter(col_type)
    stats = RuleStats(rule)

    def step(row: tuple):
        cell = row[col_idx]
        new = fn(cell)
        if new is cell:
            return row
        if new.__class__ is _Flag:
            return new
        if new.__class__ is RawCell:
            parsed = convert(new)  # None only for empty text, which stays raw
            if parsed is not None:
                new = parsed
        stats.cells_changed += 1
        return row[:col_idx] + (new,) + row[col_idx + 1:]

    return stats, step


def apply_rule(table: Table, rule: Clean) -> tuple[Table, RuleStats]:
    """Apply one rule to its column; a row it flags is kept as it was, not removed."""
    stats, step = compile_rule(rule, table.schema)
    stats.cells_examined = len(table.rows)
    rows = [row if out.__class__ is _Flag else out for row, out in zip(table.rows, map(step, table.rows))]
    return Table(table.schema, rows), stats


@dataclass
class TableCleanseSlice:
    table: str
    rows_in: int
    rows_out: int = 0
    rows_quarantined: int = 0
    rule_stats: list[RuleStats] = field(default_factory=list)
    quarantined: list[QRow] = field(default_factory=list)


def cleanse_table(table: Table, rules: list[Clean]) -> tuple[Table, TableCleanseSlice]:
    """Each row runs the rules in order until one flags it, which quarantines
    it; a row that passes them all but fails strict conformance (surviving
    raw cell, Null in a non-nullable column) is quarantined after those."""
    slice_ = TableCleanseSlice(table.name, rows_in=len(table.rows))
    compiled = [(*compile_rule(rule, table.schema), []) for rule in rules]
    check = row_checker(table.schema)
    kept: list[tuple] = []
    failed: list[QRow] = []
    for row in table.rows:
        for stats, step, flagged in compiled:
            out = step(row)
            if out.__class__ is _Flag:
                flagged.append(QRow(f"{out}:{stats.rule.name}", tuple(map(render_cell, row))))
                break
            row = out
        else:
            issue = check(row)
            if issue is None:
                kept.append(row)
            else:
                failed.append(QRow(str(issue), tuple(map(render_cell, row))))
    reaching = len(table.rows)
    for stats, _, flagged in compiled:
        stats.cells_examined = reaching
        stats.cells_quarantined = len(flagged)
        reaching -= len(flagged)
        slice_.rule_stats.append(stats)
        slice_.quarantined += flagged
    slice_.quarantined += failed
    slice_.rows_out = len(kept)
    slice_.rows_quarantined = len(slice_.quarantined)
    if slice_.rows_in != slice_.rows_out + slice_.rows_quarantined:
        raise AssertionError(f"{table.name}: cleanse conservation violated")
    return Table(table.schema, kept), slice_


@dataclass
class DedupSlice:
    table: str
    exact_removed: int = 0
    pk_conflicts: int = 0
    quarantined: list[QRow] = field(default_factory=list)


def dedup(table: Table) -> tuple[Table, DedupSlice]:
    """Collapse exact duplicates to their first occurrence; quarantine rows
    that repeat an earlier primary key with a different payload."""
    slice_ = DedupSlice(table.name)
    seen_rows: set[tuple] = set()
    seen_pks: set[tuple] = set()
    kept: list[tuple] = []
    pk_of = key_getter(table.schema.pk_indexes())
    for row in table.rows:
        if row in seen_rows:
            slice_.exact_removed += 1
            continue
        pk = pk_of(row)
        if pk in seen_pks:
            slice_.pk_conflicts += 1
            slice_.quarantined.append(QRow("pk-conflict", tuple(map(render_cell, row))))
            continue
        seen_rows.add(row)
        seen_pks.add(pk)
        kept.append(row)
    return Table(table.schema, kept), slice_


@dataclass
class ReconcileStats:
    iterations: int = 0
    per_fk: dict = field(default_factory=dict)  # label -> {"quarantined": n}


def reconcile_foreign_keys(staging: StagingArea) -> tuple[StagingArea, ReconcileStats]:
    """Quarantine every orphan FK row until the orphan report is empty.
    Quarantining can orphan dependents, hence the fixpoint loop. Each
    orphaned FK's entry is ``{"quarantined": n}``, the rows quarantined
    under its label."""
    staging = staging.clone()
    stats = ReconcileStats()
    report = check_referential_integrity(staging.tables)
    while not report.is_empty():
        stats.iterations += 1
        drops: dict[str, dict[int, str]] = {}  # row -> its last orphaned FK
        for entry in report.entries:
            stats.per_fk.setdefault(entry.fk, {"quarantined": 0})
            drops.setdefault(entry.table, {})[entry.row_index] = entry.fk
        # a quarantined row counts once, under the FK its reason names
        for name, doomed in drops.items():
            table = staging.tables[name]
            orphans = []
            for i, label in sorted(doomed.items()):
                stats.per_fk[label]["quarantined"] += 1
                orphans.append(QRow(f"orphan:{label}", tuple(map(render_cell, table.rows[i]))))
            staging.add_quarantine(name, table.schema.column_names, orphans)
            staging.tables[name] = Table(table.schema, [row for i, row in enumerate(table.rows) if i not in doomed])
        # only an FK into a table that shrank can gain an orphan
        report = check_referential_integrity(staging.tables, targets=set(drops))
    return staging, stats


@dataclass
class CleanseReport:
    tables: dict = field(default_factory=dict)  # name -> TableCleanseSlice summary
    dedup: dict = field(default_factory=dict)
    reconcile: dict = field(default_factory=dict)
    reconcile_iterations: int = 0

    def to_json_dict(self) -> dict:
        return {
            "tables": dict(sorted(self.tables.items())),
            "dedup": dict(sorted(self.dedup.items())),
            "reconcile": {"iterations": self.reconcile_iterations, "foreign_keys": dict(sorted(self.reconcile.items()))},
        }

    def to_text(self) -> str:
        lines = ["cleanse report", "=============="]
        total_changed = total_quarantined = 0
        for name, s in self.tables.items():
            lines.append(f"{name}: in={s['rows_in']} out={s['rows_out']} quarantined={s['rows_quarantined']}")
            for r in s["rules"]:
                if r["cells_changed"] or r["cells_quarantined"]:
                    lines.append(
                        f"  {r['rule']}: examined={r['cells_examined']}"
                        f" changed={r['cells_changed']} quarantined={r['cells_quarantined']}"
                    )
                total_changed += r["cells_changed"]
                total_quarantined += r["cells_quarantined"]
        for name, d in self.dedup.items():
            if d["exact_removed"] or d["pk_conflicts"]:
                lines.append(f"{name}: duplicates removed={d['exact_removed']} pk conflicts={d['pk_conflicts']}")
        for label, e in self.reconcile.items():
            if e["quarantined"]:
                lines.append(f"{label}: orphans quarantined={e['quarantined']}")
        lines.append(f"total cells changed={total_changed} cells quarantined={total_quarantined}")
        return "\n".join(lines) + "\n"


def cleanse_staging(
    staging: StagingArea, rules: list[Clean], *, timestamp: str = DEFAULT_TIMESTAMP
) -> tuple[StagingArea, CleanseReport]:
    """Whole-staging pass: per-table rules then dedup, then FK reconciliation.
    The staging's ``reports["cleanse"]`` is the report's JSON form with the
    stage's ``timestamp``."""
    for rule in rules:
        if rule.table not in staging.tables:
            raise ValidationError(f"rule {rule_label(rule)} names unknown table {rule.table!r}")
    staging = staging.clone()
    report = CleanseReport()
    for name in list(staging.tables):
        table = staging.tables[name]
        table_rules = [r for r in rules if r.table == name]
        columns = table.schema.column_names
        try:
            cleaned, slice_ = cleanse_table(table, table_rules)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        staging.add_quarantine(name, columns, slice_.quarantined)
        deduped, dslice = dedup(cleaned)
        staging.add_quarantine(name, columns, dslice.quarantined)
        staging.tables[name] = deduped
        report.tables[name] = {
            "rows_in": slice_.rows_in,
            "rows_out": len(deduped.rows),
            "rows_quarantined": slice_.rows_quarantined,
            "rules": [
                {
                    "rule": rule_label(s.rule),
                    "kind": s.rule.kind,
                    "cells_examined": s.cells_examined,
                    "cells_changed": s.cells_changed,
                    "cells_quarantined": s.cells_quarantined,
                }
                for s in slice_.rule_stats
            ],
        }
        report.dedup[name] = {"exact_removed": dslice.exact_removed, "pk_conflicts": dslice.pk_conflicts}
    staging, rstats = reconcile_foreign_keys(staging)
    report.reconcile = rstats.per_fk
    report.reconcile_iterations = rstats.iterations
    staging.reports["cleanse"] = {"timestamp": timestamp, **report.to_json_dict()}
    return staging, report


def parse_rules(text: str) -> list[Clean]:
    """Rules file: CLEAN statements, parsed by the plan parser."""
    rules: list[Clean] = []
    for stmt in parse_plan(text).statements:
        if not isinstance(stmt, Clean):
            raise ParseError(f"a rules file holds only CLEAN statements, found {pretty_stmt(stmt)!r}", stmt.line)
        try:
            rules.append(make_rule(stmt.table, stmt.name, stmt.kind, stmt.args))
        except ValueError as exc:
            raise ValidationError(f"line {stmt.line}: {exc}") from exc
    return rules
