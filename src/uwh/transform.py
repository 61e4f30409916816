"""Stage 3: execute a validated plan against the staging buffer.

Statements run in plan order. Every operation is functional (the input
staging is never mutated), so a failure anywhere leaves the caller's
staging exactly as it was: plan-level atomicity by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from decimal import Decimal

from .cleanse import cleanse_table, make_rule
from .errors import ValidationError
from .plan import (
    AddColumn,
    Clean,
    Cmp,
    Coalesce,
    Col,
    Difficulty,
    Dimension,
    DropTable,
    Expr,
    Fact,
    IsNull,
    Lit,
    Logical,
    Merge,
    Not,
    PaidOnDue,
    Plan,
    RemoveColumn,
    add_column_schema_effect,
    drop_schema_effect,
    merge_schema_effect,
    pretty_plan,
    pretty_stmt,
    remove_column_schema_effect,
    resolve_join_order,
    resolve_merge_base,
    validate_plan,
)
from .schema import Table, TableSchema
from .staging import DEFAULT_TIMESTAMP, LineageEvent, StagingArea
from .values import COMPARISONS, ValueType, make_decimal


def exec_drop(staging: StagingArea, name: str, *, timestamp: str = DEFAULT_TIMESTAMP) -> StagingArea:
    if name not in staging.tables:
        raise ValidationError(f"cannot drop unknown table {name!r}")
    out = staging.clone()
    rows = len(out.tables[name].rows)
    shadow = {n: t.schema for n, t in out.tables.items()}
    drop_schema_effect(shadow, name)
    del out.tables[name]
    _apply_shadow(out, shadow)
    out.log(LineageEvent("statement", name, f"dropped ({rows} rows)", rows, timestamp))
    return out


def _apply_shadow(staging: StagingArea, shadow: dict[str, TableSchema]) -> None:
    """Adopt pruned/retargeted FK declarations from a schema-effect helper."""
    for name, schema in shadow.items():
        table = staging.tables.get(name)
        if table is not None and table.schema is not schema:
            staging.tables[name] = Table(schema, table.rows)


def exec_merge(staging: StagingArea, stmt: Merge, *, timestamp: str = DEFAULT_TIMESTAMP) -> StagingArea:
    """Left-join the base table along the ON chain and append KEEP columns.

    The base keeps its row count; each base row may match at most one row
    per source (a duplicate join key in a source is an error); sources are
    consumed.
    """
    shadow = {n: t.schema for n, t in staging.tables.items()}
    base_name = resolve_merge_base(shadow, stmt)
    for s in stmt.sources:
        if s not in staging.tables:
            raise ValidationError(f"merge source {s!r} does not exist")
    join_order = resolve_join_order(stmt, base_name)

    base = staging.tables[base_name]
    # joined context per result row: table name -> that table's matched row (or None)
    contexts: list[dict[str, tuple | None]] = [{base_name: row} for row in base.rows]

    for source, conds in join_order:
        src = staging.tables[source]
        src_schema = src.schema
        src_cols = []
        other_sides: list[Col] = []
        for c in conds:
            mine, other = (c.left, c.right) if c.left.table == source else (c.right, c.left)
            src_cols.append(src_schema.column_index(mine.name))
            other_sides.append(other)
        built: dict[tuple, tuple] = {}
        for row in src.rows:
            key = tuple(row[i] for i in src_cols)
            if any(v is None for v in key):
                continue
            if key in built:
                raise ValidationError(f"ambiguous merge: {source!r} has more than one row with join key {key!r}")
            built[key] = row
        other_getters = []
        for other in other_sides:
            idx = staging.tables[other.table].schema.column_index(other.name)
            other_getters.append((other.table, idx))
        for ctx in contexts:
            probe = []
            for tname, idx in other_getters:
                row = ctx.get(tname)
                probe.append(None if row is None else row[idx])
            ctx[source] = built.get(tuple(probe)) if None not in probe else None

    _, merged_schema, consumed = merge_schema_effect(shadow, stmt)
    keep_getters = []
    for col in stmt.keep:
        keep_getters.append((col.table, staging.tables[col.table].schema.column_index(col.name)))
    merged_rows = []
    for ctx in contexts:
        base_row = ctx[base_name]
        extra = []
        for tname, idx in keep_getters:
            row = ctx.get(tname)
            extra.append(None if row is None else row[idx])
        merged_rows.append(base_row + tuple(extra))

    out = staging.clone()
    for name in consumed:
        del out.tables[name]
    if base_name != stmt.target:
        del out.tables[base_name]
    out.tables[stmt.target] = Table(merged_schema, merged_rows)
    _apply_shadow(out, shadow)
    out.log(
        LineageEvent(
            "statement",
            stmt.target,
            f"merged {', '.join(stmt.sources)} into {stmt.target} ({len(merged_rows)} rows)",
            len(merged_rows),
            timestamp,
        )
    )
    return out


def _difficulty_context(table: Table, expr: Difficulty) -> dict:
    """Group mean of the grade column per group key, bucketed to a label.

    The mean is an exact Decimal sum divided once at context precision,
    far finer than any attainable gap to a threshold, so bucketing agrees
    with exact rational arithmetic. Null grades are excluded; an all-Null
    or empty group is 'unknown'; a Null group key forms its own group.
    """
    g_idx = table.schema.column_index(expr.grade.name)
    k_idx = table.schema.column_index(expr.group.name)
    sums: dict[object, Decimal] = {}
    counts: dict[object, int] = {}
    for row in table.rows:
        key = row[k_idx]
        grade = row[g_idx]
        if grade is None:
            sums.setdefault(key, Decimal(0))
            counts.setdefault(key, 0)
            continue
        sums[key] = sums.get(key, Decimal(0)) + (grade if isinstance(grade, Decimal) else Decimal(grade))
        counts[key] = counts.get(key, 0) + 1
    labels: dict[object, str] = {}
    for key, count in counts.items():
        if count == 0:
            labels[key] = "unknown"
            continue
        mean = sums[key] / count
        if mean >= expr.hi:
            labels[key] = "low"
        elif mean >= expr.lo:
            labels[key] = "medium"
        else:
            labels[key] = "high"
    return {"column": k_idx, "labels": labels}


def compile_expr(expr: Expr, schema: TableSchema):
    """Closure evaluating a type-checked expression for one row.

    Aggregate context (for DIFFICULTY) is prepared once per statement by
    the caller and passed per evaluation.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda row, agg: value
    if isinstance(expr, Col):
        idx = schema.column_index(expr.name)
        return lambda row, agg: row[idx]
    if isinstance(expr, Cmp):
        left = compile_expr(expr.left, schema)
        right = compile_expr(expr.right, schema)
        op = COMPARISONS[expr.op]

        def cmp(row, agg):
            a = left(row, agg)
            b = right(row, agg)
            return a is not None and b is not None and op(a, b)

        return cmp
    if isinstance(expr, Logical):
        left = compile_expr(expr.left, schema)
        right = compile_expr(expr.right, schema)
        if expr.op == "AND":
            return lambda row, agg: left(row, agg) and right(row, agg)
        return lambda row, agg: left(row, agg) or right(row, agg)
    if isinstance(expr, Not):
        inner = compile_expr(expr.operand, schema)
        return lambda row, agg: not inner(row, agg)
    if isinstance(expr, Coalesce):
        first = compile_expr(expr.first, schema)
        second = compile_expr(expr.second, schema)

        def coalesce(row, agg):
            v = first(row, agg)
            return v if v is not None else second(row, agg)

        return coalesce
    if isinstance(expr, IsNull):
        inner = compile_expr(expr.operand, schema)
        return lambda row, agg: inner(row, agg) is None
    if isinstance(expr, PaidOnDue):
        p_idx = schema.column_index(expr.payment.name)
        d_idx = schema.column_index(expr.due.name)

        def paid(row, agg):
            p = row[p_idx]
            d = row[d_idx]
            return p is not None and d is not None and p <= d

        return paid
    if isinstance(expr, Difficulty):
        def difficulty(row, agg):
            ctx = agg[id(expr)]
            return ctx["labels"].get(row[ctx["column"]], "unknown")

        return difficulty
    raise TypeError(f"not an expression: {expr!r}")


def _aggregate_contexts(table: Table, expr: Expr) -> dict:
    agg: dict = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Difficulty):
            agg[id(e)] = _difficulty_context(table, e)
        elif isinstance(e, (Cmp, Logical)):
            stack.extend([e.left, e.right])
        elif isinstance(e, Coalesce):
            stack.extend([e.first, e.second])
        elif isinstance(e, (Not, IsNull)):
            stack.append(e.operand)
    return agg


def eval_expr(expr: Expr, table: Table, row: tuple, agg: dict | None = None):
    """Evaluate one type-checked expression against one row of ``table``."""
    if agg is None:
        agg = _aggregate_contexts(table, expr)
    return compile_expr(expr, table.schema)(row, agg)


def exec_add_column(staging: StagingArea, stmt: AddColumn, *, timestamp: str = DEFAULT_TIMESTAMP) -> StagingArea:
    table = staging.tables.get(stmt.table)
    if table is None:
        raise ValidationError(f"unknown table {stmt.table!r}")
    if table.schema.has_column(stmt.name):
        raise ValidationError(f"column {stmt.table}.{stmt.name} already exists")
    agg = _aggregate_contexts(table, stmt.derivation)
    fn = compile_expr(stmt.derivation, table.schema)
    shadow = {n: t.schema for n, t in staging.tables.items()}
    add_column_schema_effect(shadow, stmt)
    new_schema = shadow[stmt.table]
    value_of = _as_cell(stmt.type)
    rows = [row + (value_of(fn(row, agg)),) for row in table.rows]
    out = staging.clone()
    out.tables[stmt.table] = Table(new_schema, rows)
    out.log(
        LineageEvent("statement", stmt.table, f"added column {stmt.name} ({len(rows)} rows)", len(rows), timestamp)
    )
    return out


def _as_cell(vtype: ValueType):
    """Normalize evaluator output onto the cell grid (decimal quantization)."""
    if vtype is ValueType.DECIMAL:
        return lambda v: None if v is None else make_decimal(v)
    return lambda v: v


def exec_remove_column(staging: StagingArea, stmt: RemoveColumn, *, timestamp: str = DEFAULT_TIMESTAMP) -> StagingArea:
    table = staging.tables.get(stmt.table)
    if table is None:
        raise ValidationError(f"unknown table {stmt.table!r}")
    if not table.schema.has_column(stmt.name):
        raise ValidationError(f"unknown column {stmt.table}.{stmt.name}")
    if stmt.name in table.schema.primary_key:
        raise ValidationError(f"cannot remove key column {stmt.table}.{stmt.name}")
    for other in staging.tables.values():
        for fk in other.schema.foreign_keys:
            if fk.target_table == stmt.table and stmt.name in fk.target_columns:
                raise ValidationError(f"column {stmt.table}.{stmt.name} is referenced by {fk.label(other.name)}")
    idx = table.schema.column_index(stmt.name)
    shadow = {n: t.schema for n, t in staging.tables.items()}
    remove_column_schema_effect(shadow, stmt)
    rows = [row[:idx] + row[idx + 1:] for row in table.rows]
    out = staging.clone()
    out.tables[stmt.table] = Table(shadow[stmt.table], rows)
    out.log(
        LineageEvent("statement", stmt.table, f"removed column {stmt.name} ({len(rows)} rows)", len(rows), timestamp)
    )
    return out


def exec_clean(staging: StagingArea, stmt: Clean, *, timestamp: str = DEFAULT_TIMESTAMP) -> StagingArea:
    table = staging.tables.get(stmt.table)
    if table is None:
        raise ValidationError(f"unknown table {stmt.table!r}")
    try:
        rule = make_rule(stmt.table, stmt.name, stmt.kind, stmt.args)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    cleaned, slice_ = cleanse_table(table, [rule])
    out = staging.clone()
    out.tables[stmt.table] = cleaned
    columns = table.schema.column_names
    for qr in slice_.quarantined:
        out.add_quarantine(stmt.table, columns, qr.reason, qr.fields)
    changed = sum(s.cells_changed for s in slice_.rule_stats)
    out.log(
        LineageEvent(
            "statement",
            stmt.table,
            f"cleaned {stmt.name} with {stmt.kind} (changed={changed} quarantined={slice_.rows_quarantined})",
            changed + slice_.rows_quarantined,
            timestamp,
        )
    )
    return out


def execute_plan(staging: StagingArea, plan: Plan, *, timestamp: str = DEFAULT_TIMESTAMP) -> tuple[StagingArea, list[LineageEvent]]:
    """Validate then run the plan; on any error the input staging is
    returned to the caller untouched. The returned lineage slice has one
    entry per executed statement, in order. ``reports["transform"]["plan_hash"]``
    is the SHA-256 of ``pretty_plan(plan)``; ``load`` records it."""
    checked = validate_plan(plan, staging.schema(), require_warehouse_decls=False)
    current = staging
    start = len(staging.lineage)
    for i, stmt in enumerate(checked.plan.statements):
        before = len(current.lineage)
        if isinstance(stmt, DropTable):
            current = exec_drop(current, stmt.table, timestamp=timestamp)
        elif isinstance(stmt, Merge):
            current = exec_merge(current, stmt, timestamp=timestamp)
        elif isinstance(stmt, AddColumn):
            current = exec_add_column(current, stmt, timestamp=timestamp)
        elif isinstance(stmt, RemoveColumn):
            current = exec_remove_column(current, stmt, timestamp=timestamp)
        elif isinstance(stmt, Clean):
            current = exec_clean(current, stmt, timestamp=timestamp)
        elif isinstance(stmt, Fact):
            current = current.clone()
            current.fact_table = stmt.table
            current.log(LineageEvent("statement", stmt.table, "declared fact", 0, timestamp))
        elif isinstance(stmt, Dimension):
            current = current.clone()
            current.dimensions.append((stmt.table, stmt.key))
            current.log(LineageEvent("statement", stmt.table, f"declared dimension key {stmt.key}", 0, timestamp))
        else:  # pragma: no cover - parser produces no other statements
            raise ValidationError(f"unsupported statement {stmt!r}")
        # stamp statement provenance onto the entries this statement produced
        stamped = [
            ev if ev.statement_index is not None else _stamp(ev, i, pretty_stmt(plan.statements[i]))
            for ev in current.lineage[before:]
        ]
        current.lineage[before:] = stamped
    current = current.clone()
    current.reports["transform"] = {"plan_hash": hashlib.sha256(pretty_plan(plan).encode("utf-8")).hexdigest()}
    return current, current.lineage[start:]


def _stamp(ev: LineageEvent, index: int, text: str) -> LineageEvent:
    return replace(ev, statement_index=index, statement_text=text)
