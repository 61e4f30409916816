"""Stage 3: check and run a transform plan against the staging buffer.

Each ``exec_*`` step is the one place its statement is checked and
applied: it raises ``ValidationError`` when the statement does not fit
the staging it receives, then changes rows and schema itself.
``execute_plan`` runs the steps in order; the first statement that does
not fit, in its schema or in its data (such as an ambiguous merge), is
reported by its index. A statement that names a column an earlier one
removed fails in its own step. FACT and DIMENSION only record their
declarations: ``validate_plan`` is ``execute_plan`` run on the schema's
empty tables, followed by the snowflake check ``load`` makes
(``warehouse.assemble_snowflake``), so a plan whose declarations do not
form a snowflake is refused before any row work.

Every operation is functional (the input staging is never mutated), so a
failure anywhere leaves the caller's staging exactly as it was:
plan-level atomicity by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from decimal import Decimal
from itertools import repeat
from operator import itemgetter
from typing import NoReturn

from .cleanse import RuleStats, cleanse_table, make_rule
from .errors import PlanValidationError, ValidationError
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
    JoinCond,
    Lit,
    Logical,
    Merge,
    Not,
    PaidOnDue,
    Plan,
    RemoveColumn,
    Statement,
    pretty_plan,
    pretty_stmt,
)
from .schema import ColumnDef, DatabaseSchema, Table, TableSchema, key_getter
from .staging import DEFAULT_TIMESTAMP, StagingArea, sha256_hex
from .warehouse import assemble_snowflake
from .values import COMPARISONS, ORDERED_TYPES, RawCell, ValueType, coerce_literal, make_decimal, value_tag


def exec_drop(staging: StagingArea, name: str) -> StagingArea:
    if name not in staging.tables:
        raise ValidationError(f"unknown table {name!r}")
    out = staging.clone()
    del out.tables[name]
    _prune_dangling_fks(out)
    return out


def _prune_dangling_fks(staging: StagingArea, renamed: dict[str, str] | None = None) -> None:
    """Point FKs at the new name of a renamed table; drop those whose target is gone."""
    renamed = renamed or {}
    for name, table in list(staging.tables.items()):
        fks = []
        for fk in table.schema.foreign_keys:
            target = renamed.get(fk.target_table, fk.target_table)
            if target in staging.tables:
                fks.append(fk if target == fk.target_table else replace(fk, target_table=target))
        if tuple(fks) != table.schema.foreign_keys:
            staging.tables[name] = Table(replace(table.schema, foreign_keys=tuple(fks)), table.rows)


def resolve_join_order(stmt: Merge, base: str) -> list[tuple[str, list[JoinCond]]]:
    """Join steps in dependency order; every source must link to the join
    chain through at least one condition."""
    remaining = [s for s in stmt.sources if s != base]
    joined = {base}
    conds = list(stmt.conditions)
    order: list[tuple[str, list[JoinCond]]] = []
    while remaining:
        for source in list(remaining):
            usable = [
                c
                for c in conds
                if (c.left.table == source and c.right.table in joined)
                or (c.right.table == source and c.left.table in joined)
            ]
            if not usable:
                continue
            order.append((source, usable))
            for c in usable:
                conds.remove(c)
            joined.add(source)
            remaining.remove(source)
            break
        else:
            raise ValidationError(f"merge sources {remaining} are not connected to {base!r} by ON conditions")
    if conds:
        raise ValidationError(f"join condition {conds[0].left} = {conds[0].right} does not connect a new table")
    return order


def exec_merge(staging: StagingArea, stmt: Merge) -> StagingArea:
    """Left-join the base table along the ON chain and append KEEP columns.

    The base is the target when it exists, otherwise the last listed
    source, which the merge renames. The base keeps its row count; each
    base row may match at most one row per source (a duplicate join key
    in a source is an error); sources are consumed.
    """
    tables = staging.tables
    if len(set(stmt.sources)) != len(stmt.sources):
        raise ValidationError("duplicate source table in MERGE")
    if stmt.target in stmt.sources:
        raise ValidationError(f"target {stmt.target!r} cannot also be a source")
    for s in stmt.sources:
        if s not in tables:
            raise ValidationError(f"unknown source table {s!r}")
    base_name = stmt.target if stmt.target in tables else stmt.sources[-1]
    participants = set(stmt.sources) | {base_name}
    for cond in stmt.conditions:
        for side in (cond.left, cond.right):
            if side.table not in participants:
                raise ValidationError(f"join condition references {side.table!r}, which is not part of the merge")
            if not tables[side.table].schema.has_column(side.name):
                raise ValidationError(f"unknown column {side}")
        if cond.left.table == cond.right.table:
            raise ValidationError(f"join condition must relate two tables, got {cond.left} = {cond.right}")
        lt = tables[cond.left.table].schema.column(cond.left.name).type
        rt = tables[cond.right.table].schema.column(cond.right.name).type
        if lt is not rt:
            raise ValidationError(
                f"join condition type mismatch: {cond.left} is {lt.value}, {cond.right} is {rt.value}"
            )
    join_order = resolve_join_order(stmt, base_name)
    base = tables[base_name]
    kept: set[str] = set()
    for col in stmt.keep:
        if col.table not in stmt.sources or col.table == base_name:
            raise ValidationError(f"KEEP column {col} must come from a merged source table")
        if not tables[col.table].schema.has_column(col.name):
            raise ValidationError(f"unknown KEEP column {col}")
        if base.schema.has_column(col.name) or col.name in kept:
            raise ValidationError(f"KEEP column name {col.name!r} collides")
        kept.add(col.name)

    # matched[t][n]: the row of t that base row n joined, or None
    matched: dict[str, list] = {base_name: base.rows}
    for source, conds in join_order:
        sides = [(c.left, c.right) if c.left.table == source else (c.right, c.left) for c in conds]
        key_of = key_getter(tuple(tables[source].schema.column_index(mine.name) for mine, _ in sides))
        probes = [_cells(matched[other.table], tables[other.table].schema.column_index(other.name)) for _, other in sides]
        built: dict[tuple, tuple] = {}
        for row in tables[source].rows:
            key = key_of(row)
            if None in key:
                continue
            if key in built:
                raise ValidationError(f"ambiguous merge: {source!r} has more than one row with join key {key!r}")
            built[key] = row
        matched[source] = [None if None in probe else built.get(probe) for probe in zip(*probes)]
    extras = [_cells(matched[col.table], tables[col.table].schema.column_index(col.name)) for col in stmt.keep]
    merged_rows = [row + extra for row, extra in zip(base.rows, zip(*extras) if extras else repeat(()))]

    # the merged table carries the base's FKs and the KEEP columns'
    # single-column FKs; the prune below points those that named a renamed
    # base at the target and drops those whose target the merge consumed
    columns = list(base.schema.columns)
    fks = list(base.schema.foreign_keys)
    for col in stmt.keep:
        src_schema = tables[col.table].schema
        columns.append(ColumnDef(col.name, src_schema.column(col.name).type, nullable=True))
        fks.extend(fk for fk in src_schema.foreign_keys if fk.columns == (col.name,))
    out = staging.clone()
    for name in stmt.sources:
        del out.tables[name]
    out.tables[stmt.target] = Table(
        TableSchema(stmt.target, tuple(columns), base.schema.primary_key, tuple(fks)), merged_rows
    )
    _prune_dangling_fks(out, {base_name: stmt.target})
    return out


def _cells(rows: list, idx: int) -> list:
    """Column ``idx`` of ``rows``, Null where a row is None (no match)."""
    return [None if row is None else row[idx] for row in rows]


def _difficulty_labels(rows: list[tuple], g_idx: int, k_idx: int, hi: Decimal, lo: Decimal) -> dict:
    """Group mean of the grade column per group key, bucketed to a label.

    The mean is an exact Decimal sum divided once at context precision,
    far finer than any attainable gap to a threshold, so bucketing agrees
    with exact rational arithmetic. Null grades are excluded; an all-Null
    or empty group is 'unknown'; a Null group key forms its own group.
    """
    groups: dict[object, list] = {}
    for row in rows:
        groups.setdefault(row[k_idx], []).append(row[g_idx])
    labels: dict[object, str] = {}
    for key, grades in groups.items():
        known = [grade for grade in grades if grade is not None]
        if not known:
            labels[key] = "unknown"
            continue
        mean = sum(known, Decimal(0)) / len(known)
        labels[key] = "low" if mean >= hi else "medium" if mean >= lo else "high"
    return labels


def _column(col: Col, table: Table) -> tuple[int, ValueType]:
    """Position and type of ``col`` in ``table``. A non-TEXT column must
    hold no RawCell: text that did not parse as the column's type."""
    schema = table.schema
    if col.table != schema.name:
        raise ValidationError(f"line {col.line}: column reference {col} is outside table {schema.name!r}")
    if not schema.has_column(col.name):
        raise ValidationError(f"line {col.line}: unknown column {col}")
    idx, vtype = schema.column_index(col.name), schema.column(col.name).type
    if vtype is not ValueType.TEXT:
        raw = next((row[idx] for row in table.rows if isinstance(row[idx], RawCell)), None)
        if raw is not None:
            raise ValidationError(f"line {col.line}: {col} holds {str(raw)!r}, not a {vtype.value}; cleanse the staging first")
    return idx, vtype


def _operands(expr: Expr, a: Expr, b: Expr, table: Table, mismatch: str):
    """``a`` and ``b`` compiled, and their common type: when both are typed
    and the types differ, a literal operand, ``b`` first, is coerced to the
    other's type; otherwise ``mismatch`` is formatted with the two types."""
    (fa, at), (fb, bt) = compile_expr(a, table), compile_expr(b, table)
    if at is None or bt is None or at is bt:
        return fa, fb, at or bt
    if isinstance(b, Lit):
        return fa, _coerced(b, at), at
    if isinstance(a, Lit):
        return _coerced(a, bt), fb, bt
    raise ValidationError(f"line {expr.line}: " + mismatch.format(at, bt))


def _coerced(lit: Lit, target: ValueType):
    try:
        value = coerce_literal(lit.value, target)
    except ValueError as exc:
        raise ValidationError(f"line {lit.line}: {exc}") from None
    return lambda row: value


def compile_expr(expr: Expr, table: Table):
    """(row -> value, type) for an expression over ``table``'s rows, in one
    walk: each column reference is checked, each operand typed (the NULL
    literal has type None), a literal that meets a typed operand is coerced
    to its type, and DIFFICULTY's labels are computed from ``table.rows``.
    Raises ValidationError."""
    if isinstance(expr, Lit):
        value = expr.value
        return (lambda row: value), (None if value is None else value_tag(value))
    if isinstance(expr, Col):
        idx, vtype = _column(expr, table)
        return itemgetter(idx), vtype
    if isinstance(expr, Cmp):
        left, right, t = _operands(expr, expr.left, expr.right, table, "cannot compare {} with {}")
        if expr.op not in ("=", "<>") and t is not None and t not in ORDERED_TYPES:
            raise ValidationError(f"line {expr.line}: {expr.op} is not defined for {t.value}")
        op = COMPARISONS[expr.op]

        def cmp(row):
            a = left(row)
            b = right(row)
            return None if a is None or b is None else op(a, b)

        return cmp, ValueType.BOOLEAN
    if isinstance(expr, Logical):
        (left, lt), (right, rt) = compile_expr(expr.left, table), compile_expr(expr.right, table)
        if lt is not ValueType.BOOLEAN or rt is not ValueType.BOOLEAN:
            raise ValidationError(f"line {expr.line}: {expr.op} needs BOOLEAN operands")
        # SQL's three-valued logic: FALSE decides an AND and TRUE an OR,
        # whatever the other operand is; otherwise a Null operand gives Null
        decides = expr.op == "OR"

        def logical(row):
            a = left(row)
            if a is decides:
                return a
            b = right(row)
            if b is decides:
                return b
            return None if a is None or b is None else a

        return logical, ValueType.BOOLEAN
    if isinstance(expr, Not):
        inner, t = compile_expr(expr.operand, table)
        if t is not ValueType.BOOLEAN:
            raise ValidationError(f"line {expr.line}: NOT needs a BOOLEAN operand")

        def negate(row):
            v = inner(row)
            return None if v is None else not v

        return negate, ValueType.BOOLEAN
    if isinstance(expr, Coalesce):
        first, second, t = _operands(expr, expr.first, expr.second, table, "COALESCE operands differ: {} vs {}")
        if t is None:
            raise ValidationError(f"line {expr.line}: COALESCE of two NULL literals has no type")

        def coalesce(row):
            v = first(row)
            return v if v is not None else second(row)

        return coalesce, t
    if isinstance(expr, IsNull):
        inner, _ = compile_expr(expr.operand, table)
        return (lambda row: inner(row) is None), ValueType.BOOLEAN
    if isinstance(expr, PaidOnDue):
        p_idx, d_idx = (_date_column(col, table) for col in (expr.payment, expr.due))

        def paid(row):
            # FALSE, not Null, over a Null date: with no date there is no
            # payment on or before the due date
            p = row[p_idx]
            d = row[d_idx]
            return p is not None and d is not None and p <= d

        return paid, ValueType.BOOLEAN
    if isinstance(expr, Difficulty):
        g_idx, gt = _column(expr.grade, table)
        if gt not in (ValueType.DECIMAL, ValueType.INTEGER):
            raise ValidationError(f"line {expr.line}: DIFFICULTY grade column must be numeric")
        k_idx, _ = _column(expr.group, table)
        if expr.hi <= expr.lo:
            raise ValidationError(f"line {expr.line}: DIFFICULTY thresholds need hi > lo")
        labels = _difficulty_labels(table.rows, g_idx, k_idx, expr.hi, expr.lo)
        return (lambda row: labels.get(row[k_idx], "unknown")), ValueType.TEXT
    raise TypeError(f"not an expression: {expr!r}")


def _date_column(col: Col, table: Table) -> int:
    idx, vtype = _column(col, table)
    if vtype is not ValueType.DATE:
        raise ValidationError(f"line {col.line}: PAID_ON_DUE needs DATE columns, {col} is not")
    return idx


def exec_add_column(staging: StagingArea, stmt: AddColumn) -> StagingArea:
    table = staging.tables.get(stmt.table)
    if table is None:
        raise ValidationError(f"unknown table {stmt.table!r}")
    if table.schema.has_column(stmt.name):
        raise ValidationError(f"column {stmt.table}.{stmt.name} already exists")
    fn, dtype = compile_expr(stmt.derivation, table)
    if dtype is not None and dtype is not stmt.type:
        raise ValidationError(f"derivation evaluates to {dtype.value}, column declared {stmt.type.value}")
    value_of = _as_cell(stmt.type)
    rows = [row + (value_of(fn(row)),) for row in table.rows]
    schema = replace(table.schema, columns=table.schema.columns + (ColumnDef(stmt.name, stmt.type, nullable=True),))
    out = staging.clone()
    out.tables[stmt.table] = Table(schema, rows)
    return out


def _as_cell(vtype: ValueType):
    """Normalize evaluator output onto the cell grid (decimal quantization)."""
    if vtype is ValueType.DECIMAL:
        return lambda v: None if v is None else make_decimal(v)
    return lambda v: v


def exec_remove_column(staging: StagingArea, stmt: RemoveColumn) -> StagingArea:
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
    schema = replace(
        table.schema,
        columns=tuple(c for c in table.schema.columns if c.name != stmt.name),
        foreign_keys=tuple(fk for fk in table.schema.foreign_keys if stmt.name not in fk.columns),
    )
    rows = [row[:idx] + row[idx + 1:] for row in table.rows]
    out = staging.clone()
    out.tables[stmt.table] = Table(schema, rows)
    return out


def exec_clean(staging: StagingArea, stmt: Clean) -> tuple[StagingArea, RuleStats, int]:
    """Apply one rule through the cleanse stage's row pass over the whole
    table, so a row is also quarantined for a raw cell, or a Null in a
    non-nullable column, in any other column. Also return the rule's
    RuleStats, which count the cells changed, and the number of rows
    quarantined."""
    table = staging.tables.get(stmt.table)
    if table is None:
        raise ValidationError(f"unknown table {stmt.table!r}")
    try:  # a malformed rule, or one that does not fit the column
        cleaned, (stats,), quarantined = cleanse_table(table, [make_rule(stmt.table, stmt.name, stmt.kind, stmt.args)])
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    out = staging.clone()
    out.tables[stmt.table] = cleaned
    out.add_quarantine(stmt.table, table.schema.column_names, quarantined)
    return out, stats, len(quarantined)


def _exec_statement(staging: StagingArea, stmt: Statement) -> tuple[StagingArea, dict]:
    """The staging after ``stmt``, and the ``table`` it acted on and the
    ``rows`` it affected: the rows it dropped, the rows of the table it
    wrote, for a CLEAN the cells it changed plus the rows it quarantined
    (each also given apart), and none for a declaration."""
    if isinstance(stmt, DropTable):
        return exec_drop(staging, stmt.table), {"table": stmt.table, "rows": len(staging.tables[stmt.table].rows)}
    if isinstance(stmt, Clean):
        out, stats, quarantined = exec_clean(staging, stmt)
        changed = stats.cells_changed
        return out, {"table": stmt.table, "rows": changed + quarantined, "cells_changed": changed, "rows_quarantined": quarantined}
    if isinstance(stmt, Fact):
        out = staging.clone()
        out.fact_table = stmt.table
        return out, {"table": stmt.table, "rows": 0}
    if isinstance(stmt, Dimension):
        out = staging.clone()
        out.dimensions.append((stmt.table, stmt.key))
        return out, {"table": stmt.table, "rows": 0}
    if isinstance(stmt, Merge):
        out, table = exec_merge(staging, stmt), stmt.target
    elif isinstance(stmt, AddColumn):
        out, table = exec_add_column(staging, stmt), stmt.table
    elif isinstance(stmt, RemoveColumn):
        out, table = exec_remove_column(staging, stmt), stmt.table
    else:
        raise ValidationError(f"unsupported statement {stmt!r}")
    return out, {"table": table, "rows": len(out.tables[table].rows)}


@dataclass(frozen=True)
class PlanDiagnostic:
    index: int  # statement index, 0-based; -1 for plan-level problems
    message: str

    def __str__(self) -> str:
        where = "plan" if self.index < 0 else f"statement {self.index}"
        return f"{where}: {self.message}"


def _refuse(index: int, message: str) -> NoReturn:
    raise PlanValidationError([PlanDiagnostic(index, message)]) from None


def validate_plan(plan: Plan, db: DatabaseSchema) -> DatabaseSchema:
    """The schema ``plan`` leaves on ``db``'s tables with no rows. The plan
    must declare one fact and seven dimensions that ``load`` would accept
    as a snowflake. Raises PlanValidationError naming the first statement
    that does not fit, or the plan for a declaration that does not."""
    empty = StagingArea({name: Table(schema, []) for name, schema in db.tables.items()})
    final = execute_plan(empty, plan)[0]
    facts = sum(isinstance(s, Fact) for s in plan.statements)
    if facts != 1:
        _refuse(-1, f"expected exactly 1 FACT statement, found {facts}")
    try:
        assemble_snowflake(final.tables, final.fact_table, final.dimensions)
    except ValidationError as exc:
        _refuse(-1, str(exc))
    return final.schema()


def execute_plan(staging: StagingArea, plan: Plan, *, timestamp: str = DEFAULT_TIMESTAMP) -> tuple[StagingArea, dict]:
    """Run the plan's statements in order. The first statement that does
    not fit, in its schema or its data, raises PlanValidationError naming
    it; the input staging is then returned to the caller untouched. FACT
    and DIMENSION are recorded, not checked: ``validate_plan`` and
    ``load`` check them.

    Also return the stage's report, the staging's ``reports["transform"]``:
    its ``timestamp``; ``plan_hash``, the SHA-256 of ``pretty_plan(plan)``,
    which ``load`` records; and ``statements``, one entry per executed
    statement, in order, with its ``statement`` text, ``table`` and
    ``rows`` affected, and for a CLEAN its ``cells_changed`` and
    ``rows_quarantined``."""
    current = staging
    statements = []
    for i, stmt in enumerate(plan.statements):
        try:
            current, entry = _exec_statement(current, stmt)
        except ValidationError as exc:
            _refuse(i, str(exc))
        statements.append({"statement": pretty_stmt(stmt), **entry})
    plan_hash = sha256_hex(pretty_plan(plan).encode("utf-8"))
    current = current.clone()
    current.reports["transform"] = report = {"timestamp": timestamp, "plan_hash": plan_hash, "statements": statements}
    return current, report
