"""The transform-plan language: AST, recursive-descent parser, validator,
and canonical pretty-printer.

A plan is an ordered statement list over the staging schema:
DROP TABLE, MERGE ... INTO ... ON ... KEEP, ADD COLUMN ... AS <expr>,
REMOVE COLUMN, CLEAN ... WITH <rule>, FACT, and DIMENSION ... KEY.

``validate_plan`` simulates the schema effect of each statement against a
shadow schema, type-checks every expression, and (by default) requires
the one-fact/seven-dimension shape the warehouse loader expects. The
schema-effect helpers live here so the executor cannot drift from what
validation approved.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from decimal import Decimal
from typing import Iterable

from . import cleanse as cleanse_mod
from .errors import ParseError, PlanParseError, PlanValidationError
from .lexer import Token, tokenize
from .schema import ColumnDef, DatabaseSchema, ForeignKey, TableSchema
from .values import COMPARISONS, ORDERED_TYPES, ValueType, coerce_literal, decimal_text, make_decimal, render_cell, value_tag

_POS = dict(default=0, compare=False, repr=False)


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: object
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class Col(Expr):
    table: str
    name: str
    line: int = field(**_POS)
    column: int = field(**_POS)

    def __str__(self) -> str:
        return f"{self.table}.{self.name}"


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class Logical(Expr):
    op: str  # AND | OR
    left: Expr
    right: Expr
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class Coalesce(Expr):
    first: Expr
    second: Expr
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class PaidOnDue(Expr):
    payment: Col
    due: Col
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class Difficulty(Expr):
    grade: Col
    group: Col
    hi: Decimal
    lo: Decimal
    line: int = field(**_POS)
    column: int = field(**_POS)


@dataclass(frozen=True)
class JoinCond:
    left: Col
    right: Col


@dataclass(frozen=True)
class Statement:
    pass


@dataclass(frozen=True)
class DropTable(Statement):
    table: str
    line: int = field(**_POS)


@dataclass(frozen=True)
class Merge(Statement):
    sources: tuple[str, ...]
    target: str
    conditions: tuple[JoinCond, ...]
    keep: tuple[Col, ...]
    line: int = field(**_POS)


@dataclass(frozen=True)
class AddColumn(Statement):
    table: str
    name: str
    type: ValueType
    derivation: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class RemoveColumn(Statement):
    table: str
    name: str
    line: int = field(**_POS)


@dataclass(frozen=True)
class Clean(Statement):
    table: str
    name: str
    kind: str
    args: tuple = ()
    line: int = field(**_POS)


@dataclass(frozen=True)
class Fact(Statement):
    table: str
    line: int = field(**_POS)


@dataclass(frozen=True)
class Dimension(Statement):
    table: str
    key: str
    line: int = field(**_POS)


@dataclass(frozen=True)
class Plan:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# Parser


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, expected: str, tok: Token | None = None) -> PlanParseError:
        tok = tok or self.peek()
        return PlanParseError(f"expected {expected}, found {tok.describe()}", tok.line, tok.column)

    def at_kw(self, *names: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.norm in names

    def at_symbol(self, sym: str) -> bool:
        tok = self.peek()
        return tok.kind == "symbol" and tok.lexeme == sym

    def expect_kw(self, name: str) -> Token:
        if not self.at_kw(name):
            raise self.error(f"keyword {name}")
        return self.advance()

    def expect_symbol(self, sym: str) -> Token:
        if not self.at_symbol(sym):
            raise self.error(f"{sym!r}")
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.kind != "ident":
            raise self.error("identifier")
        return self.advance()

    def qcol(self) -> Col:
        table = self.expect_ident()
        self.expect_symbol(".")
        name = self.expect_ident()
        return Col(table.lexeme, name.lexeme, table.line, table.column)

    def literal(self):
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return make_decimal(tok.lexeme) if "." in tok.lexeme else int(tok.lexeme)
        if tok.kind == "string":
            self.advance()
            return tok.lexeme
        if tok.kind == "kw" and tok.norm in ("TRUE", "FALSE", "NULL"):
            self.advance()
            return {"TRUE": True, "FALSE": False, "NULL": None}[tok.norm]
        raise self.error("literal")

    def threshold_number(self) -> Decimal:
        tok = self.peek()
        if tok.kind != "number":
            raise self.error("number")
        self.advance()
        return make_decimal(tok.lexeme)

    # expression grammar: OR < AND < NOT < comparison < primary
    def expr(self) -> Expr:
        left = self.and_expr()
        while self.at_kw("OR"):
            tok = self.advance()
            left = Logical("OR", left, self.and_expr(), tok.line, tok.column)
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.at_kw("AND"):
            tok = self.advance()
            left = Logical("AND", left, self.not_expr(), tok.line, tok.column)
        return left

    def not_expr(self) -> Expr:
        if self.at_kw("NOT"):
            tok = self.advance()
            return Not(self.not_expr(), tok.line, tok.column)
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        left = self.primary()
        tok = self.peek()
        if tok.kind == "symbol" and tok.lexeme in COMPARISONS:
            self.advance()
            right = self.primary()
            return Cmp(tok.lexeme, left, right, tok.line, tok.column)
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if self.at_symbol("("):
            self.advance()
            inner = self.expr()
            self.expect_symbol(")")
            return inner
        if tok.kind == "kw" and tok.norm == "COALESCE":
            self.advance()
            self.expect_symbol("(")
            first = self.expr()
            self.expect_symbol(",")
            second = self.expr()
            self.expect_symbol(")")
            return Coalesce(first, second, tok.line, tok.column)
        if tok.kind == "kw" and tok.norm == "IS_NULL":
            self.advance()
            self.expect_symbol("(")
            inner = self.expr()
            self.expect_symbol(")")
            return IsNull(inner, tok.line, tok.column)
        if tok.kind == "kw" and tok.norm == "PAID_ON_DUE":
            self.advance()
            self.expect_symbol("(")
            payment = self.qcol()
            self.expect_symbol(",")
            due = self.qcol()
            self.expect_symbol(")")
            return PaidOnDue(payment, due, tok.line, tok.column)
        if tok.kind == "kw" and tok.norm == "DIFFICULTY":
            self.advance()
            self.expect_symbol("(")
            grade = self.qcol()
            self.expect_kw("GROUP")
            self.expect_kw("BY")
            group = self.qcol()
            self.expect_kw("THRESHOLDS")
            hi = self.threshold_number()
            self.expect_symbol(",")
            lo = self.threshold_number()
            self.expect_symbol(")")
            return Difficulty(grade, group, hi, lo, tok.line, tok.column)
        if tok.kind == "ident":
            return self.qcol()
        if tok.kind in ("number", "string") or (tok.kind == "kw" and tok.norm in ("TRUE", "FALSE", "NULL")):
            line, column = tok.line, tok.column
            return Lit(self.literal(), line, column)
        raise self.error("expression")

    def type_name(self) -> ValueType:
        tok = self.peek()
        if tok.kind == "kw" and tok.norm in ("INTEGER", "DECIMAL", "TEXT", "BOOLEAN", "DATE"):
            self.advance()
            return ValueType(tok.norm)
        raise self.error("type name")

    def statement(self) -> Statement:
        tok = self.peek()
        if self.at_kw("DROP"):
            self.advance()
            self.expect_kw("TABLE")
            name = self.expect_ident()
            self.expect_symbol(";")
            return DropTable(name.lexeme, tok.line)
        if self.at_kw("MERGE"):
            self.advance()
            sources = [self.expect_ident().lexeme]
            self.expect_symbol(",")
            sources.append(self.expect_ident().lexeme)
            while self.at_symbol(","):
                self.advance()
                sources.append(self.expect_ident().lexeme)
            self.expect_kw("INTO")
            target = self.expect_ident().lexeme
            self.expect_kw("ON")
            conds = [self.join_cond()]
            while self.at_kw("AND"):
                self.advance()
                conds.append(self.join_cond())
            self.expect_kw("KEEP")
            keep = [self.qcol()]
            while self.at_symbol(","):
                self.advance()
                keep.append(self.qcol())
            self.expect_symbol(";")
            return Merge(tuple(sources), target, tuple(conds), tuple(keep), tok.line)
        if self.at_kw("ADD"):
            self.advance()
            self.expect_kw("COLUMN")
            col = self.qcol()
            vtype = self.type_name()
            self.expect_kw("AS")
            derivation = self.expr()
            self.expect_symbol(";")
            return AddColumn(col.table, col.name, vtype, derivation, tok.line)
        if self.at_kw("REMOVE"):
            self.advance()
            self.expect_kw("COLUMN")
            col = self.qcol()
            self.expect_symbol(";")
            return RemoveColumn(col.table, col.name, tok.line)
        if self.at_kw("CLEAN"):
            self.advance()
            col = self.qcol()
            self.expect_kw("WITH")
            kind = self.expect_ident().lexeme
            args: list = []
            if self.at_symbol("("):
                self.advance()
                args.append(self.literal())
                while self.at_symbol(","):
                    self.advance()
                    args.append(self.literal())
                self.expect_symbol(")")
            self.expect_symbol(";")
            return Clean(col.table, col.name, kind, tuple(args), tok.line)
        if self.at_kw("FACT"):
            self.advance()
            name = self.expect_ident()
            self.expect_symbol(";")
            return Fact(name.lexeme, tok.line)
        if self.at_kw("DIMENSION"):
            self.advance()
            name = self.expect_ident()
            self.expect_kw("KEY")
            key = self.expect_ident()
            self.expect_symbol(";")
            return Dimension(name.lexeme, key.lexeme, tok.line)
        raise self.error("statement keyword (DROP, MERGE, ADD, REMOVE, CLEAN, FACT, DIMENSION)")

    def join_cond(self) -> JoinCond:
        left = self.qcol()
        self.expect_symbol("=")
        right = self.qcol()
        return JoinCond(left, right)

    def plan(self) -> Plan:
        statements: list[Statement] = []
        fact_seen: Statement | None = None
        while self.peek().kind != "eof":
            stmt = self.statement()
            if isinstance(stmt, Fact):
                if fact_seen is not None:
                    raise PlanParseError("duplicate FACT declaration", stmt.line, 1)
                fact_seen = stmt
            statements.append(stmt)
        return Plan(tuple(statements))


def parse_plan(text: str) -> Plan:
    try:
        tokens = tokenize(text)
    except PlanParseError:
        raise
    except ParseError as exc:
        raise PlanParseError(exc.raw_message, exc.line, exc.column) from None
    return _Parser(tokens).plan()


# ---------------------------------------------------------------------------
# Pretty-printer (canonical form; reparses to a structurally equal plan)


def _lit_text(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, Decimal)):
        return render_cell(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    # coerced date literals render back as quoted ISO text
    return "'" + render_cell(value) + "'"


def _wrap(e: Expr, text: str, parent_logical: bool) -> str:
    if parent_logical and isinstance(e, (Logical, Not)):
        return f"({text})"
    return text


def pretty_expr(e: Expr) -> str:
    if isinstance(e, Lit):
        return _lit_text(e.value)
    if isinstance(e, Col):
        return str(e)
    if isinstance(e, Cmp):
        left = pretty_expr(e.left)
        right = pretty_expr(e.right)
        if isinstance(e.left, (Cmp, Logical, Not)):
            left = f"({left})"
        if isinstance(e.right, (Cmp, Logical, Not)):
            right = f"({right})"
        return f"{left} {e.op} {right}"
    if isinstance(e, Logical):
        return f"{_wrap(e.left, pretty_expr(e.left), True)} {e.op} {_wrap(e.right, pretty_expr(e.right), True)}"
    if isinstance(e, Not):
        inner = pretty_expr(e.operand)
        if not isinstance(e.operand, (Lit, Col, Coalesce, IsNull, PaidOnDue, Difficulty)):
            inner = f"({inner})"
        return f"NOT {inner}"
    if isinstance(e, Coalesce):
        return f"COALESCE({pretty_expr(e.first)}, {pretty_expr(e.second)})"
    if isinstance(e, IsNull):
        return f"IS_NULL({pretty_expr(e.operand)})"
    if isinstance(e, PaidOnDue):
        return f"PAID_ON_DUE({e.payment}, {e.due})"
    if isinstance(e, Difficulty):
        return f"DIFFICULTY({e.grade} GROUP BY {e.group} THRESHOLDS {decimal_text(e.hi)}, {decimal_text(e.lo)})"
    raise TypeError(f"not an expression: {e!r}")


def pretty_stmt(stmt: Statement) -> str:
    if isinstance(stmt, DropTable):
        return f"DROP TABLE {stmt.table} ;"
    if isinstance(stmt, Merge):
        conds = " AND ".join(f"{c.left} = {c.right}" for c in stmt.conditions)
        keeps = ", ".join(str(c) for c in stmt.keep)
        return f"MERGE {', '.join(stmt.sources)} INTO {stmt.target} ON {conds} KEEP {keeps} ;"
    if isinstance(stmt, AddColumn):
        return f"ADD COLUMN {stmt.table}.{stmt.name} {stmt.type} AS {pretty_expr(stmt.derivation)} ;"
    if isinstance(stmt, RemoveColumn):
        return f"REMOVE COLUMN {stmt.table}.{stmt.name} ;"
    if isinstance(stmt, Clean):
        args = "" if not stmt.args else "(" + ", ".join(_lit_text(a) for a in stmt.args) + ")"
        return f"CLEAN {stmt.table}.{stmt.name} WITH {stmt.kind}{args} ;"
    if isinstance(stmt, Fact):
        return f"FACT {stmt.table} ;"
    if isinstance(stmt, Dimension):
        return f"DIMENSION {stmt.table} KEY {stmt.key} ;"
    raise TypeError(f"not a statement: {stmt!r}")


def pretty_plan(plan: Plan) -> str:
    return "".join(pretty_stmt(s) + "\n" for s in plan.statements)


# ---------------------------------------------------------------------------
# Validation and schema effects


@dataclass(frozen=True)
class PlanDiagnostic:
    index: int  # statement index, 0-based; -1 for plan-level problems
    message: str

    def __str__(self) -> str:
        where = "plan" if self.index < 0 else f"statement {self.index}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class CheckedPlan:
    plan: Plan
    final_schema: DatabaseSchema


class _TypeProblem(Exception):
    pass


def _coerce_literal(lit: Lit, target: ValueType) -> Lit:
    try:
        return replace(lit, value=coerce_literal(lit.value, target))
    except ValueError as exc:
        raise _TypeProblem(f"line {lit.line}: {exc}") from None


def _unify(a: Expr, at: ValueType | None, b: Expr, bt: ValueType | None, mismatch: str):
    """(a, b, their common type): when both are typed and the types differ,
    a literal operand, ``b`` first, is coerced to the other's type."""
    if at is None or bt is None or at is bt:
        return a, b, at or bt
    if isinstance(b, Lit):
        return a, _coerce_literal(b, at), at
    if isinstance(a, Lit):
        return _coerce_literal(a, bt), b, bt
    raise _TypeProblem(mismatch)


class _ExprChecker:
    """Types an expression against one table's schema, coercing literals."""

    def __init__(self, table: TableSchema):
        self.table = table

    def col_type(self, col: Col) -> ValueType:
        if col.table != self.table.name:
            raise _TypeProblem(f"line {col.line}: column reference {col} is outside table {self.table.name!r}")
        if not self.table.has_column(col.name):
            raise _TypeProblem(f"line {col.line}: unknown column {col}")
        return self.table.column(col.name).type

    def check(self, e: Expr) -> tuple[Expr, ValueType | None]:
        """Returns (possibly coerced expr, type); type None for the NULL literal."""
        if isinstance(e, Lit):
            return e, (None if e.value is None else value_tag(e.value))
        if isinstance(e, Col):
            return e, self.col_type(e)
        if isinstance(e, Cmp):
            left, lt = self.check(e.left)
            right, rt = self.check(e.right)
            left, right, t = _unify(left, lt, right, rt, f"line {e.line}: cannot compare {lt} with {rt}")
            if e.op not in ("=", "<>") and t is not None and t not in ORDERED_TYPES:
                raise _TypeProblem(f"line {e.line}: {e.op} is not defined for {t.value}")
            return replace(e, left=left, right=right), ValueType.BOOLEAN
        if isinstance(e, Logical):
            left, lt = self.check(e.left)
            right, rt = self.check(e.right)
            for side in (lt, rt):
                if side is not ValueType.BOOLEAN:
                    raise _TypeProblem(f"line {e.line}: {e.op} needs BOOLEAN operands")
            return replace(e, left=left, right=right), ValueType.BOOLEAN
        if isinstance(e, Not):
            inner, t = self.check(e.operand)
            if t is not ValueType.BOOLEAN:
                raise _TypeProblem(f"line {e.line}: NOT needs a BOOLEAN operand")
            return replace(e, operand=inner), ValueType.BOOLEAN
        if isinstance(e, Coalesce):
            first, ft = self.check(e.first)
            second, st = self.check(e.second)
            if ft is None and st is None:
                raise _TypeProblem(f"line {e.line}: COALESCE of two NULL literals has no type")
            first, second, t = _unify(first, ft, second, st, f"line {e.line}: COALESCE operands differ: {ft} vs {st}")
            return replace(e, first=first, second=second), t
        if isinstance(e, IsNull):
            inner, _ = self.check(e.operand)
            return replace(e, operand=inner), ValueType.BOOLEAN
        if isinstance(e, PaidOnDue):
            for col in (e.payment, e.due):
                if self.col_type(col) is not ValueType.DATE:
                    raise _TypeProblem(f"line {col.line}: PAID_ON_DUE needs DATE columns, {col} is not")
            return e, ValueType.BOOLEAN
        if isinstance(e, Difficulty):
            gt = self.col_type(e.grade)
            if gt not in (ValueType.DECIMAL, ValueType.INTEGER):
                raise _TypeProblem(f"line {e.line}: DIFFICULTY grade column must be numeric")
            self.col_type(e.group)
            if e.hi <= e.lo:
                raise _TypeProblem(f"line {e.line}: DIFFICULTY thresholds need hi > lo")
            return e, ValueType.TEXT
        raise TypeError(f"not an expression: {e!r}")


def resolve_merge_base(shadow: dict[str, TableSchema], stmt: Merge) -> str:
    """The table whose rows the merge preserves: the target when it already
    exists, otherwise the last listed source (which the merge renames)."""
    return stmt.target if stmt.target in shadow else stmt.sources[-1]


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
            raise PlanValidationError(
                [PlanDiagnostic(-1, f"merge sources {remaining} are not connected to {base!r} by ON conditions")]
            )
    if conds:
        raise PlanValidationError(
            [PlanDiagnostic(-1, f"join condition {conds[0].left} = {conds[0].right} does not connect a new table")]
        )
    return order


def merge_schema_effect(shadow: dict[str, TableSchema], stmt: Merge) -> tuple[str, TableSchema, list[str]]:
    """(base name, merged schema, consumed tables); assumes validity."""
    base_name = resolve_merge_base(shadow, stmt)
    base = shadow[base_name]
    consumed = [s for s in stmt.sources if s != base_name]
    survivors = set(shadow) - set(consumed)
    if base_name != stmt.target:
        survivors = (survivors - {base_name}) | {stmt.target}

    columns = list(base.columns)
    fks: list[ForeignKey] = []
    for fk in base.foreign_keys:
        target = stmt.target if fk.target_table == base_name else fk.target_table
        if target in survivors:
            fks.append(replace(fk, target_table=target))
    for col in stmt.keep:
        src_schema = shadow[col.table]
        cdef = src_schema.column(col.name)
        columns.append(ColumnDef(cdef.name, cdef.type, nullable=True))
        for fk in src_schema.foreign_keys:
            if fk.columns == (col.name,):
                target = stmt.target if fk.target_table == base_name else fk.target_table
                if target in survivors:
                    fks.append(replace(fk, target_table=target))
    merged = TableSchema(stmt.target, tuple(columns), base.primary_key, tuple(fks))

    for name in consumed:
        del shadow[name]
    if base_name != stmt.target:
        del shadow[base_name]
    shadow[stmt.target] = merged
    _prune_dangling_fks(shadow, renamed={base_name: stmt.target} if base_name != stmt.target else {})
    return base_name, merged, consumed


def drop_schema_effect(shadow: dict[str, TableSchema], name: str) -> None:
    del shadow[name]
    _prune_dangling_fks(shadow)


def add_column_schema_effect(shadow: dict[str, TableSchema], stmt: AddColumn) -> None:
    t = shadow[stmt.table]
    shadow[stmt.table] = replace(t, columns=t.columns + (ColumnDef(stmt.name, stmt.type, nullable=True),))


def remove_column_schema_effect(shadow: dict[str, TableSchema], stmt: RemoveColumn) -> None:
    t = shadow[stmt.table]
    columns = tuple(c for c in t.columns if c.name != stmt.name)
    fks = tuple(fk for fk in t.foreign_keys if stmt.name not in fk.columns)
    shadow[stmt.table] = replace(t, columns=columns, foreign_keys=fks)


def _prune_dangling_fks(shadow: dict[str, TableSchema], renamed: dict[str, str] | None = None) -> None:
    renamed = renamed or {}
    for name, t in list(shadow.items()):
        fks = []
        changed = False
        for fk in t.foreign_keys:
            target = renamed.get(fk.target_table, fk.target_table)
            if target not in shadow:
                changed = True
                continue
            if target != fk.target_table:
                fk = replace(fk, target_table=target)
                changed = True
            fks.append(fk)
        if changed:
            shadow[name] = replace(t, foreign_keys=tuple(fks))


def _later_column_uses(statements: Iterable[Statement], table: str, column: str) -> bool:
    for stmt in statements:
        if isinstance(stmt, Merge):
            for c in stmt.conditions:
                if (c.left.table, c.left.name) == (table, column) or (c.right.table, c.right.name) == (table, column):
                    return True
            if any((k.table, k.name) == (table, column) for k in stmt.keep):
                return True
        elif isinstance(stmt, AddColumn):
            if stmt.table == table and any(
                (c.table, c.name) == (table, column) for c in _columns_in(stmt.derivation)
            ):
                return True
        elif isinstance(stmt, (RemoveColumn, Clean)):
            if (stmt.table, stmt.name) == (table, column):
                return True
        elif isinstance(stmt, Dimension):
            if (stmt.table, stmt.key) == (table, column):
                return True
    return False


def _columns_in(e: Expr) -> list[Col]:
    if isinstance(e, Col):
        return [e]
    if isinstance(e, Lit):
        return []
    if isinstance(e, Cmp):
        return _columns_in(e.left) + _columns_in(e.right)
    if isinstance(e, Logical):
        return _columns_in(e.left) + _columns_in(e.right)
    if isinstance(e, Not):
        return _columns_in(e.operand)
    if isinstance(e, Coalesce):
        return _columns_in(e.first) + _columns_in(e.second)
    if isinstance(e, IsNull):
        return _columns_in(e.operand)
    if isinstance(e, PaidOnDue):
        return [e.payment, e.due]
    if isinstance(e, Difficulty):
        return [e.grade, e.group]
    return []


def validate_plan(plan: Plan, db: DatabaseSchema, *, require_warehouse_decls: bool = True) -> CheckedPlan:
    """Simulate the plan against a shadow schema; raises PlanValidationError.

    With ``require_warehouse_decls`` the plan must declare exactly one fact
    and seven dimensions over tables of the final schema.
    """
    shadow: dict[str, TableSchema] = dict(db.tables)
    checked: list[Statement] = []

    def fail(i: int, msg: str):
        raise PlanValidationError([PlanDiagnostic(i, msg)])

    for i, stmt in enumerate(plan.statements):
        rest = plan.statements[i + 1:]
        if isinstance(stmt, DropTable):
            if stmt.table not in shadow:
                fail(i, f"unknown table {stmt.table!r}")
            drop_schema_effect(shadow, stmt.table)
            checked.append(stmt)
        elif isinstance(stmt, Merge):
            if len(set(stmt.sources)) != len(stmt.sources):
                fail(i, "duplicate source table in MERGE")
            if stmt.target in stmt.sources:
                fail(i, f"target {stmt.target!r} cannot also be a source")
            for s in stmt.sources:
                if s not in shadow:
                    fail(i, f"unknown source table {s!r}")
            base = resolve_merge_base(shadow, stmt)
            participants = set(stmt.sources) | ({stmt.target} if stmt.target in shadow else set())
            for cond in stmt.conditions:
                for side in (cond.left, cond.right):
                    if side.table not in participants:
                        fail(i, f"join condition references {side.table!r}, which is not part of the merge")
                    if not shadow[side.table].has_column(side.name):
                        fail(i, f"unknown column {side}")
                if cond.left.table == cond.right.table:
                    fail(i, f"join condition must relate two tables, got {cond.left} = {cond.right}")
                lt = shadow[cond.left.table].column(cond.left.name).type
                rt = shadow[cond.right.table].column(cond.right.name).type
                if lt is not rt:
                    fail(i, f"join condition type mismatch: {cond.left} is {lt.value}, {cond.right} is {rt.value}")
            try:
                resolve_join_order(stmt, base)
            except PlanValidationError as exc:
                fail(i, exc.diagnostics[0].message)
            base_cols = set(shadow[base].column_names)
            kept: set[str] = set()
            for col in stmt.keep:
                if col.table not in stmt.sources or col.table == base:
                    fail(i, f"KEEP column {col} must come from a merged source table")
                if not shadow[col.table].has_column(col.name):
                    fail(i, f"unknown KEEP column {col}")
                if col.name in base_cols or col.name in kept:
                    fail(i, f"KEEP column name {col.name!r} collides")
                kept.add(col.name)
            merge_schema_effect(shadow, stmt)
            checked.append(stmt)
        elif isinstance(stmt, AddColumn):
            if stmt.table not in shadow:
                fail(i, f"unknown table {stmt.table!r}")
            t = shadow[stmt.table]
            if t.has_column(stmt.name):
                fail(i, f"column {stmt.table}.{stmt.name} already exists")
            try:
                derivation, dtype = _ExprChecker(t).check(stmt.derivation)
            except _TypeProblem as exc:
                fail(i, str(exc))
            if dtype is not None and dtype is not stmt.type:
                fail(i, f"derivation evaluates to {dtype.value}, column declared {stmt.type.value}")
            stmt = replace(stmt, derivation=derivation)
            add_column_schema_effect(shadow, stmt)
            checked.append(stmt)
        elif isinstance(stmt, RemoveColumn):
            if stmt.table not in shadow:
                fail(i, f"unknown table {stmt.table!r}")
            t = shadow[stmt.table]
            if not t.has_column(stmt.name):
                fail(i, f"unknown column {stmt.table}.{stmt.name}")
            if stmt.name in t.primary_key:
                fail(i, f"cannot remove key column {stmt.table}.{stmt.name}")
            for other in shadow.values():
                for fk in other.foreign_keys:
                    if fk.target_table == stmt.table and stmt.name in fk.target_columns:
                        fail(i, f"column {stmt.table}.{stmt.name} is referenced by {fk.label(other.name)}")
            if _later_column_uses(rest, stmt.table, stmt.name):
                fail(i, f"column {stmt.table}.{stmt.name} is used by a later statement")
            remove_column_schema_effect(shadow, stmt)
            checked.append(stmt)
        elif isinstance(stmt, Clean):
            if stmt.table not in shadow:
                fail(i, f"unknown table {stmt.table!r}")
            t = shadow[stmt.table]
            if not t.has_column(stmt.name):
                fail(i, f"unknown column {stmt.table}.{stmt.name}")
            try:
                rule = cleanse_mod.make_rule(stmt.table, stmt.name, stmt.kind, stmt.args)
                cleanse_mod.check_rule(rule, t)
            except ValueError as exc:
                fail(i, str(exc))
            checked.append(stmt)
        elif isinstance(stmt, (Fact, Dimension)):
            checked.append(stmt)  # resolved against the final schema below
        else:
            fail(i, f"unsupported statement {stmt!r}")

    facts = [(i, s) for i, s in enumerate(checked) if isinstance(s, Fact)]
    dims = [(i, s) for i, s in enumerate(checked) if isinstance(s, Dimension)]
    for i, s in facts:
        if s.table not in shadow:
            fail(i, f"FACT table {s.table!r} does not exist in the final schema")
    seen_dims: set[str] = set()
    for i, s in dims:
        if s.table not in shadow:
            fail(i, f"DIMENSION table {s.table!r} does not exist in the final schema")
        if not shadow[s.table].has_column(s.key):
            fail(i, f"DIMENSION key {s.table}.{s.key} does not exist")
        if s.table in seen_dims:
            fail(i, f"duplicate DIMENSION {s.table!r}")
        seen_dims.add(s.table)
    if facts and any(s.table == f.table for _, f in facts for _, s in dims):
        raise PlanValidationError([PlanDiagnostic(-1, "the fact table cannot also be a dimension")])
    if require_warehouse_decls:
        if len(facts) != 1:
            raise PlanValidationError([PlanDiagnostic(-1, f"expected exactly 1 FACT statement, found {len(facts)}")])
        if len(dims) != 7:
            raise PlanValidationError([PlanDiagnostic(-1, f"expected 7 dimensions, found {len(dims)}")])

    return CheckedPlan(Plan(tuple(checked)), DatabaseSchema(shadow))
