"""The transform-plan language: AST, recursive-descent parser and canonical
pretty-printer.

A plan is an ordered statement list over the staging schema:
DROP TABLE, MERGE ... INTO ... ON ... KEEP, ADD COLUMN ... AS <expr>,
REMOVE COLUMN, CLEAN ... WITH <rule>, FACT, and DIMENSION ... KEY.

What a statement means lives in ``transform``: its ``exec_*`` step checks
and applies it, and validation is those steps run on the schema's empty
tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal

from .errors import ParseError, PlanParseError
from .lexer import Token, tokenize
from .values import COMPARISONS, ValueType, decimal_text, make_decimal, render_cell

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


@dataclass(frozen=True)
class Col(Expr):
    table: str
    name: str
    line: int = field(**_POS)

    def __str__(self) -> str:
        return f"{self.table}.{self.name}"


@dataclass(frozen=True)
class Cmp(Expr):
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class Logical(Expr):
    op: str  # AND | OR
    left: Expr
    right: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class Not(Expr):
    operand: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class Coalesce(Expr):
    first: Expr
    second: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class IsNull(Expr):
    operand: Expr
    line: int = field(**_POS)


@dataclass(frozen=True)
class PaidOnDue(Expr):
    payment: Col
    due: Col
    line: int = field(**_POS)


@dataclass(frozen=True)
class Difficulty(Expr):
    grade: Col
    group: Col
    hi: Decimal
    lo: Decimal
    line: int = field(**_POS)


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

    def expect_name(self) -> Token:
        """An identifier or a keyword-spelled word, where only a table or
        column name can stand."""
        if self.peek().kind not in ("ident", "kw"):
            raise self.error("identifier")
        return self.advance()

    def at_qcol(self) -> bool:
        """At ``name .``, a column reference whose table name may be spelled like a keyword."""
        nxt = self.tokens[min(self.pos + 1, len(self.tokens) - 1)]
        return self.peek().kind in ("ident", "kw") and nxt.kind == "symbol" and nxt.lexeme == "."

    def qcol(self) -> Col:
        table = self.expect_name()
        self.expect_symbol(".")
        name = self.expect_name()
        return Col(table.lexeme, name.lexeme, table.line)

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
            left = Logical("OR", left, self.and_expr(), tok.line)
        return left

    def and_expr(self) -> Expr:
        left = self.not_expr()
        while self.at_kw("AND"):
            tok = self.advance()
            left = Logical("AND", left, self.not_expr(), tok.line)
        return left

    def not_expr(self) -> Expr:
        if self.at_kw("NOT"):
            tok = self.advance()
            return Not(self.not_expr(), tok.line)
        return self.cmp_expr()

    def cmp_expr(self) -> Expr:
        left = self.primary()
        tok = self.peek()
        if tok.kind == "symbol" and tok.lexeme in COMPARISONS:
            self.advance()
            right = self.primary()
            return Cmp(tok.lexeme, left, right, tok.line)
        return left

    def primary(self) -> Expr:
        tok = self.peek()
        if self.at_symbol("("):
            self.advance()
            inner = self.expr()
            self.expect_symbol(")")
            return inner
        if tok.kind == "ident" or self.at_qcol():
            return self.qcol()
        if tok.kind == "kw" and tok.norm == "COALESCE":
            self.advance()
            self.expect_symbol("(")
            first = self.expr()
            self.expect_symbol(",")
            second = self.expr()
            self.expect_symbol(")")
            return Coalesce(first, second, tok.line)
        if tok.kind == "kw" and tok.norm == "IS_NULL":
            self.advance()
            self.expect_symbol("(")
            inner = self.expr()
            self.expect_symbol(")")
            return IsNull(inner, tok.line)
        if tok.kind == "kw" and tok.norm == "PAID_ON_DUE":
            self.advance()
            self.expect_symbol("(")
            payment = self.qcol()
            self.expect_symbol(",")
            due = self.qcol()
            self.expect_symbol(")")
            return PaidOnDue(payment, due, tok.line)
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
            return Difficulty(grade, group, hi, lo, tok.line)
        if tok.kind in ("number", "string") or (tok.kind == "kw" and tok.norm in ("TRUE", "FALSE", "NULL")):
            return Lit(self.literal(), tok.line)
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
            name = self.expect_name()
            self.expect_symbol(";")
            return DropTable(name.lexeme, tok.line)
        if self.at_kw("MERGE"):
            self.advance()
            sources = [self.expect_name().lexeme]
            self.expect_symbol(",")
            sources.append(self.expect_name().lexeme)
            while self.at_symbol(","):
                self.advance()
                sources.append(self.expect_name().lexeme)
            self.expect_kw("INTO")
            target = self.expect_name().lexeme
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
            name = self.expect_name()
            self.expect_symbol(";")
            return Fact(name.lexeme, tok.line)
        if self.at_kw("DIMENSION"):
            self.advance()
            name = self.expect_name()
            self.expect_kw("KEY")
            key = self.expect_name()
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
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    return render_cell(value)


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
