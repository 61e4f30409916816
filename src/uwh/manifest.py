"""Schema manifest parsing and rendering.

The manifest is plain text, one table per block::

    TABLE student
      st_id INTEGER PK
      st_name TEXT
      st_major_id INTEGER FK major(mj_id)

Each line is read with ``lexer.tokenize``. A name is an identifier (a
letter or ``_``, then letters, digits and ``_``); words that are keywords
elsewhere, such as ``date``, ``key`` or ``NULL``, are names too. ``TABLE``,
the type names and the flags match only in capitals; a line that starts
with ``TABLE`` opens a block, so ``TABLE`` cannot name a column. Column
flags appear in the fixed order ``TYPE [PK] [NULL] [FK t(c)]``, an FK
target is ``table(column)`` with no space inside a name, and ``--``
starts a comment that runs to ``"\\n"``. Nullability is opt-in via the
NULL flag.
"""

from __future__ import annotations

from .errors import ManifestError, ParseError
from .lexer import tokenize
from .plan import _Parser
from .schema import ColumnDef, DatabaseSchema, ForeignKey, TableSchema, validate_schema
from .values import ValueType

_TYPE_NAMES = {t.value for t in ValueType}
_NAME_KINDS = ("ident", "kw")


def _name(p: _Parser, spelled: str | None = None) -> str | None:
    """Take the next token's text if it is a name (spelled ``spelled``, when that is given), else None."""
    tok = p.peek()
    if tok.kind in _NAME_KINDS and spelled in (None, tok.lexeme):
        return p.advance().lexeme
    return None


def parse_schema_manifest(text: str) -> DatabaseSchema:
    """Parse and validate a manifest; raises ManifestError with a line number."""
    blocks: dict[str, tuple[list[ColumnDef], list[str], list[ForeignKey]]] = {}
    table_lines: dict[str, int] = {}
    current = None  # the open block's columns, primary key and foreign keys
    # "\n" alone ends a line; any other whitespace, U+2028 and \x85 included, separates words
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = " ".join(raw.split())
        try:
            p = _Parser(tokenize(line))
        except ParseError as exc:
            raise ManifestError(exc.raw_message, lineno) from None
        if p.peek().kind == "eof":
            continue
        if _name(p, "TABLE"):
            tok = p.peek()
            name = _name(p)
            if name is None and tok.kind != "eof":
                raise ManifestError(f"bad table name {tok.lexeme!r}", lineno)
            if name is None or p.peek().kind != "eof":
                raise ManifestError("expected 'TABLE <name>'", lineno)
            if name in blocks:
                raise ManifestError(f"duplicate table {name!r}", lineno)
            current = blocks[name] = ([], [], [])
            table_lines[name] = lineno
            continue
        if current is None:
            raise ManifestError(f"column line outside a TABLE block: {line!r}", lineno)
        columns, pk, fks = current
        col_name = _name(p)
        if col_name is None:
            raise ManifestError(f"bad column name {p.peek().lexeme!r}", lineno)
        tok = p.peek()
        if tok.kind == "eof":
            raise ManifestError(f"column {col_name!r} is missing a type", lineno)
        type_name = _name(p)
        if type_name not in _TYPE_NAMES:
            raise ManifestError(f"unknown type name {tok.lexeme!r}", lineno)
        if _name(p, "PK"):
            pk.append(col_name)
        nullable = _name(p, "NULL") is not None
        tok = p.peek()
        if _name(p, "FK"):
            target = p.tokens[p.pos : -1]
            if not target:
                raise ManifestError("FK flag needs a target like 'FK table(column)'", lineno)
            shape = [t.lexeme if t.kind == "symbol" else t.kind in _NAME_KINDS for t in target]
            if shape != [True, "(", True, ")"]:  # a name ( a name ), then the end of the line
                raise ManifestError(f"bad FK target {line[target[0].column - 1 :]!r}", lineno)
            fks.append(ForeignKey((col_name,), target[0].lexeme, (target[2].lexeme,)))
        elif tok.kind != "eof":
            raise ManifestError(f"unexpected tokens {line[tok.column - 1 :]!r}", lineno)
        if any(c.name == col_name for c in columns):
            raise ManifestError(f"duplicate column {col_name!r}", lineno)
        columns.append(ColumnDef(col_name, ValueType(type_name), nullable))

    if not blocks:
        raise ManifestError("manifest declares no tables", 1)
    db = DatabaseSchema(
        {name: TableSchema(name, tuple(cols), tuple(key), tuple(fks)) for name, (cols, key, fks) in blocks.items()}
    )
    diags = validate_schema(db)
    if diags:
        first = diags[0]
        raise ManifestError(str(first), table_lines.get(first.table))
    return db


def render_manifest(db: DatabaseSchema) -> str:
    """Inverse of parse_schema_manifest for schemas it can express.

    Composite primary keys must follow column order and foreign keys must
    be single-column; both hold for every schema this pipeline produces.
    """
    out: list[str] = []
    for table in db:
        out.append(f"TABLE {table.name}")
        pk_order = [c.name for c in table.columns if c.name in table.primary_key]
        if tuple(pk_order) != table.primary_key:
            raise ValueError(f"{table.name}: primary key order differs from column order")
        fks_by_col: dict[str, ForeignKey] = {}
        for fk in table.foreign_keys:
            if len(fk.columns) != 1:
                raise ValueError(f"{table.name}: composite foreign keys are not expressible")
            fks_by_col[fk.columns[0]] = fk
        for col in table.columns:
            parts = [f"  {col.name}", col.type.value]
            if col.name in table.primary_key:
                parts.append("PK")
            if col.nullable:
                parts.append("NULL")
            fk = fks_by_col.get(col.name)
            if fk is not None:
                parts.append(f"FK {fk.target_table}({fk.target_columns[0]})")
            out.append(" ".join(parts))
        out.append("")
    return "\n".join(out)
