"""Schema manifest parsing and rendering.

The manifest is plain text, one table per block::

    TABLE student
      st_id INTEGER PK
      st_name TEXT
      st_major_id INTEGER FK major(mj_id)

Column flags appear in the fixed order ``TYPE [PK] [NULL] [FK t(c)]``;
``--`` starts a comment. Nullability is opt-in via the NULL flag.
"""

from __future__ import annotations

import re

from .errors import ManifestError
from .schema import ColumnDef, DatabaseSchema, ForeignKey, TableSchema, validate_schema
from .values import ValueType, is_identifier

_FK_RE = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\(([A-Za-z_][A-Za-z0-9_]*)\)\Z")

_TYPE_NAMES = {t.value for t in ValueType}


def _strip_comment(line: str) -> str:
    pos = line.find("--")
    return line if pos < 0 else line[:pos]


def parse_schema_manifest(text: str) -> DatabaseSchema:
    """Parse and validate a manifest; raises ManifestError with a line number."""
    tables: dict[str, TableSchema] = {}
    table_lines: dict[str, int] = {}
    current: str | None = None
    columns: list[ColumnDef] = []
    pk: list[str] = []
    fks: list[ForeignKey] = []

    def close_current() -> None:
        nonlocal current
        if current is None:
            return
        tables[current] = TableSchema(current, tuple(columns), tuple(pk), tuple(fks))
        current = None

    # "\n" alone ends a line; str.splitlines would also split a comment at \x85 or U+2028
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "TABLE":
            if len(parts) != 2:
                raise ManifestError("expected 'TABLE <name>'", lineno)
            name = parts[1]
            if not is_identifier(name):
                raise ManifestError(f"bad table name {name!r}", lineno)
            close_current()
            if name in tables:
                raise ManifestError(f"duplicate table {name!r}", lineno)
            current = name
            table_lines[name] = lineno
            columns, pk, fks = [], [], []
            continue
        if current is None:
            raise ManifestError(f"column line outside a TABLE block: {line!r}", lineno)
        columns_line = parts
        col_name = columns_line[0]
        if not is_identifier(col_name):
            raise ManifestError(f"bad column name {col_name!r}", lineno)
        if len(columns_line) < 2:
            raise ManifestError(f"column {col_name!r} is missing a type", lineno)
        type_name = columns_line[1]
        if type_name not in _TYPE_NAMES:
            raise ManifestError(f"unknown type name {type_name!r}", lineno)
        vtype = ValueType(type_name)
        rest = columns_line[2:]
        is_pk = nullable = False
        if rest and rest[0] == "PK":
            is_pk = True
            rest = rest[1:]
        if rest and rest[0] == "NULL":
            nullable = True
            rest = rest[1:]
        fk = None
        if rest and rest[0] == "FK":
            if len(rest) < 2:
                raise ManifestError("FK flag needs a target like 'FK table(column)'", lineno)
            m = _FK_RE.match("".join(rest[1:]))
            if not m:
                raise ManifestError(f"bad FK target {' '.join(rest[1:])!r}", lineno)
            fk = ForeignKey((col_name,), m.group(1), (m.group(2),))
            rest = []
        if rest:
            raise ManifestError(f"unexpected tokens {' '.join(rest)!r}", lineno)
        if any(c.name == col_name for c in columns):
            raise ManifestError(f"duplicate column {col_name!r}", lineno)
        columns.append(ColumnDef(col_name, vtype, nullable))
        if is_pk:
            pk.append(col_name)
        if fk is not None:
            fks.append(fk)
    close_current()

    if not tables:
        raise ManifestError("manifest declares no tables", 1)
    db = DatabaseSchema(tables)
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
