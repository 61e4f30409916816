"""Typed relational schema and row model shared by every stage.

Schemas, rows, and tables are immutable values; validation functions are
pure and return diagnostics instead of raising, so callers decide what is
fatal.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import date
from decimal import Decimal
from operator import itemgetter
from typing import Mapping

from .values import RawCell, ValueType, is_identifier, value_tag


@dataclass(frozen=True)
class ColumnDef:
    name: str
    type: ValueType
    nullable: bool = False


@dataclass(frozen=True)
class ForeignKey:
    columns: tuple[str, ...]
    target_table: str
    target_columns: tuple[str, ...]

    def label(self, table: str) -> str:
        return f"{table}.{','.join(self.columns)}->{self.target_table}({','.join(self.target_columns)})"


@dataclass(frozen=True)
class TableSchema:
    name: str
    columns: tuple[ColumnDef, ...]
    primary_key: tuple[str, ...]
    foreign_keys: tuple[ForeignKey, ...] = ()

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def column_index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise KeyError(f"{self.name} has no column {name!r}")

    def column(self, name: str) -> ColumnDef:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return any(c.name == name for c in self.columns)

    def pk_indexes(self) -> tuple[int, ...]:
        return tuple(self.column_index(n) for n in self.primary_key)


@dataclass(frozen=True)
class DatabaseSchema:
    tables: dict[str, TableSchema]

    def __iter__(self):
        return iter(self.tables.values())


@dataclass
class Table:
    """A schema plus its row sequence. Rows are tuples of cell values."""

    schema: TableSchema
    rows: list[tuple]

    @property
    def name(self) -> str:
        return self.schema.name


def key_getter(idxs: tuple[int, ...]):
    """row -> the key tuple of the cells at positions ``idxs``."""
    if len(idxs) == 1:
        i = idxs[0]
        return lambda row: (row[i],)
    if idxs:
        return itemgetter(*idxs)
    return lambda row: ()


@dataclass(frozen=True)
class Diagnostic:
    table: str
    column: str | None
    message: str

    def __str__(self) -> str:
        where = self.table if self.column is None else f"{self.table}.{self.column}"
        return f"{where}: {self.message}"


@dataclass(frozen=True)
class RowIssue:
    column: str | None
    reason: str  # arity | type | null-in-nonnullable

    def __str__(self) -> str:
        return self.reason if self.column is None else f"{self.reason}:{self.column}"


def validate_schema(db: DatabaseSchema) -> list[Diagnostic]:
    """All structural invariants of a database schema; empty list means ok."""
    diags: list[Diagnostic] = []
    for table in db:
        if not is_identifier(table.name):
            diags.append(Diagnostic(table.name, None, "table name is not an identifier"))
        seen: set[str] = set()
        for col in table.columns:
            if not is_identifier(col.name):
                diags.append(Diagnostic(table.name, col.name, "column name is not an identifier"))
            if col.name in seen:
                diags.append(Diagnostic(table.name, col.name, "duplicate column name"))
            seen.add(col.name)
        if not table.primary_key:
            diags.append(Diagnostic(table.name, None, "missing primary key"))
        for pk in table.primary_key:
            if pk not in seen:
                diags.append(Diagnostic(table.name, pk, "primary key names unknown column"))
            elif table.column(pk).nullable:
                diags.append(Diagnostic(table.name, pk, "primary key column must be non-nullable"))
        for fk in table.foreign_keys:
            if len(fk.columns) != len(fk.target_columns):
                diags.append(Diagnostic(table.name, None, f"foreign key arity mismatch in {fk.label(table.name)}"))
                continue
            target = db.tables.get(fk.target_table)
            if target is None:
                diags.append(
                    Diagnostic(table.name, fk.columns[0], f"foreign key targets missing table {fk.target_table!r}")
                )
                continue
            for local, remote in zip(fk.columns, fk.target_columns):
                if not table.has_column(local):
                    diags.append(Diagnostic(table.name, local, "foreign key names unknown local column"))
                    continue
                if not target.has_column(remote):
                    diags.append(
                        Diagnostic(table.name, local, f"foreign key targets unknown column {fk.target_table}.{remote}")
                    )
                    continue
                if table.column(local).type is not target.column(remote).type:
                    diags.append(
                        Diagnostic(
                            table.name,
                            local,
                            f"foreign key type mismatch against {fk.target_table}.{remote}",
                        )
                    )
    return diags


# the exact class of a conformant cell of each type
_EXACT_TYPES = {
    ValueType.INTEGER: int,
    ValueType.DECIMAL: Decimal,
    ValueType.TEXT: str,
    ValueType.BOOLEAN: bool,
    ValueType.DATE: date,
}


def row_checker(schema: TableSchema):
    """``check_row`` for one schema, compiled: a cell of its column's exact
    class passes at once, any other takes the ``value_tag`` test."""
    columns = [(c.name, c.type, _EXACT_TYPES[c.type], c.nullable) for c in schema.columns]

    def check(row: tuple) -> RowIssue | None:
        if len(row) != len(columns):
            return RowIssue(None, "arity")
        for (name, vtype, exact, nullable), cell in zip(columns, row):
            if cell.__class__ is exact or (cell is None and nullable):
                continue
            if cell is None:
                return RowIssue(name, "null-in-nonnullable")
            if isinstance(cell, RawCell) or value_tag(cell) is not vtype:
                return RowIssue(name, "type")
        return None

    return check


def check_row(schema: TableSchema, row: tuple) -> RowIssue | None:
    """None when the row conforms; otherwise the first violation found. A
    RawCell, text that did not parse as its column's type, never conforms."""
    return row_checker(schema)(row)


@dataclass(frozen=True)
class OrphanEntry:
    table: str
    fk: str
    row_index: int
    key: tuple


def check_referential_integrity(tables: Mapping[str, Table], targets=None) -> list[OrphanEntry]:
    """Every FK tuple with all components non-Null must match a target row;
    returns one entry per FK tuple that does not, by table, FK and row.
    With ``targets``, only the FKs into those tables are checked."""
    orphans: list[OrphanEntry] = []
    for table in tables.values():
        for fk in table.schema.foreign_keys:
            target = tables.get(fk.target_table)
            if target is None or (targets is not None and fk.target_table not in targets):
                continue  # a dangling FK declaration is a schema problem, not a data one
            local = key_getter(tuple(table.schema.column_index(c) for c in fk.columns))
            remote = key_getter(tuple(target.schema.column_index(c) for c in fk.target_columns))
            present = set(map(remote, target.rows))
            label = fk.label(table.name)
            for n, key in enumerate(map(local, table.rows)):
                if key not in present and None not in key:
                    orphans.append(OrphanEntry(table.name, label, n, key))
    return orphans
