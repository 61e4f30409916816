"""The staging buffer between pipeline stages, and its on-disk form.

A StagingArea holds typed tables, per-table quarantine of rejected rows,
and an append-only lineage log. Stages never mutate a staging area they
received; they build an updated copy, which makes plan-level atomicity a
non-event.

On disk a staging dump is a directory::

    schema.manifest        current table schemas
    <table>.csv            one data file per staged table
    quarantine/<table>.csv rejected rows with a _reason column
    lineage.log            one event per line, tab-separated
    meta.json              fact/dimension declarations and stage reports

Dumps are byte-deterministic given the same staging contents, and are
written all or nothing by ``write_dir_atomically`` once ``check_target``
allows it, as are gen output and warehouses. Table files are written by
``render_table_csv`` and read back by ``decode_table`` from the bytes of
the file, so a quoted CR survives. Every CSV read (source, staging,
quarantine, dirt ledger and warehouse files) goes through
``read_records``, and every typed one through ``typed_rows``, which
keeps one memo per column from field text to cell (dictionary encoding):
each distinct text of a column is converted once, and equal cells are
one shared object. Text that does not parse as its column's type is not
kept; it is handed to the caller's ``raw`` at each occurrence, so
extract counts every raw cell and the warehouse reader fails at the
first bad one.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

from .csvio import NEEDS_QUOTES, format_field, format_row, iter_records
from .csvio import parse_csv  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .errors import MissingInputError, ReadOnlyError, UwhError, ValidationError
from .manifest import parse_schema_manifest, render_manifest
from .schema import DatabaseSchema, Table, TableSchema
from .values import CELL_TEXT, RawCell, ValueType, cell_converter, render_cell

DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"
CATALOG_NAME = "catalog.json"  # the file that makes a directory a frozen warehouse


@dataclass(frozen=True)
class LineageEvent:
    stage: str
    table: str
    detail: str
    rows_affected: int
    timestamp: str
    statement_index: int | None = None
    statement_text: str | None = None

    def to_line(self) -> str:
        idx = "" if self.statement_index is None else str(self.statement_index)
        stmt = (self.statement_text or "").replace("\t", " ").replace("\n", " ")
        detail = self.detail.replace("\t", " ").replace("\n", " ")
        return "\t".join([self.stage, self.table, str(self.rows_affected), self.timestamp, idx, stmt, detail])

    @classmethod
    def from_line(cls, line: str) -> "LineageEvent":
        parts = line.split("\t", 6)
        if len(parts) != 7:
            raise ValidationError(f"malformed lineage line: {line!r}")
        stage, table, rows, ts, idx, stmt, detail = parts
        try:
            return cls(stage, table, detail, int(rows), ts, int(idx) if idx else None, stmt or None)
        except ValueError as exc:
            raise ValidationError(f"malformed lineage line: {line!r}") from exc


@dataclass(frozen=True)
class QRow:
    reason: str
    fields: tuple[str, ...]


@dataclass
class Quarantine:
    columns: tuple[str, ...]
    rows: list[QRow] = field(default_factory=list)


@dataclass
class StagingArea:
    tables: dict[str, Table]
    quarantine: dict[str, Quarantine] = field(default_factory=dict)
    lineage: list[LineageEvent] = field(default_factory=list)
    fact_table: str | None = None
    dimensions: list[tuple[str, str]] = field(default_factory=list)
    reports: dict = field(default_factory=dict)

    def schema(self) -> DatabaseSchema:
        return DatabaseSchema({t.name: t.schema for t in self.tables.values()})

    def clone(self) -> "StagingArea":
        """Shallow copy safe for functional updates; Table objects are shared."""
        return replace(
            self,
            tables=dict(self.tables),
            quarantine={k: Quarantine(q.columns, list(q.rows)) for k, q in self.quarantine.items()},
            lineage=list(self.lineage),
            dimensions=list(self.dimensions),
            reports=dict(self.reports),
        )

    def add_quarantine(self, table_name: str, columns: tuple[str, ...], reason: str, fields_: tuple[str, ...]) -> None:
        q = self.quarantine.get(table_name)
        if q is None:
            q = Quarantine(columns)
            self.quarantine[table_name] = q
        q.rows.append(QRow(reason, fields_))

    def log(self, event: LineageEvent) -> None:
        self.lineage.append(event)


def _render_text(text: str) -> str:
    if text == "" or NEEDS_QUOTES(text):  # quoted empty text is not Null
        return '"' + text.replace('"', '""') + '"'
    return text


def _render_other(cell) -> str:
    text = render_cell(cell)  # raises TypeError for a foreign value
    return format_field(text, isinstance(cell, str) and text == "")


# the CSV field of a cell, by the cell's exact type
_FIELD_RENDERERS = {**CELL_TEXT, str: _render_text, RawCell: _render_text}


def render_table_csv(table: Table) -> str:
    renderer = _FIELD_RENDERERS.get
    lines = [",".join(table.schema.column_names)]
    for row in table.rows:
        lines.append(",".join([renderer(type(cell), _render_other)(cell) for cell in row]))
    return "\n".join(lines) + "\n"


def read_records(data: bytes, file: str, error: type[UwhError]) -> Iterator[tuple[list[str], list[bool] | None]]:
    """The records of the bytes of ``file``, as ``iter_records`` yields
    them. Invalid UTF-8 and every CSV fault are an ``error`` naming ``file``."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{file}: not valid UTF-8: {exc}") from exc
    try:
        yield from iter_records(text)
    except ValidationError as exc:
        raise error(f"{file}: {exc}") from exc


# each type's converter, built once
_CONVERTERS = {vtype: cell_converter(vtype) for vtype in ValueType}


class _ColumnMemo(dict):
    """One column's cells by field text, for the life of one decode: a miss
    converts the text and keeps its cell, except for text the column's
    type does not parse, whose cell is ``raw(text)`` and is not kept."""

    __slots__ = ("convert", "raw")

    def __init__(self, vtype: ValueType, raw: Callable[[str], object]):
        super().__init__()
        self.convert = _CONVERTERS[vtype]
        self.raw = raw

    def __missing__(self, text: str):
        cell = self.convert(text)
        if cell.__class__ is RawCell:
            return self.raw(text)
        self[text] = cell
        return cell


def typed_rows(records, columns, raw: Callable[[str], object]) -> Iterator[tuple[list[str], tuple | None]]:
    """(field texts, cells) per record; ``cells`` is None when the arity is
    not that of ``columns``. Each cell follows ``parse_cell`` for its
    column, but text that does not parse as the column's type becomes
    ``raw(text)``, called for every occurrence. Quote-free records look
    each field up in its column's memo (``_ColumnMemo``)."""
    memos = [_ColumnMemo(c.type, raw) for c in columns]
    lookup = dict.__getitem__
    n = len(columns)
    for fields, quoted in records:
        if len(fields) != n:
            yield fields, None
        elif quoted is None:
            yield fields, tuple(map(lookup, memos, fields))
        else:
            cells = (parse_cell(t, q, c.type) for t, q, c in zip(fields, quoted, columns))
            yield fields, tuple([raw(v) if isinstance(v, RawCell) else v for v in cells])


def decode_table(data: bytes, file: str, schema: TableSchema, error: type[UwhError], *, keep_raw: bool) -> Table:
    """Decode the bytes of table file ``file``: its header must name the
    schema's columns in order, and each cell follows ``parse_cell``.

    A cell that does not parse as its column's type stays a ``RawCell``
    when ``keep_raw`` and is an ``error`` otherwise, as is any other
    fault, each naming ``file``.
    """

    def unparsable(text: str):
        raise error(f"{file}: cell does not parse as its declared type")

    records = read_records(data, file, error)
    header, _ = next(records, (None, None))
    if header != list(schema.column_names):
        raise error(f"{file}: header does not match the schema")
    rows: list[tuple] = []
    for fields, cells in typed_rows(records, schema.columns, RawCell if keep_raw else unparsable):
        if cells is None:
            raise error(f"{file}: row arity {len(fields)} does not match the schema's {len(schema.columns)} columns")
        rows.append(cells)
    return Table(schema, rows)


def parse_cell(text: str, quoted: bool, vtype: ValueType):
    """Extraction cell rule: a quoted empty field is empty text in a TEXT
    column and raw in any other; any other field takes its type's
    converter, so a bare empty one is Null and a failed parse stays raw."""
    if quoted and text == "":
        return "" if vtype is ValueType.TEXT else RawCell("")
    return _CONVERTERS[vtype](text)


def dumps_staging(staging: StagingArea) -> dict[str, bytes]:
    """All dump files as {relative path: bytes}, deterministically ordered.
    Each file is encoded as soon as it is rendered."""
    files = {"schema.manifest": render_manifest(staging.schema()).encode("utf-8")}
    for name, table in staging.tables.items():
        files[f"{name}.csv"] = render_table_csv(table).encode("utf-8")
    for name, q in staging.quarantine.items():
        if not q.rows:
            continue
        lines = [",".join(("_reason",) + q.columns)]
        for qr in q.rows:
            lines.append(format_row([(qr.reason, False)] + [(f, f == "") for f in qr.fields]))
        files[f"quarantine/{name}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
    files["lineage.log"] = "".join(e.to_line() + "\n" for e in staging.lineage).encode("utf-8")
    meta = {
        "fact_table": staging.fact_table,
        "dimensions": [list(d) for d in staging.dimensions],
        "reports": staging.reports,
    }
    files["meta.json"] = (json.dumps(meta, sort_keys=True, indent=2) + "\n").encode("utf-8")
    return files


class Output(NamedTuple):  # a kind of directory that a command writes
    name: str
    noun: str  # the name with its article, if it takes one
    marker: str | None  # the file an earlier output holds; None: none is replaced
    subdirs: tuple[str, ...] = ()  # the directories an output holds


STAGING_DUMP = Output("staging dump", "a staging dump", "schema.manifest", ("quarantine",))


def check_target(out: Path, kind: Output) -> None:
    """The one rule for whether ``kind`` may be written to ``out``. Refused:
    a warehouse or a path inside one (``ReadOnlyError``), a file, and a
    non-empty directory that is not an earlier output of ``kind`` or holds
    a directory ``kind`` does not write (``ValidationError``)."""
    absolute = Path(os.path.abspath(out))
    for directory in (absolute, *absolute.parents):
        if (directory / CATALOG_NAME).is_file():
            where = "is" if directory == absolute else "lies inside"
            raise ReadOnlyError(f"refusing to write {out}: it {where} a frozen warehouse; warehouses are read-only")
    out = Path(out)
    entries = list(out.iterdir()) if out.exists() else []  # NotADirectoryError for a file
    if entries and kind.marker is None:
        raise ValidationError(f"refusing to write {kind.noun} into non-empty directory {out}")
    if entries and not (out / kind.marker).is_file():
        raise ValidationError(f"refusing to replace non-empty directory {out}: it is not {kind.noun}")
    for entry in entries:
        if entry.is_dir() and entry.name not in kind.subdirs:
            raise ValidationError(f"refusing to replace {kind.name} {out}: it holds the directory {entry}")


def write_dir_atomically(files: dict[str, bytes], out: Path, kind: Output) -> None:
    """Make directory ``out`` hold exactly ``files`` ({relative path: bytes}),
    an output of ``kind``, once ``check_target`` allows it.

    The files are written to a sibling ``.<name>-partial-*`` directory,
    which is then renamed to ``out``; an existing ``out`` is swapped out
    and removed. On any failure ``out`` is left as it was and the sibling
    is removed. This is the only function that writes files.
    """
    check_target(out, kind)
    out = Path(os.path.abspath(out))  # so that "." has a name and a parent
    out.parent.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f".{out.name}-partial-", dir=out.parent))
    try:
        new = scratch / "new"
        new.mkdir()
        for rel, data in files.items():
            path = new / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        if out.exists():
            old = scratch / "old"
            out.replace(old)
            try:
                new.replace(out)
            except BaseException:
                old.replace(out)
                raise
        else:
            new.replace(out)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def dump_staging(staging: StagingArea, out_dir: Path) -> None:
    """Write the staging dump to ``out_dir`` atomically; the writer checks
    that ``out_dir`` may be replaced."""
    write_dir_atomically(dumps_staging(staging), out_dir, STAGING_DUMP)


def staging_fingerprint(staging: StagingArea) -> str:
    return dump_fingerprint(dumps_staging(staging))


def dump_fingerprint(files: dict[str, bytes]) -> str:
    """SHA-256 over the files of a dump, path and bytes, in path order."""
    h = hashlib.sha256()
    for rel, data in sorted(files.items()):
        h.update(rel.encode())
        h.update(b"\x00")
        h.update(data)
        h.update(b"\x00")
    return h.hexdigest()


def _dump_text(path: Path) -> str:
    """The text of staging dump file ``path``; invalid UTF-8 is a
    ``ValidationError`` naming the file."""
    try:
        return path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path.name}: not valid UTF-8: {exc}") from exc


def _parse_meta(text: str) -> tuple[str | None, list[tuple[str, str]], dict]:
    """The fact table, dimensions and reports that ``meta.json`` holds.
    Text that is not JSON, or not of that shape, is a ``ValidationError``."""
    try:
        meta = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"meta.json: not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValidationError("meta.json: not a JSON object")
    fact_table = meta.get("fact_table")
    dimensions = meta.get("dimensions", [])
    reports = meta.get("reports", {})
    if not (fact_table is None or isinstance(fact_table, str)):
        raise ValidationError("meta.json: fact_table must be a table name or null")
    pairs = isinstance(dimensions, list) and all(
        isinstance(d, list) and len(d) == 2 and all(isinstance(v, str) for v in d) for d in dimensions
    )
    if not pairs:
        raise ValidationError("meta.json: dimensions must be a list of [table, key] pairs")
    if not isinstance(reports, dict):
        raise ValidationError("meta.json: reports must be an object")
    return fact_table, [tuple(d) for d in dimensions], reports


def load_staging(in_dir: Path) -> StagingArea:
    in_dir = Path(in_dir)
    manifest_path = in_dir / "schema.manifest"
    if not manifest_path.is_file():
        raise MissingInputError(f"not a staging directory (no schema.manifest): {in_dir}")
    db = parse_schema_manifest(_dump_text(manifest_path))
    tables: dict[str, Table] = {}
    for name, schema in db.tables.items():
        path = in_dir / f"{name}.csv"
        if not path.is_file():
            raise MissingInputError(f"staging dump is missing table file {path.name}")
        tables[name] = decode_table(path.read_bytes(), path.name, schema, ValidationError, keep_raw=True)

    quarantine: dict[str, Quarantine] = {}
    qdir = in_dir / "quarantine"
    if qdir.is_dir():
        for path in sorted(qdir.glob("*.csv")):
            file = f"quarantine/{path.name}"
            records = read_records(path.read_bytes(), file, ValidationError)
            header, _ = next(records, (None, None))
            if header is None:
                continue
            if header[0] != "_reason":
                raise ValidationError(f"{file}: quarantine header must start with _reason")
            rows = [QRow(fields[0], tuple(fields[1:])) for fields, _ in records]
            quarantine[path.stem] = Quarantine(tuple(header[1:]), rows)

    lineage: list[LineageEvent] = []
    lpath = in_dir / "lineage.log"
    if lpath.is_file():
        # "\n" alone ends an event; str.splitlines also splits at \r, \x85, U+2028 and more
        lineage = [LineageEvent.from_line(line) for line in _dump_text(lpath).split("\n") if line]

    fact_table, dimensions, reports = None, [], {}
    mpath = in_dir / "meta.json"
    if mpath.is_file():
        fact_table, dimensions, reports = _parse_meta(_dump_text(mpath))

    return StagingArea(tables, quarantine, lineage, fact_table, dimensions, reports)
