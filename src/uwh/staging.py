"""The staging buffer between pipeline stages, and its on-disk form.

A StagingArea holds typed tables, per-table quarantine of rejected rows,
and one report per stage that ran. Stages never mutate a staging area
they received; they build an updated copy, which makes plan-level
atomicity a non-event.

On disk a staging dump is a directory::

    schema.manifest        current table schemas
    <table>.csv            one data file per staged table
    quarantine/<table>.csv rejected rows with a _reason column
    meta.json              fact/dimension declarations and stage reports

``meta.json`` is the one record of what each stage did: ``reports`` holds
a slice per stage that ran (``extraction``, ``cleanse``, ``transform``),
each with the stage's ``timestamp`` and its counts, and the transform
slice lists every executed statement. A reader ignores any file a dump
does not write.

Dumps are byte-deterministic given the same staging contents, and are
written all or nothing by ``write_dir_atomically`` once ``check_target``
allows it, as are gen output and warehouses. Table files are written by
``render_table_csv``, which renders each distinct cell of a column once,
and read back by ``decode_table`` from the bytes of the file, so a
quoted CR survives.

A dump is signed: ``meta.json`` holds a ``format_version``, the SHA-256
of each other file (``files``) and a self checksum, as a warehouse
catalog does. ``load_staging`` checks every file it lists before it
decodes any (``read_signed``, ``read_checked``, which ``open`` calls too),
so an edited, missing or unsigned file is an ``IntegrityError``. A signed
file is the writer's own output, so a stage keeps the bytes of every
table it loaded (``StagingArea.encoded``); ``dumps_staging`` writes them
while the table has the same columns and row objects in the same order,
and renders any other table. A quarantine is the records of its file,
each rendered once, when a stage adds its row.

Every CSV read of source, staging table and dirt ledger files goes
through ``read_records``, and every typed one through ``typed_rows``,
which keeps one memo per column from field text to cell (dictionary
encoding), for quoted and bare fields alike: each distinct text of a
column is converted once, and equal cells are one shared object. Text
that does not parse is not kept; it is handed to the caller's ``raw`` at
each occurrence, so extract counts every raw cell. ``decode_column``
reads a warehouse column file and types its distinct texts in one pass
(``convert_all``), failing if any does not parse.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import tempfile
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from operator import is_, itemgetter
from pathlib import Path
from typing import NamedTuple

from .csvio import format_field, format_row, is_bare, iter_records, parse_column, split_records
from .csvio import parse_csv  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .errors import IntegrityError, MissingInputError, ReadOnlyError, UwhError, ValidationError
from .manifest import parse_schema_manifest, render_manifest
from .schema import DatabaseSchema, Table, TableSchema
from .values import CELL_TEXT, RawCell, ValueType, cell_converter, convert_all, render_cell

DEFAULT_TIMESTAMP = "1970-01-01T00:00:00Z"
CATALOG_NAME = "catalog.json"  # the file that makes a directory a frozen warehouse


@dataclass(frozen=True)
class QRow:
    reason: str
    fields: tuple[str, ...]


@dataclass
class Quarantine:
    """The rows a table's stages rejected, under the table's columns, as
    the records of its quarantine file: one per row, without the line end.
    ``append`` renders a row once; ``rows`` parses the records each time it
    is read. Two quarantines are equal when their columns and records are.
    Clones share a staging area's quarantines, so a stage adds rows with
    ``StagingArea.add_quarantine``, never by appending to one."""

    columns: tuple[str, ...]
    records: list[str] = field(default_factory=list)

    @property
    def rows(self) -> list[QRow]:
        return [QRow(fields[0], tuple(fields[1:])) for fields, _ in iter_records("\n".join(self.records))]

    def __len__(self) -> int:
        return len(self.records)

    def append(self, row: QRow) -> None:
        """Add ``row`` as its record: a field is quoted when it holds a
        comma, a quote or a line end, and any field but the reason also
        when it is empty."""
        self.records.append(format_row([(row.reason, False)] + [(f, f == "") for f in row.fields]))

    def to_csv(self) -> bytes:
        """The bytes of the quarantine file: a ``_reason`` column, then the table's."""
        return ("\n".join([",".join(("_reason", *self.columns)), *self.records]) + "\n").encode("utf-8")


class Encoded(NamedTuple):
    """The bytes of a table's dump file and what they encode: the table's
    column names and its row objects, in order."""

    names: tuple[str, ...]
    rows: tuple[tuple, ...]
    data: bytes

    @classmethod
    def of(cls, table: Table, data: bytes) -> "Encoded":
        return cls(table.schema.column_names, tuple(table.rows), data)

    def encodes(self, table: Table) -> bool:
        """Whether these are the bytes of ``table``: rows are tuples of
        immutable cells, so the same row objects render the same."""
        rows = table.rows
        return len(rows) == len(self.rows) and all(map(is_, rows, self.rows)) and table.schema.column_names == self.names


@dataclass
class StagingArea:
    tables: dict[str, Table]
    quarantine: dict[str, Quarantine] = field(default_factory=dict)
    fact_table: str | None = None
    dimensions: list[tuple[str, str]] = field(default_factory=list)
    reports: dict = field(default_factory=dict)
    # table name -> the bytes a table was loaded from or last rendered to
    encoded: dict[str, Encoded] = field(default_factory=dict, repr=False, compare=False)

    def schema(self) -> DatabaseSchema:
        return DatabaseSchema({t.name: t.schema for t in self.tables.values()})

    def clone(self) -> "StagingArea":
        """Shallow copy safe for functional updates; Table and Quarantine
        objects are shared."""
        return replace(
            self,
            tables=dict(self.tables),
            quarantine=dict(self.quarantine),
            dimensions=list(self.dimensions),
            reports=dict(self.reports),
            encoded=dict(self.encoded),
        )

    def add_quarantine(self, table_name: str, columns: tuple[str, ...], rows: Iterable[QRow]) -> None:
        """Quarantine ``rows`` of table ``table_name``, each holding a field
        per name in ``columns``: install a new quarantine holding the old
        one's records, then theirs, so that a clone that shares the old one
        keeps it as it was. No rows, no change.

        The header only grows: it is the old columns, then each of
        ``columns`` they lack, in order. Each old record but an ``arity``
        reject gains an empty field (``""``) per appended column, and each
        new row is laid out in the header's order, with an empty field for
        each column it lacks."""
        rows = list(rows)
        if not rows:
            return
        old = self.quarantine.get(table_name, Quarantine(tuple(columns)))
        header = old.columns + tuple(c for c in columns if c not in old.columns)
        pad = ("," + format_field("", True)) * (len(header) - len(old.columns))
        records = list(old.records)
        if pad:
            records = [r if r.partition(",")[0] == "arity" else r + pad for r in records]
        new = Quarantine(header, records)
        if header != tuple(columns):
            at = {c: i for i, c in enumerate(columns)}
            rows = [QRow(row.reason, tuple(row.fields[at[c]] if c in at else "" for c in header)) for row in rows]
        for row in rows:
            new.append(row)
        self.quarantine[table_name] = new


def _render_other(cell) -> str:
    text = render_cell(cell)  # raises TypeError for a foreign value
    return format_field(text, isinstance(cell, str) and text == "")


# the CSV field of a cell, by the cell's exact type; empty text is quoted, as it is not Null
_FIELD_RENDERERS = {**CELL_TEXT, **dict.fromkeys((str, RawCell), lambda text: format_field(text, text == ""))}


def _field_text(cell) -> str:
    return _FIELD_RENDERERS.get(cell.__class__, _render_other)(cell)


def _column_fields(rows: list[tuple], i: int) -> Iterator[str]:
    """The CSV field of cell ``i`` of each row, from a memo that renders
    each distinct cell once. In a column of more than one class besides
    None, a cell is keyed by its class too, so that cells of different
    classes that compare equal (True, 1 and Decimal 1) stay apart. A
    typed column holds one class, keyed by cell alone: that builds and
    hashes no tuple per row, which costs more than the class pass."""
    cell = itemgetter(i)
    if len(set(map(type, map(cell, rows))) - {type(None)}) > 1:

        def keys():
            return zip(map(type, map(cell, rows)), map(cell, rows))

        memo = {key: _field_text(key[1]) for key in set(keys())}
        return map(memo.__getitem__, keys())
    memo = {c: _field_text(c) for c in set(map(cell, rows))}
    return map(memo.__getitem__, map(cell, rows))


def render_columns(table: Table) -> list[list[str]]:
    """The CSV field of each cell of ``table``, column by column."""
    rows = table.rows
    return [list(_column_fields(rows, i)) for i in range(len(table.schema.columns))]


def _table_csv(names: tuple[str, ...], columns) -> str:
    """The table file of these columns of fields: a header, then one line per row."""
    return "\n".join([",".join(names), *map(",".join, zip(*columns))]) + "\n"


def render_table_csv(table: Table) -> str:
    rows = table.rows
    return _table_csv(table.schema.column_names, [_column_fields(rows, i) for i in range(len(table.schema.columns))])


def column_csv(fields: list[str]) -> str:
    """The column file of one column's fields: each followed by LF, so
    that a bare empty line is Null; no rows, an empty file."""
    return "\n".join(fields) + "\n" if fields else ""


def _utf8(data: bytes, file: str, error: type[UwhError]) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{file}: not valid UTF-8: {exc}") from exc


def read_records(data: bytes, file: str) -> Iterator[tuple[list[str], list[bool] | None]]:
    """The records of the bytes of ``file``, as ``iter_records`` yields
    them. Invalid UTF-8 and every CSV fault are a ``ValidationError`` naming ``file``."""
    text = _utf8(data, file, ValidationError)
    try:
        yield from iter_records(text)
    except ValidationError as exc:
        raise ValidationError(f"{file}: {exc}") from exc


# each type's converter, built once
_CONVERTERS = {vtype: cell_converter(vtype) for vtype in ValueType}


class _ColumnMemo(dict):
    """One column's cells by field text, for the life of one decode: a miss
    converts the text and keeps its cell, except for text the column's
    type does not parse, whose cell is ``raw(text)`` and is not kept."""

    __slots__ = ("vtype", "convert", "raw")

    def __init__(self, vtype: ValueType, raw: Callable[[str], object]):
        super().__init__()
        self.vtype = vtype
        self.convert = _CONVERTERS[vtype]
        self.raw = raw

    def __missing__(self, text: str):
        cell = self.convert(text)
        if cell.__class__ is RawCell:
            return self.raw(text)
        self[text] = cell
        return cell


def column_memos(columns, raw: Callable[[str], object]) -> list[_ColumnMemo]:
    return [_ColumnMemo(c.type, raw) for c in columns]


def typed_rows(records, memos: list[_ColumnMemo]) -> Iterator[tuple[list[str], tuple | None]]:
    """(field texts, cells) per record; ``cells`` is None when the arity is
    not the number of ``memos``, one per column (``column_memos``). Each
    cell follows ``parse_cell`` for its column, but text that does not parse
    as the column's type becomes ``raw(text)``, called for every occurrence.
    Each field is looked up in its column's memo, which then holds each
    distinct text that parsed."""
    lookup = dict.__getitem__
    n = len(memos)
    for fields, quoted in records:
        if len(fields) != n:
            yield fields, None
        elif quoted is None:
            yield fields, tuple(map(lookup, memos, fields))
        else:  # a quoted empty field is empty text in a TEXT column, and raw in any other
            cells = [m[t] if t or not q else "" if m.vtype is ValueType.TEXT else m.raw(t) for t, q, m in zip(fields, quoted, memos)]
            yield fields, tuple(cells)


def decode_table(data: bytes, file: str, schema: TableSchema) -> Table:
    """Decode the bytes of staging table file ``file``: its header must
    name the schema's columns in order, and each cell follows
    ``parse_cell``, so a cell that does not parse as its column's type
    stays a ``RawCell``. Any fault is a ``ValidationError`` naming
    ``file``."""
    records = read_records(data, file)
    header, _ = next(records, (None, None))
    if header != list(schema.column_names):
        raise ValidationError(f"{file}: header does not match the schema")
    memos = column_memos(schema.columns, RawCell)
    rows: list[tuple] = []
    for fields, cells in typed_rows(records, memos):
        if cells is None:
            raise ValidationError(f"{file}: row arity {len(fields)} does not match the schema's {len(schema.columns)} columns")
        rows.append(cells)
    return Table(schema, rows)


def bare_count(data: bytes, file: str) -> int | None:
    """The field count of column file ``file`` if it is bare, else None; invalid UTF-8 is an ``IntegrityError``."""
    return text.count("\n") if is_bare(text := _utf8(data, file, IntegrityError)) else None


def decode_column(data: bytes, file: str, vtype: ValueType) -> list:
    """The cells of column file ``file``, one per field (``column_csv``).

    A bare file is split on LF; any other is read by ``parse_column``,
    where a quoted empty field is empty text in a TEXT column. The
    distinct texts are typed in one pass (``convert_all``), and each field
    is looked up among them. A cell that does not parse as ``vtype``, and
    any other fault, is an ``IntegrityError`` naming ``file``."""
    text = _utf8(data, file, IntegrityError)
    if is_bare(text):
        texts = text[:-1].split("\n")
    else:
        try:  # None stands for a quoted empty field
            texts = [t if t or not q else None for t, q in parse_column(text)]
        except ValidationError as exc:
            raise IntegrityError(f"{file}: {exc}") from exc
    distinct = set(texts)
    typed = convert_all(vtype, distinct - {"", None})
    if typed is None or None in distinct and vtype is not ValueType.TEXT:
        raise IntegrityError(f"{file}: cell does not parse as its declared type")
    memo = {"": None, None: ""}
    memo.update(typed)
    return list(map(memo.__getitem__, texts))


def parse_cell(text: str, quoted: bool, vtype: ValueType):
    """Extraction cell rule: a quoted empty field is empty text in a TEXT
    column and raw in any other; any other field takes its type's
    converter, so a bare empty one is Null and a failed parse stays raw."""
    if quoted and text == "":
        return "" if vtype is ValueType.TEXT else RawCell("")
    return _CONVERTERS[vtype](text)


def kept_columns(staging: StagingArea, name: str) -> list[list[str]]:
    """The fields of table ``name``, column by column (``render_columns``).
    Unless ``staging.encoded`` holds the table's bytes, they are joined
    from those fields and kept there, so a dump renders the table no more."""
    table = staging.tables[name]
    columns = render_columns(table)
    kept = staging.encoded.get(name)
    if kept is None or not kept.encodes(table):
        staging.encoded[name] = Encoded.of(table, _table_csv(table.schema.column_names, columns).encode("utf-8"))
    return columns


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def sign(record: dict) -> bytes:
    """The bytes of JSON object ``record`` (``meta.json``, ``catalog.json``)
    with its ``self_checksum`` set: the SHA-256 of its canonical JSON
    while that field is empty."""
    record["self_checksum"] = ""
    record["self_checksum"] = sha256_hex(canonical_json(record).encode("utf-8"))
    return canonical_json(record).encode("utf-8")


def _read(directory: Path, file: str) -> bytes:
    path = directory / file
    if not path.is_file():
        raise IntegrityError(f"missing file {file}")
    return path.read_bytes()


def read_signed(directory: Path, file: str, version: int) -> dict:
    """The JSON object ``sign`` wrote to ``file`` in ``directory``. Bytes that
    are not the canonical JSON of an object of format ``version`` with a
    matching self checksum are an ``IntegrityError`` naming the file."""
    try:
        record = json.loads((data := _read(directory, file)).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{file} is corrupt: {exc}") from exc
    if not isinstance(record, dict) or record.get("format_version") != version:
        raise IntegrityError(f"{file}: unsupported or missing format_version")
    if sha256_hex(canonical_json({**record, "self_checksum": ""}).encode("utf-8")) != record.get("self_checksum"):
        raise IntegrityError(f"{file} failed its self checksum")
    if canonical_json(record).encode("utf-8") != data:
        raise IntegrityError(f"{file} is malformed: not the canonical JSON its writer signed")
    return record


def read_checked(directory: Path, file: str, checksum: str) -> bytes:
    """The bytes of ``file`` in ``directory``, whose SHA-256 a signed record
    gives as ``checksum``; a missing file or another digest is an
    ``IntegrityError`` naming the file."""
    data = _read(directory, file)
    if sha256_hex(data) != checksum:
        raise IntegrityError(f"checksum mismatch in {file}")
    return data


DUMP_FORMAT_VERSION = 1
# the files a dump may list: the manifest, and table and quarantine files
_DUMP_FILE = re.compile(r"schema\.manifest|(?:quarantine/)?[^/\\]+\.csv")


def dumps_staging(staging: StagingArea) -> dict[str, bytes]:
    """All dump files as {relative path: bytes}, deterministically ordered,
    and ``meta.json`` signed over them. A table that ``staging.encoded``
    encodes (``Encoded.encodes``) takes the bytes kept there; any other,
    such as a table whose rows were replaced or edited in place, is
    rendered, and its bytes are kept for the next dump. A quarantine
    writes its records."""
    files = {"schema.manifest": render_manifest(staging.schema()).encode("utf-8")}
    for name, table in staging.tables.items():
        kept = staging.encoded.get(name)
        if kept is None or not kept.encodes(table):
            kept = staging.encoded[name] = Encoded.of(table, render_table_csv(table).encode("utf-8"))
        files[f"{name}.csv"] = kept.data
    for name, q in staging.quarantine.items():
        if len(q):
            files[f"quarantine/{name}.csv"] = q.to_csv()
    files["meta.json"] = sign({
        "format_version": DUMP_FORMAT_VERSION,
        "fact_table": staging.fact_table,
        "dimensions": [list(d) for d in staging.dimensions],
        "reports": staging.reports,
        "files": {rel: sha256_hex(data) for rel, data in files.items()},
    })
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
    that ``out_dir`` may be replaced. Tables are rendered or taken from
    ``staging.encoded`` as ``dumps_staging`` says."""
    write_dir_atomically(dumps_staging(staging), out_dir, STAGING_DUMP)


def staging_fingerprint(staging: StagingArea) -> str:
    """The self checksum of the dump of ``staging``, which covers the
    SHA-256 of each file it writes."""
    return json.loads(dumps_staging(staging)["meta.json"])["self_checksum"]


def _parse_meta(meta: dict) -> tuple[str | None, list[tuple[str, str]], dict]:
    """The fact table, dimensions and reports that ``meta.json`` holds; a
    value not of that shape is a ``ValidationError``."""
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
    """The staging area dumped to ``in_dir``. ``meta.json`` and every file
    it lists are checked first, by the digest check ``open_warehouse``
    makes too (``read_signed``, ``read_checked``): an unsigned, edited or
    missing file is an ``IntegrityError``, and a file the dump does not
    list is not read. Each listed file is then decoded, and any fault
    there is a ``ValidationError``. Every table's bytes are kept in
    ``encoded``, and a dump writes them again while the table keeps its
    row objects; editing a loaded table, in place or not, makes the dump
    render it."""
    in_dir = Path(in_dir)
    if not (in_dir / "schema.manifest").is_file():
        raise MissingInputError(f"not a staging directory (no schema.manifest): {in_dir}")
    meta = read_signed(in_dir, "meta.json", DUMP_FORMAT_VERSION)
    listed = meta.get("files")
    if not (isinstance(listed, dict) and all(_DUMP_FILE.fullmatch(f) and isinstance(d, str) for f, d in listed.items())):
        raise IntegrityError("meta.json: files must map each table, quarantine and manifest file to its SHA-256")
    files = {file: read_checked(in_dir, file, digest) for file, digest in listed.items()}

    def listed_file(file: str) -> bytes:
        if file not in files:
            raise IntegrityError(f"meta.json does not list {file}")
        return files[file]

    db = parse_schema_manifest(_utf8(listed_file("schema.manifest"), "schema.manifest", ValidationError))
    tables = {name: decode_table(listed_file(f"{name}.csv"), f"{name}.csv", schema) for name, schema in db.tables.items()}
    encoded = {name: Encoded.of(table, files[f"{name}.csv"]) for name, table in tables.items()}
    quarantine = {
        file[len("quarantine/") : -len(".csv")]: _decode_quarantine(data, file)
        for file, data in sorted(files.items())
        if file.startswith("quarantine/")
    }
    return StagingArea(tables, quarantine, *_parse_meta(meta), encoded)


def _decode_quarantine(data: bytes, file: str) -> Quarantine:
    """The quarantine that ``Quarantine.to_csv`` wrote to ``file``: a header
    starting with ``_reason``, then its records (``split_records``). Invalid
    UTF-8, or a file that ends inside a quoted field, is a ``ValidationError``."""
    head, _, body = _utf8(data, file, ValidationError).partition("\n")
    header = head.split(",")
    if header[0] != "_reason":
        raise ValidationError(f"{file}: quarantine header must start with _reason")
    try:
        return Quarantine(tuple(header[1:]), split_records(body))
    except ValidationError as exc:
        raise ValidationError(f"{file}: {exc}") from exc
