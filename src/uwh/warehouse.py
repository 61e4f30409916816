"""Stage 4: load and index, plus the read-only query surface.

A warehouse directory is eight relations (one fact, seven dimensions),
each stored as one file per column, and ``catalog.json``. The catalog
records a SHA-256 checksum for every column file plus one for itself, so
any single-byte tamper is detected at open time. Indexes are derived
state: the catalog's joins describe the indexes and ordinal lists the
star join builds, each the first time it reads them, and ``open`` checks
that every dimension key is unique. An opened warehouse exposes no
mutating operation.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .csvio import format_field, parse_csv
from .errors import IntegrityError, MissingInputError, ParseError, ValidationError
from .lexer import tokenize
from .plan import _Parser
from .schema import ColumnDef, Table, TableSchema, key_getter
from .staging import (
    CATALOG_NAME,
    Output,
    StagingArea,
    bare_count,
    column_csv,
    column_memos,
    decode_column,
    kept_columns,
    read_checked,
    read_signed,
    sha256_hex,
    sign,
    staging_fingerprint,
    typed_rows,
    write_dir_atomically,
)
from .staging import render_table_csv  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .values import COMPARISONS, DEC4, ORDERED_TYPES, RawCell, ValueType, coerce_literal, render_cell, value_tag

from decimal import Decimal

FORMAT_VERSION = 5
WAREHOUSE = Output("warehouse", "a warehouse", None)

AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


# ---------------------------------------------------------------------------
# Snowflake schema


@dataclass(frozen=True)
class DimensionInfo:
    name: str
    key: str
    parent: str | None  # None when joined straight to the fact
    join_columns: tuple[str, ...]  # on this dimension
    join_parent_columns: tuple[str, ...]  # on the parent (or fact)


@dataclass(frozen=True)
class SnowflakeSchema:
    fact: str
    dimensions: tuple[DimensionInfo, ...]

    def relation_names(self) -> list[str]:
        return [self.fact] + [d.name for d in self.dimensions]


def assemble_snowflake(tables: dict[str, Table], fact_decl: str, dim_decls: list[tuple[str, str]]) -> SnowflakeSchema:
    """Validate the one-fact/seven-dimension shape and derive the arm graph
    from the surviving foreign-key declarations.

    Every dimension must connect to the fact through exactly one chain of
    FK edges (in either direction); dimension keys must be unique and
    non-Null. This is the one check of a plan's FACT and DIMENSION
    declarations: ``validate_plan`` makes it on empty tables, where the
    key checks hold trivially, and ``load`` on the rows.
    """
    if fact_decl not in tables:
        raise ValidationError(f"fact table {fact_decl!r} does not exist")
    if len(dim_decls) != 7:
        raise ValidationError(f"expected 7 dimensions, found {len(dim_decls)}")
    dim_names = [d for d, _ in dim_decls]
    if len(set(dim_names)) != 7 or fact_decl in dim_names:
        raise ValidationError("dimensions must be seven distinct non-fact tables")
    keys = dict(dim_decls)
    for name, key in dim_decls:
        if name not in tables:
            raise ValidationError(f"dimension table {name!r} does not exist")
        schema = tables[name].schema
        if not schema.has_column(key):
            raise ValidationError(f"dimension key {name}.{key} does not exist")
        values = list(_keys(tables[name], (key,)))
        if (None,) in values:
            raise ValidationError(f"dimension key {name}.{key} contains Null")
        repeated = _repeated_key(values)
        if repeated is not None:
            raise ValidationError(f"duplicate dimension key {name}.{key} = {render_cell(repeated[0])!r}")

    relations = {fact_decl, *dim_names}
    edges: list[tuple[str, tuple[str, ...], str, tuple[str, ...]]] = []  # (child, child_cols, parent, parent_cols)
    for name in relations:
        for fk in tables[name].schema.foreign_keys:
            if fk.target_table in relations:
                edges.append((name, fk.columns, fk.target_table, fk.target_columns))

    assigned: dict[str, DimensionInfo] = {}
    reached = {fact_decl}  # the fact and every assigned dimension
    used = [False] * len(edges)
    while len(assigned) < 7:
        attached: dict[str, DimensionInfo] = {}
        for i, (a, a_cols, b, b_cols) in enumerate(edges):
            # both ends reached is a cycle in the arm graph; neither, not yet
            if used[i] or (a in reached) == (b in reached):
                continue
            # orient the edge so that `near` is the reached end
            near, far, near_cols, far_cols = (a, b, a_cols, b_cols) if a in reached else (b, a, b_cols, a_cols)
            if far in attached:
                raise ValidationError(f"dimension {far!r} connects through more than one arm")
            parent = None if near == fact_decl else near
            attached[far] = DimensionInfo(far, keys[far], parent, far_cols, near_cols)
            used[i] = True
        if not attached:
            missing = sorted(set(dim_names) - set(assigned))
            raise ValidationError(f"dimensions {missing} are not connected to the fact by foreign keys")
        assigned.update(attached)
        reached.update(attached)
    for i, (a, a_cols, b, b_cols) in enumerate(edges):
        if not used[i] and a in relations and b in relations:
            raise ValidationError(f"foreign key {a}->{b} makes the dimension graph cyclic or ambiguous")

    for info in assigned.values():
        if info.parent is None and info.join_columns != (info.key,):
            raise ValidationError(
                f"fact key column(s) {info.join_parent_columns} must reference the dimension key {info.name}.{info.key}"
            )

    ordered = tuple(assigned[name] for name in dim_names)
    return SnowflakeSchema(fact_decl, ordered)


# ---------------------------------------------------------------------------
# Indexes


def _sort_key(key: tuple) -> tuple:
    return tuple((v is not None, v) for v in key)


@dataclass
class Index:
    relation: str
    columns: tuple[str, ...]
    entries: dict[tuple, list[int]] = field(default_factory=dict)


def _keys(table: Table, columns) -> Iterator[tuple]:
    """The key tuple over ``columns`` of each row of ``table``, in row order."""
    return map(key_getter(tuple(map(table.schema.column_index, columns))), table.rows)


def _repeated_key(keys: Iterable[tuple]) -> tuple | None:
    """The first key that ``keys`` yields a second time, if any."""
    seen: set[tuple] = set()
    for key in keys:
        if key in seen:
            return key
        seen.add(key)
    return None


def build_index(relation: str, columns: tuple[str, ...], keys: Iterable[tuple]) -> Index:
    """Map each key tuple to the ordinals a full scan would return, given each row's key in ``keys``."""
    index = Index(relation, tuple(columns))
    for n, key in enumerate(keys):
        bucket = index.entries.get(key)
        if bucket is None:
            index.entries[key] = [n]
        else:
            bucket.append(n)
    return index


def _key_field(value) -> str:
    return format_field(render_cell(value), isinstance(value, str) and (value == "" or "\t" in value))


# a key component's field by its exact class; any other class takes _key_field
_KEY_FIELDS = {int: str, type(None): lambda value: ""}


def render_index(index: Index) -> str:  # unused here; the benchmark's tracer rebinds this name
    """One ``key<TAB>ordinal`` line per entry, key-sorted, Null first.

    Key components use the CSV cell encoding joined by commas, so Null
    (bare empty) and empty text (quoted empty) stay distinct; text
    containing a tab is quoted so the key/ordinal split stays unambiguous.
    """
    entries = index.entries
    # keys without a Null sort by plain tuple order, which _sort_key keeps
    keys = sorted(entries, key=_sort_key) if any(None in key for key in entries) else sorted(entries)
    field_of = _KEY_FIELDS.get
    lines = []
    for key in keys:
        encoded = ",".join([field_of(v.__class__, _key_field)(v) for v in key])
        for ordinal in entries[key]:
            lines.append(f"{encoded}\t{ordinal}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_index(text: str, descriptor: dict, schema: TableSchema) -> Index:  # unused here, like render_index
    index = Index(descriptor["relation"], tuple(descriptor["columns"]))
    memos = column_memos([schema.column(c) for c in index.columns], RawCell)
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            key_part, ordinal_part = line.rsplit("\t", 1)
            fields = (parse_csv(key_part) or [[]])[0]
            _, key = next(typed_rows([([t for t, _ in fields], [q for _, q in fields])], memos))
            if key is None or any(isinstance(v, RawCell) for v in key):
                raise ValueError("bad key")
            ordinal = int(ordinal_part)
        except (ValueError, ValidationError) as exc:
            raise IntegrityError(f"corrupt index sidecar line {lineno}: {line!r}") from exc
        index.entries.setdefault(key, []).append(ordinal)
    return index


# ---------------------------------------------------------------------------
# Load


def _checked_snowflake(staging: StagingArea) -> SnowflakeSchema:
    """The snowflake ``staging`` declares, once every fact key resolves."""
    if staging.fact_table is None or not staging.dimensions:
        raise ValidationError("staging carries no fact/dimension declarations; run transform first")
    snowflake = assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    tables = staging.tables

    # star-join soundness: every fact key resolves before anything is written;
    # a fact joins each arm on the dimension key, which assemble_snowflake
    # found non-Null, so a Null fact key dangles too
    fact = tables[snowflake.fact]
    for dim in snowflake.dimensions:
        if dim.parent is not None:
            continue
        present = set(_keys(tables[dim.name], dim.join_columns))
        for n, key in enumerate(_keys(fact, dim.join_parent_columns)):
            if key not in present:
                raise ValidationError(
                    f"fact row {n} has dangling dimension key {tuple(map(render_cell, key))} into {dim.name}"
                )
    return snowflake


def load(out_dir: Path, staging: StagingArea, *, timestamp: str) -> dict:
    """Persist the snowflake that ``staging`` declares and the frozen
    catalog, whose joins describe the star join's indexes, all or nothing.
    The writer refuses an ``out_dir`` that is not empty or lies inside a
    warehouse (``staging.check_target``).

    Each relation is stored as one file per column, ``<relation>.<i>.col``
    for its column at position ``i`` (``column_csv``), and each column's
    catalog entry records its file and the file's SHA-256. The fields of
    each relation are rendered once (``kept_columns``): they make its
    column files and, unless ``staging.encoded`` already holds them, the
    bytes of its staging dump file, which a later dump of ``staging``
    writes as they are. ``build.source_hash`` is the self checksum of the
    signed dump (``staging_fingerprint``), and ``build.plan_hash`` the
    one the transform recorded."""
    files: dict[str, bytes] = {}
    relations_meta = []
    snowflake = _checked_snowflake(staging)
    for name in snowflake.relation_names():  # one relation's fields at a time
        schema = staging.tables[name].schema
        entries = []
        for i, (column, fields) in enumerate(zip(schema.columns, kept_columns(staging, name))):
            file = f"{name}.{i}.col"
            files[file] = column_csv(fields).encode("utf-8")
            entries.append({
                "name": column.name,
                "type": column.type.value,
                "nullable": column.nullable,
                "file": file,
                "checksum": sha256_hex(files[file]),
            })
        relations_meta.append({
            "name": name,
            "row_count": len(staging.tables[name].rows),
            "columns": entries,
            "primary_key": list(schema.primary_key),
        })

    catalog = {
        "format_version": FORMAT_VERSION,
        "frozen": True,
        "fact": snowflake.fact,
        "dimensions": [{"name": d.name, "key": d.key, "parent": d.parent} for d in snowflake.dimensions],
        "joins": [
            {
                "relation": d.name,
                "columns": list(d.join_columns),
                "parent": d.parent or snowflake.fact,
                "parent_columns": list(d.join_parent_columns),
            }
            for d in snowflake.dimensions
        ],
        "relations": relations_meta,
        "build": {  # a transform report that is absent or malformed gives no plan hash
            "plan_hash": staging.reports["transform"]["plan_hash"] if _fits(staging.reports, _PLAN_REPORT) else "",
            "source_hash": staging_fingerprint(staging),
            "timestamp": timestamp,
        },
    }
    files[CATALOG_NAME] = sign(catalog)
    write_dir_atomically(files, out_dir, WAREHOUSE)
    return catalog


# ---------------------------------------------------------------------------
# Open + query


@dataclass(frozen=True)
class Measure:
    agg: str
    column: str | None = None  # None means COUNT(*)

    def result_name(self) -> str:
        if self.column is None:
            return "count_all"
        return f"{self.agg.lower()}_{self.column.replace('.', '_')}"


@dataclass(frozen=True)
class Filter:
    attribute: str
    op: str
    value: object


@dataclass(frozen=True)
class StarQuery:
    measures: tuple[Measure, ...]
    group_by: tuple[str, ...] = ()
    filters: tuple[Filter, ...] = ()


def parse_measure(text: str) -> Measure:
    if text.replace(" ", "").upper() == "COUNT(*)":
        return Measure("COUNT", None)
    bad = ParseError(f"bad measure {text!r}: expected AGG(column) or COUNT(*)")
    try:
        p = _Parser(tokenize(text))
        agg = p.expect_ident().lexeme.upper()
        p.expect_symbol("(")
        column = _attribute(p)
        p.expect_symbol(")")
    except ParseError:
        raise bad from None
    if agg not in AGGREGATES or p.peek().kind != "eof":
        raise bad
    return Measure(agg, column)


def parse_filter(text: str) -> Filter:
    try:
        p = _Parser(tokenize(text))
        attr = _attribute(p)
        op = p.peek().lexeme
        if op not in COMPARISONS:
            raise p.error(f"one of {tuple(COMPARISONS)}")
        p.expect_symbol(op)
        value = p.literal()
        if p.peek().kind != "eof":
            raise p.error("end of filter")
    except ParseError as exc:
        raise ParseError(f"bad filter {text!r}: {exc.raw_message}") from None
    return Filter(attr, op, value)


def _attribute(p: _Parser) -> str:
    """``column`` or ``relation.column``."""
    name = p.expect_name().lexeme
    if p.at_symbol("."):
        p.advance()
        name += "." + p.expect_name().lexeme
    return name


def _coerce_filter_value(value, vtype: ValueType):
    if value is None:
        return None
    if vtype is ValueType.INTEGER and value_tag(value) is ValueType.DECIMAL and value == value.to_integral_value():
        return int(value)
    try:
        return coerce_literal(value, vtype)
    except ValueError as exc:
        raise ValidationError(f"filter {exc}") from None


class Warehouse:
    """Read-only handle over a verified warehouse directory."""

    def __init__(self, directory: Path, catalog: dict, schemas: dict[str, TableSchema], columns: dict[str, list]):
        self.directory = Path(directory)
        self.catalog = catalog
        self._schemas = schemas
        self._columns = columns  # by relation, each column's cells, or its verified bytes until first read
        self._indexes: dict[tuple, Index] = {}  # star-join indexes by (relation, columns)
        self._links: dict[tuple, list] = {}  # star-join ordinal lists by (steps, many)
        self._joined: dict[tuple, list] = {}  # the cells those ordinals name, by (steps, column)
        self._gaps: set[tuple] = set()  # the steps of the single-valued lists that hold a None

    # --- inspection -------------------------------------------------------
    def relation_names(self) -> list[str]:
        return [r["name"] for r in self.catalog["relations"]]

    def row_count(self, name: str) -> int:
        return next(r["row_count"] for r in self.catalog["relations"] if r["name"] == self._schema(name).name)

    def relation(self, name: str) -> Table:
        schema = self._schema(name)
        return Table(schema, list(zip(*[self._cells(name, i) for i in range(len(schema.columns))])))

    def _schema(self, name: str) -> TableSchema:
        if name not in self._schemas:
            raise ValidationError(f"unknown relation {name!r}")
        return self._schemas[name]

    def _cells(self, relation: str, i: int, steps: tuple = ()) -> list:
        """Column ``i`` of ``relation``, typed on first read; with ``steps`` ending at ``relation``, the cells
        of it that the first step's rows join (``_ordinals``), None on a miss. Each is kept from first use."""
        if steps:
            if (steps, i) not in self._joined:
                column = self._cells(relation, i)
                self._joined[steps, i] = [None if n is None else column[n] for n in self._ordinals(steps)]
            return self._joined[steps, i]
        cells = self._columns[relation][i]
        if cells.__class__ is bytes:
            cells = self._columns[relation][i] = decode_column(cells, f"{relation}.{i}.col", self._schemas[relation].columns[i].type)
        return cells

    def _keys(self, relation: str, columns: tuple[str, ...]) -> Iterator[tuple]:
        """The key tuple over ``columns`` of each row of ``relation``, in row order."""
        return zip(*[self._cells(relation, i) for i in map(self._schemas[relation].column_index, columns)])

    # --- attribute resolution ---------------------------------------------
    def resolve_attribute(self, attr: str) -> tuple[str, int, ColumnDef]:
        if "." in attr:
            rel, col = attr.split(".", 1)
            schema = self._schema(rel)
            if not schema.has_column(col):
                raise ValidationError(f"unknown attribute {attr!r}")
            return rel, schema.column_index(col), schema.column(col)
        hits = []
        for name in self.relation_names():
            schema = self._schemas[name]
            if schema.has_column(attr):
                hits.append((name, schema.column_index(attr), schema.column(attr)))
        if not hits:
            raise ValidationError(f"unknown attribute {attr!r}")
        if len(hits) > 1:
            rels = [h[0] for h in hits]
            raise ValidationError(f"ambiguous attribute {attr!r}; qualify one of {rels}")
        return hits[0]

    # --- star join ----------------------------------------------------------
    def _parents(self) -> dict[str, dict]:
        return {j["relation"]: j for j in self.catalog["joins"]}

    def _index(self, relation: str, columns: tuple[str, ...]) -> Index:
        index = self._indexes.get((relation, columns))
        if index is None:
            index = self._indexes[relation, columns] = build_index(relation, columns, self._keys(relation, columns))
        return index

    def _ordinals(self, steps: tuple, many: bool = False) -> list:
        """For each row of the first step's relation, the ordinal of the
        row of the last step's relation it joins, or None; with ``many``,
        the list of them. A step ``(relation, columns, target, target
        columns)`` is an equijoin; every step but a ``many`` one joins a
        unique key. Built on first use from the target's index and composed
        step by step, so a relation in between is never read."""
        links = self._links.get((steps, many))
        if links is None:
            relation, columns, target, target_columns = steps[-1]
            get = self._index(target, target_columns).entries.get
            keys = self._keys(relation, columns)
            links = [get(key, ()) for key in keys] if many else [(get(key) or (None,))[0] for key in keys]
            if len(steps) > 1:
                miss = () if many else None
                links = [miss if n is None else links[n] for n in self._ordinals(steps[:-1])]
            if not many and None in links:
                self._gaps.add(steps)
            self._links[steps, many] = links
        return links


def star_query(handle: Warehouse, query: StarQuery) -> Table:
    """Filter the fact joined along snowflake arms, group, aggregate.

    Join semantics: the unique arm path from the fact to each referenced
    dimension, one inner equijoin per edge; a one-to-many edge multiplies
    rows, so aggregates are those of the expanded grain. Groups are emitted
    in ascending group-key order (Nulls first); no rows, no groups.

    Execution reads to-one relations through join indices (Valduriez,
    "Join Indices", TODS 1987) and aggregates one-to-many arms before they
    expand (eager aggregation, Yan & Larson, VLDB 1995):

    - A relation joined on its dimension key (student, major, instructor)
      is to-one. The handle keeps, from first use, a fact-aligned list of
      its row ordinals, None where the join misses, composed down the
      chain (fact -> student -> major). Its group, filter and measure
      columns are read through that list, so the fact is bucketed by its
      group values alone; a fact row whose chain misses drops.
    - Any other join starts a one-to-many arm (account, receipt, ...). One
      pass over the arm's deepest rows, which reach the rows above through
      child -> parent ordinal lists, aggregates it into (anchor, group
      part) -> (row count, partials); the anchor is the row of the to-one
      relation it hangs from. The fact side is bucketed by its group
      values and anchors, and each bucket combined with its anchors' arm
      entries; a fact side that only counts rows instead weighs each arm
      row by its anchor's fact row count. COUNT, SUM and AVG partials are
      multiplied by the other side's row count, MIN and MAX are not. An
      anchor no arm row survives drops its fact rows, as an inner join does.
    """
    if not query.measures:
        raise ValidationError("query needs at least one measure")
    fact = handle.catalog["fact"]
    parents = handle._parents()

    resolved_groups = [handle.resolve_attribute(attr) for attr in query.group_by]
    resolved_filters = []
    for f in query.filters:
        rel, idx, cdef = handle.resolve_attribute(f.attribute)
        if f.op not in ("=", "<>") and cdef.type not in ORDERED_TYPES:
            raise ValidationError(f"filter operator {f.op} is not defined for {cdef.type.value}")
        literal = _coerce_filter_value(f.value, cdef.type)
        resolved_filters.append((rel, idx, COMPARISONS[f.op], literal))
    resolved_measures = []
    for m in query.measures:
        if m.agg not in AGGREGATES:
            raise ValidationError(f"unknown aggregate {m.agg!r}")
        if m.column is None:
            if m.agg != "COUNT":
                raise ValidationError(f"{m.agg}(*) is not defined; only COUNT(*)")
            resolved_measures.append((m, None, None, None))
            continue
        rel, idx, cdef = handle.resolve_attribute(m.column)
        if m.agg in ("SUM", "AVG") and cdef.type not in (ValueType.INTEGER, ValueType.DECIMAL):
            raise ValidationError(f"{m.agg} needs a numeric column, {m.column} is {cdef.type.value}")
        if m.agg in ("MIN", "MAX") and cdef.type not in ORDERED_TYPES:
            raise ValidationError(f"{m.agg} is not defined for {cdef.type.value}")
        resolved_measures.append((m, rel, idx, cdef))

    filters_by_rel: dict[str, list] = {}
    for rel, idx, compare, literal in resolved_filters:
        filters_by_rel.setdefault(rel, []).append((idx, compare, literal))
    referenced = [fact, *(rel for rel, _, _ in resolved_groups), *filters_by_rel]
    referenced += [rel for _, rel, _, _ in resolved_measures if rel is not None]

    # the join of each relation on a referenced relation's chain to the
    # fact, by parent; open refused any catalog whose chains do not all
    # reach the fact, or whose dimension keys repeat
    below: dict[str, dict] = {}
    for rel in referenced:
        while rel != fact:
            join = parents[rel]
            below.setdefault(join["parent"], {})[rel] = join
            rel = join["parent"]
    keys = {d["name"]: [d["key"]] for d in handle.catalog["dimensions"]}

    def plan(root: dict | None) -> tuple:
        """(grain, {relation: steps from the grain}, [(anchor relation, arm
        plan)], steps to the parent's anchor) for the fact, or for the arm
        that join ``root`` hangs from its parent. A relation joined on its
        key is read through an ordinal list. An arm's grain descends to a
        child joined on the grain's key, so that one pass over the child's
        rows reads the relations above it as to-one."""
        grain = fact if root is None else root["relation"]
        steps, arms = {grain: ()}, []
        while root is not None:
            down = [j for j in below.get(grain, {}).values() if j["parent_columns"] == keys[grain]]
            if not down:
                break
            grain = down[0]["relation"]
            steps = {grain: (), **{rel: (_step(down[0]),) + path for rel, path in steps.items()}}
        flat = list(steps)
        for rel in flat:
            for child, join in below.get(rel, {}).items():
                if child in steps:
                    continue
                if join["columns"] == keys[child]:
                    steps[child] = steps[rel] + (_step(join, down=True),)
                    flat.append(child)
                else:
                    arms.append((rel, plan(join)))
        return grain, steps, arms, root and steps[root["relation"]] + (_step(root),)

    groups = [(rel, idx) for rel, idx, _ in resolved_groups]
    measures = [(m.agg, rel or fact, idx) for m, rel, idx, _ in resolved_measures]
    entries, group_pos, measure_pos = _aggregate(handle, plan(None), filters_by_rel, groups, measures)
    group_key = key_getter(tuple(map(group_pos.index, range(len(groups)))))
    at, slots_of = 0, {}  # measure position -> its slots in the partial
    for k in measure_pos:
        width = len(_AGGS[measures[k][0]].slots)
        slots_of[k] = slice(at, at + width)
        at += width
    finish = [(slots_of[k], _AGGS[agg].finish) for k, (agg, _, _) in enumerate(measures)]
    results = {}
    for (_, gpart), (_, partial) in entries.items():
        results[group_key(gpart)] = tuple(done(partial[slots]) for slots, done in finish)

    out_columns = [ColumnDef(cdef.name, cdef.type, nullable=True) for _, _, cdef in resolved_groups]
    for m, _, _, cdef in resolved_measures:
        out_columns.append(ColumnDef(m.result_name(), _result_type(m.agg, cdef), nullable=True))
    schema = TableSchema("result", tuple(out_columns), primary_key=())
    return Table(schema, [gkey + results[gkey] for gkey in sorted(results, key=_sort_key)])


def _result_type(agg: str, cdef: ColumnDef | None) -> ValueType:
    if agg == "COUNT":
        return ValueType.INTEGER
    if agg == "AVG":
        return ValueType.DECIMAL
    return cdef.type


def _step(join: dict, down: bool = False) -> tuple:
    """A catalog join as a step of ``Warehouse._ordinals``, from the joined
    relation up to its parent or from the parent ``down`` to it."""
    up = (join["relation"], tuple(join["columns"]), join["parent"], tuple(join["parent_columns"]))
    return up[2:] + up[:2] if down else up


def _aggregate(handle: Warehouse, plan: tuple, filters: dict, groups: list, measures: list, weights=None):
    """``{(anchor, group part): (row count, partial)}`` for the rows a
    ``plan`` of ``star_query`` joins, plus the group-by positions its group
    parts hold and the measures its partials hold, in order. The anchor is
    the row ordinal of the parent's anchor relation, or None for the fact
    and for an arm given ``weights``, the number of joined rows above each
    parent anchor row, which its rows then stand for."""
    grain, steps, arms, up = plan
    live = range(handle.row_count(grain))
    for rel, path in steps.items():  # _cells(rel, i, path)[n] is the cell of rel that grain row n joins
        links = handle._ordinals(path) if path else ()
        if path in handle._gaps:  # a row the chain misses joins nothing
            live = [n for n in live if links[n] is not None]
        for i, compare, literal in filters.get(rel, ()):  # Null on either side compares false
            cells = handle._cells(rel, i, path)
            live = [n for n in ([] if literal is None else live) if (v := cells[n]) is not None and compare(v, literal)]
    parts, weight = [], None  # the bucket key: the parent's anchor, the group part, the arms' anchors
    lead = up is not None and weights is None
    if up is not None:  # a row joins each parent row its key matches
        links, joined = handle._ordinals(up, many=True), live
        if lead:
            live = [n for n in joined for _ in links[n]]
            parts.append([x for n in joined for x in links[n]])
        else:  # the anchor leaves the key: a row stands for the joined rows above all its anchors
            weight = {n: w for n in joined if (w := sum([weights.get(x, 0) for x in links[n]]))}
            live = list(weight)

    own = [(g, rel, idx) for g, (rel, idx) in enumerate(groups) if rel in steps]
    group_pos = [g for g, _, _ in own]
    measure_pos = [k for k, (_, rel, _) in enumerate(measures) if rel in steps]
    counted = all(measures[k][2] is None for k in measure_pos)  # COUNT(*) only: a partial is the row count
    anchors = [list(map(handle._ordinals(steps[rel]).__getitem__, live)) if steps[rel] else live for rel, _ in arms]
    if up is None and not own and len(arms) == 1 and counted:  # the fact side is a row count per anchor
        sub, sub_groups, sub_measures = _aggregate(handle, arms[0][1], filters, groups, measures, Counter(anchors[0]))
        width = len(measure_pos)
        return {key: (n, (n,) * width + p) for key, (n, p) in sub.items()}, group_pos + sub_groups, measure_pos + sub_measures
    columns = [handle._cells(rel, idx, steps[rel]) for _, rel, idx in own]  # with every row live, a column is its part
    parts += (columns if live.__class__ is range else [list(map(c.__getitem__, live)) for c in columns]) + anchors
    keys = zip(*parts) if len(parts) > 1 else parts[0] if parts else repeat((), len(live))
    if counted and weight is None:
        buckets = [(key, n, (n,) * len(measure_pos)) for key, n in Counter(keys).items()]
    else:
        ordinals: dict = defaultdict(list)
        for key, n in zip(keys, live):
            ordinals[key].append(n)
        total = len if weight is None else lambda ns: sum([weight[n] for n in ns])
        parts_of = [_measure_part(agg, None if idx is None else handle._cells(rel, idx, steps[rel]), weight) for agg, rel, idx in map(measures.__getitem__, measure_pos)]
        buckets = [(key, total(ns), sum([part(ns) for part in parts_of], ())) for key, ns in ordinals.items()]

    probes = []
    for _, arm in arms:
        sub, sub_groups, sub_measures = _aggregate(handle, arm, filters, groups, measures)
        by_anchor: dict = {}
        for (anchor, g), entry in sub.items():
            by_anchor.setdefault(anchor, []).append((g, entry))
        probes.append((by_anchor.get, _scaler(_slots(measures, measure_pos)), _scaler(_slots(measures, sub_measures))))
        group_pos += sub_groups
        measure_pos += sub_measures
    merge = _merger(_slots(measures, measure_pos))
    single, width = len(parts) == 1, lead + len(own)
    out: dict[tuple, tuple] = {}
    for key, n, p in buckets:
        key = (key,) if single else key
        anchor = key[0] if lead else None
        combos = [(key[lead:width], n, p)]
        for at, (probe, scale_left, scale_right) in enumerate(probes, width):
            entries = probe(key[at])
            if entries is None:
                break
            combos = [
                (g + g2, n * n2, (p if n2 == 1 else scale_left(p, n2)) + (p2 if n == 1 else scale_right(p2, n)))
                for g, n, p in combos
                for g2, (n2, p2) in entries
            ]
        else:
            for g, n, p in combos:
                acc = out.get((anchor, g))
                out[anchor, g] = (n, p) if acc is None else (acc[0] + n, merge(acc[1], p))
    return out, group_pos, measure_pos


def _measure_part(agg: str, cells: list | None, weight: dict | None):
    """A bucket's grain ordinals -> the measure's partial slots over the non-Null ``cells`` they join, each
    standing for its ``weight`` in joined rows if given; COUNT(*) (no ``cells``) counts the rows."""
    if cells is None:
        return lambda ns: (len(ns),)
    if weight is None:
        of_values = _AGGS[agg].of_values
        return lambda ns: of_values([v for n in ns if (v := cells[n]) is not None])
    of_weighted = _AGGS[agg].of_weighted
    return lambda ns: of_weighted([(v, weight[n]) for n in ns if (v := cells[n]) is not None])


def _slots(measures: list, positions: list) -> list:
    """How each slot of a partial holding these measures merges."""
    return [kind for k in positions for kind in _AGGS[measures[k][0]].slots]


def _scaler(slots: list):
    """(partial, n) -> the partial of n times its joined rows: additive
    slots scale, MIN and MAX slots do not."""
    if all(kind is add for kind in slots):
        return lambda p, n: tuple(map(mul, p, repeat(n)))
    scales = [mul if kind is add else _unscaled for kind in slots]
    return lambda p, n: tuple(map(_apply, scales, p, repeat(n)))


def _merger(slots: list):
    """(partial, partial) -> the partial of both sets of joined rows."""
    if all(kind is add for kind in slots):
        return lambda a, b: tuple(map(add, a, b))
    return lambda a, b: tuple(map(_apply, slots, a, b))


def _apply(fn, *args):
    return fn(*args)


def _unscaled(slot, n: int):
    return slot


def _least(a, b):
    return b if a is None else a if b is None else min(a, b)


def _greatest(a, b):
    return b if a is None else a if b is None else max(a, b)


def _finish_avg(p: tuple):
    return (Decimal(p[0]) / p[1]).quantize(DEC4) if p[1] else None


class _Agg(NamedTuple):
    slots: tuple  # how each partial slot merges: add, _least or _greatest
    of_values: Callable  # non-Null values -> partial slots
    of_weighted: Callable  # [(non-Null value, rows it stands for)] -> partial slots
    finish: Callable  # partial slots -> result cell


def _weighted_sum(pairs: list) -> tuple:
    return (sum([v * w for v, w in pairs]), sum([w for _, w in pairs]))


_AGGS = {
    "COUNT": _Agg((add,), lambda vs: (len(vs),), lambda pairs: (sum([w for _, w in pairs]),), itemgetter(0)),
    "SUM": _Agg((add, add), lambda vs: (sum(vs), len(vs)), _weighted_sum, lambda p: p[0] if p[1] else None),
    "AVG": _Agg((add, add), lambda vs: (sum(vs), len(vs)), _weighted_sum, _finish_avg),
    "MIN": _Agg((_least,), lambda vs: (min(vs, default=None),), lambda pairs: (min([v for v, _ in pairs], default=None),), itemgetter(0)),
    "MAX": _Agg((_greatest,), lambda vs: (max(vs, default=None),), lambda pairs: (max([v for v, _ in pairs], default=None),), itemgetter(0)),
}


# ---------------------------------------------------------------------------
# Open


# shapes, as _fits reads them
_PLAN_REPORT = {"transform": {"plan_hash": str}}  # staging reports that hold a plan hash
_NAMES = [str]
_COLUMN = {"name": str, "type": frozenset(t.value for t in ValueType), "nullable": bool, "file": str, "checksum": str}
_CATALOG_SHAPE = {  # the catalog fields that open, star_query and report read; joins describe the indexes
    "fact": str,
    "dimensions": [{"name": str, "key": str}],
    "relations": [{"name": str, "row_count": int, "columns": [_COLUMN], "primary_key": _NAMES}],
    "joins": [{"relation": str, "columns": _NAMES, "parent": str, "parent_columns": _NAMES}],
    "build": {"plan_hash": str, "source_hash": str, "timestamp": str},
}


def _fits(value, shape) -> bool:
    """Whether ``value`` has ``shape``: a dict of required keys, a one-item
    list for a list of such items, a set of allowed texts, or a type,
    matched exactly."""
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(k in value and _fits(value[k], s) for k, s in shape.items())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    if isinstance(shape, frozenset):
        return isinstance(value, str) and value in shape
    return type(value) is shape


def _catalog_fault(catalog: dict) -> str | None:
    """How a catalog that passed its self checksum is malformed, if it is:
    a field out of shape, a relation without columns, a column file other
    than ``<relation>.<position>.col`` in the warehouse directory, a
    dimension key or join naming a missing relation or column, a join
    whose column lists are empty or differ in length, a join chain that
    does not reach the fact, or ``dimensions`` or ``joins`` not naming
    each relation but the fact exactly once."""
    wrong = [key for key, shape in _CATALOG_SHAPE.items() if not _fits(catalog.get(key), shape)]
    if wrong:
        return f"{wrong[0]!r} is missing or out of shape"
    for r in catalog["relations"]:
        if not r["columns"]:
            return f"relation {r['name']} has no columns"
        for i, c in enumerate(r["columns"]):
            file = f"{r['name']}.{i}.col"
            if c["file"] != file or "/" in file or "\\" in file:
                return f"column {r['name']}.{c['name']} has file {c['file']!r}, not {file} in the warehouse directory"
    columns = {r["name"]: {c["name"] for c in r["columns"]} for r in catalog["relations"]}
    named = [(catalog["fact"], [])] + [(d["name"], [d["key"]]) for d in catalog["dimensions"]]
    for j in catalog["joins"]:
        if not j["columns"] or len(j["columns"]) != len(j["parent_columns"]):
            return f"the join of {j['relation']} to {j['parent']} does not pair its columns"
        named += [(j["relation"], j["columns"]), (j["parent"], j["parent_columns"])]
    for relation, names in named:
        if relation not in columns or not columns[relation].issuperset(names):
            return f"no relation {relation} with columns ({','.join(names)})"
    parents = {j["relation"]: j["parent"] for j in catalog["joins"]}
    for start in parents:
        relation = start
        for _ in parents:  # a chain without a cycle takes at most one step per join
            relation = parents.get(relation, relation)
        if relation != catalog["fact"]:
            return f"the join chain from {start} does not reach the fact"
    others = sorted(columns.keys() - {catalog["fact"]})
    for section, key in (("dimensions", "name"), ("joins", "relation")):
        if sorted(e[key] for e in catalog[section]) != others:
            return f"{section!r} does not name each relation but the fact exactly once"
    return None


def open_warehouse(directory: Path) -> Warehouse:
    """Verify every checksum and column file, check that every dimension
    key is unique, and hand back a read-only view. Any discrepancy,
    including a duplicate dimension key, is an integrity error naming the
    file. No index is built here; the star join builds the ones it probes.

    The catalog and each column file go through the digest check that
    ``load_staging`` makes too (``read_signed``, ``read_checked``). Each
    column file is read whole and must be UTF-8 holding the relation's row
    count of fields. A file that is not bare (``bare_count``) is typed
    here (``decode_column``), and so is each dimension key, for its check.
    Any other column stays as its verified bytes until the handle first
    reads it, so a cell of it that does not parse fails that read."""
    directory = Path(directory)
    if not (directory / CATALOG_NAME).is_file():
        raise MissingInputError(f"{directory} is not a warehouse (no {CATALOG_NAME})")
    catalog = read_signed(directory, CATALOG_NAME, FORMAT_VERSION)
    if catalog.get("frozen") is not True:
        raise IntegrityError(f"{CATALOG_NAME}: warehouse is not marked frozen")
    fault = _catalog_fault(catalog)
    if fault:
        raise IntegrityError(f"{CATALOG_NAME} is malformed: {fault}")

    schemas, columns = {}, {}  # by relation; a column is its cells or, until first read, its verified bytes
    for entry in catalog["relations"]:
        columns[entry["name"]] = cells = []
        for c in entry["columns"]:
            data = read_checked(directory, c["file"], c["checksum"])
            count = bare_count(data, c["file"])
            if count is None:
                count = len(data := decode_column(data, c["file"], ValueType(c["type"])))
            if count != entry["row_count"]:
                raise IntegrityError(f"{c['file']}: row count {count} != cataloged {entry['row_count']}")
            cells.append(data)
        defs = tuple(ColumnDef(c["name"], ValueType(c["type"]), c["nullable"]) for c in entry["columns"])
        schemas[entry["name"]] = TableSchema(entry["name"], defs, tuple(entry["primary_key"]))

    handle = Warehouse(directory, catalog, schemas, columns)
    for dim in catalog["dimensions"]:  # typed on this first read
        repeated = _repeated_key(handle._keys(dim["name"], (dim["key"],)))
        if repeated is not None:
            raise IntegrityError(
                f"{CATALOG_NAME} is malformed: unique index on {dim['name']}({dim['key']}): "
                f"duplicate key {tuple(map(render_cell, repeated))}"
            )

    return handle
