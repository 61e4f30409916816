"""Stage 4: load and index, plus the read-only query surface.

A warehouse directory is eight CSV relations (one fact, seven
dimensions) and ``catalog.json``. The catalog records a SHA-256 checksum
for every relation plus one for itself, so any single-byte tamper is
detected at open time. Indexes are derived state: the catalog's joins
describe the indexes the star join builds, each the first time it probes
it, and ``open`` checks that every dimension key is unique. An opened
warehouse exposes no mutating operation.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

from .csvio import format_field, parse_csv
from .errors import IntegrityError, MissingInputError, ParseError, ReadOnlyError, ValidationError
from .lexer import tokenize
from .plan import _Parser
from .schema import ColumnDef, Table, TableSchema, key_getter
from .staging import StagingArea, decode_table, dump_fingerprint, dumps_staging, write_dir_atomically
from .staging import render_table_csv  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .values import COMPARISONS, DEC4, ORDERED_TYPES, RawCell, ValueType, coerce_literal, render_cell, value_tag

from decimal import Decimal

CATALOG_NAME = "catalog.json"
FORMAT_VERSION = 4

AGGREGATES = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def build_index(table: Table, columns: tuple[str, ...]) -> Index:
    """Map each key tuple to the ordinals a full scan would return."""
    index = Index(table.name, tuple(columns))
    for n, key in enumerate(_keys(table, columns)):
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
    from .staging import parse_cell

    index = Index(descriptor["relation"], tuple(descriptor["columns"]))
    types = [schema.column(c).type for c in index.columns]
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line:
            continue
        try:
            key_part, ordinal_part = line.rsplit("\t", 1)
            fields = parse_csv(key_part) or [[]]
            key = tuple(parse_cell(t, q, vt) for (t, q), vt in zip(fields[0], types))
            if len(key) != len(types) or any(isinstance(v, RawCell) for v in key):
                raise ValueError("bad key")
            ordinal = int(ordinal_part)
        except (ValueError, ValidationError) as exc:
            raise IntegrityError(f"corrupt index sidecar line {lineno}: {line!r}") from exc
        index.entries.setdefault(key, []).append(ordinal)
    return index


# ---------------------------------------------------------------------------
# Load


def load(out_dir: Path, staging: StagingArea, *, timestamp: str) -> dict:
    """Persist the snowflake that ``staging`` declares and the frozen
    catalog, whose joins describe the star join's indexes, all or nothing.
    Refuses to write into a non-empty directory.

    The staging is rendered once: each relation file holds the bytes of
    its staging dump file, and ``build.source_hash`` is the fingerprint of
    the whole dump. ``build.plan_hash`` is the one the transform recorded."""
    if staging.fact_table is None or not staging.dimensions:
        raise ValidationError("staging carries no fact/dimension declarations; run transform first")
    snowflake = assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    out_dir = Path(out_dir)
    if (out_dir / CATALOG_NAME).exists():
        raise ReadOnlyError(f"{out_dir} already holds a warehouse catalog; it is frozen and cannot be rewritten")
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ValidationError(f"refusing to load into non-empty directory {out_dir}")
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

    dump = dumps_staging(staging)
    files = {f"{name}.csv": dump[f"{name}.csv"] for name in snowflake.relation_names()}
    relations_meta = [
        {
            "name": name,
            "file": f"{name}.csv",
            "checksum": sha256_hex(files[f"{name}.csv"]),
            "row_count": len(tables[name].rows),
            "columns": [{"name": c.name, "type": c.type.value, "nullable": c.nullable} for c in tables[name].schema.columns],
            "primary_key": list(tables[name].schema.primary_key),
        }
        for name in snowflake.relation_names()
    ]

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
            "source_hash": dump_fingerprint(dump),
            "timestamp": timestamp,
        },
        "self_checksum": "",
    }
    catalog["self_checksum"] = sha256_hex(canonical_json(catalog).encode("utf-8"))
    files[CATALOG_NAME] = canonical_json(catalog).encode("utf-8")
    write_dir_atomically(files, out_dir)
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

    def __init__(self, directory: Path, catalog: dict, relations: dict[str, Table]):
        self.directory = Path(directory)
        self.catalog = catalog
        self._relations = relations
        self._joins: dict[tuple, Index] = {}  # star-join indexes by chain

    # --- inspection -------------------------------------------------------
    def relation_names(self) -> list[str]:
        return [r["name"] for r in self.catalog["relations"]]

    def row_count(self, name: str) -> int:
        return len(self._relation(name).rows)

    def relation(self, name: str) -> Table:
        t = self._relation(name)
        return Table(t.schema, list(t.rows))

    def _relation(self, name: str) -> Table:
        try:
            return self._relations[name]
        except KeyError:
            raise ValidationError(f"unknown relation {name!r}") from None

    # --- attribute resolution ---------------------------------------------
    def resolve_attribute(self, attr: str) -> tuple[str, int, ColumnDef]:
        if "." in attr:
            rel, col = attr.split(".", 1)
            table = self._relation(rel)
            if not table.schema.has_column(col):
                raise ValidationError(f"unknown attribute {attr!r}")
            return rel, table.schema.column_index(col), table.schema.column(col)
        hits = []
        for name in self.relation_names():
            schema = self._relations[name].schema
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

    def _join_index(self, chain: list[dict]) -> Index:
        """Rows of the chain's bottom relation keyed by the first join's
        columns, for probing with the top parent's join columns. A one-join
        chain is that edge's index, built on first use. A longer chain
        composes its edges, so the pass-through relations between top and
        bottom are never joined."""
        sig = tuple((j["relation"], tuple(j["columns"])) for j in chain)
        index = self._joins.get(sig)
        if index is not None:
            return index
        if len(chain) == 1:
            index = build_index(self._relation(sig[0][0]), sig[0][1])
        else:
            upper = self._join_index(chain[:-1])
            lower = self._join_index(chain[-1:]).entries
            join = chain[-1]
            parent = self._relation(join["parent"])
            key_of = key_getter(tuple(parent.schema.column_index(c) for c in join["parent_columns"]))
            index = Index(join["relation"], upper.columns)
            for key, ordinals in upper.entries.items():
                hits = []
                for n in ordinals:
                    hits.extend(lower.get(key_of(parent.rows[n]), ()))
                if hits:
                    index.entries[key] = hits
        self._joins[sig] = index
        return index


def star_query(handle: Warehouse, query: StarQuery) -> Table:
    """Filter the fact joined along snowflake arms, group, aggregate.

    Join semantics: the unique arm path from the fact to each referenced
    dimension, one inner equijoin per edge; a one-to-many edge multiplies
    rows, so aggregates are those of the expanded grain. Groups are emitted
    in ascending group-key order (Nulls first); no rows, no groups.

    Execution aggregates before it expands (eager aggregation, Yan &
    Larson, "Eager Aggregation and Lazy Aggregation", VLDB 1995). The fact
    is filtered by one comprehension per filter and bucketed in one pass
    by its group columns and its arms' join keys. Each arm is then
    aggregated once, from its own relations and filters and only for the
    join keys the buckets hold, into join key -> [(group part, row count,
    partial per measure)]; a key no arm row survives is absent, as in an
    inner join. Each bucket is combined with its keys' arm entries: COUNT,
    SUM and AVG partials are multiplied by the other sides' row counts,
    MIN and MAX are not.
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
    referenced = dict.fromkeys([fact, *(rel for rel, _, _ in resolved_groups), *filters_by_rel])
    referenced.update(dict.fromkeys(rel for _, rel, _, _ in resolved_measures if rel is not None))

    # pass-through relations (ancestors nobody selects or filters on) are
    # folded into composed join indexes, so each referenced relation hangs
    # off its nearest referenced ancestor; open refused any catalog whose
    # join chains do not all reach the fact
    arms: dict[str, list] = {}
    for rel in list(referenced)[1:]:
        chain = [parents[rel]]
        top = parents[rel]["parent"]
        while top not in referenced:
            chain.append(parents[top])
            top = parents[top]["parent"]
        chain.reverse()
        top_schema = handle._relation(top).schema
        key_idxs = tuple(top_schema.column_index(c) for c in chain[0]["parent_columns"])
        arms.setdefault(top, []).append((rel, key_idxs, handle._join_index(chain).entries))

    groups = [(rel, idx) for rel, idx, _ in resolved_groups]
    measures = [(m.agg, rel or fact, idx) for m, rel, idx, _ in resolved_measures]
    aggregate, group_pos, measure_pos = _component(handle, fact, arms, filters_by_rel, groups, measures)
    group_key = key_getter(tuple(map(group_pos.index, range(len(groups)))))
    at, slots_of = 0, {}  # measure position -> its slots in the partial
    for k in measure_pos:
        width = len(_AGGS[measures[k][0]].slots)
        slots_of[k] = slice(at, at + width)
        at += width
    finish = [(slots_of[k], _AGGS[agg].finish) for k, (agg, _, _) in enumerate(measures)]
    results = {}
    for gpart, (_, partial) in aggregate(handle._relation(fact).rows):
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


def _component(handle: Warehouse, rel: str, arms: dict, filters: dict, groups: list, measures: list, keyed=False):
    """``aggregate(rows)`` for ``rel`` and the kept relations below it, plus
    the group-by positions its group parts hold and the measures its
    partials hold, in order.

    ``aggregate`` takes rows of ``rel`` and returns ``[(group part, (row
    count, partial))]`` for the join of those rows with every arm below,
    one entry per distinct group part. The rows are filtered, bucketed by
    ``rel``'s group columns and each arm's join key, each arm is
    aggregated for the keys the buckets hold, and each bucket is combined
    with the entries of its arm keys; a key no arm row survives drops the
    bucket, as an inner join does. A ``keyed`` component's rows carry
    their join key as one extra last cell, and its group parts start with
    it."""
    key_idxs = [idx for r, idx in groups if r == rel]
    if keyed:
        key_idxs.insert(0, len(handle._relation(rel).schema.columns))
    group_pos = [g for g, (r, _) in enumerate(groups) if r == rel]
    measure_pos = [k for k, (_, r, _) in enumerate(measures) if r == rel]
    parts = [_measure_part(agg, idx) for agg, r, idx in measures if r == rel]
    own = len(key_idxs)
    below = []
    for child, join_idxs, entries in arms.get(rel, ()):
        sub, sub_groups, sub_measures = _component(handle, child, arms, filters, groups, measures, keyed=True)
        arm = _arm(handle._relation(child).rows, entries, sub)
        scale_left = _scaler(_slots(measures, measure_pos))
        scale_right = _scaler(_slots(measures, sub_measures))
        below.append((len(key_idxs), len(key_idxs) + len(join_idxs), arm, scale_left, scale_right))
        key_idxs.extend(join_idxs)
        group_pos += sub_groups
        measure_pos += sub_measures
    merge = _merger(_slots(measures, measure_pos))
    bucket_of = key_getter(tuple(key_idxs))
    own_filters = filters.get(rel, ())

    def aggregate(rows: list) -> list:
        for i, compare, literal in own_filters:  # Null on either side compares false
            rows = [] if literal is None else [r for r in rows if r[i] is not None and compare(r[i], literal)]
        buckets: dict[tuple, list] = {}
        for row in rows:
            key = bucket_of(row)
            bucket = buckets.get(key)
            if bucket is None:
                buckets[key] = [row]
            else:
                bucket.append(row)
        probes = [
            (lo, hi, arm(dict.fromkeys(key[lo:hi] for key in buckets)).get, scale_left, scale_right)
            for lo, hi, arm, scale_left, scale_right in below
        ]
        out: dict[tuple, tuple] = {}
        for key, bucket in buckets.items():
            combos = [(key[:own], len(bucket), sum([part(bucket) for part in parts], ()))]
            for lo, hi, probe, scale_left, scale_right in probes:
                entries = probe(key[lo:hi])
                if entries is None:
                    break
                combos = [
                    (g + g2, n * n2, (p if n2 == 1 else scale_left(p, n2)) + (p2 if n == 1 else scale_right(p2, n)))
                    for g, n, p in combos
                    for g2, (n2, p2) in entries
                ]
            else:
                for g, n, p in combos:
                    acc = out.get(g)
                    out[g] = (n, p) if acc is None else (acc[0] + n, merge(acc[1], p))
        return list(out.items())

    return aggregate, group_pos, measure_pos


def _arm(rows: list, entries: dict, aggregate):
    """join keys -> {join key: ``aggregate`` of the arm rows the key
    joins}, holding only the keys some arm row survives."""

    def for_keys(keys) -> dict[tuple, list]:
        by_key: dict[tuple, list] = {}
        for g, entry in aggregate([rows[n] + (key,) for key in keys for n in entries.get(key, ())]):
            by_key.setdefault(g[0], []).append((g[1:], entry))
        return by_key

    return for_keys


def _measure_part(agg: str, idx: int | None):
    """rows -> the measure's partial slots over them; COUNT(*) counts rows."""
    if idx is None:
        return lambda rows: (len(rows),)
    of_values = _AGGS[agg].of_values
    return lambda rows: of_values([r[idx] for r in rows if r[idx] is not None])


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
    finish: Callable  # partial slots -> result cell


_AGGS = {
    "COUNT": _Agg((add,), lambda vs: (len(vs),), itemgetter(0)),
    "SUM": _Agg((add, add), lambda vs: (sum(vs), len(vs)), lambda p: p[0] if p[1] else None),
    "AVG": _Agg((add, add), lambda vs: (sum(vs), len(vs)), _finish_avg),
    "MIN": _Agg((_least,), lambda vs: (min(vs, default=None),), itemgetter(0)),
    "MAX": _Agg((_greatest,), lambda vs: (max(vs, default=None),), itemgetter(0)),
}


# ---------------------------------------------------------------------------
# Open


# shapes, as _fits reads them
_PLAN_REPORT = {"transform": {"plan_hash": str}}  # staging reports that hold a plan hash
_NAMES = [str]
_COLUMN = {"name": str, "type": frozenset(t.value for t in ValueType), "nullable": bool}
_CATALOG_SHAPE = {  # the catalog fields that open, star_query and report read; joins describe the indexes
    "fact": str,
    "dimensions": [{"name": str, "key": str}],
    "relations": [{"name": str, "file": str, "checksum": str, "row_count": int, "columns": [_COLUMN], "primary_key": _NAMES}],
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
    a field out of shape, a relation file other than ``<name>.csv`` in
    the warehouse directory, a dimension key or join naming a missing
    relation or column, a join whose column lists are empty or differ in
    length, a join chain that does not reach the fact, or ``dimensions``
    or ``joins`` not naming each relation but the fact exactly once."""
    wrong = [key for key, shape in _CATALOG_SHAPE.items() if not _fits(catalog.get(key), shape)]
    if wrong:
        return f"{wrong[0]!r} is missing or out of shape"
    for r in catalog["relations"]:
        if r["file"] != f"{r['name']}.csv" or "/" in r["file"] or "\\" in r["file"]:
            return f"relation {r['name']} has file {r['file']!r}, not {r['name']}.csv in the warehouse directory"
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
    """Verify every checksum, load the relations, check that every
    dimension key is unique, and hand back a read-only view. Any
    discrepancy, including a duplicate dimension key, is an integrity
    error naming the file. No index is built here; the star join builds
    the ones it probes."""
    directory = Path(directory)
    catalog_path = directory / CATALOG_NAME
    if not catalog_path.is_file():
        raise MissingInputError(f"{directory} is not a warehouse (no {CATALOG_NAME})")
    raw = catalog_path.read_bytes()
    try:
        catalog = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{CATALOG_NAME} is corrupt: {exc}") from exc
    if not isinstance(catalog, dict) or catalog.get("format_version") != FORMAT_VERSION:
        raise IntegrityError(f"{CATALOG_NAME}: unsupported or missing format_version")
    recorded = catalog.get("self_checksum")
    unsigned = dict(catalog)
    unsigned["self_checksum"] = ""
    if sha256_hex(canonical_json(unsigned).encode("utf-8")) != recorded:
        raise IntegrityError(f"{CATALOG_NAME} failed its self checksum")
    if catalog.get("frozen") is not True:
        raise IntegrityError(f"{CATALOG_NAME}: warehouse is not marked frozen")
    fault = _catalog_fault(catalog)
    if fault:
        raise IntegrityError(f"{CATALOG_NAME} is malformed: {fault}")

    relations: dict[str, Table] = {}
    for entry in catalog["relations"]:
        path = directory / entry["file"]
        if not path.is_file():
            raise IntegrityError(f"missing relation file {entry['file']}")
        data = path.read_bytes()
        if sha256_hex(data) != entry["checksum"]:
            raise IntegrityError(f"checksum mismatch in {entry['file']}")
        columns = tuple(ColumnDef(c["name"], ValueType(c["type"]), c["nullable"]) for c in entry["columns"])
        schema = TableSchema(entry["name"], columns, tuple(entry["primary_key"]))
        table = decode_table(data, entry["file"], schema, IntegrityError, keep_raw=False)
        if len(table.rows) != entry["row_count"]:
            raise IntegrityError(f"{entry['file']}: row count {len(table.rows)} != cataloged {entry['row_count']}")
        relations[entry["name"]] = table

    for dim in catalog["dimensions"]:
        repeated = _repeated_key(_keys(relations[dim["name"]], (dim["key"],)))
        if repeated is not None:
            raise IntegrityError(
                f"{CATALOG_NAME} is malformed: unique index on {dim['name']}({dim['key']}): "
                f"duplicate key {tuple(map(render_cell, repeated))}"
            )

    return Warehouse(directory, catalog, relations)


def is_warehouse_dir(directory: Path) -> bool:
    return (Path(directory) / CATALOG_NAME).is_file()
