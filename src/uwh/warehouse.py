"""Stage 4: load and index, plus the read-only query surface.

A warehouse directory is eight CSV relations (one fact, seven
dimensions), index sidecars, and ``catalog.json``. The catalog records a
SHA-256 checksum for every file plus one for itself, so any single-byte
tamper is detected at open time; an opened warehouse exposes no mutating
operation.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path

from .csvio import format_field, parse_csv
from .errors import IntegrityError, MissingInputError, ParseError, PlanParseError, ReadOnlyError, ValidationError
from .lexer import tokenize
from .plan import _ORDERED_TYPES, _Parser
from .schema import ColumnDef, Table, TableSchema
from .staging import StagingArea, render_table_csv, write_dir_atomically
from .values import COMPARISONS, DEC4, RawCell, ValueType, make_decimal, parse_iso_date, render_cell, value_tag

from decimal import Decimal

CATALOG_NAME = "catalog.json"
FORMAT_VERSION = 1

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

    def dimension(self, name: str) -> DimensionInfo:
        for d in self.dimensions:
            if d.name == name:
                return d
        raise KeyError(name)


def assemble_snowflake(tables: dict[str, Table], fact_decl: str, dim_decls: list[tuple[str, str]]) -> SnowflakeSchema:
    """Validate the one-fact/seven-dimension shape and derive the arm graph
    from the surviving foreign-key declarations.

    Every dimension must connect to the fact through exactly one chain of
    FK edges (in either direction); dimension keys must be unique and
    non-Null.
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
        idx = schema.column_index(key)
        seen = set()
        for row in tables[name].rows:
            v = row[idx]
            if v is None:
                raise ValidationError(f"dimension key {name}.{key} contains Null")
            if v in seen:
                raise ValidationError(f"duplicate dimension key {name}.{key} = {render_cell(v)!r}")
            seen.add(v)

    relations = {fact_decl, *dim_names}
    edges: list[tuple[str, tuple[str, ...], str, tuple[str, ...]]] = []  # (child, child_cols, parent, parent_cols)
    for name in relations:
        for fk in tables[name].schema.foreign_keys:
            if fk.target_table in relations:
                edges.append((name, fk.columns, fk.target_table, fk.target_columns))

    assigned: dict[str, DimensionInfo] = {}
    frontier = {fact_decl}
    used = [False] * len(edges)
    while len(assigned) < 7:
        attached_this_round = []
        for i, (a, a_cols, b, b_cols) in enumerate(edges):
            if used[i]:
                continue
            # orient the edge so that `near` is already reachable
            near = None
            if a in frontier or a in assigned or a == fact_decl:
                near, far, near_cols, far_cols = a, b, a_cols, b_cols
            if b in frontier or b in assigned or b == fact_decl:
                if near is not None:
                    continue  # both ends reachable: a cycle in the arm graph
                near, far, near_cols, far_cols = b, a, b_cols, a_cols
            if near is None or far in assigned or far == fact_decl:
                continue
            if far in [d.name for d in attached_this_round]:
                raise ValidationError(f"dimension {far!r} connects through more than one arm")
            parent = None if near == fact_decl else near
            info = DimensionInfo(far, keys[far], parent, far_cols, near_cols)
            attached_this_round.append(info)
            used[i] = True
        if not attached_this_round:
            missing = sorted(set(dim_names) - set(assigned))
            raise ValidationError(f"dimensions {missing} are not connected to the fact by foreign keys")
        for info in attached_this_round:
            assigned[info.name] = info
            frontier.add(info.name)
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
    kind: str  # hash | ordered
    unique: bool
    entries: dict[tuple, list[int]] = field(default_factory=dict)
    _sorted_keys: list[tuple] | None = field(default=None, repr=False)
    _marks: list[tuple] | None = field(default=None, repr=False)  # _sort_key of each sorted key

    def lookup(self, key: tuple) -> list[int]:
        return list(self.entries.get(tuple(key), ()))

    def range_scan(self, lo: tuple, hi: tuple) -> list[int]:
        if self.kind != "ordered":
            raise ValidationError(f"index on {self.relation}({','.join(self.columns)}) does not support range scans")
        keys = self.sorted_keys()
        if self._marks is None:
            self._marks = [_sort_key(k) for k in keys]
        start = bisect.bisect_left(self._marks, _sort_key(tuple(lo)))
        stop = bisect.bisect_right(self._marks, _sort_key(tuple(hi)))
        out: list[int] = []
        for k in keys[start:stop]:
            out.extend(self.entries[k])
        return out

    def sorted_keys(self) -> list[tuple]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self.entries, key=_sort_key)
        return self._sorted_keys


def _key_getter(idxs: tuple[int, ...]):
    """row -> the key tuple of the cells at positions ``idxs``."""
    if len(idxs) == 1:
        i = idxs[0]
        return lambda row: (row[i],)
    if idxs:
        return itemgetter(*idxs)
    return lambda row: ()


def build_index(table: Table, columns: tuple[str, ...], kind: str, *, unique: bool = False) -> Index:
    """Map each key tuple to the ordinals a full scan would return."""
    if kind not in ("hash", "ordered"):
        raise ValidationError(f"unknown index kind {kind!r}")
    key_of = _key_getter(tuple(table.schema.column_index(c) for c in columns))
    index = Index(table.name, tuple(columns), kind, unique)
    for n, row in enumerate(table.rows):
        key = key_of(row)
        bucket = index.entries.get(key)
        if bucket is None:
            index.entries[key] = [n]
        elif unique:
            raise ValidationError(
                f"unique index on {table.name}({','.join(columns)}): duplicate key {tuple(map(render_cell, key))}"
            )
        else:
            bucket.append(n)
    return index


def render_index(index: Index) -> str:
    """Sidecar format: one ``key<TAB>ordinal`` line per entry, key-sorted.

    Key components use the CSV cell encoding joined by commas, so Null
    (bare empty) and empty text (quoted empty) stay distinct; text
    containing a tab is quoted so the key/ordinal split stays unambiguous.
    """
    lines = []
    for key in index.sorted_keys():
        encoded = ",".join(
            format_field(render_cell(v), isinstance(v, str) and (v == "" or "\t" in v)) for v in key
        )
        for ordinal in index.entries[key]:
            lines.append(f"{encoded}\t{ordinal}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_index(text: str, descriptor: dict, schema: TableSchema) -> Index:
    from .staging import parse_cell

    index = Index(descriptor["relation"], tuple(descriptor["columns"]), descriptor["kind"], descriptor["unique"])
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


def _index_plan(snowflake: SnowflakeSchema, tables: dict[str, Table]) -> list[tuple[str, tuple[str, ...], str, bool]]:
    """(relation, columns, kind, unique) for every index the loader builds:
    a unique hash index per dimension key, a hash index per fact
    dimension-key column set, and an ordered index on the fact's
    semester/year columns when it has them."""
    plan: list[tuple[str, tuple[str, ...], str, bool]] = []
    for dim in snowflake.dimensions:
        plan.append((dim.name, (dim.key,), "hash", True))
    for dim in snowflake.dimensions:
        if dim.parent is None:
            plan.append((snowflake.fact, dim.join_parent_columns, "hash", False))
    fact_cols = tables[snowflake.fact].schema.column_names
    semester = [c for c in fact_cols if c.lower().endswith("semester")]
    year = [c for c in fact_cols if c.lower().endswith("year")]
    if len(semester) == 1 and len(year) == 1:
        plan.append((snowflake.fact, (semester[0], year[0]), "ordered", False))
    return plan


def load(
    out_dir: Path,
    snowflake: SnowflakeSchema,
    staging: StagingArea,
    *,
    timestamp: str,
    plan_hash: str = "",
    source_hash: str = "",
) -> dict:
    """Persist the snowflake relations, their indexes, and the frozen
    catalog, all or nothing. Refuses to write into a non-empty directory."""
    out_dir = Path(out_dir)
    if (out_dir / CATALOG_NAME).exists():
        raise ReadOnlyError(f"{out_dir} already holds a warehouse catalog; it is frozen and cannot be rewritten")
    if out_dir.exists() and any(out_dir.iterdir()):
        raise ValidationError(f"refusing to load into non-empty directory {out_dir}")
    tables = staging.tables
    for name in snowflake.relation_names():
        if name not in tables:
            raise ValidationError(f"relation {name!r} is not in staging")

    planned = [
        (relation, columns, kind, unique, build_index(tables[relation], columns, kind, unique=unique))
        for relation, columns, kind, unique in _index_plan(snowflake, tables)
    ]
    indexes = {(relation, columns): index for relation, columns, _, _, index in planned}
    # star-join soundness: every fact key resolves before anything is written;
    # a fact joins each arm on the dimension key, so its unique index decides
    for dim in snowflake.dimensions:
        if dim.parent is not None:
            continue
        present = indexes[dim.name, dim.join_columns].entries
        fact_keys = indexes[snowflake.fact, dim.join_parent_columns].entries
        dangling = [(ordinals[0], key) for key, ordinals in fact_keys.items() if None in key or key not in present]
        if dangling:
            n, key = min(dangling)
            raise ValidationError(
                f"fact row {n} has dangling dimension key {tuple(map(render_cell, key))} into {dim.name}"
            )

    files: dict[str, bytes] = {}
    relations_meta = []
    for name in snowflake.relation_names():
        table = tables[name]
        data = render_table_csv(table).encode("utf-8")
        files[f"{name}.csv"] = data
        relations_meta.append(
            {
                "name": name,
                "file": f"{name}.csv",
                "checksum": sha256_hex(data),
                "row_count": len(table.rows),
                "columns": [
                    {"name": c.name, "type": c.type.value, "nullable": c.nullable} for c in table.schema.columns
                ],
                "primary_key": list(table.schema.primary_key),
            }
        )

    indexes_meta = []
    for relation, columns, kind, unique, index in planned:
        fname = f"{relation}.{'+'.join(columns)}.idx"
        data = render_index(index).encode("utf-8")
        files[fname] = data
        indexes_meta.append(
            {
                "relation": relation,
                "columns": list(columns),
                "kind": kind,
                "unique": unique,
                "file": fname,
                "checksum": sha256_hex(data),
            }
        )

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
        "indexes": indexes_meta,
        "build": {"plan_hash": plan_hash, "source_hash": source_hash, "timestamp": timestamp},
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
    p = _Parser(tokenize(text))
    try:
        attr = _attribute(p)
        op = p.peek().lexeme
        if op not in COMPARISONS:
            raise p.error(f"one of {tuple(COMPARISONS)}")
        p.expect_symbol(op)
        value = p.literal()
        if p.peek().kind != "eof":
            raise p.error("end of filter")
    except PlanParseError as exc:
        raise ParseError(f"bad filter {text!r}: {exc.raw_message}") from None
    return Filter(attr, op, value)


def _attribute(p: _Parser) -> str:
    """``column`` or ``relation.column``."""
    name = p.expect_ident().lexeme
    if p.at_symbol("."):
        p.advance()
        name += "." + p.expect_ident().lexeme
    return name


def _coerce_filter_value(value, vtype: ValueType):
    if value is None:
        return None
    tag = value_tag(value)
    if tag is vtype:
        return value
    if vtype is ValueType.DECIMAL and tag is ValueType.INTEGER:
        return make_decimal(value)
    if vtype is ValueType.INTEGER and tag is ValueType.DECIMAL and value == value.to_integral_value():
        return int(value)
    if vtype is ValueType.DATE and tag is ValueType.TEXT:
        try:
            return parse_iso_date(value)
        except ValueError as exc:
            raise ValidationError(f"filter literal {value!r} is not a date") from exc
    raise ValidationError(f"filter literal {value!r} does not match column type {vtype.value}")


def _predicate(op: str, literal):
    """Filter test on one cell; Null on either side compares false."""
    compare = COMPARISONS[op]
    if literal is None:
        return lambda v: False
    return lambda v: v is not None and compare(v, literal)


class Warehouse:
    """Read-only handle over a verified warehouse directory."""

    def __init__(self, directory: Path, catalog: dict, relations: dict[str, Table], indexes: dict, notices: list[str]):
        self.directory = Path(directory)
        self.catalog = catalog
        self.notices = list(notices)
        self._relations = relations
        self._indexes = indexes
        self._joins: dict[tuple, Index] = {}  # star-join indexes by chain

    # --- inspection -------------------------------------------------------
    def relation_names(self) -> list[str]:
        return [r["name"] for r in self.catalog["relations"]]

    def row_count(self, name: str) -> int:
        return len(self._relation(name).rows)

    def relation(self, name: str) -> Table:
        t = self._relation(name)
        return Table(t.schema, list(t.rows))

    def index(self, relation: str, columns: tuple[str, ...]) -> Index:
        try:
            return self._indexes[(relation, tuple(columns))]
        except KeyError:
            raise ValidationError(f"no index on {relation}({','.join(columns)})") from None

    def indexes(self) -> list[Index]:
        return list(self._indexes.values())

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
        chain is that edge's index: the catalog's when it has one, else a
        hash index built here. A longer chain composes its edges, so the
        pass-through relations between top and bottom are never joined."""
        sig = tuple((j["relation"], tuple(j["columns"])) for j in chain)
        index = self._joins.get(sig)
        if index is not None:
            return index
        if len(chain) == 1:
            index = self._indexes.get(sig[0])
            if index is None:
                index = build_index(self._relation(sig[0][0]), sig[0][1], "hash")
        else:
            upper = self._join_index(chain[:-1])
            lower = self._join_index(chain[-1:]).entries
            join = chain[-1]
            parent = self._relation(join["parent"])
            key_of = _key_getter(tuple(parent.schema.column_index(c) for c in join["parent_columns"]))
            index = Index(join["relation"], upper.columns, "hash", False)
            for key, ordinals in upper.entries.items():
                hits = []
                for n in ordinals:
                    hits.extend(lower.get(key_of(parent.rows[n]), ()))
                if hits:
                    index.entries[key] = hits
        self._joins[sig] = index
        return index

    def star_query(self, query: StarQuery) -> Table:
        return star_query(self, query)


def star_query(handle: Warehouse, query: StarQuery) -> Table:
    """Filter the fact joined along snowflake arms, group, aggregate.

    Join semantics: the unique arm path from the fact to each referenced
    dimension, one inner equijoin per edge; a one-to-many edge multiplies
    rows, so aggregates operate at the expanded grain. Groups are emitted
    in ascending group-key order (Nulls first); no rows, no groups.
    """
    if not query.measures:
        raise ValidationError("query needs at least one measure")
    fact = handle.catalog["fact"]
    parents = handle._parents()

    needed: list[str] = [fact]

    def require(rel: str) -> None:
        chain = []
        cur = rel
        while cur != fact:
            if cur not in parents:
                raise ValidationError(f"relation {rel!r} is not reachable from the fact")
            chain.append(cur)
            cur = parents[cur]["parent"]
        for r in reversed(chain):
            if r not in needed:
                needed.append(r)

    resolved_groups = []
    for attr in query.group_by:
        rel, idx, cdef = handle.resolve_attribute(attr)
        require(rel)
        resolved_groups.append((rel, idx, cdef))
    resolved_filters = []
    for f in query.filters:
        rel, idx, cdef = handle.resolve_attribute(f.attribute)
        if f.op not in ("=", "<>") and cdef.type not in _ORDERED_TYPES:
            raise ValidationError(f"filter operator {f.op} is not defined for {cdef.type.value}")
        require(rel)
        literal = _coerce_filter_value(f.value, cdef.type)
        resolved_filters.append((rel, idx, _predicate(f.op, literal)))
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
        if m.agg in ("MIN", "MAX") and cdef.type not in _ORDERED_TYPES:
            raise ValidationError(f"{m.agg} is not defined for {cdef.type.value}")
        require(rel)
        resolved_measures.append((m, rel, idx, cdef))

    filters_by_rel: dict[str, list] = {}
    for rel, idx, fn in resolved_filters:
        filters_by_rel.setdefault(rel, []).append((idx, fn))
    referenced = {fact}
    referenced.update(rel for rel, _, _ in resolved_groups)
    referenced.update(rel for rel in filters_by_rel)
    referenced.update(rel for _, rel, _, _ in resolved_measures if rel is not None)

    # pass-through relations (ancestors nobody selects or filters on) are
    # folded into composed join indexes instead of joining row by row
    kept = [rel for rel in needed if rel in referenced]
    pos = {rel: i for i, rel in enumerate(kept)}
    steps = []
    for rel in kept[1:]:
        chain = [parents[rel]]
        top = parents[rel]["parent"]
        while top not in referenced:
            chain.append(parents[top])
            top = parents[top]["parent"]
        chain.reverse()
        parent_table = handle._relation(top)
        key_of = _key_getter(tuple(parent_table.schema.column_index(c) for c in chain[0]["parent_columns"]))
        steps.append((rel, pos[top], key_of, handle._join_index(chain).entries))

    fact_filters = filters_by_rel.get(fact)
    if fact_filters:
        contexts = [
            (row,) for row in handle._relation(fact).rows if all(fn(row[i]) for i, fn in fact_filters)
        ]
    else:
        contexts = [(row,) for row in handle._relation(fact).rows]
    empty: tuple = ()
    for rel, p, key_of, entries in steps:
        rows = handle._relation(rel).rows
        rel_filters = filters_by_rel.get(rel)
        grown = []
        if rel_filters:
            for ctx in contexts:
                for n in entries.get(key_of(ctx[p]), empty):
                    rrow = rows[n]
                    if all(fn(rrow[j]) for j, fn in rel_filters):
                        grown.append(ctx + (rrow,))
        else:
            for ctx in contexts:
                for n in entries.get(key_of(ctx[p]), empty):
                    grown.append(ctx + (rows[n],))
        contexts = grown

    group_getters = [(pos[rel], idx) for rel, idx, _ in resolved_groups]
    measure_getters = [(m, None if rel is None else pos[rel], idx) for m, rel, idx, _ in resolved_measures]

    groups: dict[tuple, list] = {}
    for ctx in contexts:
        gkey = tuple(ctx[p][i] for p, i in group_getters)
        accs = groups.get(gkey)
        if accs is None:
            accs = [_new_acc(m.agg) for m, _, _ in measure_getters]
            groups[gkey] = accs
        for acc, (m, p, i) in zip(accs, measure_getters):
            v = None if p is None else ctx[p][i]
            _update_acc(acc, m.agg, v, counts_rows=p is None)

    out_columns = [ColumnDef(cdef.name, cdef.type, nullable=True) for _, _, cdef in resolved_groups]
    for m, _, _, cdef in resolved_measures:
        out_columns.append(ColumnDef(m.result_name(), _result_type(m.agg, cdef), nullable=True))
    schema = TableSchema("result", tuple(out_columns), primary_key=())
    rows = []
    for gkey in sorted(groups, key=_sort_key):
        accs = groups[gkey]
        rows.append(gkey + tuple(_finish_acc(acc, m.agg) for acc, (m, _, _) in zip(accs, measure_getters)))
    return Table(schema, rows)


def _result_type(agg: str, cdef: ColumnDef | None) -> ValueType:
    if agg == "COUNT":
        return ValueType.INTEGER
    if agg == "AVG":
        return ValueType.DECIMAL
    return cdef.type


def _new_acc(agg: str) -> list:
    if agg == "COUNT":
        return [0]
    if agg in ("MIN", "MAX"):
        return [None]
    return [None, 0]  # SUM / AVG: running sum and non-null count


def _update_acc(acc: list, agg: str, v, *, counts_rows: bool) -> None:
    if agg == "COUNT":
        if counts_rows or v is not None:
            acc[0] += 1
        return
    if v is None:
        return
    if agg == "MIN":
        if acc[0] is None or v < acc[0]:
            acc[0] = v
        return
    if agg == "MAX":
        if acc[0] is None or v > acc[0]:
            acc[0] = v
        return
    acc[0] = v if acc[0] is None else acc[0] + v
    acc[1] += 1


def _finish_acc(acc: list, agg: str):
    if agg == "COUNT":
        return acc[0]
    if agg in ("MIN", "MAX"):
        return acc[0]
    if agg == "SUM":
        return acc[0]
    if acc[1] == 0:
        return None
    total = acc[0] if isinstance(acc[0], Decimal) else Decimal(acc[0])
    return (total / acc[1]).quantize(DEC4)


# ---------------------------------------------------------------------------
# Open


def _schema_from_catalog(entry: dict) -> TableSchema:
    columns = tuple(ColumnDef(c["name"], ValueType(c["type"]), c["nullable"]) for c in entry["columns"])
    return TableSchema(entry["name"], columns, tuple(entry.get("primary_key", ())))


def _load_relation(path: Path, schema: TableSchema) -> Table:
    from .staging import parse_cell

    records = parse_csv(path.read_text(encoding="utf-8"))
    if not records or [t for t, _ in records[0]] != list(schema.column_names):
        raise IntegrityError(f"{path.name}: header does not match the catalog schema")
    rows = []
    for rec in records[1:]:
        if len(rec) != len(schema.columns):
            raise IntegrityError(f"{path.name}: row arity does not match the catalog schema")
        row = tuple(parse_cell(t, q, c.type) for (t, q), c in zip(rec, schema.columns))
        if any(isinstance(v, RawCell) for v in row):
            raise IntegrityError(f"{path.name}: cell does not parse as its declared type")
        rows.append(row)
    return Table(schema, rows)


def open_warehouse(directory: Path) -> Warehouse:
    """Verify every checksum, load relations and indexes, and hand back a
    read-only view. Each index is rebuilt from the relation data, and its
    sidecar must equal that index rendered, byte for byte. A missing
    sidecar is noticed and the rebuilt index used; any other discrepancy
    is an integrity error naming the file."""
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

    relations: dict[str, Table] = {}
    for entry in catalog["relations"]:
        path = directory / entry["file"]
        if not path.is_file():
            raise IntegrityError(f"missing relation file {entry['file']}")
        data = path.read_bytes()
        if sha256_hex(data) != entry["checksum"]:
            raise IntegrityError(f"checksum mismatch in {entry['file']}")
        schema = _schema_from_catalog(entry)
        table = _load_relation(path, schema)
        if len(table.rows) != entry["row_count"]:
            raise IntegrityError(f"{entry['file']}: row count {len(table.rows)} != cataloged {entry['row_count']}")
        relations[entry["name"]] = table

    notices: list[str] = []
    indexes: dict = {}
    for entry in catalog["indexes"]:
        key = (entry["relation"], tuple(entry["columns"]))
        table = relations.get(entry["relation"])
        if table is None:
            raise IntegrityError(f"index {entry['file']} references unknown relation {entry['relation']!r}")
        path = directory / entry["file"]
        index = indexes[key] = build_index(table, key[1], entry["kind"], unique=entry["unique"])
        if not path.is_file():
            notices.append(f"index sidecar {entry['file']} missing; rebuilt from data")
            continue
        data = path.read_bytes()
        if sha256_hex(data) != entry["checksum"]:
            raise IntegrityError(f"checksum mismatch in {entry['file']}")
        if data != render_index(index).encode("utf-8"):
            raise IntegrityError(f"index {entry['file']} disagrees with relation data")

    return Warehouse(directory, catalog, relations, indexes, notices)


def is_warehouse_dir(directory: Path) -> bool:
    return (Path(directory) / CATALOG_NAME).is_file()
