"""Independent brute-force oracles the engine is checked against.

Everything here deliberately avoids the engine's own machinery: joins are
nested-loop scans without hash maps, referential checks scan full target
tables, means are exact rational arithmetic, extraction parses the whole
file before it types any cell with a grammar of its own (``parse_typed``,
apart from the engine's ``values.cell_converter``), cleansing applies one rule at a time to
the whole table with a version of each rule kind of its own, and a derivation is walked afresh for every row.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import re
from dataclasses import replace
from datetime import date
from decimal import Decimal
from fractions import Fraction
from operator import itemgetter

from uwh.cleanse import RuleStats, TableCleanseSlice
from uwh.csvio import format_field, parse_csv
from uwh.errors import ValidationError
from uwh.ingest import TableExtraction
from uwh.plan import Cmp, Coalesce, Col, Difficulty, IsNull, Lit, Logical, Not, PaidOnDue
from uwh.schema import RowIssue, Table, TableSchema
from uwh.staging import QRow, Quarantine
from uwh.values import (
    INT64_MAX,
    INT64_MIN,
    RawCell,
    ValueType,
    coerce_literal,
    make_decimal,
    parse_date_flexible,
    parse_iso_date,
    render_cell,
    value_tag,
)

_INT_RE = re.compile(r"[+-]?[0-9]+\Z")
_DEC_RE = re.compile(r"[+-]?[0-9]+(\.[0-9]{1,4})?\Z")


def parse_typed(text: str, vtype: ValueType):
    """Parse ``text`` as ``vtype``; raise ValueError if it does not conform."""
    if vtype is ValueType.TEXT:
        return text
    if vtype is ValueType.INTEGER:
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer literal: {text!r}")
        n = int(text)
        if not INT64_MIN <= n <= INT64_MAX:
            raise ValueError(f"integer out of 64-bit range: {text!r}")
        return n
    if vtype is ValueType.DECIMAL:
        if not _DEC_RE.match(text):
            raise ValueError(f"not a decimal literal: {text!r}")
        return make_decimal(text)
    if vtype is ValueType.BOOLEAN:
        low = text.lower()
        if low == "true":
            return True
        if low == "false":
            return False
        raise ValueError(f"not a boolean literal: {text!r}")
    if vtype is ValueType.DATE:
        return parse_iso_date(text)
    raise TypeError(f"unknown value type {vtype!r}")


def parse_cell(text: str, quoted: bool, vtype: ValueType):
    """Extraction cell rule: bare empty is Null; a failed parse stays raw."""
    if text == "" and not quoted:
        return None
    try:
        return parse_typed(text, vtype)
    except ValueError:
        return RawCell(text)


def orphan_rows_nested_loop(tables: dict[str, Table]) -> set[tuple[str, str, int]]:
    """(table, fk label, row index) for every FK tuple with no target match."""
    found: set[tuple[str, str, int]] = set()
    for table in tables.values():
        for fk in table.schema.foreign_keys:
            target = tables.get(fk.target_table)
            if target is None:
                continue
            local = [table.schema.column_index(c) for c in fk.columns]
            remote = [target.schema.column_index(c) for c in fk.target_columns]
            for n, row in enumerate(table.rows):
                key = [row[i] for i in local]
                if any(v is None for v in key):
                    continue
                hit = False
                for trow in target.rows:
                    if all(trow[j] == v for j, v in zip(remote, key)):
                        hit = True
                        break
                if not hit:
                    found.add((table.name, fk.label(table.name), n))
    return found


def extract_table_reference(source: bytes, schema: TableSchema) -> tuple[Table, TableExtraction, Quarantine]:
    """``extract_table`` as whole-text ``parse_csv``, then ``parse_cell`` on
    every cell of each record, taken in schema order."""
    try:
        text = source.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{schema.name}: input is not valid UTF-8: {exc}") from exc
    records = parse_csv(text)
    if not records:
        raise ValidationError(f"{schema.name}: missing header row")
    header = [t for t, _ in records[0]]
    if sorted(header) != sorted(schema.column_names) or len(set(header)) != len(header):
        raise ValidationError(f"{schema.name}: header does not name the schema's columns")
    order = [header.index(c) for c in schema.column_names]
    stats = TableExtraction(schema.name)
    quarantine = Quarantine(schema.column_names)
    rows: list[tuple] = []
    for rec in records[1:]:
        stats.rows_read += 1
        if len(rec) != len(schema.columns):
            stats.reject("arity")
            quarantine.append(QRow("arity", tuple(t for t, _ in rec)))
            continue
        cells = tuple(parse_cell(*rec[pos], col.type) for col, pos in zip(schema.columns, order))
        missing = [col.name for col, v in zip(schema.columns, cells) if v is None and not col.nullable]
        if missing:
            stats.reject("null-in-nonnullable")
            quarantine.append(QRow(f"null-in-nonnullable:{missing[0]}", tuple(rec[pos][0] for pos in order)))
            continue
        rows.append(cells)
        stats.rows_staged += 1
        stats.raw_cells += sum(isinstance(v, RawCell) for v in cells)
    return Table(schema, rows), stats, quarantine


def check_row_reference(schema: TableSchema, row: tuple) -> RowIssue | None:
    """``check_row`` as a ``value_tag`` test of every cell."""
    if len(row) != len(schema.columns):
        return RowIssue(None, "arity")
    for col, cell in zip(schema.columns, row):
        if cell is None:
            if not col.nullable:
                return RowIssue(col.name, "null-in-nonnullable")
            continue
        if isinstance(cell, RawCell):
            return RowIssue(col.name, "type")
        if value_tag(cell) is not col.type:
            return RowIssue(col.name, "type")
    return None


_WHITESPACE_RUN_RE = re.compile(r"\s+")
_LETTERS_RE = re.compile(r"[A-Za-z]+")


def _rule_on_cell(kind: str, args: tuple, col_type: ValueType, cell):
    """One cleansing rule on one cell, per the README's list of kinds:
    ``(cell after the rule, None)``, or ``(None, reason)`` when the rule
    flags the cell."""
    if kind in ("trim", "collapse_whitespace"):
        if not (isinstance(cell, RawCell) or (col_type is ValueType.TEXT and isinstance(cell, str))):
            return cell, None
        text = str(cell).strip() if kind == "trim" else _WHITESPACE_RUN_RE.sub(" ", str(cell))
        return (RawCell(text) if isinstance(cell, RawCell) else text), None
    if kind == "case":
        if not isinstance(cell, str):
            return cell, None
        if args[0] == "upper":
            return str(cell).upper(), None
        if args[0] == "lower":
            return str(cell).lower(), None
        return _LETTERS_RE.sub(lambda m: m.group(0)[0].upper() + m.group(0)[1:].lower(), str(cell)), None
    if kind == "normalize_date":
        if not isinstance(cell, RawCell):
            return cell, None
        parsed = parse_date_flexible(str(cell), args)
        return (None, "unparseable-date") if parsed is None else (parsed, None)
    if kind == "null_standardize":
        return (None if isinstance(cell, str) and cell.strip() in args else cell), None
    if cell is None:
        return cell, None
    if kind == "domain":
        return (None, "out-of-domain") if isinstance(cell, RawCell) or cell not in list(args) else (cell, None)
    if kind == "range":
        if isinstance(cell, RawCell):
            return None, "unparseable-number"
        return (cell, None) if args[0] <= cell <= args[1] else (None, "out-of-range")
    raise AssertionError(f"unknown rule kind {kind!r}")


def cleanse_table_reference(table: Table, rules: list) -> tuple[Table, TableCleanseSlice]:
    """``cleanse_table`` as one whole-table pass per rule: each pass applies
    the rule to every remaining row, then quarantines the rows it flagged;
    a last pass quarantines the rows that fail ``check_row_reference``. A
    cell counts as changed when the rule gives an unequal value; a changed
    raw cell of a non-TEXT column whose text parses as the type takes the
    typed value."""
    slice_ = TableCleanseSlice(table.name, rows_in=len(table.rows))
    rows = list(table.rows)
    for rule in rules:
        col_idx = table.schema.column_index(rule.name)
        col_type = table.schema.column(rule.name).type
        if rule.kind in ("domain", "range"):
            rule = replace(rule, args=tuple(coerce_literal(a, col_type) for a in rule.args))
        stats = RuleStats(rule)
        applied: list[tuple] = []
        flagged: dict[int, str] = {}
        for i, row in enumerate(rows):
            stats.cells_examined += 1
            new, reason = _rule_on_cell(rule.kind, rule.args, col_type, row[col_idx])
            if reason is not None:
                flagged[i] = reason
                applied.append(row)
                continue
            if new == row[col_idx]:
                applied.append(row)
                continue
            if isinstance(new, RawCell) and col_type is not ValueType.TEXT:
                try:
                    new = parse_typed(str(new), col_type)
                except ValueError:
                    pass
            applied.append(row[:col_idx] + (new,) + row[col_idx + 1:])
            stats.cells_changed += 1
        rows = []
        for i, row in enumerate(applied):
            if i in flagged:
                slice_.quarantined.append(
                    QRow(f"{flagged[i]}:{rule.name}", tuple(render_cell(c) for c in row))
                )
                stats.cells_quarantined += 1
            else:
                rows.append(row)
        slice_.rule_stats.append(stats)
    kept = []
    for row in rows:
        issue = check_row_reference(table.schema, row)
        if issue is None:
            kept.append(row)
        else:
            slice_.quarantined.append(QRow(str(issue), tuple(render_cell(c) for c in row)))
    slice_.rows_out = len(kept)
    slice_.rows_quarantined = len(slice_.quarantined)
    return Table(table.schema, kept), slice_


def left_merge_nested_loop(
    tables: dict[str, Table],
    base: str,
    sources: list[str],
    conditions: list[tuple[tuple[str, str], tuple[str, str]]],
    keep: list[tuple[str, str]],
) -> list[tuple]:
    """Left-join the base along the condition chain by scanning every
    source row per base row; more than one match per source is an error."""
    ctxs: list[dict[str, tuple | None]] = [{base: row} for row in tables[base].rows]
    remaining = [s for s in sources if s != base]
    conds = list(conditions)
    while remaining:
        for source in list(remaining):
            mine = []
            used = []
            for cond in conds:
                (t1, c1), (t2, c2) = cond
                if t1 == source and t2 not in remaining:
                    mine.append(((t1, c1), (t2, c2)))
                    used.append(cond)
                elif t2 == source and t1 not in remaining:
                    mine.append(((t2, c2), (t1, c1)))
                    used.append(cond)
            if not mine:
                continue
            src_table = tables[source]
            for ctx in ctxs:
                matches = []
                for row in src_table.rows:
                    ok = True
                    for (s_t, s_c), (o_t, o_c) in mine:
                        other_row = ctx.get(o_t)
                        other_v = None if other_row is None else other_row[tables[o_t].schema.column_index(o_c)]
                        mine_v = row[src_table.schema.column_index(s_c)]
                        if mine_v is None or other_v is None or mine_v != other_v:
                            ok = False
                            break
                    if ok:
                        matches.append(row)
                if len(matches) > 1:
                    raise AssertionError(f"ambiguous join into {source}")
                ctx[source] = matches[0] if matches else None
            for cond in used:
                conds.remove(cond)
            remaining.remove(source)
            break
        else:
            raise AssertionError(f"cannot order sources {remaining}")
    out = []
    for ctx in ctxs:
        row = ctx[base]
        extra = []
        for t, c in keep:
            srow = ctx.get(t)
            extra.append(None if srow is None else srow[tables[t].schema.column_index(c)])
        out.append(row + tuple(extra))
    return out


def paid_on_due_recompute(payment, due) -> bool:
    if payment is None or due is None:
        return False
    return payment <= due


def difficulty_recompute(pairs: list[tuple[object, object]], hi: int, lo: int) -> dict:
    """Exact-rational group means over (group key, grade) pairs, bucketed."""
    grades: dict[object, list[Fraction]] = {}
    for key, grade in pairs:
        grades.setdefault(key, [])
        if grade is not None:
            grades[key].append(Fraction(grade))
    labels = {}
    for key, values in grades.items():
        if not values:
            labels[key] = "unknown"
            continue
        mean = sum(values) / len(values)
        if mean >= hi:
            labels[key] = "low"
        elif mean >= lo:
            labels[key] = "medium"
        else:
            labels[key] = "high"
    return labels


_TRUTH = (False, None, True)  # ascending
_ORDER = {"=": operator.eq, "<>": operator.ne, "<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def _reference_type(e, schema: TableSchema) -> ValueType | None:
    """The type of a well-typed expression; None for the NULL literal."""
    if isinstance(e, Lit):
        return None if e.value is None else value_tag(e.value)
    if isinstance(e, Col):
        return schema.column(e.name).type
    if isinstance(e, Coalesce):
        a, b = _reference_type(e.first, schema), _reference_type(e.second, schema)
        if a is None or b is None or a is b:
            return a or b
        return a if isinstance(e.second, Lit) else b
    if isinstance(e, Difficulty):
        return ValueType.TEXT
    return ValueType.BOOLEAN


def _reference_pair(a, b, table: Table, row: tuple) -> tuple:
    """Both operands' values; when both are typed and the types differ, the
    literal one (``b`` if both are) is read as the other's type: an INTEGER
    as a DECIMAL, ISO text as a DATE."""
    va, vb = _reference_value(a, table, row), _reference_value(b, table, row)
    at, bt = _reference_type(a, table.schema), _reference_type(b, table.schema)
    if at is not None and bt is not None and at is not bt:
        if isinstance(b, Lit):
            vb = Decimal(vb) if at is ValueType.DECIMAL else date.fromisoformat(vb)
        else:
            va = Decimal(va) if bt is ValueType.DECIMAL else date.fromisoformat(va)
    return va, vb


def _reference_value(e, table: Table, row: tuple):
    schema = table.schema
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Col):
        return row[schema.column_index(e.name)]
    if isinstance(e, Cmp):
        a, b = _reference_pair(e.left, e.right, table, row)
        return None if a is None or b is None else _ORDER[e.op](a, b)
    if isinstance(e, Logical):
        # SQL's three-valued logic: over FALSE < Null < TRUE, AND is the
        # lesser operand and OR the greater
        ranks = [_TRUTH.index(_reference_value(side, table, row)) for side in (e.left, e.right)]
        return _TRUTH[min(ranks) if e.op == "AND" else max(ranks)]
    if isinstance(e, Not):
        return _TRUTH[2 - _TRUTH.index(_reference_value(e.operand, table, row))]
    if isinstance(e, Coalesce):
        a, b = _reference_pair(e.first, e.second, table, row)
        return b if a is None else a
    if isinstance(e, IsNull):
        return _reference_value(e.operand, table, row) is None
    if isinstance(e, PaidOnDue):
        return paid_on_due_recompute(row[schema.column_index(e.payment.name)], row[schema.column_index(e.due.name)])
    if isinstance(e, Difficulty):
        g, k = schema.column_index(e.grade.name), schema.column_index(e.group.name)
        labels = difficulty_recompute([(r[k], r[g]) for r in table.rows], Fraction(e.hi), Fraction(e.lo))
        return labels[row[k]]
    raise TypeError(f"not an expression: {e!r}")


def derivation_reference(expr, table: Table, declared: ValueType) -> list:
    """The cells ``ADD COLUMN ... <declared> AS expr`` gives ``table``'s rows,
    for a well-typed ``expr``: comparisons, AND, OR and NOT follow SQL's
    three-valued logic (a comparison with a Null operand is Null), PAID_ON_DUE
    with a Null date is false, and DIFFICULTY buckets exact-rational group
    means. A DECIMAL cell is put on
    the 4-digit grid."""
    cells = [_reference_value(expr, table, row) for row in table.rows]
    if declared is ValueType.DECIMAL:
        cells = [None if v is None else Decimal(v).quantize(Decimal("0.0001")) for v in cells]
    return cells


def full_scan_ordinals(table: Table, columns: tuple[str, ...], key: tuple) -> list[int]:
    idxs = [table.schema.column_index(c) for c in columns]
    return [n for n, row in enumerate(table.rows) if tuple(row[i] for i in idxs) == tuple(key)]


def render_index_reference(index) -> str:
    """The ``render_index`` text of ``index``: keys sorted Null first, each key
    component through ``render_cell`` and ``format_field``, with empty
    text and text holding a tab quoted."""
    lines = []
    for key in sorted(index.entries, key=_nulls_first_key):
        encoded = ",".join(format_field(render_cell(v), isinstance(v, str) and (v == "" or "\t" in v)) for v in key)
        for ordinal in index.entries[key]:
            lines.append(f"{encoded}\t{ordinal}")
    return "\n".join(lines) + ("\n" if lines else "")


def round_half_even_4(fr: Fraction) -> Decimal:
    scaled = fr * 10**4
    floor = math.floor(scaled)
    rem = scaled - floor
    if rem > Fraction(1, 2):
        floor += 1
    elif rem == Fraction(1, 2):
        floor += floor % 2
    return Decimal(floor).scaleb(-4)


def _nulls_first_key(row: tuple) -> tuple:
    return tuple((v is not None, v) for v in row)


def ledger_recovery_failures(cleansed, ledger) -> list[tuple]:
    """Dirt-ledger entries the cleansed staging neither repaired nor
    quarantined. Repair means the cell equals the recorded original;
    duplicates must collapse back to a single row."""
    failures = []
    for e in ledger.entries:
        table = cleansed.tables[e.table]
        pk_idx = table.schema.pk_indexes()
        matches = [row for row in table.rows if "|".join(render_cell(row[i]) for i in pk_idx) == e.row_key]
        if e.kind == "duplicate_row":
            if len(matches) == 1 or (not matches and _quarantined(cleansed, e)):
                continue
            failures.append((e, f"{len(matches)} copies survived"))
        elif len(matches) == 1:
            got = render_cell(matches[0][table.schema.column_index(e.column)])
            if got != e.original:
                failures.append((e, f"cell is {got!r}, original was {e.original!r}"))
        elif matches:
            failures.append((e, "primary key not unique after cleansing"))
        elif not _quarantined(cleansed, e):
            failures.append((e, "row vanished without quarantine"))
    return failures


def ledger_precision_failures(extracted, cleansed, ledger) -> list[str]:
    """What cleansing did that the dirt ledger does not account for, the
    reverse of ``ledger_recovery_failures``: a quarantined row whose reason
    is not an orphaned foreign key and whose key has no ledger entry, and a
    cell of a kept row that cleansing changed with no entry for its key
    and column."""
    dirty_rows = {(e.table, e.row_key) for e in ledger.entries}
    dirty_cells = {(e.table, e.row_key, e.column) for e in ledger.entries}
    failures = []
    for name, q in cleansed.quarantine.items():
        pk_pos = [q.columns.index(c) for c in cleansed.tables[name].schema.primary_key]
        for qr in q.rows:
            if qr.reason.startswith("orphan:"):
                continue
            key = "|".join(qr.fields[i] for i in pk_pos) if len(qr.fields) == len(q.columns) else None
            if (name, key) not in dirty_rows:
                failures.append(f"{name}[{key}]: quarantined for {qr.reason} with no dirt entry")
    for name, table in cleansed.tables.items():
        schema = table.schema
        pk_idx = schema.pk_indexes()
        before: dict[str, tuple] = {}
        for row in extracted.tables[name].rows:
            before.setdefault("|".join(render_cell(row[i]) for i in pk_idx), row)
        for row in table.rows:
            key = "|".join(render_cell(row[i]) for i in pk_idx)
            old = before.get(key)
            if old is None:
                continue
            for c, a, b in zip(schema.columns, old, row):
                if render_cell(a) != render_cell(b) and (name, key, c.name) not in dirty_cells:
                    failures.append(f"{name}[{key}].{c.name}: changed {render_cell(a)!r} -> {render_cell(b)!r} with no dirt entry")
    return failures


def _quarantined(cleansed, entry) -> bool:
    q = cleansed.quarantine.get(entry.table)
    if q is None:
        return False
    schema = cleansed.tables[entry.table].schema
    pk_pos = [q.columns.index(c) for c in schema.primary_key]
    parts = entry.row_key.split("|")
    for qr in q.rows:
        if len(qr.fields) == len(q.columns) and [qr.fields[i] for i in pk_pos] == parts:
            return True
    return False


def star_aggregate_bruteforce(handle, query) -> list[tuple]:
    """Join-then-aggregate by linear scans over the warehouse relations,
    driven purely by the public catalog metadata."""
    catalog = handle.catalog
    fact = catalog["fact"]
    parents = {j["relation"]: j for j in catalog["joins"]}
    relations = {name: handle.relation(name) for name in [r["name"] for r in catalog["relations"]]}

    def resolve(attr: str) -> tuple[str, int]:
        if "." in attr:
            rel, col = attr.split(".", 1)
            return rel, relations[rel].schema.column_index(col)
        hits = [
            (name, t.schema.column_index(attr))
            for name, t in relations.items()
            if t.schema.has_column(attr)
        ]
        assert len(hits) == 1, f"attribute {attr} resolves to {hits}"
        return hits[0]

    needed = [fact]

    def require(rel: str) -> None:
        chain = []
        cur = rel
        while cur != fact:
            chain.append(cur)
            cur = parents[cur]["parent"]
        for r in reversed(chain):
            if r not in needed:
                needed.append(r)

    for attr in query.group_by:
        require(resolve(attr)[0])
    for f in query.filters:
        require(resolve(f.attribute)[0])
    for m in query.measures:
        if m.column is not None:
            require(resolve(m.column)[0])

    ctxs: list[dict[str, tuple]] = [{fact: row} for row in relations[fact].rows]
    for rel in needed[1:]:
        join = parents[rel]
        parent_rel = join["parent"]
        parent_key = itemgetter(*[relations[parent_rel].schema.column_index(c) for c in join["parent_columns"]])
        rel_key = itemgetter(*[relations[rel].schema.column_index(c) for c in join["columns"]])
        grown = []
        for ctx in ctxs:
            pkey = parent_key(ctx[parent_rel])
            for rrow in [r for r in relations[rel].rows if rel_key(r) == pkey]:  # linear scan, no hashing
                new = dict(ctx)
                new[rel] = rrow
                grown.append(new)
        ctxs = grown

    def cell(ctx, attr):
        rel, idx = resolve(attr)
        return ctx[rel][idx]

    def keep(ctx) -> bool:
        for f in query.filters:
            v = cell(ctx, f.attribute)
            lit = f.value
            rel, idx = resolve(f.attribute)
            cdef = relations[rel].schema.columns[idx]
            if lit is not None and cdef.type.value == "DECIMAL" and isinstance(lit, int) and not isinstance(lit, bool):
                lit = Decimal(lit)
            if lit is not None and cdef.type.value == "DATE" and isinstance(lit, str):
                from datetime import date

                lit = date.fromisoformat(lit)
            if v is None or lit is None:
                return False
            if f.op == "=" and not v == lit:
                return False
            if f.op == "<>" and not v != lit:
                return False
            if f.op == "<" and not v < lit:
                return False
            if f.op == "<=" and not v <= lit:
                return False
            if f.op == ">" and not v > lit:
                return False
            if f.op == ">=" and not v >= lit:
                return False
        return True

    ctxs = [c for c in ctxs if keep(c)]

    grouped: dict[tuple, list] = {}
    for ctx in ctxs:
        gkey = tuple(cell(ctx, a) for a in query.group_by)
        grouped.setdefault(gkey, []).append(ctx)

    out = []
    for gkey in sorted(grouped, key=_nulls_first_key):
        members = grouped[gkey]
        cells = []
        for m in query.measures:
            if m.column is None:
                cells.append(len(members))
                continue
            values = [cell(c, m.column) for c in members]
            nonnull = [v for v in values if v is not None]
            if m.agg == "COUNT":
                cells.append(len(nonnull))
            elif m.agg == "MIN":
                cells.append(min(nonnull) if nonnull else None)
            elif m.agg == "MAX":
                cells.append(max(nonnull) if nonnull else None)
            elif m.agg == "SUM":
                if not nonnull:
                    cells.append(None)
                elif isinstance(nonnull[0], Decimal):
                    total = sum(Fraction(v) for v in nonnull)
                    cells.append(Decimal(total.numerator) / Decimal(total.denominator))
                else:
                    cells.append(sum(nonnull))
            else:  # AVG
                if not nonnull:
                    cells.append(None)
                else:
                    total = sum(Fraction(v) for v in nonnull)
                    cells.append(round_half_even_4(total / len(nonnull)))
        out.append(gkey + tuple(cells))
    return out


def resign_dump(directory, edit=None) -> None:
    """Sign the staging dump in ``directory`` again, as it now stands, after
    a test changed it: ``meta.json`` lists the SHA-256 of every other file
    in the directory, then ``edit``, if given, changes its record, and its
    ``self_checksum`` is the SHA-256 of its JSON (sorted keys, two-space
    indent, final LF) while that field is empty."""

    def text(record) -> bytes:
        return (json.dumps(record, sort_keys=True, indent=2) + "\n").encode("utf-8")

    meta = json.loads((directory / "meta.json").read_text(encoding="utf-8"))
    files = (p for p in sorted(directory.rglob("*")) if p.is_file() and p != directory / "meta.json")
    meta["files"] = {p.relative_to(directory).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
    if edit is not None:
        edit(meta)
    meta["self_checksum"] = ""
    meta["self_checksum"] = hashlib.sha256(text(meta)).hexdigest()
    (directory / "meta.json").write_bytes(text(meta))
