"""Correctness checks the benchmark runs outside its timed regions.

* ``SqliteOracle``: the opened warehouse copied into an in-memory stdlib
  ``sqlite3`` database, DECIMAL stored as integers scaled by 10^4 so SUM
  is exact. A star query is rewritten as the equivalent SQL join along
  the catalog's join edges and compared exactly, groups ordered Nulls
  first. AVG is checked as scaled SUM / COUNT, rounded half-even to four
  places.
* ETL checks: row conservation per source table, every fact foreign key
  resolving in the opened warehouse, every dirt-ledger entry repaired or
  quarantined.

Each check returns a list of problem strings; empty means it passed.
"""

from __future__ import annotations

import csv
import sqlite3
from collections import defaultdict
from datetime import date
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

SCALE = 10_000


def _scaled(d) -> int:
    n = Decimal(d).scaleb(4)
    if n != n.to_integral_value():
        raise ValueError(f"decimal {d} has more than four fractional digits")
    return int(n)


_TO_SQL = {
    "INTEGER": int,
    "DECIMAL": _scaled,
    "TEXT": str,
    "BOOLEAN": int,
    "DATE": date.isoformat,
}


def _q(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


class SqliteOracle:
    def __init__(self, handle):
        catalog = handle.catalog
        self.fact = catalog["fact"]
        self.parents = {j["relation"]: j for j in catalog["joins"]}
        self.types: dict[str, str] = {}  # column -> declared type
        self.owner: dict[str, str] = {}  # column -> relation
        self.db = sqlite3.connect(":memory:")
        for entry in catalog["relations"]:
            name = entry["name"]
            cols = entry["columns"]
            for c in cols:
                self.owner[c["name"]] = name
                self.types[c["name"]] = c["type"]
            self.db.execute(f"CREATE TABLE {_q(name)} ({', '.join(_q(c['name']) for c in cols)})")
            convert = [_TO_SQL[c["type"]] for c in cols]
            rows = (
                [None if v is None else f(v) for f, v in zip(convert, row)] for row in handle.relation(name).rows
            )
            marks = ", ".join("?" * len(cols))
            self.db.executemany(f"INSERT INTO {_q(name)} VALUES ({marks})", rows)
        for j in catalog["joins"]:
            for rel, cols in ((j["relation"], j["columns"]), (j["parent"], j["parent_columns"])):
                self.db.execute(
                    f"CREATE INDEX IF NOT EXISTS {_q('ix_' + rel + '_' + '_'.join(cols))}"
                    f" ON {_q(rel)} ({', '.join(map(_q, cols))})"
                )

    def _col(self, attr: str) -> str:
        return f"{_q(self.owner[attr])}.{_q(attr)}"

    def sql(self, spec: dict) -> tuple[str, list]:
        """SQL for a query spec (see ``queries.py``). The last selected
        column is COUNT(*), the group's expanded-grain row count."""
        attrs = list(spec["group_by"]) + [f[0] for f in spec["filters"]]
        attrs += [col for _, col in spec["measures"] if col is not None]
        joined: list[str] = []
        for rel in (self.owner[a] for a in attrs):
            chain = []
            while rel != self.fact:
                chain.append(rel)
                rel = self.parents[rel]["parent"]
            for r in reversed(chain):
                if r not in joined:
                    joined.append(r)
        sql = f"FROM {_q(self.fact)}"
        for rel in joined:
            j = self.parents[rel]
            on = " AND ".join(
                f"{_q(rel)}.{_q(c)} = {_q(j['parent'])}.{_q(pc)}" for c, pc in zip(j["columns"], j["parent_columns"])
            )
            sql += f" JOIN {_q(rel)} ON {on}"
        params = []
        if spec["filters"]:
            terms = []
            for attr, op, literal in spec["filters"]:
                terms.append(f"{self._col(attr)} {'<>' if op == '<>' else op} ?")
                params.append(None if literal is None else _TO_SQL[self.types[attr]](literal))
            sql += " WHERE " + " AND ".join(terms)
        select = [self._col(g) for g in spec["group_by"]]
        for agg, col in spec["measures"]:
            if col is None:
                select.append("COUNT(*)")
            elif agg == "AVG":
                select += [f"SUM({self._col(col)})", f"COUNT({self._col(col)})"]
            else:
                select.append(f"{agg}({self._col(col)})")
        select.append("COUNT(*)")
        if spec["group_by"]:
            keys = ", ".join(self._col(g) for g in spec["group_by"])
            sql += f" GROUP BY {keys} ORDER BY {keys}"
        else:
            sql += " HAVING COUNT(*) > 0"
        return f"SELECT {', '.join(select)} {sql}", params

    def expected(self, spec: dict) -> tuple[list[tuple], int]:
        """Rows in engine shape (oracle encoding) and the joined row count."""
        sql, params = self.sql(spec)
        out = []
        joined = 0
        for row in self.db.execute(sql, params):
            row = list(row)
            joined += row.pop()
            ngroup = len(spec["group_by"])
            values = row[:ngroup]
            pos = ngroup
            for agg, col in spec["measures"]:
                if agg == "AVG":
                    total, count = row[pos], row[pos + 1]
                    pos += 2
                    scale = SCALE if self.types[col] == "DECIMAL" else 1
                    values.append(None if count == 0 else _round4(Fraction(total, scale * count)))
                else:
                    values.append(row[pos])
                    pos += 1
            out.append(tuple(values))
        return out, joined

    def encode(self, spec: dict, rows: list[tuple]) -> list[tuple]:
        """Engine result rows in the oracle's encoding."""
        kinds = [self.types[g] for g in spec["group_by"]]
        for agg, col in spec["measures"]:
            if agg == "AVG":
                kinds.append("AVG")
            elif agg == "COUNT":
                kinds.append("INTEGER")
            else:
                kinds.append(self.types[col])
        out = []
        for row in rows:
            values = []
            for kind, v in zip(kinds, row):
                if v is None or kind == "AVG":
                    values.append(v)
                else:
                    values.append(_TO_SQL[kind](v))
            out.append(tuple(values))
        return out

    def check(self, spec: dict, rows: list[tuple]) -> tuple[list[str], int]:
        """Problems with an engine result, and the joined row count."""
        want, joined = self.expected(spec)
        got = self.encode(spec, rows)
        if got == want:
            return [], joined
        if len(got) != len(want):
            return [f"{len(got)} groups, oracle has {len(want)}"], joined
        bad = next(i for i, (g, w) in enumerate(zip(got, want)) if g != w)
        return [f"group {bad}: engine {got[bad]!r}, oracle {want[bad]!r}"], joined


def _round4(x: Fraction) -> Decimal:
    """Half-even rounding to four places (``round`` on a Fraction is half-even)."""
    return Decimal(round(x * SCALE)).scaleb(-4)


# ---------------------------------------------------------------------------
# ETL checks


def source_record_counts(src_dir: Path) -> dict[str, int]:
    """Data records per source CSV, counted with the stdlib reader."""
    counts = {}
    for path in sorted(Path(src_dir).glob("*.csv")):
        with path.open(newline="", encoding="utf-8") as f:
            counts[path.stem] = sum(1 for rec in csv.reader(f) if rec) - 1
    return counts


def conservation_problems(report, src_dir: Path) -> list[str]:
    counts = source_record_counts(src_dir)
    problems = []
    for name, t in report.tables.items():
        if t.rows_read != counts.get(name):
            problems.append(f"{name}: read {t.rows_read} rows, the source file holds {counts.get(name)}")
        if t.rows_read != t.rows_staged + t.rows_rejected:
            problems.append(f"{name}: read {t.rows_read} != staged {t.rows_staged} + rejected {t.rows_rejected}")
    return problems


def fact_key_problems(handle) -> list[str]:
    """Every fact foreign key resolves to a row of its dimension."""
    catalog = handle.catalog
    fact = handle.relation(catalog["fact"])
    problems = []
    for j in catalog["joins"]:
        if j["parent"] != catalog["fact"]:
            continue
        dim = handle.relation(j["relation"])
        didx = [dim.schema.column_index(c) for c in j["columns"]]
        fidx = [fact.schema.column_index(c) for c in j["parent_columns"]]
        present = {tuple(r[i] for i in didx) for r in dim.rows}
        dangling = sum(1 for r in fact.rows if tuple(r[i] for i in fidx) not in present)
        if dangling:
            problems.append(f"{dangling} fact rows have no {j['relation']} row")
    return problems


def ledger_problems(cleansed, ledger) -> list[str]:
    """Dirt-ledger entries the cleansed staging neither repaired nor
    quarantined. Repair means the cell renders as the recorded original;
    a duplicated row must collapse back to one copy."""
    from uwh.values import render_cell

    by_key: dict[str, dict[str, list]] = {}
    quarantined: dict[str, set] = {}
    for name, table in cleansed.tables.items():
        pk_idx = table.schema.pk_indexes()
        rows = defaultdict(list)
        for row in table.rows:
            rows["|".join(render_cell(row[i]) for i in pk_idx)].append(row)
        by_key[name] = rows
        q = cleansed.quarantine.get(name)
        keys = set()
        if q is not None:
            pos = [q.columns.index(c) for c in table.schema.primary_key]
            for qr in q.rows:
                if len(qr.fields) == len(q.columns):
                    keys.add("|".join(qr.fields[i] for i in pos))
        quarantined[name] = keys

    problems = []
    for e in ledger.entries:
        if e.table not in by_key:
            problems.append(f"{e.table}: table missing after cleanse")
            continue
        matches = by_key[e.table].get(e.row_key, [])
        gone = not matches and e.row_key in quarantined[e.table]
        if e.kind == "duplicate_row":
            if len(matches) != 1 and not gone:
                problems.append(f"{e.table}[{e.row_key}]: {len(matches)} copies survived")
        elif len(matches) == 1:
            schema = cleansed.tables[e.table].schema
            got = render_cell(matches[0][schema.column_index(e.column)])
            if got != e.original:
                problems.append(f"{e.table}[{e.row_key}].{e.column} is {got!r}, original was {e.original!r}")
        elif matches:
            problems.append(f"{e.table}[{e.row_key}]: primary key not unique after cleanse")
        elif not gone:
            problems.append(f"{e.table}[{e.row_key}]: row vanished without quarantine")
    return problems
