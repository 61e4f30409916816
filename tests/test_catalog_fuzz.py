"""Structural mutations of a warehouse catalog, re-signed so that they pass
its self checksum, run through ``uwh query`` and ``uwh report`` in
process. Each run exits 0, or prints an ``error:`` line and exits 1 or 5;
no mutation raises out of ``cli.run``. The star join walks the catalog's
joins without checking them again, so a fault that ``open`` misses would
surface here as an exception. One input in five instead flips one byte of
a column file under the catalog as built, and each run must exit 5 naming
the file.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uwh.cli import run
from uwh.staging import CATALOG_NAME, canonical_json, sha256_hex

QUERIES = [
    ["--measure", "COUNT(*)", "--group-by", "mj_name"],
    ["--measure", "SUM(re_amount)", "--group-by", "ac_status", "--filter", "tr_year = 2012"],
    ["--measure", "AVG(tr_grade)", "--measure", "MAX(al_degree)", "--group-by", "in_name,st_gender"],
    ["--measure", "MIN(act_name)", "--filter", "mj_name <> 'x'", "--filter", "re_paidOnDueDate = TRUE"],
]

# the sections open checks and the star join reads; joins twice, since the
# star join walks them without checking them again
SECTIONS = ["fact", "dimensions", "joins", "joins", "relations"]

# what may happen to a node, by its type: most changes keep the catalog's
# shape, so that they reach the checks past it and the star join
OPS = {str: ["relation", "column", "copy", "delete"], list: ["repeat", "reverse", "delete", "odd"]}

ODD_VALUES = [None, 0, -1, 1.5, True, "", "x", "transcript", "../transcript.0.col", [], [""], {}, {"name": "x"}]


@pytest.fixture(scope="module")
def warehouse(tmp_path_factory, seed42_warehouse_dir):
    out = tmp_path_factory.mktemp("catalog-fuzz") / "wh"
    shutil.copytree(seed42_warehouse_dir, out)
    catalog = json.loads((out / CATALOG_NAME).read_text(encoding="utf-8"))
    columns = {r["name"]: [c["name"] for c in r["columns"]] for r in catalog["relations"]}
    return out, catalog, columns


def _paths(value, path):
    """``path`` and the path of every node under ``value``, which it names."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


def _node(root, path):
    for key in path:
        root = root[key]
    return root


def _rewire(entry: dict, columns: dict[str, list[str]], data) -> None:
    """Point a join at a drawn parent over drawn columns of both ends, or a
    dimension at a drawn key column."""
    def some(relation, n: int) -> list[str]:
        # an earlier change may have left any JSON value in place of the name
        names = columns.get(relation, ["x"]) if isinstance(relation, str) else ["x"]
        return [data.draw(st.sampled_from(names)) for _ in range(n)]

    if "parent_columns" in entry:
        n = data.draw(st.integers(1, 2))
        entry["parent"] = data.draw(st.sampled_from(sorted(columns)))
        entry["columns"], entry["parent_columns"] = some(entry.get("relation"), n), some(entry["parent"], n)
    else:
        entry["key"] = some(entry.get("name"), 1)[0]


def _mutate(catalog: dict, data, columns: dict[str, list[str]]) -> None:
    """One change: rewire a join or dimension entry, or, in one section,
    delete a node, put another node of the section, a relation or column
    name, or an odd value in its place, or repeat or reorder list items."""
    entries = [e for s in ("joins", "dimensions") if isinstance(catalog.get(s), list) for e in catalog[s] if isinstance(e, dict)]
    if entries and data.draw(st.booleans()):
        _rewire(data.draw(st.sampled_from(entries)), columns, data)
        return
    present = [section for section in SECTIONS if section in catalog]
    if not present:
        return
    section = data.draw(st.sampled_from(present))
    paths = list(_paths(catalog[section], (section,)))
    path = data.draw(st.sampled_from(paths))
    parent, key = _node(catalog, path[:-1]), path[-1]
    target = parent[key]
    op = data.draw(st.sampled_from(OPS.get(type(target), ["copy", "delete", "odd"])))
    if op == "delete":
        del parent[key]
    elif op == "copy":
        parent[key] = copy.deepcopy(_node(catalog, data.draw(st.sampled_from(paths))))
    elif op == "relation":
        parent[key] = data.draw(st.sampled_from(sorted(columns)))
    elif op == "column":
        parent[key] = data.draw(st.sampled_from(sorted({c for names in columns.values() for c in names})))
    elif op == "repeat" and target:
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))
    elif op == "reverse":
        target.reverse()
    else:
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(ODD_VALUES)))


def _flip_byte(directory, catalog: dict, data):
    """Flip one drawn bit of one drawn column file; return its path and bytes before."""
    files = sorted(c["file"] for r in catalog["relations"] for c in r["columns"])
    path = directory / data.draw(st.sampled_from(files))
    before = path.read_bytes()
    pos = data.draw(st.integers(0, len(before) - 1))
    path.write_bytes(before[:pos] + bytes([before[pos] ^ 1 << data.draw(st.integers(0, 7))]) + before[pos + 1 :])
    return path, before


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_catalog_is_refused_or_answered(warehouse, data):
    directory, original, columns = warehouse
    catalog = copy.deepcopy(original)
    flipped = _flip_byte(directory, original, data) if data.draw(st.integers(0, 4)) == 0 else None
    for _ in range(0 if flipped else data.draw(st.integers(1, 3))):
        _mutate(catalog, data, columns)
    catalog["self_checksum"] = ""
    catalog["self_checksum"] = sha256_hex(canonical_json(catalog).encode("utf-8"))
    (directory / CATALOG_NAME).write_text(canonical_json(catalog), encoding="utf-8")
    try:
        for argv in (["query", "--warehouse", str(directory), *data.draw(st.sampled_from(QUERIES))],
                     ["report", "--warehouse", str(directory), "--json"]):
            code, err = _run(argv)
            if flipped:
                assert code == 5 and err.startswith("error: ") and flipped[0].name in err, (argv, code, err)
            else:
                assert code == 0 or (code in (1, 5) and err.startswith("error: ")), (argv, code, err)
    finally:
        if flipped:
            flipped[0].write_bytes(flipped[1])
