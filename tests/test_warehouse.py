from __future__ import annotations

import json
import random
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import full_scan_ordinals, render_index_reference, star_aggregate_bruteforce
from uwh.errors import IntegrityError, MissingInputError, ReadOnlyError, ValidationError
from uwh.manifest import parse_schema_manifest
from uwh.schema import Table
from uwh.values import INT64_MAX, INT64_MIN, make_decimal
from uwh.warehouse import (
    Filter,
    Index,
    Measure,
    StarQuery,
    assemble_snowflake,
    build_index,
    load,
    open_warehouse,
    parse_filter,
    parse_measure,
    render_index,
    star_query,
)

TS = "2026-01-01T00:00:00Z"


# --- assemble_snowflake --------------------------------------------------------


def test_assemble_canonical_counts(seed42_transformed):
    snow = assemble_snowflake(
        seed42_transformed.tables, seed42_transformed.fact_table, seed42_transformed.dimensions
    )
    assert snow.fact == "transcript"
    assert len(snow.dimensions) == 7
    assert len(snow.relation_names()) == 8
    arms = {d.name: d.parent for d in snow.dimensions}
    assert arms == {
        "student": None,
        "instructor": None,
        "major": "student",
        "account": "student",
        "receipt": "account",
        "registeredActivities": "student",
        "alumni": "student",
    }


def test_assemble_rejects_wrong_dimension_count(seed42_transformed):
    with pytest.raises(ValidationError) as exc:
        assemble_snowflake(
            seed42_transformed.tables, seed42_transformed.fact_table, seed42_transformed.dimensions[:6]
        )
    assert "expected 7 dimensions, found 6" in str(exc.value)


def test_assemble_rejects_duplicate_dimension_key(seed42_transformed):
    staging = seed42_transformed.clone()
    student = staging.tables["student"]
    dup = list(student.rows) + [student.rows[0]]
    staging.tables["student"] = Table(student.schema, dup)
    with pytest.raises(ValidationError) as exc:
        assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    assert "duplicate dimension key" in str(exc.value)


def test_load_refuses_a_null_dimension_key(tmp_path, seed42_transformed):
    staging = seed42_transformed.clone()
    major = staging.tables["major"]
    key = major.schema.column_index("mj_id")
    row = major.rows[0]
    staging.tables["major"] = Table(major.schema, list(major.rows) + [row[:key] + (None,) + row[key + 1:]])
    with pytest.raises(ValidationError) as exc:
        load(tmp_path / "wh", staging, timestamp=TS)
    assert str(exc.value) == "dimension key major.mj_id contains Null"
    assert list(tmp_path.iterdir()) == []


def test_assemble_rejects_unconnected_dimension(seed42_transformed):
    staging = seed42_transformed.clone()
    # strip alumni's FK so it cannot reach the fact
    alumni = staging.tables["alumni"]
    from dataclasses import replace

    staging.tables["alumni"] = Table(replace(alumni.schema, foreign_keys=()), alumni.rows)
    with pytest.raises(ValidationError) as exc:
        assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    assert "alumni" in str(exc.value)


# --- indexes --------------------------------------------------------------------


def table_index(table: Table, columns: tuple[str, ...]) -> Index:
    """``build_index`` over the rows of ``table``."""
    idxs = [table.schema.column_index(c) for c in columns]
    return build_index(table.name, columns, [tuple(row[i] for i in idxs) for row in table.rows])


def test_unique_hash_index_thousand_probes(seed42_handle):
    student = seed42_handle.relation("student")
    index = table_index(student, ("st_id",))
    keys = [row[0] for row in student.rows]
    rng = random.Random(9)
    probes = [(k,) for k in keys] + [(rng.randint(-10_000, 10_000),) for _ in range(1000)]
    for key in probes:
        assert index.entries.get(key, []) == full_scan_ordinals(student, ("st_id",), key)


def test_empty_relation_index():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    index = table_index(Table(db.tables["t"], []), ("id",))
    assert index.entries.get((1,), []) == []
    assert render_index(index) == ""


_KEY_PARTS = [
    st.integers(INT64_MIN, INT64_MAX),
    st.decimals(allow_nan=False, allow_infinity=False, places=4, min_value=-10**6, max_value=10**6).map(make_decimal),
    st.dates(),
    st.booleans(),
    st.text(st.sampled_from(list('a ,"\t\r\n')), max_size=4),
]


@st.composite
def _indexes(draw):
    # one type per key column, as in a relation, and a few values per column
    # plus Null, so that keys share prefixes and differ at a Null
    pools = [draw(st.lists(draw(st.sampled_from(_KEY_PARTS)), min_size=1, max_size=3)) + [None] for _ in range(draw(st.integers(1, 3)))]
    keys = draw(st.lists(st.tuples(*map(st.sampled_from, pools)), max_size=8, unique=True))
    entries = {key: draw(st.lists(st.integers(0, 99), min_size=1, max_size=3)) for key in keys}
    return Index("t", tuple(f"c{i}" for i in range(len(pools))), entries)


@settings(max_examples=300, deadline=None)
@given(_indexes())
def test_render_index_matches_the_reference(index):
    assert render_index(index) == render_index_reference(index)


def catalog_indexes(handle) -> list[Index]:
    """An index on every dimension key, then the star join's indexes for
    every catalog join: on the joined relation's columns and on its
    parent's."""
    keys = [table_index(handle.relation(d["name"]), (d["key"],)) for d in handle.catalog["dimensions"]]
    joins = handle.catalog["joins"]
    return (
        keys
        + [handle._index(j["relation"], tuple(j["columns"])) for j in joins]
        + [handle._index(j["parent"], tuple(j["parent_columns"])) for j in joins]
    )


def _joined_ordinals(handle, steps: tuple, n: int) -> list[int]:
    """By full scans, the rows of the last step's relation that row ``n`` of
    the first step's relation joins along ``steps``."""
    ordinals = [n]
    for relation, columns, target, target_columns in steps:
        table = handle.relation(relation)
        idxs = [table.schema.column_index(c) for c in columns]
        keys = [tuple(table.rows[o][i] for i in idxs) for o in ordinals]
        ordinals = [m for key in keys for m in full_scan_ordinals(handle.relation(target), target_columns, key)]
    return ordinals


def test_all_catalog_indexes_match_full_scan(seed42_warehouse_dir):
    handle = open_warehouse(seed42_warehouse_dir)
    for name in handle.relation_names():  # a query on each relation builds every ordinal list it needs
        star_query(handle, StarQuery((Measure("COUNT", None),), (f"{name}.{handle.relation(name).schema.columns[0].name}",)))
    joined = {frozenset(step[0::2]) for steps, _ in handle._links for step in steps}
    assert joined == {frozenset((j["relation"], j["parent"])) for j in handle.catalog["joins"]}
    for (steps, many), links in handle._links.items():
        assert len(links) == handle.row_count(steps[0][0])
        for n, got in enumerate(links):
            assert (list(got) if many else [] if got is None else [got]) == _joined_ordinals(handle, steps, n)
    assert handle._joined
    for (steps, i), cells in handle._joined.items():  # the cells of a column those ordinals name
        assert len(cells) == handle.row_count(steps[0][0])
        target = handle.relation(steps[-1][2]).rows
        for n, got in enumerate(cells):
            assert [got] == ([target[m][i] for m in _joined_ordinals(handle, steps, n)] or [None])
    rng = random.Random(4)
    for index in catalog_indexes(handle):
        table = handle.relation(index.relation)
        keys = list(index.entries)
        sample = keys if len(keys) <= 200 else rng.sample(keys, 200)
        for key in sample:
            assert index.entries.get(key, []) == full_scan_ordinals(table, index.columns, key)


# --- load -----------------------------------------------------------------------


def test_load_writes_expected_layout(seed42_warehouse_dir):
    catalog = json.loads((seed42_warehouse_dir / "catalog.json").read_text())
    names = {p.name for p in seed42_warehouse_dir.iterdir()}
    # the catalog and one file per column of each relation; the joins describe the indexes
    files = [c["file"] for r in catalog["relations"] for c in r["columns"]]
    assert files == [f"{r['name']}.{i}.col" for r in catalog["relations"] for i in range(len(r["columns"]))]
    assert names == {"catalog.json", *files}
    assert "indexes" not in catalog
    assert catalog["format_version"] == 5
    assert catalog["frozen"] is True
    assert catalog["fact"] == "transcript"
    assert len(catalog["relations"]) == 8
    assert len(catalog["dimensions"]) == 7
    assert {"plan_hash", "source_hash", "timestamp"} <= set(catalog["build"])


def test_load_is_deterministic(tmp_path, seed42_transformed, seed42_warehouse_dir):
    out = tmp_path / "wh2"
    load(out, seed42_transformed, timestamp=TS)
    a = (seed42_warehouse_dir / "catalog.json").read_bytes()
    b = (out / "catalog.json").read_bytes()
    assert a == b


def test_load_refuses_existing_catalog(tmp_path, seed42_transformed):
    out = tmp_path / "wh"
    load(out, seed42_transformed, timestamp=TS)
    with pytest.raises(ReadOnlyError):
        load(out, seed42_transformed, timestamp=TS)


def test_load_refuses_nonempty_dir(tmp_path, seed42_transformed):
    out = tmp_path / "full"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(ValidationError):
        load(out, seed42_transformed, timestamp=TS)


def _with_fact_cells(staging, column: str, cells: dict[int, object]):
    """A copy of ``staging`` whose fact rows ``n`` hold ``cells[n]`` in ``column``."""
    staging = staging.clone()
    fact = staging.tables["transcript"]
    i = fact.schema.column_index(column)
    rows = list(fact.rows)
    for n, cell in cells.items():
        rows[n] = rows[n][:i] + (cell,) + rows[n][i + 1:]
    staging.tables["transcript"] = Table(fact.schema, rows)
    return staging


def test_load_asserts_fact_keys_resolve(tmp_path, seed42_transformed):
    staging = _with_fact_cells(seed42_transformed, "tr_st_id", {0: 999999})
    with pytest.raises(ValidationError) as exc:
        load(tmp_path / "wh", staging, timestamp=TS)
    assert "dangling dimension key" in str(exc.value)


@pytest.mark.parametrize(
    "column, cells, message",
    [  # the lowest fact ordinal is named; a Null fact key dangles too
        ("tr_st_id", {7: 888888, 3: 999999}, "fact row 3 has dangling dimension key ('999999',) into student"),
        ("se_in_id", {5: None}, "fact row 5 has dangling dimension key ('',) into instructor"),
    ],
    ids=["two-dangling-rows", "null-key"],
)
def test_load_names_the_dangling_fact_row(tmp_path, seed42_transformed, column, cells, message):
    with pytest.raises(ValidationError) as exc:
        load(tmp_path / "wh", _with_fact_cells(seed42_transformed, column, cells), timestamp=TS)
    assert str(exc.value) == message
    assert not (tmp_path / "wh").exists()


# --- open -----------------------------------------------------------------------


def test_open_verifies_and_counts(seed42_handle):
    assert len(seed42_handle.relation_names()) == 8
    assert seed42_handle.catalog["frozen"] is True


def test_open_missing_catalog(tmp_path):
    with pytest.raises(MissingInputError):
        open_warehouse(tmp_path)


def test_single_byte_flip_fails_open(tmp_path, seed42_warehouse_dir):
    rng = random.Random(12)
    files = sorted(p.name for p in seed42_warehouse_dir.iterdir())
    for trial in range(12):
        work = tmp_path / f"flip{trial}"
        shutil.copytree(seed42_warehouse_dir, work)
        victim = work / rng.choice(files)
        data = bytearray(victim.read_bytes())
        pos = rng.randrange(len(data))
        data[pos] ^= 0x01 + rng.randrange(0xFF)
        victim.write_bytes(bytes(data))
        with pytest.raises(IntegrityError):
            open_warehouse(work)
        shutil.rmtree(work)


def test_missing_relation_file_fails_open(tmp_path, seed42_warehouse_dir):
    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    (work / "alumni.0.col").unlink()
    with pytest.raises(IntegrityError) as exc:
        open_warehouse(work)
    assert "alumni.0.col" in str(exc.value)


def _forge_checksums(work, name: str) -> None:
    """Re-sign the catalog so file ``name`` passes its checksum as edited."""
    from uwh.staging import canonical_json, sha256_hex

    catalog = json.loads((work / "catalog.json").read_text())
    for entry in catalog["relations"]:
        for column in entry["columns"]:
            if column["file"] == name:
                column["checksum"] = sha256_hex((work / name).read_bytes())
    catalog["self_checksum"] = ""
    catalog["self_checksum"] = sha256_hex(canonical_json(catalog).encode())
    (work / "catalog.json").write_text(canonical_json(catalog))


def _assert_open_fails(work, capsys, name: str, words: str) -> None:
    from uwh.cli import run

    with pytest.raises(IntegrityError) as exc:
        open_warehouse(work)
    assert words in str(exc.value) and name in str(exc.value)
    assert run(["query", "--warehouse", str(work), "--measure", "COUNT(*)"]) == 5
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err


def _column_file(work, relation: str, column: str):
    """The path of the file that holds ``relation.column``."""
    catalog = json.loads((work / "catalog.json").read_text())
    entry = next(r for r in catalog["relations"] if r["name"] == relation)
    return work / next(c["file"] for c in entry["columns"] if c["name"] == column)


def test_repeated_bad_cell_in_a_relation_fails_its_first_read(tmp_path, seed42_warehouse_dir, capsys):
    # a bare column that is not a dimension key is typed when it is first
    # read, not at open; the decoder keeps no cell for unparsable text, so
    # the bad text fails that read wherever it occurs, after a good text of
    # its column too
    from uwh.cli import run

    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    victim = _column_file(work, "major", "mj_dep_id")
    first, *rest = victim.read_text().splitlines()
    victim.write_text("\n".join([first] + ["x1"] * len(rest)) + "\n")
    _forge_checksums(work, victim.name)
    handle = open_warehouse(work)
    assert run(["report", "--warehouse", str(work)]) == 0
    untouched = ["query", "--measure", "COUNT(*)", "--group-by", "mj_name", "--filter", "mj_id > 1"]
    capsys.readouterr()
    assert run([*untouched, "--warehouse", str(seed42_warehouse_dir)]) == 0
    expected = capsys.readouterr().out
    assert run([*untouched, "--warehouse", str(work)]) == 0
    assert capsys.readouterr().out == expected
    assert run(["query", "--warehouse", str(work), "--measure", "COUNT(*)", "--group-by", "mj_dep_id"]) == 5
    err = capsys.readouterr().err
    assert victim.name in err and "does not parse as its declared type" in err and "Traceback" not in err
    with pytest.raises(IntegrityError, match=f"{victim.name}: cell does not parse as its declared type"):
        handle.relation("major")


def _decoded_files(monkeypatch) -> list[str]:
    """The column files that ``open_warehouse`` and the handle type from now on."""
    import uwh.warehouse as W

    files, decode = [], W.decode_column

    def counted(data, file, vtype):
        files.append(file)
        return decode(data, file, vtype)

    monkeypatch.setattr(W, "decode_column", counted)
    return files


def test_open_types_only_the_dimension_keys(seed42_warehouse_dir, monkeypatch):
    files = _decoded_files(monkeypatch)
    handle = open_warehouse(seed42_warehouse_dir)
    keys = [_column_file(seed42_warehouse_dir, d["name"], d["key"]).name for d in handle.catalog["dimensions"]]
    assert len(keys) == 7 and sorted(files) == sorted(keys)


def test_a_query_types_each_column_it_reads_once_per_handle(seed42_warehouse_dir, monkeypatch):
    handle = open_warehouse(seed42_warehouse_dir)
    files = _decoded_files(monkeypatch)
    query = StarQuery(
        (Measure("AVG", "tr_grade"), Measure("SUM", "re_amount")), ("dep_name", "act_type"), (Filter("tr_year", ">=", 2000),)
    )
    first = star_query(handle, query).rows
    read = {"transcript": ["tr_grade", "tr_year", "dep_name", "tr_st_id"], "account": ["ac_st_id"],
            "receipt": ["re_amount", "re_ac_id"], "registeredActivities": ["act_type", "reg_st_id"]}
    assert sorted(files) == sorted(_column_file(seed42_warehouse_dir, r, c).name for r, cs in read.items() for c in cs)
    files.clear()
    assert star_query(handle, query).rows == first and files == []


def _old_descriptors(catalog: dict) -> list[dict]:
    """The index descriptors formats 1 to 3 recorded: a unique index per
    dimension key, then one per fact column set a dimension joins on."""
    descriptors = [{"relation": d["name"], "columns": [d["key"]], "unique": True} for d in catalog["dimensions"]]
    fact = catalog["fact"]
    return descriptors + [
        {"relation": fact, "columns": j["parent_columns"], "unique": False} for j in catalog["joins"] if j["parent"] == fact
    ]


@pytest.mark.parametrize("version", [1, 2, 3, 4], ids=["format-1", "format-2", "format-3", "format-4"])
def test_old_format_catalog_is_refused(tmp_path, seed42_warehouse_dir, seed42_handle, capsys, version):
    # a warehouse as an older format wrote it, its self checksum forged to
    # match, is refused: no shim. Formats 1 to 4 stored each relation as
    # one CSV file, named with its checksum in the relation's entry.
    # Format 3 also kept a {relation, columns, unique} descriptor per
    # index; formats 1 and 2 also wrote a sidecar per index, named with its
    # checksum in the descriptor, and format 1's descriptors also held a
    # "kind"
    from uwh.staging import render_table_csv
    from uwh.warehouse import sha256_hex

    sidecars = {}

    def downgrade(catalog: dict) -> None:
        catalog["format_version"] = version
        for entry in catalog["relations"]:
            entry["file"] = f"{entry['name']}.csv"
            sidecars[entry["file"]] = render_table_csv(seed42_handle.relation(entry["name"])).encode()
            entry["checksum"] = sha256_hex(sidecars[entry["file"]])
            for column in entry["columns"]:
                del column["file"], column["checksum"]
        if version == 4:
            return
        catalog["indexes"] = _old_descriptors(catalog)
        if version == 3:
            return
        for entry in catalog["indexes"]:
            entry["file"] = f"{entry['relation']}.{'+'.join(entry['columns'])}.idx"
            index = table_index(seed42_handle.relation(entry["relation"]), tuple(entry["columns"]))
            sidecars[entry["file"]] = render_index(index).encode()
            entry["checksum"] = sha256_hex(sidecars[entry["file"]])
            if version == 1:
                entry["kind"] = "hash"

    work = _forged(tmp_path, seed42_warehouse_dir, downgrade)
    for path in work.glob("*.col"):
        path.unlink()
    for name, data in sidecars.items():
        (work / name).write_bytes(data)
    _assert_open_fails(work, capsys, "catalog.json", "format_version")


def _dimension(catalog: dict, name: str) -> dict:
    return next(d for d in catalog["dimensions"] if d["name"] == name)


def _arm_join(catalog: dict) -> dict:
    return next(j for j in catalog["joins"] if j["parent"] != catalog["fact"])


def _join(catalog: dict, relation: str) -> dict:
    return next(j for j in catalog["joins"] if j["relation"] == relation)


def _file_outside_directory(catalog: dict) -> None:
    # out of the warehouse directory and back to the same bytes, so the
    # checksum matches and only the file name is wrong
    column = catalog["relations"][0]["columns"][0]
    column["file"] = f"../wh/{column['file']}"


def _column_files_swapped(catalog: dict) -> None:
    # each file keeps its checksum, so only the position rule tells that
    # the fact's second column would be read from the file of its third
    first, second = catalog["relations"][0]["columns"][1:3]
    for key in ("file", "checksum"):
        first[key], second[key] = second[key], first[key]


_CATALOG_FORGERIES = {
    "unknown-type": lambda c: c["relations"][0]["columns"][0].update(type="FLOAT"),
    "relation-without-file": lambda c: c["relations"][0]["columns"][0].pop("file"),
    "relation-file-outside-directory": _file_outside_directory,
    "column-file-off-position": _column_files_swapped,
    "relation-without-columns": lambda c: c["relations"][0].update(columns=[]),
    "dimensions-not-a-list": lambda c: c.update(dimensions=5),
    "row-count-as-text": lambda c: c["relations"][1].update(row_count=str(c["relations"][1]["row_count"])),
    "dimension-key-on-unknown-column": lambda c: c["dimensions"][0].update(key="nope"),
    "dimension-key-not-unique": lambda c: _dimension(c, "student").update(key="st_major_id"),
    "dimension-missing": lambda c: c["dimensions"].remove(_dimension(c, "student")),
    "dimension-twice": lambda c: c["dimensions"].append(dict(_dimension(c, "student"))),
    "fact-not-a-relation": lambda c: c.update(fact="payroll"),
    "fact-missing": lambda c: c.pop("fact"),
    "joins-not-a-list": lambda c: c.update(joins={}),
    "join-on-unknown-column": lambda c: c["joins"][0].update(columns=["nope"]),
    "join-to-unknown-relation": lambda c: _arm_join(c).update(parent="payroll"),
    "join-chain-cycle": lambda c: _arm_join(c).update(parent=_arm_join(c)["relation"], parent_columns=_arm_join(c)["columns"]),
    "join-twice": lambda c: c["joins"].append(dict(_join(c, "major"))),
    "join-parent-columns-longer": lambda c: _join(c, "major")["parent_columns"].append("st_id"),
    "join-without-columns": lambda c: _join(c, "major").update(columns=[], parent_columns=[]),
    # no value changes, so only the signed bytes tell
    "catalog-white-space": lambda c: lambda text: text.replace('": ', '" : ', 1),
}


def _forged(tmp_path, warehouse_dir, forge):
    """A copy of the warehouse whose catalog ``forge`` edited and re-signed;
    a ``forge`` that returns a function edits the signed text with it."""
    from uwh.staging import canonical_json, sha256_hex

    work = tmp_path / "wh"
    shutil.copytree(warehouse_dir, work)
    catalog = json.loads((work / "catalog.json").read_text())
    edit = forge(catalog)
    catalog["self_checksum"] = ""
    catalog["self_checksum"] = sha256_hex(canonical_json(catalog).encode())
    text = canonical_json(catalog)
    (work / "catalog.json").write_text(edit(text) if callable(edit) else text)
    return work


@pytest.mark.parametrize("forge", _CATALOG_FORGERIES.values(), ids=_CATALOG_FORGERIES.keys())
def test_forged_catalog_fails_open(tmp_path, seed42_warehouse_dir, capsys, forge):
    # a catalog can pass its self checksum and still be malformed: open
    # refuses it as an integrity failure naming the catalog, never a crash
    _assert_open_fails(_forged(tmp_path, seed42_warehouse_dir, forge), capsys, "catalog.json", "malformed")


def test_duplicate_key_under_a_unique_index_fails_open(tmp_path, seed42_warehouse_dir, capsys):
    # the relation's data, not the catalog, breaks the unique dimension key:
    # one st_id repeated in its column file, both checksums forged to match
    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    victim = _column_file(work, "student", "st_id")
    st_id, _, *rest = victim.read_text().splitlines()
    victim.write_text("\n".join([st_id, st_id, *rest]) + "\n")
    _forge_checksums(work, victim.name)
    _assert_open_fails(
        work, capsys, "catalog.json", f"malformed: unique index on student(st_id): duplicate key ('{st_id}',)"
    )


def test_join_cycle_in_catalog_is_named(tmp_path, seed42_warehouse_dir):
    # a cycle in the joins would make a query walk it forever
    work = _forged(tmp_path, seed42_warehouse_dir, _CATALOG_FORGERIES["join-chain-cycle"])
    with pytest.raises(IntegrityError, match="does not reach the fact"):
        open_warehouse(work)


def test_catalog_build_record_comes_from_the_staging(seed42_warehouse_dir, seed42_transformed):
    import hashlib

    from uwh import canonical
    from uwh.plan import pretty_plan
    from uwh.staging import staging_fingerprint

    build = json.loads((seed42_warehouse_dir / "catalog.json").read_text())["build"]
    assert build["source_hash"] == staging_fingerprint(seed42_transformed)
    assert build["plan_hash"] == hashlib.sha256(pretty_plan(canonical.canonical_plan()).encode()).hexdigest()
    assert build["timestamp"] == TS


@pytest.mark.parametrize("reports", [{}, {"transform": "x"}, {"transform": {"plan_hash": 5}}, []])
def test_load_without_a_well_formed_transform_report_records_no_plan_hash(tmp_path, seed42_transformed, reports):
    staging = seed42_transformed.clone()
    staging.reports = reports
    assert load(tmp_path / "wh", staging, timestamp=TS)["build"]["plan_hash"] == ""
    assert open_warehouse(tmp_path / "wh").catalog["build"]["plan_hash"] == ""


def _bad_integer(lines: list[bytes]) -> None:
    lines[1] = b"12x"  # st_id is INTEGER


def _extra_field(lines: list[bytes]) -> None:
    lines[1] += b",extra"


def _last_row_removed(lines: list[bytes]) -> None:
    del lines[-2]  # lines[-1] is the empty text after the final newline


def _invalid_utf8(lines: list[bytes]) -> None:
    lines[1] += b"\xff"


def _unterminated_quote(lines: list[bytes]) -> None:
    lines[1] = b'"' + lines[1]  # the file holds no other quote


# a column file renamed or swapped in the catalog is a forged catalog
# (``column-file-off-position``): the position rule refuses it
# st_id is a dimension key, which open types; tr_grade is typed on first
# read, but open still checks its UTF-8 and its line count
@pytest.mark.parametrize(
    "column, tamper, words",
    [
        ("st_id", _bad_integer, "does not parse as its declared type"),
        ("st_id", _extra_field, "is not one field and a line end"),
        ("st_id", _last_row_removed, "row count"),
        ("st_id", _invalid_utf8, "not valid UTF-8"),
        ("st_id", _unterminated_quote, "unterminated quoted field"),
        ("tr_grade", _last_row_removed, "row count"),
        ("tr_grade", _invalid_utf8, "not valid UTF-8"),
    ],
    ids=[
        "bad-integer", "extra-field", "last-row-removed", "invalid-utf8", "unterminated-quote",
        "tr_grade-last-row-removed", "tr_grade-invalid-utf8",
    ],
)
def test_tampered_relation_fails_open(tmp_path, seed42_warehouse_dir, capsys, column, tamper, words):
    # the column file's checksum and the catalog's self checksum are forged
    # to match, so only decoding the column can notice the edit
    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    victim = _column_file(work, "transcript" if column == "tr_grade" else "student", column)
    lines = victim.read_bytes().split(b"\n")
    tamper(lines)
    victim.write_bytes(b"\n".join(lines))
    _forge_checksums(work, victim.name)
    _assert_open_fails(work, capsys, victim.name, words)


def test_crlf_relation_with_forged_checksums_opens(tmp_path, seed42_warehouse_dir):
    # accepted, as README says: CRLF line ends in column files decode to
    # the same rows, so the indexes built from them and every query answer
    # as before
    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    for victim in sorted(work.glob("student.*.col")):
        data = victim.read_bytes()
        assert b"\r" not in data
        victim.write_bytes(data.replace(b"\n", b"\r\n"))
        _forge_checksums(work, victim.name)
    assert open_warehouse(work).relation("student").rows == open_warehouse(seed42_warehouse_dir).relation("student").rows


def test_handle_surface_is_read_only(seed42_handle):
    mutators = [n for n in dir(seed42_handle) if not n.startswith("_")
                and any(w in n.lower() for w in ("write", "insert", "update", "delete", "drop", "set", "append", "remove"))]
    assert mutators == []
    # relation() hands out copies, so callers cannot mutate warehouse state
    rel = seed42_handle.relation("student")
    n = len(rel.rows)
    rel.rows.clear()
    assert len(seed42_handle.relation("student").rows) == n


# --- star_query -----------------------------------------------------------------


def test_count_star_equals_fact_rows(seed42_handle):
    result = star_query(seed42_handle, StarQuery((Measure("COUNT", None),)))
    assert result.rows == [(seed42_handle.row_count("transcript"),)]


def test_filter_on_absent_year_yields_empty(seed42_handle):
    result = star_query(
        seed42_handle, StarQuery((Measure("AVG", "tr_grade"),), (), (Filter("tr_year", "=", 1900),))
    )
    assert result.rows == []


def test_group_by_semester_partitions_count(seed42_handle):
    total = star_query(seed42_handle, StarQuery((Measure("COUNT", None),))).rows[0][0]
    by_sem = star_query(seed42_handle, StarQuery((Measure("COUNT", None),), ("tr_semester", "tr_year")))
    assert sum(r[-1] for r in by_sem.rows) == total
    assert len(by_sem.rows) == 3


def test_avg_grade_by_department_matches_bruteforce(seed42_handle):
    q = StarQuery((Measure("AVG", "tr_grade"),), ("dep_name",))
    got = star_query(seed42_handle, q)
    assert got.rows == star_aggregate_bruteforce(seed42_handle, q)
    assert got.schema.column_names == ("dep_name", "avg_tr_grade")


def test_snowflake_arm_query_matches_bruteforce(seed42_handle):
    q = StarQuery(
        (Measure("SUM", "re_amount"), Measure("COUNT", "re_id")),
        ("st_gender",),
        (Filter("re_paidOnDueDate", "=", True),),
    )
    assert star_query(seed42_handle, q).rows == star_aggregate_bruteforce(seed42_handle, q)


def test_multi_arm_query_matches_bruteforce(seed42_handle):
    q = StarQuery((Measure("COUNT", None),), ("act_type", "mj_name"))
    assert star_query(seed42_handle, q).rows == star_aggregate_bruteforce(seed42_handle, q)


def test_min_max_on_text_and_date(seed42_handle):
    q = StarQuery((Measure("MIN", "st_name"), Measure("MAX", "al_gradDate")), ("dep_name",))
    assert star_query(seed42_handle, q).rows == star_aggregate_bruteforce(seed42_handle, q)


def test_filter_literals_coerce_to_the_column_type(seed42_handle):
    def count(*filters):
        return star_query(seed42_handle, StarQuery((Measure("COUNT", None),), (), filters)).rows

    # an integral DECIMAL narrows to INTEGER in a filter, and ISO text becomes a DATE
    assert count(Filter("tr_year", "=", make_decimal("2012"))) == count(Filter("tr_year", "=", 2012))
    assert count(Filter("al_gradDate", ">=", "2010-01-01")) == star_aggregate_bruteforce(
        seed42_handle, StarQuery((Measure("COUNT", None),), (), (Filter("al_gradDate", ">=", "2010-01-01"),))
    )
    for bad in [
        Filter("tr_year", "=", make_decimal("2012.5")),
        Filter("tr_year", "=", "2012"),
        Filter("al_gradDate", "=", "2010-02-30"),
        Filter("st_name", "=", 3),
    ]:
        with pytest.raises(ValidationError, match="filter"):
            count(bad)


def test_query_validation_errors(seed42_handle):
    with pytest.raises(ValidationError):
        star_query(seed42_handle, StarQuery((Measure("SUM", "st_name"),)))  # SUM over TEXT
    with pytest.raises(ValidationError):
        star_query(seed42_handle, StarQuery((Measure("AVG", "nothing"),)))
    with pytest.raises(ValidationError):
        # BOOLEAN attributes admit equality filters only
        star_query(
            seed42_handle,
            StarQuery((Measure("AVG", "tr_grade"),), ("tr_year",), (Filter("re_paidOnDueDate", "<", True),)),
        )
    with pytest.raises(ValidationError):
        star_query(seed42_handle, StarQuery(()))
    with pytest.raises(ValidationError):
        star_query(seed42_handle, StarQuery((Measure("MEDIAN", "tr_grade"),)))


def test_qualified_attribute_resolution(seed42_handle):
    a = star_query(seed42_handle, StarQuery((Measure("COUNT", "student.st_id"),)))
    b = star_query(seed42_handle, StarQuery((Measure("COUNT", "st_id"),)))
    assert a.rows == b.rows
    # qualified measures still yield identifier-shaped result columns
    assert a.schema.column_names == ("count_student_st_id",)


def test_group_ordering_is_ascending(seed42_handle):
    rows = star_query(seed42_handle, StarQuery((Measure("COUNT", None),), ("dep_name",))).rows
    names = [r[0] for r in rows]
    assert names == sorted(names)


def test_decimal_filter_literal_coercion(seed42_handle):
    q = StarQuery((Measure("COUNT", None),), (), (Filter("tr_grade", ">=", 90),))
    got = star_query(seed42_handle, q).rows
    assert got == star_aggregate_bruteforce(seed42_handle, q)


# --- measure / filter parsing -----------------------------------------------------


def test_parse_measure_forms():
    assert parse_measure("AVG(tr_grade)") == Measure("AVG", "tr_grade")
    assert parse_measure("count(*)") == Measure("COUNT", None)
    assert parse_measure("COUNT( * )") == Measure("COUNT", None)
    assert parse_measure("sum(receipt.re_amount)") == Measure("SUM", "receipt.re_amount")
    from uwh.errors import ParseError

    for bad in ("AVG", "AVG()", "MEDIAN(x)", "AVG(x,y)", "AVG(x) extra"):
        with pytest.raises(ParseError):
            parse_measure(bad)


def test_parse_measure_keyword_spelled_column_after_the_dot():
    assert parse_measure("MAX(t.date)") == Measure("MAX", "t.date")


def test_parse_filter_keyword_spelled_column_after_the_dot():
    assert parse_filter("t.date = 1") == Filter("t.date", "=", 1)


def test_parse_measure_keyword_spelled_bare_column():
    assert parse_measure("MAX(date)") == Measure("MAX", "date")
    assert parse_measure("MIN(group.key)") == Measure("MIN", "group.key")


def test_parse_filter_keyword_spelled_bare_column():
    assert parse_filter("date = 1") == Filter("date", "=", 1)
    assert parse_filter("group.date <> 'x'") == Filter("group.date", "<>", "x")


def test_parse_filter_forms():
    assert parse_filter("tr_year = 2012") == Filter("tr_year", "=", 2012)
    assert parse_filter("dep_name = 'Biology'") == Filter("dep_name", "=", "Biology")
    assert parse_filter("tr_grade >= 72.5") == Filter("tr_grade", ">=", make_decimal("72.5"))
    assert parse_filter("re_paidOnDueDate = TRUE") == Filter("re_paidOnDueDate", "=", True)
    assert parse_filter("student.st_gender <> 'M'") == Filter("student.st_gender", "<>", "M")
    from uwh.errors import ParseError

    for bad in ("tr_year ~ 3", "= 3", "tr_year = ", "tr_year = 1 extra", "st_name = 'a"):
        with pytest.raises(ParseError, match="bad filter"):
            parse_filter(bad)
