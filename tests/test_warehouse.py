from __future__ import annotations

import json
import random
import shutil

import pytest

from oracles import full_scan_ordinals, star_aggregate_bruteforce
from uwh.errors import IntegrityError, MissingInputError, ReadOnlyError, ValidationError
from uwh.manifest import parse_schema_manifest
from uwh.schema import Table
from uwh.values import make_decimal
from uwh.warehouse import (
    Filter,
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


def test_unique_hash_index_thousand_probes(seed42_handle):
    student = seed42_handle.relation("student")
    index = build_index(student, ("st_id",), "hash", unique=True)
    keys = [row[0] for row in student.rows]
    rng = random.Random(9)
    probes = [(k,) for k in keys] + [(rng.randint(-10_000, 10_000),) for _ in range(1000)]
    for key in probes:
        assert index.lookup(key) == full_scan_ordinals(student, ("st_id",), key)


def test_unique_index_rejects_duplicates():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n  v INTEGER\n")
    t = Table(db.tables["t"], [(1, 5), (2, 5)])
    with pytest.raises(ValidationError) as exc:
        build_index(t, ("v",), "hash", unique=True)
    assert "duplicate key" in str(exc.value)


def test_empty_relation_index():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    index = build_index(Table(db.tables["t"], []), ("id",), "hash", unique=True)
    assert index.lookup((1,)) == []
    assert render_index(index) == ""


def test_ordered_index_range_scan(seed42_handle):
    fact = seed42_handle.relation("transcript")
    index = seed42_handle.index("transcript", ("tr_semester", "tr_year"))
    assert index.kind == "ordered"
    got = sorted(index.range_scan(("FALL", 2011), ("FALL", 2011)))
    sem = fact.schema.column_index("tr_semester")
    yr = fact.schema.column_index("tr_year")
    expected = [n for n, row in enumerate(fact.rows) if row[sem] == "FALL" and row[yr] == 2011]
    assert got == expected
    full = sorted(index.range_scan(("A", 0), ("Z", 9999)))
    assert full == list(range(len(fact.rows)))


def test_all_catalog_indexes_match_full_scan(seed42_handle):
    rng = random.Random(4)
    for index in seed42_handle.indexes():
        table = seed42_handle.relation(index.relation)
        keys = list(index.entries)
        sample = keys if len(keys) <= 200 else rng.sample(keys, 200)
        for key in sample:
            assert index.lookup(key) == full_scan_ordinals(table, index.columns, key)


# --- load -----------------------------------------------------------------------


def test_load_writes_expected_layout(seed42_warehouse_dir):
    names = {p.name for p in seed42_warehouse_dir.iterdir()}
    assert "catalog.json" in names
    csvs = {n for n in names if n.endswith(".csv")}
    assert len(csvs) == 8
    idx = {n for n in names if n.endswith(".idx")}
    assert len(idx) == 10  # 7 dim keys + 2 fact key columns + 1 ordered
    catalog = json.loads((seed42_warehouse_dir / "catalog.json").read_text())
    assert catalog["format_version"] == 1
    assert catalog["frozen"] is True
    assert catalog["fact"] == "transcript"
    assert len(catalog["relations"]) == 8
    assert len(catalog["dimensions"]) == 7
    assert {"plan_hash", "source_hash", "timestamp"} <= set(catalog["build"])


def test_load_is_deterministic(tmp_path, seed42_transformed, seed42_warehouse_dir):
    snow = assemble_snowflake(
        seed42_transformed.tables, seed42_transformed.fact_table, seed42_transformed.dimensions
    )
    out = tmp_path / "wh2"
    load(out, snow, seed42_transformed, timestamp=TS, plan_hash="", source_hash="")
    a = (seed42_warehouse_dir / "catalog.json").read_bytes()
    b = (out / "catalog.json").read_bytes()
    assert a == b


def test_load_refuses_existing_catalog(tmp_path, seed42_transformed):
    snow = assemble_snowflake(
        seed42_transformed.tables, seed42_transformed.fact_table, seed42_transformed.dimensions
    )
    out = tmp_path / "wh"
    load(out, snow, seed42_transformed, timestamp=TS)
    with pytest.raises(ReadOnlyError):
        load(out, snow, seed42_transformed, timestamp=TS)


def test_load_refuses_nonempty_dir(tmp_path, seed42_transformed):
    snow = assemble_snowflake(
        seed42_transformed.tables, seed42_transformed.fact_table, seed42_transformed.dimensions
    )
    out = tmp_path / "full"
    out.mkdir()
    (out / "junk.txt").write_text("x")
    with pytest.raises(ValidationError):
        load(out, snow, seed42_transformed, timestamp=TS)


def test_load_asserts_fact_keys_resolve(tmp_path, seed42_transformed):
    staging = seed42_transformed.clone()
    fact = staging.tables["transcript"]
    st = fact.schema.column_index("tr_st_id")
    rows = list(fact.rows)
    rows[0] = rows[0][:st] + (999999,) + rows[0][st + 1:]
    staging.tables["transcript"] = Table(fact.schema, rows)
    snow = assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    with pytest.raises(ValidationError) as exc:
        load(tmp_path / "wh", snow, staging, timestamp=TS)
    assert "dangling dimension key" in str(exc.value)


# --- open -----------------------------------------------------------------------


def test_open_verifies_and_counts(seed42_handle):
    assert len(seed42_handle.relation_names()) == 8
    assert seed42_handle.notices == []
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
    (work / "alumni.csv").unlink()
    with pytest.raises(IntegrityError) as exc:
        open_warehouse(work)
    assert "alumni.csv" in str(exc.value)


def test_missing_sidecar_rebuilds_with_notice(tmp_path, seed42_warehouse_dir):
    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    (work / "student.st_id.idx").unlink()
    handle = open_warehouse(work)
    assert any("student.st_id.idx" in n for n in handle.notices)
    index = handle.index("student", ("st_id",))
    student = handle.relation("student")
    for row in student.rows:
        assert index.lookup((row[0],)) == full_scan_ordinals(student, ("st_id",), (row[0],))


def _wrong_ordinals(lines: list[str]) -> str:
    lines[0] = lines[0].rsplit("\t", 1)[0] + "\t7"
    lines[1] = lines[1].rsplit("\t", 1)[0] + "\t0"
    return "\n".join(lines) + "\n"


def _swapped_lines(lines: list[str]) -> str:
    lines[0], lines[1] = lines[1], lines[0]
    return "\n".join(lines) + "\n"


def _crlf(lines: list[str]) -> str:
    return "\r\n".join(lines) + "\r\n"


@pytest.mark.parametrize(
    "tamper", [_wrong_ordinals, _swapped_lines, _crlf], ids=["wrong-ordinals", "swapped-lines", "crlf"]
)
def test_tampered_sidecar_content_fails_cross_check(tmp_path, seed42_warehouse_dir, capsys, tamper):
    # a sidecar that matches its checksum but is not the index rendered
    # from the data is caught, even when it decodes to the same entries
    from uwh.cli import run
    from uwh.warehouse import canonical_json, sha256_hex

    work = tmp_path / "wh"
    shutil.copytree(seed42_warehouse_dir, work)
    victim = work / "student.st_id.idx"
    victim.write_bytes(tamper(victim.read_text().splitlines()).encode())
    catalog = json.loads((work / "catalog.json").read_text())
    for entry in catalog["indexes"]:
        if entry["file"] == "student.st_id.idx":
            entry["checksum"] = sha256_hex(victim.read_bytes())
    catalog["self_checksum"] = ""
    catalog["self_checksum"] = sha256_hex(canonical_json(catalog).encode())
    (work / "catalog.json").write_text(canonical_json(catalog))
    with pytest.raises(IntegrityError) as exc:
        open_warehouse(work)
    assert "disagrees" in str(exc.value) and "student.st_id.idx" in str(exc.value)
    assert run(["query", "--warehouse", str(work), "--measure", "COUNT(*)"]) == 5
    assert "student.st_id.idx" in capsys.readouterr().err


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


def test_parse_filter_forms():
    assert parse_filter("tr_year = 2012") == Filter("tr_year", "=", 2012)
    assert parse_filter("dep_name = 'Biology'") == Filter("dep_name", "=", "Biology")
    assert parse_filter("tr_grade >= 72.5") == Filter("tr_grade", ">=", make_decimal("72.5"))
    assert parse_filter("re_paidOnDueDate = TRUE") == Filter("re_paidOnDueDate", "=", True)
    assert parse_filter("student.st_gender <> 'M'") == Filter("student.st_gender", "<>", "M")
    from uwh.errors import ParseError

    for bad in ("tr_year ~ 3", "= 3", "tr_year = ", "tr_year = 1 extra"):
        with pytest.raises(ParseError):
            parse_filter(bad)
