"""Metamorphic relations over extract and cleanse: an edit of the source
CSVs whose effect on the dumps is known in advance, checked byte for byte
on a generated drop (seed 5, 200 students, dirty-rate 0.1), as is a
change of ``--timestamp``; CRLF line ends checked against the seed-42
golden warehouse, and shuffled source rows checked against the seed-42
relations as row multisets.
"""

from __future__ import annotations

import json
import random
import shutil
from collections import Counter

import pytest

from conftest import TS
from test_golden import WAREHOUSE, _digests
from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.cli import run
from uwh.csvio import format_row, iter_records
from uwh.datagen import GenConfig, generate
from uwh.ingest import extract_database
from uwh.staging import dumps_staging
from uwh.transform import execute_plan
from uwh.warehouse import load


def _dumps(src):
    """(extract dump, cleanse dump, cleansed staging) of source directory ``src``."""
    staging, _ = extract_database(src, canonical.canonical_schema(), timestamp=TS)
    cleansed, _ = cleanse_staging(staging, list(canonical.canonical_rules()), timestamp=TS)
    return dumps_staging(staging), dumps_staging(cleansed), cleansed


@pytest.fixture(scope="module")
def drop(tmp_path_factory):
    src = tmp_path_factory.mktemp("metamorphic") / "src"
    generate(GenConfig(seed=5, students=200, dirty_rate=0.1), src)
    return src, *_dumps(src)


def _copy(src, tmp_path):
    out = tmp_path / "src"
    shutil.copytree(src, out)
    return out


def _permute_columns(text: str, perm: list[int] | None = None, end: str = "\n") -> str:
    """The records of ``text``, each with its fields in ``perm`` order (as
    they are by default), each ended by ``end``."""
    lines = []
    for fields, quoted in iter_records(text):
        flags = quoted or [False] * len(fields)
        lines.append(format_row([(fields[j], flags[j]) for j in perm or range(len(fields))]))
    return end.join(lines) + end


def test_permuted_source_columns_give_identical_dumps(drop, tmp_path):
    src, extracted, cleansed, _ = drop
    permuted = _copy(src, tmp_path)
    rng = random.Random(7)
    for schema in canonical.canonical_schema():
        n = len(schema.columns)
        perm = list(range(n))
        while n > 1 and perm == sorted(perm):  # every table with two or more columns moves
            rng.shuffle(perm)
        path = permuted / f"{schema.name}.csv"
        path.write_text(_permute_columns(path.read_text(encoding="utf-8"), perm), encoding="utf-8")
    assert (permuted / "student.csv").read_bytes() != (src / "student.csv").read_bytes()
    extracted2, cleansed2, _ = _dumps(permuted)
    assert extracted2 == extracted
    assert cleansed2 == cleansed


def _record(data: bytes) -> dict:
    """The leaves of a dump's ``meta.json`` by path, but for its self
    checksum, which moves with any other leaf."""
    leaves = dict(_leaves(json.loads(data)))
    del leaves["self_checksum",]
    return leaves


def _leaves(value, path=()):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(value, list):
        for k, v in enumerate(value):
            yield from _leaves(v, path + (k,))
    else:
        yield path, value


def test_exact_copy_of_surviving_student_changes_only_counts(drop, tmp_path):
    src, _, cleansed, cleansed_staging = drop
    survivors = {row[0] for row in cleansed_staging.tables["student"].rows}  # st_id
    lines = (src / "student.csv").read_text(encoding="utf-8").split("\n")
    at = next(
        i for i, line in enumerate(lines[1:], 1)
        if line and int(line.split(",")[0]) in survivors and lines.count(line) == 1
    )
    lines.insert(at + 1, lines[at])
    copied = _copy(src, tmp_path)
    (copied / "student.csv").write_text("\n".join(lines), encoding="utf-8")
    _, cleansed2, _ = _dumps(copied)

    # every table and quarantine file is byte-identical
    assert sorted(cleansed2) == sorted(cleansed)
    assert [f for f in cleansed if cleansed[f] != cleansed2[f]] == ["meta.json"]

    # the report moves by one row: read, staged, into cleanse and past each
    # student rule, then removed as an exact duplicate
    before = _record(cleansed["meta.json"])
    after = _record(cleansed2["meta.json"])
    assert before.keys() == after.keys()
    moved = {path for path in before if before[path] != after[path]}
    rules = len(cleansed_staging.reports["cleanse"]["tables"]["student"]["rules"])
    assert moved == {
        ("reports", "extraction", "tables", "student", "rows_read"),
        ("reports", "extraction", "tables", "student", "rows_staged"),
        ("reports", "cleanse", "tables", "student", "rows_in"),
        ("reports", "cleanse", "dedup", "student", "exact_removed"),
    } | {("reports", "cleanse", "tables", "student", "rules", r, "cells_examined") for r in range(rules)}
    assert all(after[path] == before[path] + 1 for path in moved)


def _stages(src, out, timestamp: str) -> dict[str, bytes]:
    """The files of the staging dump that extract, cleanse and transform
    write to ``out`` from ``src``, each run with ``--timestamp``."""
    for argv in (
        ["extract", "--src", str(src), "--out", str(out)],
        ["cleanse", "--staging", str(out)],
        ["transform", "--staging", str(out)],
    ):
        assert run([*argv, "--timestamp", timestamp]) == 0
    return {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def test_the_timestamp_moves_only_the_timestamps_of_meta_json(drop, tmp_path):
    src = drop[0]
    first = _stages(src, tmp_path / "a", TS)
    assert _stages(src, tmp_path / "b", TS) == first
    later = _stages(src, tmp_path / "c", "2027-06-30T12:00:00Z")
    assert [f for f in first if first[f] != later[f]] == ["meta.json"] and later.keys() == first.keys()
    before = _record(first["meta.json"])
    after = _record(later["meta.json"])
    assert before.keys() == after.keys()
    moved = {path: after[path] for path in before if before[path] != after[path]}
    assert moved == {("reports", stage, "timestamp"): "2027-06-30T12:00:00Z" for stage in ("extraction", "cleanse", "transform")}


def test_crlf_sources_give_the_golden_warehouse(seed42_src, tmp_path):
    """CRLF line ends send every record through the general parser, and the
    seed-42 warehouse built from them is the one ``test_golden`` pins."""
    crlf = _copy(seed42_src, tmp_path)
    for schema in canonical.canonical_schema():
        path = crlf / f"{schema.name}.csv"
        path.write_bytes(_permute_columns(path.read_text(encoding="utf-8"), end="\r\n").encode("utf-8"))
    assert (crlf / "student.csv").read_bytes().count(b"\r\n") > 100
    staging, _ = extract_database(crlf, canonical.canonical_schema(), timestamp=TS)
    cleansed, _ = cleanse_staging(staging, list(canonical.canonical_rules()), timestamp=TS)
    transformed, _ = execute_plan(cleansed, canonical.canonical_plan(), timestamp=TS)
    load(tmp_path / "wh", transformed, timestamp=TS)
    assert _digests(tmp_path / "wh") == WAREHOUSE


def _shuffle_rows(text: str, rng: random.Random) -> str:
    """``text`` with its data rows, not its header, in a random order."""
    header, *rows = [format_row(list(zip(fields, quoted or [False] * len(fields)))) for fields, quoted in iter_records(text)]
    rng.shuffle(rows)
    return "\n".join([header, *rows]) + "\n"


def _pk_conflicts(staging) -> int:
    return sum(qr.reason == "pk-conflict" for q in staging.quarantine.values() for qr in q.rows)


def test_shuffled_source_rows_give_the_same_relations(seed42_src, seed42_transformed, tmp_path):
    """Row order is not data: each warehouse relation holds the same rows,
    counted with repeats. This holds only while no two source rows share a
    key with different content, since dedup keeps the first of those and
    quarantines the rest as pk-conflict, so the test checks that first."""
    shuffled = _copy(seed42_src, tmp_path)
    rng = random.Random(7)
    for schema in canonical.canonical_schema():
        path = shuffled / f"{schema.name}.csv"
        path.write_text(_shuffle_rows(path.read_text(encoding="utf-8"), rng), encoding="utf-8")
    assert (shuffled / "student.csv").read_bytes() != (seed42_src / "student.csv").read_bytes()
    _, _, cleansed = _dumps(shuffled)
    transformed, _ = execute_plan(cleansed, canonical.canonical_plan(), timestamp=TS)
    assert _pk_conflicts(seed42_transformed) == _pk_conflicts(transformed) == 0
    relations = [seed42_transformed.fact_table, *(name for name, _ in seed42_transformed.dimensions)]
    assert [transformed.fact_table, *(name for name, _ in transformed.dimensions)] == relations
    for name in relations:
        assert Counter(transformed.tables[name].rows) == Counter(seed42_transformed.tables[name].rows), name
