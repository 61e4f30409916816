from __future__ import annotations

import filecmp
import json

import pytest

from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.csvio import parse_csv
from uwh.datagen import GenConfig, generate, load_ledger
from uwh.errors import ValidationError
from uwh.ingest import extract_database
from uwh.schema import check_referential_integrity, check_row, validate_schema


def _gen(tmp_path, **kwargs):
    out = tmp_path / "src"
    config = GenConfig(**kwargs)
    ledger = generate(config, out)
    return out, ledger


def test_same_seed_is_byte_identical(tmp_path):
    a, _ = _gen(tmp_path / "a", seed=42, students=40, dirty_rate=0.05)
    b, _ = _gen(tmp_path / "b", seed=42, students=40, dirty_rate=0.05)
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == []


def test_different_seed_differs(tmp_path):
    a, _ = _gen(tmp_path / "a", seed=1, students=40)
    b, _ = _gen(tmp_path / "b", seed=2, students=40)
    assert (a / "student.csv").read_text() != (b / "student.csv").read_text()


def test_student_count_is_exact(tmp_path):
    out, _ = _gen(tmp_path, seed=42, students=100)
    records = parse_csv((out / "student.csv").read_text())
    assert len(records) - 1 == 100


def test_fourteen_tables_plus_ledger_and_manifest(tmp_path):
    out, _ = _gen(tmp_path, seed=42, students=10)
    csvs = {p.name for p in out.glob("*.csv")}
    assert len(csvs) == 14 + 1  # tables + dirt ledger
    assert "dirt_ledger.csv" in csvs
    manifest = json.loads((out / "gen_manifest.json").read_text())
    assert set(manifest["row_counts"]) == set(canonical.canonical_schema().tables)


def test_clean_output_passes_all_checks(tmp_path):
    out, ledger = _gen(tmp_path, seed=7, students=50, dirty_rate=0.0)
    assert not ledger.entries
    db = canonical.canonical_schema()
    staging, report = extract_database(out, db)
    assert validate_schema(staging.schema()) == []
    assert all(s.rows_rejected == 0 for s in report.tables.values())
    assert all(s.raw_cells == 0 for s in report.tables.values())
    for table in staging.tables.values():
        for row in table.rows:
            assert check_row(table.schema, row) is None
    assert check_referential_integrity(staging.tables).is_empty()


def test_clean_output_cleanses_to_zero_changes(tmp_path):
    out, _ = _gen(tmp_path, seed=11, students=30, dirty_rate=0.0)
    staging, _ = extract_database(out, canonical.canonical_schema())
    cleaned, report = cleanse_staging(staging, list(canonical.canonical_rules()))
    assert all(r["cells_changed"] == 0 for f in report.tables.values() for r in f["rules"])
    assert sum(f["rows_quarantined"] for f in report.tables.values()) == 0
    assert all(d["exact_removed"] + d["pk_conflicts"] == 0 for d in report.dedup.values())


def test_ledger_rate_tracks_dirty_rate(tmp_path):
    out, ledger = _gen(tmp_path, seed=3, students=300, semesters=3, dirty_rate=0.05)
    manifest = json.loads((out / "gen_manifest.json").read_text())
    db = canonical.canonical_schema()
    # rate is measured against pre-duplication cell volume
    cells = sum(
        (manifest["row_counts"][name] - sum(1 for e in ledger.entries if e.table == name and e.kind == "duplicate_row"))
        * len(db.tables[name].columns)
        for name in manifest["row_counts"]
    )
    assert cells >= 10_000
    rate = len(ledger.entries) / cells
    assert abs(rate - 0.05) / 0.05 <= 0.10


def test_ledger_roundtrip(tmp_path):
    out, ledger = _gen(tmp_path, seed=5, students=20, dirty_rate=0.08)
    again = load_ledger(out / "dirt_ledger.csv")
    assert again.entries == ledger.entries
    kinds = {e.kind for e in again.entries}
    assert kinds <= {
        "padding", "case_scramble", "null_token", "date_format", "out_of_domain", "orphan_fk", "duplicate_row",
    }


@pytest.mark.parametrize(
    "data",
    [b"", b"table,row_key\n", b"table,row_key,column,original,corrupted,kind\nt,1,c,a,b\n", b"table,\xff\n"],
    ids=["empty", "wrong-header", "short-row", "invalid-utf8"],
)
def test_malformed_ledger_is_a_validation_error(tmp_path, data):
    (tmp_path / "dirt_ledger.csv").write_bytes(data)
    with pytest.raises(ValidationError, match="dirt_ledger.csv"):
        load_ledger(tmp_path / "dirt_ledger.csv")


def test_config_validation():
    with pytest.raises(ValidationError):
        GenConfig(dirty_rate=1.5).validate()
    with pytest.raises(ValidationError):
        GenConfig(students=0).validate()
