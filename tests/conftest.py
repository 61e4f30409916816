from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make oracles importable

from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.datagen import GenConfig, generate, load_ledger
from uwh.ingest import extract_database
from uwh.schema import Table
from uwh.staging import StagingArea, dump_staging
from uwh.transform import execute_plan
from uwh.warehouse import load, open_warehouse

TS = "2026-01-01T00:00:00Z"

SEED42 = GenConfig(seed=42, students=100, courses_per_dept=5, semesters=3, dirty_rate=0.05)


def schema_after(plan, db):
    """The schema ``plan`` leaves when run on ``db``'s tables with no rows:
    ``validate_plan`` without its check of the FACT and DIMENSION
    declarations, for plans that are only part of a warehouse plan."""
    empty = StagingArea({name: Table(schema, []) for name, schema in db.tables.items()})
    return execute_plan(empty, plan)[0].schema()


@pytest.fixture(scope="session")
def seed42_src(tmp_path_factory):
    out = tmp_path_factory.mktemp("seed42-src")
    generate(SEED42, out)
    return out


@pytest.fixture(scope="session")
def seed42_ledger(seed42_src):
    return load_ledger(seed42_src / "dirt_ledger.csv")


@pytest.fixture(scope="session")
def seed42_extracted(seed42_src):
    return extract_database(seed42_src, canonical.canonical_schema(), timestamp=TS)


@pytest.fixture(scope="session")
def seed42_staging(seed42_extracted):
    return seed42_extracted[0]


@pytest.fixture(scope="session")
def seed42_cleansed(seed42_staging):
    staging, _ = cleanse_staging(seed42_staging, list(canonical.canonical_rules()), timestamp=TS)
    return staging


@pytest.fixture(scope="session")
def seed42_transformed(seed42_cleansed):
    staging, _ = execute_plan(seed42_cleansed, canonical.canonical_plan(), timestamp=TS)
    return staging


@pytest.fixture(scope="session")
def seed42_warehouse_dir(tmp_path_factory, seed42_transformed):
    out = tmp_path_factory.mktemp("seed42-wh") / "wh"
    load(out, seed42_transformed, timestamp=TS)
    return out


@pytest.fixture(scope="session")
def seed42_handle(seed42_warehouse_dir):
    return open_warehouse(seed42_warehouse_dir)


@pytest.fixture(scope="session")
def seed42_staging_dir(tmp_path_factory, seed42_staging):
    out = tmp_path_factory.mktemp("seed42-staging-dump") / "staging"
    dump_staging(seed42_staging, out)
    return out
