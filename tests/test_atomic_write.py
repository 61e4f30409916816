"""Directory writes are all or nothing: a write that fails part-way
leaves the target as it was and no ``.<name>-partial-*`` sibling."""

from __future__ import annotations

from pathlib import Path

import pytest

from uwh.datagen import GenConfig, generate
from uwh.errors import ValidationError
from uwh.staging import dump_staging, dumps_staging
from uwh.warehouse import assemble_snowflake, load

TS = "2026-01-01T00:00:00Z"
SMALL = GenConfig(seed=5, students=20, courses_per_dept=3, semesters=2, dirty_rate=0.1)


def _snapshot(directory: Path) -> dict[str, bytes] | None:
    if not directory.exists():
        return None
    return {p.relative_to(directory).as_posix(): p.read_bytes() for p in directory.rglob("*") if p.is_file()}


def _fail_on_write(monkeypatch, n: int) -> None:
    """Make the n-th ``Path.write_bytes`` call raise."""
    real = Path.write_bytes
    calls = [0]

    def write_bytes(self, data):
        calls[0] += 1
        if calls[0] == n:
            raise OSError(f"injected failure writing {self.name}")
        return real(self, data)

    monkeypatch.setattr(Path, "write_bytes", write_bytes)


def _assert_holds(target: Path, expected) -> None:
    assert _snapshot(target) == expected
    assert [p.name for p in target.parent.iterdir() if p.name.startswith(f".{target.name}-partial-")] == []


def _load(out: Path, staging) -> dict:
    snow = assemble_snowflake(staging.tables, staging.fact_table, staging.dimensions)
    return load(out, snow, staging, timestamp=TS)


def test_failed_load_leaves_no_warehouse(tmp_path, monkeypatch, seed42_transformed):
    probe = tmp_path / "probe"
    _load(probe, seed42_transformed)
    files = len(list(probe.iterdir()))
    for n in range(1, files + 1):
        out = tmp_path / f"wh{n}"
        with monkeypatch.context() as m:
            _fail_on_write(m, n)
            with pytest.raises(OSError, match="injected"):
                _load(out, seed42_transformed)
        _assert_holds(out, None)


def test_failed_inplace_dump_keeps_previous_staging(tmp_path, monkeypatch, seed42_staging, seed42_cleansed):
    target = tmp_path / "staging"
    dump_staging(seed42_staging, target)
    before = _snapshot(target)
    for n in range(1, len(dumps_staging(seed42_cleansed)) + 1):
        with monkeypatch.context() as m:
            _fail_on_write(m, n)
            with pytest.raises(OSError, match="injected"):
                dump_staging(seed42_cleansed, target)
        _assert_holds(target, before)


def test_failed_swap_restores_previous_staging(tmp_path, monkeypatch, seed42_staging, seed42_cleansed):
    target = tmp_path / "staging"
    dump_staging(seed42_staging, target)
    before = _snapshot(target)
    real = Path.replace

    def replace(self, dest):
        if self.name == "new":
            raise OSError("injected failure renaming into place")
        return real(self, dest)

    monkeypatch.setattr(Path, "replace", replace)
    with pytest.raises(OSError, match="injected"):
        dump_staging(seed42_cleansed, target)
    _assert_holds(target, before)


def test_dump_replaces_a_staging_dump_exactly(tmp_path, seed42_staging, seed42_transformed):
    target = tmp_path / "staging"
    dump_staging(seed42_staging, target)
    dump_staging(seed42_transformed, target)
    expected = {rel: text.encode("utf-8") for rel, text in dumps_staging(seed42_transformed).items()}
    _assert_holds(target, expected)


def test_dump_refuses_non_empty_directory_that_is_not_staging(tmp_path, seed42_staging):
    target = tmp_path / "docs"
    target.mkdir()
    (target / "notes.txt").write_text("keep me\n")
    before = _snapshot(target)
    with pytest.raises(ValidationError, match="not a staging dump"):
        dump_staging(seed42_staging, target)
    _assert_holds(target, before)


def test_failed_gen_leaves_no_output_and_keeps_an_earlier_one(tmp_path, monkeypatch):
    earlier = tmp_path / "earlier"
    generate(GenConfig(seed=6, students=10), earlier)
    before = _snapshot(earlier)
    files = len(list(earlier.iterdir()))
    for n in range(1, files + 1):
        for target, expected in ((tmp_path / f"gen{n}", None), (earlier, before)):
            with monkeypatch.context() as m:
                _fail_on_write(m, n)
                with pytest.raises(OSError, match="injected"):
                    generate(SMALL, target)
            _assert_holds(target, expected)


def test_gen_replaces_an_earlier_gen_output_exactly(tmp_path):
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    generate(SMALL, fresh)
    generate(GenConfig(seed=6, students=10), target)
    generate(SMALL, target)
    _assert_holds(target, _snapshot(fresh))
    generate(SMALL, target)
    _assert_holds(target, _snapshot(fresh))


def test_gen_refuses_non_empty_directory_that_is_not_gen_output(tmp_path):
    target = tmp_path / "docs"
    target.mkdir()
    (target / "notes.txt").write_text("keep me\n")
    before = _snapshot(target)
    with pytest.raises(ValidationError, match="not gen output"):
        generate(SMALL, target)
    _assert_holds(target, before)
