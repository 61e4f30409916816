"""Directory writes are all or nothing: a write that fails part-way
leaves the target as it was and no ``.<name>-partial-*`` sibling. A
write the replace rule refuses leaves every file as it was."""

from __future__ import annotations

from pathlib import Path

import pytest

from uwh.cli import run
from uwh.datagen import GEN_OUTPUT, GenConfig, generate
from uwh.errors import ReadOnlyError, ValidationError
from uwh.staging import STAGING_DUMP, dump_staging, dumps_staging, write_dir_atomically
from uwh.warehouse import WAREHOUSE, load

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


def test_failed_load_leaves_no_warehouse(tmp_path, monkeypatch, seed42_transformed):
    probe = tmp_path / "probe"
    load(probe, seed42_transformed, timestamp=TS)
    files = len(list(probe.iterdir()))
    for n in range(1, files + 1):
        out = tmp_path / f"wh{n}"
        with monkeypatch.context() as m:
            _fail_on_write(m, n)
            with pytest.raises(OSError, match="injected"):
                load(out, seed42_transformed, timestamp=TS)
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
    _assert_holds(target, dumps_staging(seed42_transformed))


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


def _tree(root: Path) -> dict[str, bytes | None]:
    """Every path under ``root``: a file's bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def _put(directory: Path, files: dict[str, bytes]) -> None:
    for rel, data in files.items():
        (directory / rel).parent.mkdir(parents=True, exist_ok=True)
        (directory / rel).write_bytes(data)


# the files of one earlier output of each kind
_EARLIER = {
    STAGING_DUMP: {"schema.manifest": b"old\n", "t.csv": b"old\n"},
    GEN_OUTPUT: {"gen_manifest.json": b"old\n", "t.csv": b"old\n"},
    WAREHOUSE: {"catalog.json": b"old\n", "t.csv": b"old\n"},
}
_KINDS = list(_EARLIER)


def _target(tmp_path: Path, name: str, kind) -> Path:
    """Make the target ``name`` of the rule table under ``tmp_path``."""
    out = tmp_path / "out"
    if name == "empty":
        out.mkdir()
    elif name.startswith("earlier"):
        _put(out, _EARLIER[kind])
        if name != "earlier":
            _put(out, {f"{name.split()[-1]}/t.csv": b"dir\n"})
    elif name == "foreign":
        _put(out, {"notes.txt": b"keep me\n"})
    elif name == "file":
        out.write_bytes(b"keep me\n")
    elif name == "warehouse":
        _put(out, _EARLIER[WAREHOUSE])
    elif name == "inside warehouse":
        _put(tmp_path / "wh", _EARLIER[WAREHOUSE])
        out = tmp_path / "wh" / "out"
    return out


# the outcome of writing each kind (staging dump, gen output, warehouse) to
# each target: None when accepted, else the error it is refused with
_RULE = {
    "absent": (None, None, None),
    "empty": (None, None, None),
    "earlier": (None, None, ReadOnlyError),
    "earlier + quarantine": (None, ValidationError, ReadOnlyError),
    "earlier + wh": (ValidationError, ValidationError, ReadOnlyError),
    "foreign": (ValidationError, ValidationError, ValidationError),
    "file": (NotADirectoryError, NotADirectoryError, NotADirectoryError),
    "warehouse": (ReadOnlyError, ReadOnlyError, ReadOnlyError),
    "inside warehouse": (ReadOnlyError, ReadOnlyError, ReadOnlyError),
}


@pytest.mark.parametrize("kind", _KINDS, ids=[k.name for k in _KINDS])
@pytest.mark.parametrize("name", list(_RULE))
def test_the_replace_rule(tmp_path, name, kind):
    out = _target(tmp_path, name, kind)
    before = _tree(tmp_path)
    new = {rel: b"new\n" for rel in _EARLIER[kind]}
    error = _RULE[name][_KINDS.index(kind)]
    if error is None:  # then ``out`` is ``tmp_path / "out"``, and holds exactly the new files
        write_dir_atomically(new, out, kind)
        rest = {path: data for path, data in before.items() if path.split("/")[0] != "out"}
        assert _tree(tmp_path) == {**rest, "out": None, **{f"out/{rel}": data for rel, data in new.items()}}
    else:
        with pytest.raises(error):
            write_dir_atomically(new, out, kind)
        assert _tree(tmp_path) == before  # no partial sibling either


def test_gen_refuses_its_earlier_output_once_a_warehouse_is_built_inside(tmp_path, capsys):
    gen = tmp_path / "g"
    small = ["--students", "20", "--courses-per-dept", "3", "--semesters", "2"]
    assert run(["gen", "--out", str(gen), *small]) == 0
    assert run(["build", "--src", str(gen), "--out", str(gen / "wh"), "--timestamp", TS]) == 0
    before = _tree(tmp_path)
    capsys.readouterr()
    assert run(["gen", "--out", str(gen), *small]) == 1
    assert capsys.readouterr().err == f"error: refusing to replace gen output {gen}: it holds the directory {gen / 'wh'}\n"
    assert _tree(tmp_path) == before
