"""Byte mutations of a transformed seed-42 staging dump, run through
``uwh report --staging`` and ``uwh load`` in process. A mutated dump
fails its digest check with exit 5 and writes no warehouse. Signed again
after the mutation (``oracles.resign_dump``), it reaches the decoders:
each run exits 0, or prints an ``error:`` line and exits with a
documented code (1 validation, 2 I/O, 3 parse, 5 integrity); no mutation
raises out of ``cli.run``.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from uwh.cli import run
from uwh.staging import dump_staging

# bytes a CSV, JSON or manifest reader treats specially, or that no UTF-8 text holds
BYTES = [b",", b'"', b"\n", b"\r", b"\x00", b"\xff", b"\xc3", b"-", b"9", b".", b" ", b"{", b"[", b":", b"("]


@pytest.fixture(scope="module")
def dump(tmp_path_factory, seed42_transformed):
    out = tmp_path_factory.mktemp("staging-fuzz") / "s"
    dump_staging(seed42_transformed, out)
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
    return tmp_path_factory.mktemp("staging-fuzz-runs"), files


def _mutate(data: bytes, draw) -> bytes:
    """Flip a bit, insert a drawn byte, delete a few bytes, or cut the rest."""
    pos = draw(st.integers(0, max(len(data) - 1, 0)))
    op = draw(st.sampled_from(["flip", "insert", "delete", "cut"]))
    if op == "flip" and data:
        return data[:pos] + bytes([data[pos] ^ 1 << draw(st.integers(0, 7))]) + data[pos + 1 :]
    if op == "insert":
        return data[:pos] + draw(st.sampled_from(BYTES)) + data[pos:]
    if op == "delete":
        return data[:pos] + data[pos + draw(st.integers(1, 4)) :]
    return data[:pos]


def _run(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, err.getvalue()


def _mutated(dump, data, names) -> tuple[Path, dict[str, bytes]]:
    """A run directory and the dump's files, one to three of ``names`` mutated."""
    runs, original = dump
    files = dict(original)
    for _ in range(data.draw(st.integers(1, 3))):
        name = data.draw(st.sampled_from(names))
        files[name] = _mutate(files[name], data.draw)
    return runs, files


def _commands(staging: Path, work: Path) -> list[list[str]]:
    return [["report", "--staging", str(staging), "--json"],
            ["load", "--staging", str(staging), "--out", str(work / "wh"), "--timestamp", "2026-01-01T00:00:00Z"]]


def _write(staging: Path, files: dict[str, bytes]) -> None:
    for name, content in files.items():
        (staging / name).parent.mkdir(parents=True, exist_ok=True)
        (staging / name).write_bytes(content)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_mutated_dump_is_refused(dump, data):
    runs, files = _mutated(dump, data, sorted(dump[1]))
    same = files == dump[1]
    with tempfile.TemporaryDirectory(dir=runs) as work:
        staging = Path(work) / "s"
        _write(staging, files)
        for argv in _commands(staging, Path(work)):
            code, err = _run(argv)
            assert code == 0 if same else code == 5 and err.startswith("error: "), (argv, code, err)
        assert (Path(work) / "wh").exists() == same


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_staging_is_refused_or_read(dump, data):
    runs, files = _mutated(dump, data, sorted(set(dump[1]) - {"meta.json"}))
    with tempfile.TemporaryDirectory(dir=runs) as work:
        staging = Path(work) / "s"
        _write(staging, files)
        oracles.resign_dump(staging)
        for argv in _commands(staging, Path(work)):
            code, err = _run(argv)
            assert code == 0 or (code in (1, 2, 3, 5) and err.startswith("error: ")), (argv, code, err)
