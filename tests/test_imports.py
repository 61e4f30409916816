"""Every name a ``uwh`` module imports is used in that module, and every
top-level function or class has a caller.

With no linter in the toolchain, this stands in for pyflakes' F401. The one
exception is a name kept only so the benchmark's tracer can rebind it: its
import line says ``noqa: F401`` and ``perfbench/tracer.py`` lists the
(module, name) pair among its spans or aggregates.

It also checks that ``staging.write_dir_atomically`` is the one function
that writes, renames or removes files, so every output directory is
written whole, after the one check of whether it may be, that no module
but ``csvio`` holds a string constant with a double quote, so the CSV
dialect's quoting rule is written once, and that every module parses as
the oldest Python that ``pyproject.toml`` allows and holds no regular
expression syntax that only a newer ``re`` accepts.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "uwh"

_spec = importlib.util.spec_from_file_location("perfbench_tracer", _ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
_TRACED = {(m, a) for m, a, *_ in tracer.SPANS + tracer.AGGREGATES}

_MODULES = sorted(p.stem for p in _SRC.glob("*.py") if p.name != "__init__.py")


def _imports(tree: ast.Module):
    """(bound name, line) for each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(module: str) -> list[str]:
    """The names ``uwh.<module>`` imports, uses nowhere and does not keep for the tracer."""
    text = (_SRC / f"{module}.py").read_text(encoding="utf-8")
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = []
    for name, lineno in _imports(tree):
        if name in used:
            continue
        if "noqa: F401" in lines[lineno - 1] and (f"uwh.{module}", name) in _TRACED:
            continue
        unused.append(f"{module}.py:{lineno}: {name}")
    return unused


@pytest.mark.parametrize("module", _MODULES)
def test_imported_names_are_used(module):
    assert unused_imports(module) == []


def test_a_noqa_import_needs_a_tracer_entry(tmp_path, monkeypatch):
    """``noqa`` alone does not excuse a name: the tracer must rebind it."""
    (tmp_path / "probe.py").write_text(
        "from .csvio import parse_csv  # noqa: F401\nfrom .values import render_cell\n", encoding="utf-8"
    )
    monkeypatch.setitem(globals(), "_SRC", tmp_path)
    assert unused_imports("probe") == ["probe.py:1: parse_csv", "probe.py:2: render_cell"]


def uncalled_definitions(src: Path) -> list[str]:
    """The top-level functions and classes of the modules in ``src`` that no
    other line there names, that its ``__init__.py`` does not export, and
    that the tracer does not list."""
    texts = {p: p.read_text(encoding="utf-8") for p in sorted(src.glob("*.py"))}
    init = src / "__init__.py"
    exported = {name for name, _ in _imports(ast.parse(texts[init]))} if init in texts else set()
    traced = {a for _, a in _TRACED}
    found = []
    for path, text in texts.items():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in exported or node.name in traced:
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            named = sum(len(word.findall(t)) for t in texts.values())
            if named <= 1:  # only its own ``def`` or ``class`` line
                found.append(f"{path.name}:{node.lineno}: {node.name}")
    return found


def test_every_definition_has_a_caller():
    assert uncalled_definitions(_SRC) == []


def test_an_uncalled_definition_is_refused(tmp_path):
    (tmp_path / "__init__.py").write_text("from .probe import exported\n", encoding="utf-8")
    (tmp_path / "probe.py").write_text(
        "def exported():\n    return _used()\n\n\ndef _used():\n    return 1\n\n\n"
        "def dead():\n    return 2\n\n\nclass Dead:\n    pass\n\n\ndef apply_rule():\n    pass\n",
        encoding="utf-8",
    )
    assert uncalled_definitions(tmp_path) == ["probe.py:9: dead", "probe.py:13: Dead"]


_WRITERS = {"write_bytes", "write_text", "mkdir", "rmtree", "unlink", "rename"}


def _writes(call: ast.Call) -> bool:
    """Whether ``call`` writes, renames or removes a file: a call of one of
    ``_WRITERS``, a one-argument ``.replace`` (``Path.replace``), or an
    ``open`` whose mode writes or cannot be read off the call."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name == "replace":
        return len(call.args) == 1 and not call.keywords
    if name != "open":
        return name in _WRITERS
    position = 1 if isinstance(func, ast.Name) else 0  # open(file, mode) or path.open(mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[position:position + 1]
    if not modes:
        return False
    mode = getattr(modes[0], "value", None)  # a constant's text; None for any other expression
    return not isinstance(mode, str) or bool(set("wax+") & set(mode))


def file_writers(src: Path) -> list[str]:
    """Each call in the modules of ``src`` that writes, renames or removes a
    file from any function but ``write_dir_atomically``."""
    found = []

    def visit(node, path: Path, function: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else function
            if isinstance(child, ast.Call) and _writes(child) and inner != "write_dir_atomically":
                found.append(f"{path.name}:{child.lineno}: {inner}")
            visit(child, path, inner)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "<module>")
    return found


def test_only_the_atomic_writer_touches_files():
    assert file_writers(_SRC) == []


def test_a_file_write_outside_the_atomic_writer_is_refused(tmp_path):
    (tmp_path / "probe.py").write_text(
        "def write_dir_atomically(out, new):\n    new.mkdir()\n    new.replace(out)\n\n\n"
        "def reads(path, text):\n    open(path).close()\n    path.open('rb').close()\n"
        "    return text.replace('a', 'b')\n\n\n"
        "def writes(path, mode):\n    path.write_text('x')\n    path.replace(path)\n"
        "    open(path, 'a').close()\n    path.open(mode='r+b').close()\n    open(path, mode).close()\n",
        encoding="utf-8",
    )
    assert file_writers(tmp_path) == [f"probe.py:{n}: writes" for n in (13, 14, 15, 16, 17)]


def _string_constants(path: Path):
    """Each string constant of module ``path`` but its docstrings, the
    constant parts of f-strings included."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bodies = [n.body for n in ast.walk(tree) if isinstance(n, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    docstrings = {id(body[0].value) for body in bodies if body and isinstance(body[0], ast.Expr)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            yield node


def quote_constants(src: Path) -> list[str]:
    """Each string constant holding ``"`` in the modules of ``src`` but
    ``csvio``, where the CSV dialect lives; docstrings are exempt."""
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name != "csvio.py":
            found += [f"{path.name}:{node.lineno}" for node in _string_constants(path) if '"' in node.value]
    return found


def test_only_csvio_knows_the_quote():
    assert quote_constants(_SRC) == []


def test_a_quote_outside_csvio_is_refused(tmp_path):
    (tmp_path / "csvio.py").write_text("QUOTE = '\"'\n", encoding="utf-8")
    (tmp_path / "probe.py").write_text(
        '"""A docstring may say ""."""\n\n\n'
        'def ok(text):\n    """So may a function\'s: "."""\n    return text.split(",")\n\n\n'
        "def quotes(text, n):\n    pad = ',\"\"' * n\n    return f'\"{text}\"' + pad\n",
        encoding="utf-8",
    )
    assert quote_constants(tmp_path) == ["probe.py:10", "probe.py:11", "probe.py:11"]


_OLDEST = re.search(r'requires-python = ">=3\.(\d+)"', (_ROOT / "pyproject.toml").read_text(encoding="utf-8"))


@pytest.mark.parametrize("module", sorted(p.stem for p in _SRC.glob("*.py")))
def test_module_parses_as_the_oldest_python_allowed(module):
    # This catches syntax only: the grammar of that version as ``ast`` knows
    # it. A newer library feature still passes; for the regex constructs the
    # older ``re`` refuses, see ``python_311_patterns``.
    source = (_SRC / f"{module}.py").read_text(encoding="utf-8")
    ast.parse(source, filename=f"{module}.py", feature_version=(3, int(_OLDEST.group(1))))


_ESCAPE = re.compile(r"\\.", re.DOTALL)
_CLASS = re.compile(r"\[\^?\]?[^\]]*\]")
_PYTHON_311_SYNTAX = re.compile(r"[*+?}]\+|\(\?>")  # a possessive quantifier or an atomic group


def python_311_patterns(src: Path) -> list[str]:
    """Each string constant in the modules of ``src`` that, read as a
    regular expression, holds a possessive quantifier (``*+``, ``++``,
    ``?+``, ``}+``) or an atomic group (``(?>``), which ``re`` accepts only
    from Python 3.11 on. Each escape and character class is read as one
    atom first, so ``\\++`` and ``[*+]+`` pass; docstrings are exempt."""
    found = []
    for path in sorted(src.glob("*.py")):
        for node in _string_constants(path):
            if _PYTHON_311_SYNTAX.search(_CLASS.sub("x", _ESCAPE.sub("x", node.value))):
                found.append(f"{path.name}:{node.lineno}")
    return found


def test_patterns_compile_on_the_oldest_python_allowed():
    assert python_311_patterns(_SRC) == []


def test_a_python_311_pattern_is_refused(tmp_path):
    (tmp_path / "probe.py").write_text(
        '"""Docstrings may say a*+."""\nimport re\n\n'
        'OK = [re.compile(r"\\++[*+?][+]+a{2}"), re.compile(r"[^\\]?+]+")]\n'
        'BAD = [re.compile(r"a*+"), re.compile(r"a++"), re.compile(r"a?+"), re.compile(r"a{2}+")]\n'
        'ATOMIC = re.compile(rf"(?>{OK})")\n',
        encoding="utf-8",
    )
    assert python_311_patterns(tmp_path) == ["probe.py:5"] * 4 + ["probe.py:6"]
