from __future__ import annotations

import json
import re
import shutil

import pytest

import oracles
from uwh import canonical
from uwh.cli import run
from uwh.staging import dump_staging, dumps_staging, load_staging
from uwh.values import RawCell

TS = "2026-01-01T00:00:00Z"

SUBCOMMANDS = ["gen", "extract", "cleanse", "transform", "load", "build", "query", "report"]


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_help_exits_zero(capsys, sub):
    with pytest.raises(SystemExit) as exc:
        run([sub, "--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


def test_top_level_help(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--help"])
    assert exc.value.code == 0


def test_usage_error_exits_one(capsys):
    code, _, err = _run(capsys, "gen")  # missing --out
    assert code == 1 and "error" in err


@pytest.fixture(scope="module")
def cli_dirs(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli")
    src = base / "src"
    assert run(["gen", "--out", str(src), "--seed", "42", "--students", "60", "--dirty-rate", "0.05"]) == 0
    wh = base / "wh"
    assert run(["build", "--src", str(src), "--out", str(wh), "--timestamp", TS]) == 0
    return base, src, wh


def _files(root) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _stagewise(capsys, src, staging, wh) -> None:
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "load", "--staging", str(staging), "--out", str(wh), "--timestamp", TS)[0] == 0


def test_stagewise_pipeline_matches_build(tmp_path, cli_dirs, capsys):
    # load takes everything it records from the staging, the plan hash too,
    # so both paths write the same bytes
    base, src, wh = cli_dirs
    wh2 = tmp_path / "wh2"
    _stagewise(capsys, src, tmp_path / "staging", wh2)
    assert _files(wh2) == _files(wh)
    assert json.loads((wh2 / "catalog.json").read_text())["build"]["plan_hash"] != ""


def test_kept_staging_equals_stagewise_staging(tmp_path, cli_dirs, capsys):
    _, src, wh = cli_dirs
    kept = tmp_path / "kept"
    assert _run(capsys, "build", "--src", str(src), "--out", str(tmp_path / "wh"), "--keep-staging", str(kept),
                "--timestamp", TS)[0] == 0
    staging = tmp_path / "staging"
    _stagewise(capsys, src, staging, tmp_path / "wh2")
    assert _files(kept) == _files(staging)
    assert _files(tmp_path / "wh") == _files(wh)


def test_build_that_fails_while_loading_leaves_the_kept_staging(tmp_path, cli_dirs, capsys):
    # the kept staging is written after the warehouse, also when load refuses
    # the rows: a Null instructor key, which a nullable se_in_id lets
    # through, dangles in the fact
    from uwh.csvio import format_row, parse_csv

    _, src, _ = cli_dirs
    schema = tmp_path / "schema.txt"
    schema.write_text(canonical.canonical_schema_text().replace("se_in_id INTEGER FK", "se_in_id INTEGER NULL FK"))
    src = shutil.copytree(src, tmp_path / "src")
    records = parse_csv((src / "section.csv").read_text(encoding="utf-8"))
    records[1][[t for t, _ in records[0]].index("se_in_id")] = ("", False)
    (src / "section.csv").write_text("".join(format_row(r) + "\n" for r in records), encoding="utf-8")
    out, kept = tmp_path / "wh", tmp_path / "kept"
    code, _, err = _run(capsys, "build", "--schema", str(schema), "--src", str(src), "--out", str(out),
                        "--keep-staging", str(kept), "--timestamp", TS)
    assert code == 1 and "has dangling dimension key ('',) into instructor" in err
    assert not out.exists()
    staging = tmp_path / "staging"
    argv = ["--schema", str(schema), "--src", str(src), "--out", str(staging), "--timestamp", TS]
    assert _run(capsys, "extract", *argv)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _files(kept) == _files(staging)


def test_build_renders_each_staged_table_once(tmp_path, cli_dirs, monkeypatch):
    # counted wherever a caller looks a renderer up, as the benchmark's
    # tracer does: load renders each relation's columns, and the staging
    # dump joins its table bytes from them
    import uwh.staging
    import uwh.warehouse

    _, src, _ = cli_dirs
    rendered = []

    def counting(real):
        def render(table):
            rendered.append(table.name)
            return real(table)

        return render

    table_csv = counting(uwh.staging.render_table_csv)
    monkeypatch.setattr(uwh.staging, "render_table_csv", table_csv)
    monkeypatch.setattr(uwh.warehouse, "render_table_csv", table_csv)
    monkeypatch.setattr(uwh.staging, "render_columns", counting(uwh.staging.render_columns))
    assert run(["build", "--src", str(src), "--out", str(tmp_path / "wh"), "--timestamp", TS]) == 0
    assert len(rendered) == 8 and len(set(rendered)) == 8
    # the kept staging and the warehouse take the same rendered fields
    rendered.clear()
    argv = ["build", "--src", str(src), "--out", str(tmp_path / "wh2"), "--keep-staging", str(tmp_path / "kept")]
    assert run([*argv, "--timestamp", TS]) == 0
    assert len(rendered) == 8 and len(set(rendered)) == 8


def test_build_runs_each_merge_twice(tmp_path, cli_dirs, monkeypatch):
    # once on the schema's empty tables to validate the plan, once on the data
    import uwh.transform

    _, src, _ = cli_dirs
    merged = []
    real = uwh.transform.exec_merge

    def counting(staging, stmt, **kwargs):
        merged.append(stmt.target)
        return real(staging, stmt, **kwargs)

    monkeypatch.setattr(uwh.transform, "exec_merge", counting)
    assert run(["build", "--src", str(src), "--out", str(tmp_path / "wh"), "--timestamp", TS]) == 0
    assert merged == ["transcript", "registeredActivities"] * 2


def test_load_of_an_untransformed_staging_exits_one(tmp_path, cli_dirs, capsys):
    _, src, _ = cli_dirs
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    wh = tmp_path / "wh"
    code, _, err = _run(capsys, "load", "--staging", str(staging), "--out", str(wh), "--timestamp", TS)
    assert code == 1 and "run transform first" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["staging"]


@pytest.mark.parametrize(
    "rule, words",
    [
        ("CLEAN student.st_nope WITH trim ;", "no column 'st_nope'"),
        ("CLEAN student.st_name WITH range(0, 1) ;", "range applies to numeric columns"),
    ],
    ids=["unknown-column", "range-on-text"],
)
def test_rule_that_does_not_fit_the_schema_exits_one(tmp_path, cli_dirs, capsys, rule, words):
    _, src, _ = cli_dirs
    rules = tmp_path / "bad.rules"
    rules.write_text(rule + "\n")
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    before = _files(staging)
    code, _, err = _run(capsys, "cleanse", "--staging", str(staging), "--rules", str(rules), "--timestamp", TS)
    assert code == 1 and err.startswith("error: rule student.") and words in err
    assert "Traceback" not in err
    assert _files(staging) == before
    wh = tmp_path / "wh"
    code, _, err = _run(capsys, "build", "--src", str(src), "--rules", str(rules), "--out", str(wh), "--timestamp", TS)
    assert code == 1 and err.startswith("error: rule student.") and words in err
    assert "Traceback" not in err
    assert not wh.exists()


def test_inplace_stages_leave_only_dumped_files(tmp_path, cli_dirs, capsys):
    _, src, _ = cli_dirs
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    on_disk = {p.relative_to(staging).as_posix() for p in staging.rglob("*") if p.is_file()}
    assert on_disk == set(dumps_staging(load_staging(staging)))
    assert [p.name for p in tmp_path.iterdir()] == ["staging"]


def test_plan_literal_with_a_line_separator_reaches_report_and_load(tmp_path, cli_dirs, capsys):
    # the literal lands in the transform report; every later stage must read it back
    from uwh import canonical
    from uwh.staging import load_staging

    _, src, _ = cli_dirs
    plan = tmp_path / "plan.uwh"
    plan.write_text("CLEAN student.st_name WITH null_standardize('N\u2028A') ;\n" + canonical.canonical_plan_text())
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--plan", str(plan), "--timestamp", TS)[0] == 0
    statements = load_staging(staging).reports["transform"]["statements"]
    assert statements[0]["statement"] == "CLEAN student.st_name WITH null_standardize('N\u2028A') ;"
    code, out, err = _run(capsys, "report", "--staging", str(staging))
    assert code == 0, err
    assert "statement 0: CLEAN student.st_name WITH null_standardize('N\u2028A') ;" in out
    code, _, err = _run(capsys, "load", "--staging", str(staging), "--out", str(tmp_path / "wh"), "--timestamp", TS)
    assert code == 0, err


@pytest.mark.parametrize(
    "stamp",
    ["2026-01-01\tT", "2026-01-01T00:00:00", "2026-1-01T00:00:00Z", "2026-02-30T00:00:00Z", "2026-01-01T00:00:00Z\n", ""],
)
def test_malformed_timestamp_exits_one_and_writes_nothing(tmp_path, cli_dirs, capsys, stamp):
    _, src, _ = cli_dirs
    out = tmp_path / "staging"
    code, _, err = _run(capsys, "extract", "--src", str(src), "--out", str(out), "--timestamp", stamp)
    assert code == 1 and "--timestamp" in err
    assert list(tmp_path.iterdir()) == []


def test_stage_refuses_non_empty_directory_that_is_not_staging(tmp_path, cli_dirs, capsys):
    _, src, _ = cli_dirs
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    code, _, err = _run(capsys, "extract", "--src", str(src), "--out", str(out), "--timestamp", TS)
    assert code == 1 and "not a staging dump" in err
    wh = tmp_path / "wh"
    code, _, err = _run(capsys, "build", "--src", str(src), "--out", str(wh), "--keep-staging", str(out))
    assert code == 1 and "not a staging dump" in err
    assert not wh.exists()
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me\n"


def test_gen_refuses_non_empty_directory_that_is_not_gen_output(tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("keep me\n")
    code, _, err = _run(capsys, "gen", "--out", str(out), "--students", "5")
    assert code == 1 and "not gen output" in err
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me\n"


def test_build_produces_eight_relations(cli_dirs):
    _, _, wh = cli_dirs
    catalog = json.loads((wh / "catalog.json").read_text())
    assert len(catalog["relations"]) == 8
    assert catalog["frozen"] is True


def test_build_with_explicit_schema_plan_rules_files(cli_dirs, tmp_path):
    from uwh import canonical

    _, src, wh = cli_dirs
    schema = tmp_path / "schema.txt"
    schema.write_text(canonical.canonical_schema_text())
    plan = tmp_path / "plan.uwh"
    plan.write_text(canonical.canonical_plan_text())
    rules = tmp_path / "rules.txt"
    rules.write_text(canonical.canonical_rules_text())
    out = tmp_path / "wh"
    code = run([
        "build", "--schema", str(schema), "--src", str(src), "--plan", str(plan),
        "--rules", str(rules), "--out", str(out), "--timestamp", TS,
    ])
    assert code == 0
    a = json.loads((wh / "catalog.json").read_text())
    b = json.loads((out / "catalog.json").read_text())
    assert a == b  # explicit files equal the packaged defaults


def test_query_output_matches_library_result(cli_dirs, capsys):
    from uwh.staging import render_table_csv
    from uwh.warehouse import Measure, StarQuery, open_warehouse, star_query

    _, _, wh = cli_dirs
    code, out, _ = _run(
        capsys, "query", "--warehouse", str(wh), "--measure", "AVG(tr_grade)", "--group-by", "dep_name"
    )
    assert code == 0
    handle = open_warehouse(wh)
    expected = star_query(handle, StarQuery((Measure("AVG", "tr_grade"),), ("dep_name",)))
    assert out == render_table_csv(expected)


def test_query_writes_csv_to_stdout(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, out, err = _run(
        capsys, "query", "--warehouse", str(wh), "--measure", "AVG(tr_grade)", "--group-by", "dep_name"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "dep_name,avg_tr_grade"
    assert len(lines) == 7  # six departments plus header


def test_query_count_star(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, out, _ = _run(capsys, "query", "--warehouse", str(wh), "--measure", "COUNT(*)")
    assert code == 0
    catalog = json.loads((wh / "catalog.json").read_text())
    fact_rows = next(r["row_count"] for r in catalog["relations"] if r["name"] == "transcript")
    assert out.strip().splitlines()[1] == str(fact_rows)


def test_query_filters_and_multiple_measures(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, out, _ = _run(
        capsys,
        "query", "--warehouse", str(wh),
        "--measure", "COUNT(*)", "--measure", "AVG(tr_grade)",
        "--group-by", "tr_semester,tr_year",
        "--filter", "tr_year = 2012",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "tr_semester,tr_year,count_all,avg_tr_grade"
    assert all(",2012," in line for line in lines[1:])


def test_unknown_attribute_exits_one(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, _, err = _run(capsys, "query", "--warehouse", str(wh), "--measure", "AVG(no_such)")
    assert code == 1 and "no_such" in err


def test_bad_measure_exits_three(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, _, _ = _run(capsys, "query", "--warehouse", str(wh), "--measure", "MEDIAN(tr_grade)")
    assert code == 3


def test_write_flavored_commands_on_warehouse_exit_four(cli_dirs, extracted_dir, capsys, tmp_path):
    base, src, wh = cli_dirs
    staging = str(extracted_dir)
    cases = [
        ["transform", "--staging", str(wh)],
        ["cleanse", "--staging", str(wh)],
        ["extract", "--src", str(src), "--out", str(wh)],
        ["gen", "--out", str(wh)],
        ["build", "--src", str(src), "--out", str(wh)],
        ["load", "--staging", str(wh), "--out", str(tmp_path / "x")],
        # inside a warehouse
        ["extract", "--src", str(src), "--out", str(wh / "s")],
        ["gen", "--out", str(wh / "g")],
        ["build", "--src", str(src), "--out", str(wh / "x")],
        ["load", "--staging", staging, "--out", str(wh / "x")],
        ["cleanse", "--staging", staging, "--out", str(wh / "s")],
    ]
    before = _files(wh)
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 4, argv
        assert "frozen" in err or "read-only" in err
        assert _files(wh) == before and sorted(p.name for p in wh.iterdir()) == sorted(before), argv


def test_tampered_warehouse_exits_five(cli_dirs, tmp_path, capsys):
    import shutil

    _, _, wh = cli_dirs
    work = tmp_path / "wh"
    shutil.copytree(wh, work)
    victim = work / "student.1.col"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x40
    victim.write_bytes(bytes(data))
    code, _, err = _run(capsys, "query", "--warehouse", str(work), "--measure", "COUNT(*)")
    assert code == 5
    assert "student.1.col" in err


def test_missing_source_exits_two(tmp_path, capsys):
    code, _, err = _run(capsys, "extract", "--src", str(tmp_path / "nowhere"), "--out", str(tmp_path / "s"))
    assert code == 2


def test_bad_plan_exits_three(cli_dirs, tmp_path, capsys):
    base, src, wh = cli_dirs
    staging = tmp_path / "s"
    assert run(["extract", "--src", str(src), "--out", str(staging), "--timestamp", TS]) == 0
    bad_plan = tmp_path / "bad.plan"
    bad_plan.write_text("MERGE a, b INTO ;")
    code, _, err = _run(capsys, "transform", "--staging", str(staging), "--plan", str(bad_plan))
    assert code == 3 and "line 1" in err


def test_rules_file_with_non_clean_statement_exits_three(cli_dirs, tmp_path, capsys):
    _, src, _ = cli_dirs
    staging = tmp_path / "s"
    assert run(["extract", "--src", str(src), "--out", str(staging), "--timestamp", TS]) == 0
    rules = tmp_path / "bad.rules"
    rules.write_text("CLEAN student.st_name WITH trim ;\nFACT t ;\n")
    code, _, err = _run(capsys, "cleanse", "--staging", str(staging), "--rules", str(rules))
    assert code == 3 and "line 2" in err and "FACT" in err


def test_bad_manifest_exits_three(tmp_path, capsys):
    bad = tmp_path / "schema.txt"
    bad.write_text("TABLE t\n  a WAT PK\n")
    code, _, err = _run(capsys, "extract", "--schema", str(bad), "--src", str(tmp_path), "--out", str(tmp_path / "s"))
    assert code == 3


def test_invalid_plan_semantics_exit_one(cli_dirs, tmp_path, capsys):
    base, src, wh = cli_dirs
    staging = tmp_path / "s"
    assert run(["extract", "--src", str(src), "--out", str(staging), "--timestamp", TS]) == 0
    plan = tmp_path / "p.plan"
    plan.write_text("DROP TABLE payroll ;")
    code, _, err = _run(capsys, "transform", "--staging", str(staging), "--plan", str(plan))
    assert code == 1 and "payroll" in err


def test_plan_whose_dimension_loses_its_arm_is_refused_before_any_row_work(tmp_path, cli_dirs, extracted_dir, capsys):
    _, src, _ = cli_dirs
    plan = tmp_path / "p.plan"
    plan.write_text(canonical.canonical_plan_text() + "REMOVE COLUMN alumni.al_st_id ;\n")
    words = "error: plan validation failed: plan: dimensions ['alumni'] are not connected to the fact by foreign keys\n"
    staging = _copy(extracted_dir, tmp_path)
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    before = _files(staging)
    code, _, err = _run(capsys, "transform", "--staging", str(staging), "--plan", str(plan), "--timestamp", TS)
    assert (code, err) == (1, words)
    assert _files(staging) == before
    out = tmp_path / "wh"
    code, _, err = _run(capsys, "build", "--src", str(src), "--plan", str(plan), "--out", str(out),
                        "--keep-staging", str(tmp_path / "kept"), "--timestamp", TS)
    assert (code, err) == (1, words)
    assert not out.exists() and not (tmp_path / "kept").exists()


@pytest.mark.parametrize("sub", [None, "st"], ids=["same", "inside"])
def test_build_refuses_kept_staging_inside_the_warehouse(tmp_path, cli_dirs, capsys, sub):
    _, src, _ = cli_dirs
    out = tmp_path / "wh"
    kept = out if sub is None else out / sub
    code, _, err = _run(capsys, "build", "--src", str(src), "--out", str(out), "--keep-staging", str(kept),
                        "--timestamp", TS)
    assert code == 1 and err == f"error: --keep-staging {kept} lies inside --out {out}, which must hold only the warehouse\n"
    assert list(tmp_path.iterdir()) == []


def test_build_refuses_warehouse_inside_kept_staging(tmp_path, cli_dirs, capsys):
    # an in-place stage on the kept dump would replace it whole, warehouse and all
    _, src, _ = cli_dirs
    kept = tmp_path / "s"
    out = kept / "wh"
    code, _, err = _run(capsys, "build", "--src", str(src), "--out", str(out), "--keep-staging", str(kept),
                        "--timestamp", TS)
    assert code == 1 and err == f"error: --out {out} lies inside --keep-staging {kept}, which a later stage replaces whole\n"
    assert list(tmp_path.iterdir()) == []


def test_stage_refuses_to_replace_a_dump_holding_a_directory(tmp_path, extracted_dir, capsys):
    staging = _copy(extracted_dir, tmp_path)
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    wh = staging / "wh"
    assert _run(capsys, "load", "--staging", str(staging), "--out", str(wh), "--timestamp", TS)[0] == 0
    before = _files(staging)
    rules = tmp_path / "empty.rules"
    rules.write_text("")
    code, _, err = _run(capsys, "cleanse", "--staging", str(staging), "--rules", str(rules), "--timestamp", TS)
    assert code == 1 and err == f"error: refusing to replace staging dump {staging}: it holds the directory {wh}\n"
    assert _files(staging) == before


_NOT_DUMP = "refusing to replace non-empty directory {docs}: it is not a staging dump"
_HOLDS = "refusing to replace staging dump {nested}: it holds the directory {nested}/wh"
_NOT_EMPTY = "refusing to write a warehouse into non-empty directory {docs}"
_FROZEN = "refusing to write {wh}/s: it lies inside a frozen warehouse; warehouses are read-only"

# each writing command with an output that the replace rule refuses: its
# words, the exit code and the error message
_REFUSED = [
    ("gen --out {docs}", 1, "refusing to replace non-empty directory {docs}: it is not gen output"),
    ("gen --out {wh}/s", 4, _FROZEN),
    ("extract --src {src} --out {docs}", 1, _NOT_DUMP),
    ("extract --src {nowhere} --out {docs}", 1, _NOT_DUMP),  # extract_database reads the source
    ("cleanse --staging {staging} --out {docs}", 1, _NOT_DUMP),
    ("cleanse --staging {nested}", 1, _HOLDS),
    ("transform --staging {staging} --out {docs}", 1, _NOT_DUMP),
    ("transform --staging {nested}", 1, _HOLDS),
    ("load --staging {staging} --out {docs}", 1, _NOT_EMPTY),
    ("load --staging {staging} --out {wh}/s", 4, _FROZEN),
    ("build --src {src} --out {docs}", 1, _NOT_EMPTY),
    ("build --src {src} --out {fresh} --keep-staging {docs}", 1, _NOT_DUMP),
    ("build --src {src} --out {fresh} --keep-staging {wh}/s", 4, _FROZEN),
]


@pytest.mark.parametrize("words, code, message", _REFUSED, ids=[w for w, _, _ in _REFUSED])
def test_a_refused_output_stops_the_command_before_its_first_stage(tmp_path, cli_dirs, extracted_dir, capsys,
                                                                   monkeypatch, words, code, message):
    import uwh.cli

    _, src, wh = cli_dirs
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "notes.txt").write_text("keep me\n")
    nested = shutil.copytree(extracted_dir, tmp_path / "nested")
    (nested / "wh").mkdir()
    paths = {"src": src, "staging": extracted_dir, "wh": wh, "docs": docs, "nested": nested,
             "fresh": tmp_path / "fresh", "nowhere": tmp_path / "nowhere"}

    def stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    for name in ("generate", "extract_database", "cleanse_staging", "validate_plan", "execute_plan", "load", "dump_staging"):
        monkeypatch.setattr(uwh.cli, name, stage)
    before = _files(tmp_path), _files(wh)
    argv = [word.format(**paths) for word in words.split()]
    assert _run(capsys, *argv)[::2] == (code, f"error: {message.format(**paths)}\n")
    assert (_files(tmp_path), _files(wh)) == before


@pytest.fixture(scope="module")
def extracted_dir(tmp_path_factory, cli_dirs):
    _, src, _ = cli_dirs
    staging = tmp_path_factory.mktemp("extracted") / "s"
    assert run(["extract", "--src", str(src), "--out", str(staging), "--timestamp", TS]) == 0
    return staging


def _copy(staging, tmp_path):
    import shutil

    return shutil.copytree(staging, tmp_path / "s")


def test_transform_of_raw_cells_exits_one(tmp_path, extracted_dir, capsys):
    # a derivation over a cell that extract could not parse, before cleanse
    staging = load_staging(extracted_dir)
    receipt = staging.tables["receipt"]
    idx = receipt.schema.column_index("re_dateOfPayment")
    receipt.rows[0] = receipt.rows[0][:idx] + (RawCell("soon"),) + receipt.rows[0][idx + 1:]
    dump_staging(staging, tmp_path / "s")
    paid = "ADD COLUMN receipt.re_paidOnDueDate BOOLEAN\n  AS PAID_ON_DUE(receipt.re_dateOfPayment, receipt.re_dueDate) ;\n"
    plan = tmp_path / "paid-first.plan"
    plan.write_text(paid + canonical.canonical_plan_text().replace(paid, ""))
    out = tmp_path / "out"
    code, _, err = _run(capsys, "transform", "--staging", str(tmp_path / "s"), "--plan", str(plan), "--out", str(out))
    assert code == 1 and "Traceback" not in err
    assert err.startswith("error: plan validation failed: statement 0: line 2: receipt.re_dateOfPayment holds 'soon'")
    assert "cleanse the staging first" in err
    assert not out.exists()


def _write(name, tamper):
    """An edit of file ``name`` that leaves the dump's signature as it was."""

    def apply(staging):
        (staging / name).write_bytes(tamper((staging / name).read_bytes()))

    return apply


def _resigned(edit):
    """An edit of the dump in place, signed again after it (``oracles.resign_dump``)."""

    def apply(staging):
        edit(staging)
        oracles.resign_dump(staging)

    return apply


def _meta(key, value):
    """A ``meta.json`` record with ``value`` at ``key``, signed."""
    return lambda staging: oracles.resign_dump(staging, lambda meta: meta.__setitem__(key, value))


@pytest.mark.parametrize(
    "tamper, exit_code, words",
    [
        # a meta.json that cannot hold a signature is unsigned
        (_write("meta.json", lambda data: b"{broken"), 5, "meta.json is corrupt: "),
        (_write("meta.json", lambda data: b"[]"), 5, "meta.json: unsupported or missing format_version"),
        (_meta("dimensions", 5), 1, "meta.json: dimensions must be"),
        (_meta("dimensions", [["student"]]), 1, "meta.json: dimensions must be"),
        (_meta("fact_table", 5), 1, "meta.json: fact_table must be"),
        (_meta("reports", []), 1, "meta.json: reports must be"),
        (_write("meta.json", lambda data: data + b"\xff"), 5, "meta.json is corrupt: "),
        (_write("meta.json", lambda data: re.sub(rb'"self_checksum": "\w+"', b'"x": 0', data)), 5, "meta.json failed its self checksum"),
        # a dump reads, and a stage writes, no file outside its directory
        (_meta("files", {"schema.manifest": "0", "quarantine/../../s.csv": "0"}), 5, "meta.json: files must map"),
        (_resigned(_write("schema.manifest", lambda data: data.replace(b"TABLE", b"TABLE \xff", 1))), 1, "schema.manifest: not valid UTF-8"),
    ],
    ids=["not-json", "list", "dimensions-5", "dimension-not-a-pair", "fact-5", "reports-list", "meta-utf8", "unsigned", "file-outside", "manifest-utf8"],
)
def test_malformed_staging_file_exits_one(tmp_path, extracted_dir, capsys, tamper, exit_code, words):
    # a fault in a signed file exits 1; a meta.json without a signature, 5
    staging = _copy(extracted_dir, tmp_path)
    tamper(staging)
    code, _, err = _run(capsys, "report", "--staging", str(staging))
    assert code == exit_code and err.startswith("error: ") and words in err and "Traceback" not in err
    code, _, err = _run(capsys, "load", "--staging", str(staging), "--out", str(tmp_path / "wh"), "--timestamp", TS)
    assert code == exit_code and words in err
    assert not (tmp_path / "wh").exists()


@pytest.mark.parametrize("stage, option", [("extract", "--schema"), ("transform", "--plan"), ("cleanse", "--rules")])
def test_option_file_that_is_not_utf8_exits_one_and_writes_nothing(tmp_path, cli_dirs, extracted_dir, capsys, stage, option):
    _, src, _ = cli_dirs
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"TABLE t\n  a\xff INTEGER PK\n")
    out = tmp_path / "out"
    if stage == "extract":
        argv = ["extract", "--src", str(src)]
    else:
        staging = _copy(extracted_dir, tmp_path)
        before = _files(staging)
        argv = [stage, "--staging", str(staging)]
    code, _, err = _run(capsys, *argv, option, str(bad), "--out", str(out), "--timestamp", TS)
    assert code == 1 and f"{bad}: not valid UTF-8" in err
    assert not out.exists()
    if stage != "extract":
        assert _files(staging) == before


def test_build_failure_leaves_no_partial_warehouse(tmp_path, capsys):
    src = tmp_path / "src"
    assert run(["gen", "--out", str(src), "--students", "10"]) == 0
    (src / "alumni.csv").unlink()
    out = tmp_path / "wh"
    code, _, err = _run(capsys, "build", "--src", str(src), "--out", str(out))
    assert code == 2 and "alumni" in err
    assert not out.exists()
    leftovers = [p for p in tmp_path.iterdir() if p.name.startswith(".wh-partial-")]
    assert leftovers == []


def test_report_staging_text_and_json(cli_dirs, tmp_path, capsys):
    base, src, wh = cli_dirs
    staging = tmp_path / "s"
    assert run(["extract", "--src", str(src), "--out", str(staging), "--timestamp", TS]) == 0
    code, out, _ = _run(capsys, "report", "--staging", str(staging))
    assert code == 0 and "staging report" in out
    code, out, _ = _run(capsys, "report", "--staging", str(staging), "--json")
    payload = json.loads(out)
    assert len(payload["tables"]) == 14
    assert payload["reports"]["extraction"]


@pytest.mark.parametrize("transform", [5, {"statements": 5}, {"statements": [{"statement": "DROP TABLE t ;"}]}])
def test_report_staging_prints_no_statement_of_a_malformed_transform_report(tmp_path, extracted_dir, capsys, transform):
    staging = _copy(extracted_dir, tmp_path)
    oracles.resign_dump(staging, lambda meta: meta["reports"].__setitem__("transform", transform))
    code, out, err = _run(capsys, "report", "--staging", str(staging))
    assert code == 0 and "staging report" in out and "statement" not in out, err


def test_report_warehouse(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, out, _ = _run(capsys, "report", "--warehouse", str(wh))
    assert code == 0 and "warehouse report" in out and "transcript" in out
    assert sum(line.startswith("index ") for line in out.splitlines()) == 7
    code, out, _ = _run(capsys, "report", "--warehouse", str(wh), "--json")
    payload = json.loads(out)
    assert payload["fact"] == "transcript" and len(payload["relations"]) == 8
    # the indexes are the ones the star join builds, one per catalog join
    joins = json.loads((wh / "catalog.json").read_text())["joins"]
    assert payload["indexes"] == [f"{j['relation']}({','.join(j['columns'])})" for j in joins]


def test_report_requires_exactly_one_target(capsys):
    code, _, err = _run(capsys, "report")
    assert code == 1


def test_identical_invocations_identical_bytes(cli_dirs, tmp_path, capsys):
    base, src, wh = cli_dirs
    outs = []
    for _ in range(2):
        code, out, _ = _run(
            capsys, "query", "--warehouse", str(wh), "--measure", "AVG(tr_grade)", "--group-by", "dep_name"
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


# --- pass-through: a stage re-encodes only what it changed --------------------


def _rendered_afresh(staging):
    """A copy of ``staging`` that keeps no bytes: a dump renders each of its
    tables and quarantines from the rows."""
    from uwh.staging import Quarantine

    copy = staging.clone()
    copy.encoded.clear()
    copy.quarantine = {}
    for name, q in staging.quarantine.items():
        copy.quarantine[name] = fresh = Quarantine(q.columns)
        for row in q.rows:
            fresh.append(row)
    return copy


def _stage_outputs(staging_dir, stage, tmp_path) -> dict:
    """The files ``stage`` writes for the dump in ``staging_dir``, run in
    process on a copy of it that keeps no bytes."""
    from uwh.cleanse import cleanse_staging
    from uwh.transform import execute_plan
    from uwh.warehouse import load

    staging = _rendered_afresh(load_staging(staging_dir))
    if stage == "load":
        load(tmp_path / "expected", staging, timestamp=TS)
        return _files(tmp_path / "expected")
    if stage == "cleanse":
        staging, _ = cleanse_staging(staging, list(canonical.canonical_rules()), timestamp=TS)
    else:
        staging, _ = execute_plan(staging, canonical.canonical_plan(), timestamp=TS)
    return dumps_staging(staging)


def test_each_stage_writes_what_rendering_every_file_writes(tmp_path, cli_dirs, capsys):
    from uwh.ingest import extract_database

    _, src, _ = cli_dirs
    st, wh = tmp_path / "st", tmp_path / "wh"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(st), "--timestamp", TS)[0] == 0
    assert _files(st) == dumps_staging(extract_database(src, canonical.canonical_schema(), timestamp=TS)[0])
    for stage in ("cleanse", "transform", "load"):
        expected = _stage_outputs(st, stage, tmp_path / stage)
        assert load_staging(st).encoded, "no table of the dump is kept as bytes"
        argv = ["--out", str(wh)] if stage == "load" else []
        assert _run(capsys, stage, "--staging", str(st), *argv, "--timestamp", TS)[0] == 0
        assert _files(wh if stage == "load" else st) == expected, stage
        # and the dump reads back to the staging that renders it
        assert dumps_staging(_rendered_afresh(load_staging(st))) == _files(st)


def _edit_first_field(table, column, edit):
    def apply(staging_dir):
        path = staging_dir / f"{table}.csv"
        header, row, rest = path.read_bytes().split(b"\n", 2)
        fields = row.split(b",")
        i = header.split(b",").index(column.encode())
        fields[i] = edit(fields[i])
        path.write_bytes(b"\n".join([header, b",".join(fields), rest]))

    return apply


def _edit_file(name, edit):
    def apply(staging_dir):
        path = staging_dir / name
        path.write_bytes(edit(path.read_bytes()))

    return apply


def _bare_empty_quarantine_field(staging_dir):
    for path in sorted((staging_dir / "quarantine").glob("*.csv")):
        data, n = re.subn(rb',""(?=[,\n])', b",", path.read_bytes(), count=1)
        if n:
            path.write_bytes(data)
            return
    raise AssertionError("no quarantine row holds an empty field")


# edits a writer never makes; account is a table the canonical plan keeps as it is
HAND_EDITS = {
    "integer-007": _edit_first_field("account", "ac_id", lambda v: b"00" + v),
    "decimal-1.50": _edit_first_field("account", "ac_balance", lambda v: v + (b"0" if b"." in v else b".0")),
    "boolean-TRUE": _edit_first_field("receipt", "re_paidOnDueDate", bytes.upper),
    "quarantine-bare-empty": _bare_empty_quarantine_field,
    "crlf": _edit_file("account.csv", lambda d: d.replace(b"\n", b"\r\n", 1)),
    "no-final-newline": _edit_file("account.csv", lambda d: d[:-1]),
    "blank-line": _edit_file("account.csv", lambda d: d.replace(b"\n", b"\n\n", 1)),
    "quarantine-crlf": _edit_file("quarantine/student.csv", lambda d: d.replace(b"\n", b"\r\n")),
}


@pytest.fixture(scope="module")
def staged_dirs(tmp_path_factory, cli_dirs):
    """A cleansed and a transformed dump of the dirty CLI drop."""
    _, src, _ = cli_dirs
    base = tmp_path_factory.mktemp("staged")
    cleansed, transformed = base / "cleansed", base / "transformed"
    assert run(["extract", "--src", str(src), "--out", str(cleansed), "--timestamp", TS]) == 0
    assert run(["cleanse", "--staging", str(cleansed), "--timestamp", TS]) == 0
    assert run(["transform", "--staging", str(cleansed), "--out", str(transformed), "--timestamp", TS]) == 0
    return {"transform": cleansed, "load": transformed}


def _without_volatile(files: dict) -> dict:
    """``files`` with the catalog's ``source_hash`` and self checksum left
    out: they sign the dump a warehouse was loaded from."""
    files = dict(files)
    if "catalog.json" in files:
        catalog = json.loads(files["catalog.json"])
        del catalog["build"]["source_hash"], catalog["self_checksum"]
        files["catalog.json"] = catalog
    return files


@pytest.mark.parametrize(
    "stage, edit",
    # no BOOLEAN column comes before the transform
    [(s, e) for s in ("transform", "load") for e in sorted(HAND_EDITS) if (s, e) != ("transform", "boolean-TRUE")],
)
def test_a_hand_edited_dump_is_rendered_as_before(tmp_path, staged_dirs, capsys, stage, edit):
    """A hand edit is refused until the dump is signed again. Signed, the
    edited file reads as the cells it spells, and the stage writes what
    rendering those cells writes: the load writes the same warehouse but
    for the catalog's signature of its source dump, and the dump the
    transform writes renders back to the same dump."""
    st = shutil.copytree(staged_dirs[stage], tmp_path / "st")
    before = _files(st)
    HAND_EDITS[edit](st)
    edited = _files(st)
    changed = [name for name in edited if edited[name] != before.get(name)]
    assert len(changed) == 1
    out = tmp_path / "out"
    argv = [stage, "--staging", str(st), "--out", str(out), "--timestamp", TS]
    code, _, err = _run(capsys, *argv)
    assert (code, err) == (5, f"error: checksum mismatch in {changed[0]}\n")
    assert not out.exists() and _files(st) == edited
    oracles.resign_dump(st)
    expected = _stage_outputs(st, stage, tmp_path)
    code, _, err = _run(capsys, *argv)
    assert code == 0, err
    if stage == "load":
        assert _without_volatile(_files(out)) == _without_volatile(expected)
    else:
        assert dumps_staging(_rendered_afresh(load_staging(out))) == expected


# an edit of one tr_grade, as in a hand-corrected dump
_GRADE_EDIT = _edit_first_field("transcript", "tr_grade", lambda v: b"77" if v != b"77" else b"78")


@pytest.fixture(scope="module")
def kept_dir(tmp_path_factory, cli_dirs):
    _, src, _ = cli_dirs
    base = tmp_path_factory.mktemp("kept")
    argv = ["build", "--src", str(src), "--out", str(base / "wh"), "--keep-staging", str(base / "kept"), "--timestamp", TS]
    assert run(argv) == 0
    return base / "kept"


@pytest.mark.parametrize(
    "tamper, words",
    [
        (_GRADE_EDIT, "checksum mismatch in transcript.csv"),
        (lambda st: (st / "transcript.csv").unlink(), "missing file transcript.csv"),
        (lambda st: oracles.resign_dump(st, lambda meta: meta.pop("format_version")), "meta.json: unsupported or missing format_version"),
    ],
    ids=["edited-grade", "deleted-file", "no-format-version"],
)
@pytest.mark.parametrize("stage", ["cleanse", "transform", "load", "report"])
def test_an_edited_dump_is_refused_by_every_stage(tmp_path, kept_dir, capsys, tamper, words, stage):
    st = shutil.copytree(kept_dir, tmp_path / "st")
    tamper(st)
    tampered = _files(st)
    argv = {
        "load": ["load", "--staging", str(st), "--out", str(tmp_path / "wh"), "--timestamp", TS],
        "report": ["report", "--staging", str(st)],
    }.get(stage, [stage, "--staging", str(st), "--timestamp", TS])  # in place
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (5, "", f"error: {words}\n")
    assert _files(st) == tampered and not (tmp_path / "wh").exists()


@pytest.mark.parametrize(
    "tamper, words",
    [
        (lambda data: data + b"arity,\xff\n", "not valid UTF-8"),
        (lambda data: data + b'arity,"1\n', "unterminated quoted field"),
        (lambda data: data.replace(b"_reason", b"reason", 1), "header must start with _reason"),
    ],
    ids=["utf8", "unterminated-quote", "header"],
)
def test_a_malformed_quarantine_file_exits_one(tmp_path, staged_dirs, capsys, tamper, words):
    st = shutil.copytree(staged_dirs["load"], tmp_path / "st")
    path = st / "quarantine" / "student.csv"
    path.write_bytes(tamper(path.read_bytes()))
    oracles.resign_dump(st)
    code, _, err = _run(capsys, "report", "--staging", str(st))
    assert code == 1 and err.startswith("error: quarantine/student.csv: ") and words in err
    code, _, err = _run(capsys, "load", "--staging", str(st), "--out", str(tmp_path / "wh"), "--timestamp", TS)
    assert code == 1 and words in err and "Traceback" not in err
    assert not (tmp_path / "wh").exists()


def _snapshot(staging):
    """Each table with its row list and a copy of the rows, and each
    quarantine with its record list and a copy of the records."""
    return (
        {name: (t, t.rows, list(t.rows)) for name, t in staging.tables.items()},
        {name: (q, q.records, list(q.records)) for name, q in staging.quarantine.items()},
    )


@pytest.mark.parametrize("stage", ["cleanse_staging", "reconcile_foreign_keys", "execute_plan", "load"])
def test_no_stage_mutates_the_staging_it_received(tmp_path, extracted_dir, staged_dirs, stage):
    # a loaded table keeps its file's bytes while it is the same Table with the same rows
    from uwh.cleanse import cleanse_staging, reconcile_foreign_keys
    from uwh.transform import execute_plan
    from uwh.warehouse import load

    runs = {
        "cleanse_staging": (extracted_dir, lambda s: cleanse_staging(s, list(canonical.canonical_rules()), timestamp=TS)),
        "reconcile_foreign_keys": (extracted_dir, lambda s: reconcile_foreign_keys(s)),
        "execute_plan": (staged_dirs["transform"], lambda s: execute_plan(s, canonical.canonical_plan(), timestamp=TS)),
        "load": (staged_dirs["load"], lambda s: load(tmp_path / "wh", s, timestamp=TS)),
    }
    where, stage_fn = runs[stage]
    staging = load_staging(where)
    tables, quarantine = _snapshot(staging)
    stage_fn(staging)
    assert staging.tables.keys() == tables.keys() and staging.quarantine.keys() == quarantine.keys()
    for name, (table, rows, copy) in tables.items():
        assert staging.tables[name] is table and table.rows is rows and rows == copy, name
    for name, (q, records, copy) in quarantine.items():
        assert staging.quarantine[name] is q and q.records is records and records == copy, name
