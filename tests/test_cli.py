from __future__ import annotations

import json

import pytest

from uwh.cli import run

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


def test_stagewise_pipeline_matches_build(tmp_path, cli_dirs, capsys):
    base, src, wh = cli_dirs
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    wh2 = tmp_path / "wh2"
    assert _run(capsys, "load", "--staging", str(staging), "--out", str(wh2), "--timestamp", TS)[0] == 0
    a = json.loads((wh / "catalog.json").read_text())
    b = json.loads((wh2 / "catalog.json").read_text())
    # same relations and row counts; build hashes differ (plan hash is recorded only by build)
    assert a["relations"] == b["relations"]
    assert a["dimensions"] == b["dimensions"]


def test_inplace_stages_leave_only_dumped_files(tmp_path, cli_dirs, capsys):
    from uwh.staging import dumps_staging, load_staging

    _, src, _ = cli_dirs
    staging = tmp_path / "staging"
    assert _run(capsys, "extract", "--src", str(src), "--out", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "cleanse", "--staging", str(staging), "--timestamp", TS)[0] == 0
    assert _run(capsys, "transform", "--staging", str(staging), "--timestamp", TS)[0] == 0
    on_disk = {p.relative_to(staging).as_posix() for p in staging.rglob("*") if p.is_file()}
    assert on_disk == set(dumps_staging(load_staging(staging)))
    assert [p.name for p in tmp_path.iterdir()] == ["staging"]


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


def test_write_flavored_commands_on_warehouse_exit_four(cli_dirs, capsys, tmp_path):
    base, src, wh = cli_dirs
    cases = [
        ["transform", "--staging", str(wh)],
        ["cleanse", "--staging", str(wh)],
        ["extract", "--src", str(src), "--out", str(wh)],
        ["gen", "--out", str(wh)],
        ["build", "--src", str(src), "--out", str(wh)],
        ["load", "--staging", str(wh), "--out", str(tmp_path / "x")],
    ]
    for argv in cases:
        code, _, err = _run(capsys, *argv)
        assert code == 4, argv
        assert "frozen" in err or "read-only" in err


def test_missing_sidecar_query_succeeds_with_notice(cli_dirs, tmp_path, capsys):
    import shutil

    _, _, wh = cli_dirs
    work = tmp_path / "wh"
    shutil.copytree(wh, work)
    (work / "student.st_id.idx").unlink()
    code, out, err = _run(capsys, "query", "--warehouse", str(work), "--measure", "COUNT(*)")
    assert code == 0
    assert "rebuilt" in err and "student.st_id.idx" in err


def test_tampered_warehouse_exits_five(cli_dirs, tmp_path, capsys):
    import shutil

    _, _, wh = cli_dirs
    work = tmp_path / "wh"
    shutil.copytree(wh, work)
    victim = work / "student.csv"
    data = bytearray(victim.read_bytes())
    data[len(data) // 2] ^= 0x40
    victim.write_bytes(bytes(data))
    code, _, err = _run(capsys, "query", "--warehouse", str(work), "--measure", "COUNT(*)")
    assert code == 5
    assert "student.csv" in err


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


def test_report_warehouse(cli_dirs, capsys):
    _, _, wh = cli_dirs
    code, out, _ = _run(capsys, "report", "--warehouse", str(wh))
    assert code == 0 and "warehouse report" in out and "transcript" in out
    code, out, _ = _run(capsys, "report", "--warehouse", str(wh), "--json")
    payload = json.loads(out)
    assert payload["fact"] == "transcript" and len(payload["relations"]) == 8


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
