from __future__ import annotations

import hashlib
from dataclasses import replace
from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TS as FIXTURE_TS, schema_after
from oracles import derivation_reference, difficulty_recompute, left_merge_nested_loop, paid_on_due_recompute
from uwh import canonical
from uwh.cleanse import cleanse_staging
from uwh.datagen import GenConfig, generate
from uwh.errors import PlanValidationError, ValidationError
from uwh.ingest import extract_database
from uwh.manifest import parse_schema_manifest
from uwh.plan import AddColumn, Clean, DropTable, Merge, Plan, RemoveColumn, parse_plan, pretty_stmt
from uwh.schema import Table
from uwh.staging import QRow, StagingArea, staging_fingerprint
from uwh.transform import (
    PlanDiagnostic,
    exec_add_column,
    exec_clean,
    exec_drop,
    exec_merge,
    exec_remove_column,
    execute_plan,
)
from uwh.values import RawCell, ValueType, make_decimal, render_cell

TS = "T"

CANONICAL_MERGE = (
    "MERGE department, course, section INTO transcript"
    " ON transcript.tr_se_num = section.se_num"
    " AND transcript.tr_semester = section.se_semester"
    " AND transcript.tr_year = section.se_year"
    " AND section.se_code = course.co_code"
    " AND course.co_dep_id = department.dep_id"
    " KEEP course.co_code, course.co_name, course.co_credits, department.dep_name, section.se_in_id ;"
)

MERGE_CONDS = [
    (("transcript", "tr_se_num"), ("section", "se_num")),
    (("transcript", "tr_semester"), ("section", "se_semester")),
    (("transcript", "tr_year"), ("section", "se_year")),
    (("section", "se_code"), ("course", "co_code")),
    (("course", "co_dep_id"), ("department", "dep_id")),
]
MERGE_KEEP = [
    ("course", "co_code"), ("course", "co_name"), ("course", "co_credits"),
    ("department", "dep_name"), ("section", "se_in_id"),
]


# --- drop ---------------------------------------------------------------------


def test_exec_drop_assets_and_item(seed42_cleansed):
    staging = exec_drop(seed42_cleansed, "assets")
    staging = exec_drop(staging, "item")
    assert "assets" not in staging.tables and "item" not in staging.tables
    assert len(staging.tables) == 12
    # the input staging is untouched
    assert "assets" in seed42_cleansed.tables


def test_exec_drop_unknown_table():
    with pytest.raises(ValidationError) as exc:
        exec_drop(StagingArea(tables={}), "payroll")
    assert "payroll" in str(exc.value)


def test_exec_drop_empty_table_logs_zero_rows():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [])})
    out, report = execute_plan(staging, parse_plan("DROP TABLE t ;"), timestamp=TS)
    assert not out.tables
    assert report["statements"] == [{"statement": "DROP TABLE t ;", "table": "t", "rows": 0}]


# --- merge ---------------------------------------------------------------------


def test_exec_merge_matches_nested_loop_oracle(seed42_cleansed):
    stmt = parse_plan(CANONICAL_MERGE).statements[0]
    before = len(seed42_cleansed.tables["transcript"].rows)
    out = exec_merge(seed42_cleansed, stmt)
    merged = out.tables["transcript"]
    assert len(merged.rows) == before  # left join preserves the base
    for name in ("department", "course", "section"):
        assert name not in out.tables
    expected = left_merge_nested_loop(
        seed42_cleansed.tables, "transcript", ["department", "course", "section"], MERGE_CONDS, MERGE_KEEP
    )
    assert merged.rows == expected
    assert merged.schema.column_names[-5:] == ("co_code", "co_name", "co_credits", "dep_name", "se_in_id")


def test_exec_merge_into_new_table(seed42_cleansed):
    stmt = parse_plan(
        "MERGE activities, registrationActivities INTO registeredActivities"
        " ON registrationActivities.reg_act_id = activities.act_id"
        " KEEP activities.act_name, activities.act_type, activities.ac_supervisor ;"
    ).statements[0]
    out = exec_merge(seed42_cleansed, stmt)
    assert "registeredActivities" in out.tables
    assert "activities" not in out.tables and "registrationActivities" not in out.tables
    merged = out.tables["registeredActivities"]
    assert len(merged.rows) == len(seed42_cleansed.tables["registrationActivities"].rows)
    expected = left_merge_nested_loop(
        seed42_cleansed.tables,
        "registrationActivities",
        ["activities"],
        [(("registrationActivities", "reg_act_id"), ("activities", "act_id"))],
        [("activities", "act_name"), ("activities", "act_type"), ("activities", "ac_supervisor")],
    )
    assert merged.rows == expected
    # base FK to student survives under the new name
    assert any(fk.target_table == "student" for fk in merged.schema.foreign_keys)


def test_exec_merge_empty_base_widens_schema():
    db = parse_schema_manifest(
        "TABLE base\n  id INTEGER PK\n  ref INTEGER NULL\n"
        "TABLE side\n  sid INTEGER PK\n  label TEXT\n"
        "TABLE other\n  oid INTEGER PK\n"
    )
    staging = StagingArea(
        tables={
            "base": Table(db.tables["base"], []),
            "side": Table(db.tables["side"], [(1, "x")]),
            "other": Table(db.tables["other"], [(9,)]),
        }
    )
    stmt = parse_plan("MERGE side, other INTO base ON base.ref = side.sid AND other.oid = side.sid KEEP side.label ;").statements[0]
    out = exec_merge(staging, stmt)
    assert out.tables["base"].rows == []
    assert out.tables["base"].schema.column_names == ("id", "ref", "label")


def test_exec_merge_ambiguous_join_is_an_error(seed42_cleansed):
    # joining only on the semester leg matches many sections per transcript row
    stmt = parse_plan(
        "MERGE section, course INTO transcript"
        " ON transcript.tr_semester = section.se_semester"
        " AND section.se_code = course.co_code"
        " KEEP course.co_name ;"
    ).statements[0]
    with pytest.raises(ValidationError) as exc:
        exec_merge(seed42_cleansed, stmt)
    assert "more than one row" in str(exc.value)


def test_merge_unmatched_base_rows_keep_nulls():
    db = parse_schema_manifest(
        "TABLE base\n  id INTEGER PK\n  ref INTEGER NULL\n"
        "TABLE s1\n  sid INTEGER PK\n  label TEXT\n"
        "TABLE s2\n  tid INTEGER PK\n  sid_ref INTEGER\n  tag TEXT\n"
    )
    staging = StagingArea(
        tables={
            "base": Table(db.tables["base"], [(1, 10), (2, 99), (3, None)]),
            "s1": Table(db.tables["s1"], [(10, "hit")]),
            "s2": Table(db.tables["s2"], [(7, 10, "deep")]),
        }
    )
    stmt = parse_plan(
        "MERGE s1, s2 INTO base ON base.ref = s1.sid AND s2.sid_ref = s1.sid KEEP s1.label, s2.tag ;"
    ).statements[0]
    out = exec_merge(staging, stmt)
    assert out.tables["base"].rows == [(1, 10, "hit", "deep"), (2, 99, None, None), (3, None, None, None)]


_SMALL = st.one_of(st.none(), st.integers(0, 2))

MERGE_DB = parse_schema_manifest(
    "TABLE b\n  id INTEGER PK\n  x INTEGER NULL\n  y INTEGER NULL\n"
    "TABLE s1\n  sid INTEGER PK\n  a INTEGER NULL\n  c INTEGER NULL\n  link INTEGER NULL\n"
    "TABLE s2\n  tid INTEGER PK\n  ref INTEGER NULL\n  tag TEXT NULL\n"
)


def _first_per_key(rows, width):
    """``rows`` without a later row whose first ``width`` cells repeat an
    earlier all-non-Null key (a source may hold any number of Null keys)."""
    seen = set()
    out = []
    for row in rows:
        key = row[:width]
        if None not in key:
            if key in seen:
                continue
            seen.add(key)
        out.append(row)
    return out


@settings(max_examples=150, deadline=None)
@given(
    base=st.lists(st.tuples(_SMALL, _SMALL), max_size=8),
    s1=st.lists(st.tuples(_SMALL, _SMALL, _SMALL), max_size=6),
    s2=st.lists(st.tuples(_SMALL, st.sampled_from(["p", "q", None])), max_size=4),
)
def test_exec_merge_matches_nested_loop_oracle_on_random_tables(base, s1, s2):
    """Two sources, s2 listed first but joined second; s1 on a two-column
    condition; Null keys on both sides and base rows that match nothing."""
    tables = {
        "b": Table(MERGE_DB.tables["b"], [(i, *row) for i, row in enumerate(base)]),
        "s1": Table(MERGE_DB.tables["s1"], [(i, *row) for i, row in enumerate(_first_per_key(s1, 2))]),
        "s2": Table(MERGE_DB.tables["s2"], [(i, *row) for i, row in enumerate(_first_per_key(s2, 1))]),
    }
    stmt = parse_plan(
        "MERGE s2, s1 INTO b ON b.x = s1.a AND b.y = s1.c AND s1.link = s2.ref KEEP s1.sid, s2.tag, s1.a ;"
    ).statements[0]
    out = exec_merge(StagingArea(tables=dict(tables)), stmt)
    expected = left_merge_nested_loop(
        tables,
        "b",
        ["s2", "s1"],
        [(("b", "x"), ("s1", "a")), (("b", "y"), ("s1", "c")), (("s1", "link"), ("s2", "ref"))],
        [("s1", "sid"), ("s2", "tag"), ("s1", "a")],
    )
    assert out.tables["b"].rows == expected


def test_merge_with_no_keep_columns_keeps_every_base_row():
    # the grammar asks for a KEEP column; the AST does not
    stmt = parse_plan("MERGE s2, s1 INTO b ON b.x = s1.a AND b.y = s1.c AND s1.link = s2.ref KEEP s1.sid ;")
    stmt = replace(stmt.statements[0], keep=())
    rows = [(0, 1, 1), (1, None, 2)]
    staging = StagingArea(
        tables={
            "b": Table(MERGE_DB.tables["b"], rows),
            "s1": Table(MERGE_DB.tables["s1"], [(0, 1, 1, 5)]),
            "s2": Table(MERGE_DB.tables["s2"], [(0, 5, "p")]),
        }
    )
    out = exec_merge(staging, stmt)
    assert out.tables["b"].rows == rows and list(out.tables) == ["b"]


# --- derived-column expressions ------------------------------------------------


def _derived(table, text):
    """The cells ``ADD COLUMN`` derives for the rows of ``table``, in order."""
    stmt = parse_plan(text).statements[0]
    out = exec_add_column(StagingArea(tables={table.name: table}), stmt)
    return [row[-1] for row in out.tables[table.name].rows]


def _receipt_table(rows):
    db = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  paid DATE NULL\n  due DATE NULL\n")
    return Table(db.tables["r"], rows)


@pytest.mark.parametrize(
    "payment,due,expected",
    [
        (date(2011, 9, 1), date(2011, 9, 15), True),
        (None, date(2011, 9, 15), False),
        (date(2011, 9, 15), date(2011, 9, 15), True),  # boundary: on the day
        (date(2011, 9, 16), date(2011, 9, 15), False),
        (date(2011, 9, 1), None, False),
    ],
)
def test_paid_on_due(payment, due, expected):
    table = _receipt_table([(1, payment, due)])
    [got] = _derived(table, "ADD COLUMN r.x BOOLEAN AS PAID_ON_DUE(r.paid, r.due) ;")
    assert got is expected
    assert paid_on_due_recompute(payment, due) is expected


def _grades_table(rows):
    db = parse_schema_manifest("TABLE g\n  id INTEGER PK\n  code TEXT\n  grade DECIMAL NULL\n")
    return Table(db.tables["g"], rows)


@pytest.mark.parametrize(
    "text, words",
    [
        ("ADD COLUMN r.x BOOLEAN AS PAID_ON_DUE(r.paid, r.due) ;", "r.paid holds 'soon', not a DATE"),
        ("ADD COLUMN r.x BOOLEAN AS r.paid <= r.due ;", "r.paid holds 'soon', not a DATE"),
        ("ADD COLUMN r.x TEXT AS DIFFICULTY(r.grade GROUP BY r.id THRESHOLDS 80, 65) ;", "r.grade holds 'eighty'"),
    ],
    ids=["paid-on-due", "comparison", "difficulty"],
)
def test_derivation_over_a_raw_cell_is_refused(text, words):
    db = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  paid DATE NULL\n  due DATE NULL\n  grade DECIMAL NULL\n")
    table = Table(db.tables["r"], [(1, RawCell("soon"), date(2011, 9, 15), RawCell("eighty"))])
    with pytest.raises(ValidationError) as exc:
        _derived(table, text)
    assert words in str(exc.value) and "cleanse the staging first" in str(exc.value)


def test_clean_repairs_raw_cells_a_derivation_then_reads():
    db = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  paid DATE NULL\n  due DATE NULL\n")
    staging = StagingArea(tables={"r": Table(db.tables["r"], [(1, RawCell("01/09/2011"), date(2011, 9, 15))])})
    plan = parse_plan(
        "CLEAN r.paid WITH normalize_date('day_first', 'iso') ;\n"
        "ADD COLUMN r.x BOOLEAN AS PAID_ON_DUE(r.paid, r.due) ;\n"
    )
    out, _ = execute_plan(staging, plan, timestamp=TS)
    assert out.tables["r"].rows == [(1, date(2011, 9, 1), date(2011, 9, 15), True)]


def test_clean_quarantines_a_raw_cell_in_another_column():
    """A plan CLEAN runs cleanse's row pass over the whole table, so a raw
    cell left in any column quarantines its row."""
    db = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  paid DATE NULL\n  due DATE NULL\n")
    rows = [(1, RawCell("01/09/2011"), RawCell("soon")), (2, None, date(2011, 1, 1))]
    staging = StagingArea(tables={"r": Table(db.tables["r"], rows)})
    out, report = execute_plan(staging, parse_plan("CLEAN r.paid WITH normalize_date('day_first', 'iso') ;"), timestamp=TS)
    assert out.tables["r"].rows == [(2, None, date(2011, 1, 1))]
    assert out.quarantine["r"].rows == [QRow("type:due", ("1", "2011-09-01", "soon"))]
    # the rule changed the paid cell of the row the row check then quarantined
    [entry] = report["statements"]
    assert entry == {
        "statement": "CLEAN r.paid WITH normalize_date('day_first', 'iso') ;",
        "table": "r",
        "rows": 2,
        "cells_changed": 1,
        "rows_quarantined": 1,
    }


def _assert_records_fit_the_header(q) -> None:
    """Each record of quarantine ``q`` but an ``arity`` reject holds a
    field per column of its header."""
    for row in q.rows:
        assert row.reason == "arity" or len(row.fields) == len(q.columns), (q.columns, row)


def test_a_clean_after_add_column_grows_the_quarantine_header():
    db = parse_schema_manifest("TABLE t\n  a INTEGER PK\n  b TEXT NULL\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [(2, "N/A")])})
    staging.add_quarantine("t", ("a", "b"), [QRow("arity", ("1",)), QRow("orphan:t_fk", ("3", "y"))])
    plan = parse_plan("ADD COLUMN t.c INTEGER AS t.a ; CLEAN t.b WITH domain('x') ;")
    out, _ = execute_plan(staging, plan, timestamp=TS)
    q = out.quarantine["t"]
    assert q.to_csv() == b'_reason,a,b,c\narity,1\norphan:t_fk,3,y,""\nout-of-domain:b,2,N/A,2\n'
    _assert_records_fit_the_header(q)
    assert staging.quarantine["t"].columns == ("a", "b")  # the input keeps its own


def test_a_clean_after_remove_column_keeps_the_quarantine_header():
    db = parse_schema_manifest("TABLE t\n  a INTEGER PK\n  b TEXT NULL\n  c TEXT NULL\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [(2, "N/A", "z")])})
    staging.add_quarantine("t", ("a", "b", "c"), [QRow("orphan:t_fk", ("3", "y", "w"))])
    plan = parse_plan("REMOVE COLUMN t.b ; CLEAN t.c WITH domain('x') ;")
    out, _ = execute_plan(staging, plan, timestamp=TS)
    assert out.quarantine["t"].to_csv() == b'_reason,a,b,c\norphan:t_fk,3,y,w\nout-of-domain:c,2,"",z\n'


@st.composite
def _column_plans(draw) -> str:
    """Statements on ``t(a INTEGER PK, b TEXT, c TEXT)`` that add and remove
    TEXT columns and CLEAN one, each CLEAN quarantining the rows whose
    cell is not in its domain."""
    columns, fresh, statements = ["b", "c"], iter(f"n{i}" for i in range(99)), []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["add", "remove", "clean", "clean"] if columns else ["add"]))
        if kind == "add":
            name = next(fresh)
            source = draw(st.sampled_from(["a", *columns]))
            expr = f"t.{source}" if source != "a" else "'k'"
            statements.append(f"ADD COLUMN t.{name} TEXT AS {expr} ;")
            columns.append(name)
        elif kind == "remove":
            name = draw(st.sampled_from(columns))
            statements.append(f"REMOVE COLUMN t.{name} ;")
            columns.remove(name)
        else:
            allowed = ", ".join(f"'{v}'" for v in draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=2)))
            statements.append(f"CLEAN t.{draw(st.sampled_from(columns))} WITH domain({allowed}) ;")
    return " ".join(statements)


@settings(max_examples=150, deadline=None)
@given(plan=_column_plans(), cells=st.lists(st.tuples(st.sampled_from("xyz"), st.sampled_from("xyz")), min_size=1, max_size=6))
def test_every_quarantine_record_fits_its_header_after_column_changes(plan, cells):
    db = parse_schema_manifest("TABLE t\n  a INTEGER PK\n  b TEXT NULL\n  c TEXT NULL\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [(i, b, c) for i, (b, c) in enumerate(cells)])})
    staging.add_quarantine("t", ("a", "b", "c"), [QRow("arity", ("1",)), QRow("pk-conflict", ("0", "", "x,y"))])
    out, _ = execute_plan(staging, parse_plan(plan), timestamp=TS)
    q = out.quarantine["t"]
    assert q.columns[:3] == ("a", "b", "c") and len(set(q.columns)) == len(q.columns)
    _assert_records_fit_the_header(q)


DIFFICULTY_80_65 = "ADD COLUMN g.d TEXT AS DIFFICULTY(g.grade GROUP BY g.code THRESHOLDS 80, 65) ;"


def test_difficulty_buckets():
    rows = [
        (1, "A", make_decimal("90")), (2, "A", make_decimal("85")),   # mean 87.5 -> low
        (3, "B", make_decimal("60")), (4, "B", make_decimal("65")),   # mean 62.5 -> high
        (5, "C", make_decimal("70")), (6, "C", make_decimal("75")),   # mean 72.5 -> medium
        (7, "D", None),                                               # all-Null group -> unknown
    ]
    got = dict(zip((r[1] for r in rows), _derived(_grades_table(rows), DIFFICULTY_80_65)))
    assert got == {"A": "low", "B": "high", "C": "medium", "D": "unknown"}
    assert got == difficulty_recompute([(r[1], r[2]) for r in rows], 80, 65)


def test_difficulty_threshold_boundaries():
    rows = [(1, "A", make_decimal("80")), (2, "B", make_decimal("65")), (3, "C", make_decimal("64.9999"))]
    # mean >= hi, lo <= mean < hi, mean < lo
    assert _derived(_grades_table(rows), DIFFICULTY_80_65) == ["low", "medium", "high"]


def test_coalesce_and_null_comparisons():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n  a TEXT NULL\n  b TEXT NULL\n")
    table = Table(db.tables["t"], [(1, None, "x"), (2, "y", "x"), (3, None, None)])
    assert _derived(table, "ADD COLUMN t.x TEXT AS COALESCE(t.a, t.b) ;") == ["x", "y", None]
    # comparisons with a Null operand are Null, including <>
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a <> t.b ;") == [None, True, None]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a = t.b ;") == [None, False, None]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS IS_NULL(t.a) ;") == [True, False, True]


def test_logic_is_three_valued():
    """SQL's truth tables: every AND and OR pair over Null, FALSE, TRUE and
    NOT of each, and a comparison with a Null operand is Null."""
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n  a BOOLEAN NULL\n  b BOOLEAN NULL\n")
    values = (None, False, True)
    pairs = [(a, b) for a in values for b in values]
    table = Table(db.tables["t"], [(n, a, b) for n, (a, b) in enumerate(pairs)])
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a AND t.b ;") == [
        None, False, None,
        False, False, False,
        None, False, True,
    ]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a OR t.b ;") == [
        None, None, True,
        None, False, True,
        True, True, True,
    ]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS NOT t.a ;")[::3] == [None, True, False]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a = FALSE ;")[::3] == [None, True, False]
    assert _derived(table, "ADD COLUMN t.x BOOLEAN AS t.a OR FALSE ;")[::3] == [None, False, True]



def test_paid_on_due_over_a_null_date_is_false_while_the_comparison_is_null():
    """A missing payment date is no payment on or before the due date, so
    PAID_ON_DUE derives FALSE where the comparison it stands for is Null."""
    db = parse_schema_manifest("TABLE r\n  id INTEGER PK\n  paid DATE NULL\n  due DATE NULL\n")
    table = Table(db.tables["r"], [(1, None, date(2011, 9, 15)), (2, date(2011, 9, 14), None), (3, None, None)])
    assert _derived(table, "ADD COLUMN r.x BOOLEAN AS PAID_ON_DUE(r.paid, r.due) ;") == [False, False, False]
    assert _derived(table, "ADD COLUMN r.x BOOLEAN AS r.paid <= r.due ;") == [None, None, None]

_H = parse_schema_manifest(
    "TABLE h\n  id INTEGER PK\n  i INTEGER NULL\n  j INTEGER NULL\n  d DECIMAL NULL\n  e DECIMAL NULL\n"
    "  s TEXT NULL\n  u TEXT NULL\n  b BOOLEAN NULL\n  c BOOLEAN NULL\n  dt DATE NULL\n  du DATE NULL\n"
).tables["h"]
_INTEGER, _DECIMAL, _TEXT, _BOOLEAN, _DATE = ValueType
_COLUMNS = {_INTEGER: "ij", _DECIMAL: "de", _TEXT: "su", _BOOLEAN: "bc", _DATE: ("dt", "du")}
_CELLS = {
    _INTEGER: st.integers(-3, 3),
    _DECIMAL: st.sampled_from(["-1.5", "0", "2.25", "3"]).map(make_decimal),
    _TEXT: st.sampled_from(["", " x ", "b", "B"]),
    _BOOLEAN: st.booleans(),
    _DATE: st.sampled_from([date(2011, 9, 14), date(2011, 9, 15), date(2012, 2, 29)]),
}
_LITERALS = {_INTEGER: ("0", "3", "-2"), _DECIMAL: ("2.25", "-1.5"), _TEXT: ("''", "' x '", "'b'"), _BOOLEAN: ("TRUE", "FALSE")}
_COERCED = {_DECIMAL: ("3", "-2"), _DATE: ("'2011-09-15'", "'2012-02-29'")}  # literals of another type


@st.composite
def _typed(draw, vtype, depth):
    """(text, is a literal) of a well-typed expression of ``vtype``."""
    kinds = ["column"] + (["literal"] if vtype in _LITERALS else [])
    if depth:
        kinds += ["coalesce"] + {_BOOLEAN: ["cmp", "logical", "not", "is_null", "paid"], _TEXT: ["difficulty"]}.get(vtype, [])
    kind = draw(st.sampled_from(kinds))
    if kind == "column":
        return f"h.{draw(st.sampled_from(_COLUMNS[vtype]))}", False
    if kind == "literal":
        return draw(st.sampled_from(_LITERALS[vtype])), True
    if kind == "coalesce":
        a, b = draw(_pair(vtype, depth - 1))
        return f"COALESCE({a}, {b})", False
    if kind == "cmp":
        t = draw(st.sampled_from(list(ValueType)))
        a, b = draw(_pair(t, depth - 1))
        op = draw(st.sampled_from(["=", "<>"] if t is _BOOLEAN else ["=", "<>", "<", "<=", ">", ">="]))
        return f"({a}) {op} ({b})", False
    if kind == "logical":
        (a, _), (b, _) = draw(_typed(_BOOLEAN, depth - 1)), draw(_typed(_BOOLEAN, depth - 1))
        return f"({a}) {draw(st.sampled_from(['AND', 'OR']))} ({b})", False
    if kind == "not":
        return f"NOT ({draw(_typed(_BOOLEAN, depth - 1))[0]})", False
    if kind == "is_null":
        t = draw(st.sampled_from(list(ValueType)))
        return f"IS_NULL({draw(st.just('NULL') | _typed(t, depth - 1).map(lambda x: x[0]))})", False
    if kind == "paid":
        return f"PAID_ON_DUE(h.{draw(st.sampled_from(['dt', 'du']))}, h.{draw(st.sampled_from(['dt', 'du']))})", False
    grade = draw(st.sampled_from("ijde"))
    group = draw(st.sampled_from([c.name for c in _H.columns]))
    hi, lo = draw(st.sampled_from([("3", "1"), ("2.25", "-1"), ("0", "-0.5")]))
    return f"DIFFICULTY(h.{grade} GROUP BY h.{group} THRESHOLDS {hi}, {lo})", False


@st.composite
def _pair(draw, vtype, depth):
    """Two operand texts that unify to ``vtype``: either may be NULL, and a
    literal of another type stands where the coercion rule (``b`` first)
    turns it into ``vtype``."""
    (a, a_lit), (b, b_lit) = draw(_typed(vtype, depth)), draw(_typed(vtype, depth))
    slots = ["as is", "NULL first", "NULL second"]
    if vtype in _COERCED:
        slots += ["coerced second"] + (["coerced first"] if not b_lit else [])
    if vtype in _COERCED and vtype in _LITERALS:
        slots += ["literal, coerced second"]
    slot = draw(st.sampled_from(slots))
    if slot == "NULL first":
        a = "NULL"
    elif slot == "NULL second":
        b = "NULL"
    elif slot == "coerced first":
        a = draw(st.sampled_from(_COERCED[vtype]))
    elif slot == "coerced second":
        b = draw(st.sampled_from(_COERCED[vtype]))
    elif slot == "literal, coerced second":
        a, b = draw(st.sampled_from(_LITERALS[vtype])), draw(st.sampled_from(_COERCED[vtype]))
    return a, b


_H_ROWS = st.lists(st.tuples(*(st.none() | _CELLS[c.type] for c in _H.columns[1:])), max_size=6).map(
    # the first row holds a Null of each type
    lambda rows: [(n, *cells) for n, cells in enumerate([(None,) * (len(_H.columns) - 1)] + rows)]
)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_add_column_matches_reference_evaluator(data):
    vtype = data.draw(st.sampled_from(list(ValueType)), label="type")
    body = data.draw(st.just("NULL") | _typed(vtype, 3).map(lambda x: x[0]), label="derivation")
    table = Table(_H, data.draw(_H_ROWS, label="rows"))
    stmt = parse_plan(f"ADD COLUMN h.x {vtype.value} AS {body} ;").statements[0]
    got = [row[-1] for row in exec_add_column(StagingArea(tables={"h": table}), stmt).tables["h"].rows]
    assert list(map(repr, got)) == list(map(repr, derivation_reference(stmt.derivation, table, vtype)))


# --- add/remove column -----------------------------------------------------------


def test_add_paid_on_due_column_matches_recompute(seed42_cleansed):
    stmt = parse_plan(
        "ADD COLUMN receipt.re_paidOnDueDate BOOLEAN AS PAID_ON_DUE(receipt.re_dateOfPayment, receipt.re_dueDate) ;"
    ).statements[0]
    out = exec_add_column(seed42_cleansed, stmt)
    table = out.tables["receipt"]
    schema = table.schema
    p = schema.column_index("re_dateOfPayment")
    d = schema.column_index("re_dueDate")
    flag = schema.column_index("re_paidOnDueDate")
    assert table.rows, "cleansed receipts should not be empty"
    for row in table.rows:
        assert row[flag] is paid_on_due_recompute(row[p], row[d])


def test_add_difficulty_column_matches_recompute(seed42_cleansed):
    merged = exec_merge(seed42_cleansed, parse_plan(CANONICAL_MERGE).statements[0])
    stmt = parse_plan(
        "ADD COLUMN transcript.tr_courseDifficulty TEXT"
        " AS DIFFICULTY(transcript.tr_grade GROUP BY transcript.co_code THRESHOLDS 80, 65) ;"
    ).statements[0]
    out = exec_add_column(merged, stmt)
    table = out.tables["transcript"]
    g = table.schema.column_index("tr_grade")
    k = table.schema.column_index("co_code")
    d = table.schema.column_index("tr_courseDifficulty")
    labels = difficulty_recompute([(row[k], row[g]) for row in table.rows], 80, 65)
    assert table.rows
    for row in table.rows:
        assert row[d] == labels[row[k]]


def test_difficulty_is_order_independent(seed42_cleansed):
    import random

    merged = exec_merge(seed42_cleansed, parse_plan(CANONICAL_MERGE).statements[0])
    stmt = parse_plan(
        "ADD COLUMN transcript.tr_courseDifficulty TEXT"
        " AS DIFFICULTY(transcript.tr_grade GROUP BY transcript.co_code THRESHOLDS 80, 65) ;"
    ).statements[0]
    shuffled = merged.clone()
    rows = list(shuffled.tables["transcript"].rows)
    random.Random(5).shuffle(rows)
    shuffled.tables["transcript"] = Table(shuffled.tables["transcript"].schema, rows)
    a = exec_add_column(merged, stmt).tables["transcript"]
    b = exec_add_column(shuffled, stmt).tables["transcript"]
    key = lambda r: tuple(render_cell(c) for c in r)
    assert sorted(map(key, a.rows)) == sorted(map(key, b.rows))


def test_add_column_to_empty_table():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [])})
    out = exec_add_column(staging, parse_plan("ADD COLUMN t.x INTEGER AS 5 ;").statements[0])
    assert out.tables["t"].schema.column_names == ("id", "x")
    assert out.tables["t"].rows == []


def test_add_column_name_collision():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [])})
    with pytest.raises(ValidationError):
        exec_add_column(staging, parse_plan("ADD COLUMN t.id INTEGER AS 5 ;").statements[0])


def test_a_removed_column_can_be_added_back(seed42_cleansed):
    plan = parse_plan(
        "REMOVE COLUMN student.st_address ;\n"
        "ADD COLUMN student.st_address TEXT AS student.st_name ;\n"
        "CLEAN student.st_address WITH trim ;"
    )
    schema_after(plan, seed42_cleansed.schema())
    staging = seed42_cleansed.clone()
    student = staging.tables["student"]
    name = student.schema.column_index("st_name")
    padded = [row if row[name] is None else row[:name] + (f" {row[name]}  ",) + row[name + 1:] for row in student.rows]
    staging.tables["student"] = Table(student.schema, padded)
    student = execute_plan(staging, plan, timestamp=TS)[0].tables["student"]
    address = student.schema.column_index("st_address")
    names = [row[name] for row in padded]
    assert [row[address] for row in student.rows] == [None if n is None else n.strip() for n in names]
    assert any(n is not None for n in names)


def test_remove_columns_canonical_sequence(seed42_cleansed):
    staging = exec_add_column(
        seed42_cleansed,
        parse_plan(
            "ADD COLUMN receipt.re_paidOnDueDate BOOLEAN AS PAID_ON_DUE(receipt.re_dateOfPayment, receipt.re_dueDate) ;"
        ).statements[0],
    )
    staging = exec_remove_column(staging, parse_plan("REMOVE COLUMN receipt.re_dueDate ;").statements[0])
    staging = exec_remove_column(staging, parse_plan("REMOVE COLUMN receipt.re_dateOfPayment ;").statements[0])
    cols = staging.tables["receipt"].schema.column_names
    assert "re_dueDate" not in cols and "re_dateOfPayment" not in cols
    assert "re_paidOnDueDate" in cols


def test_remove_unknown_column():
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n")
    staging = StagingArea(tables={"t": Table(db.tables["t"], [])})
    with pytest.raises(ValidationError) as exc:
        exec_remove_column(staging, parse_plan("REMOVE COLUMN t.ghost ;").statements[0])
    assert "t.ghost" in str(exc.value)


def _column_hash(table, name):
    i = table.schema.column_index(name)
    h = hashlib.sha256()
    for row in table.rows:
        h.update(render_cell(row[i]).encode())
        h.update(b"\x00")
    return h.hexdigest()


def test_remove_column_leaves_others_untouched(seed42_cleansed):
    before = seed42_cleansed.tables["student"]
    hashes = {c: _column_hash(before, c) for c in before.schema.column_names if c != "st_phone"}
    out = exec_remove_column(seed42_cleansed, parse_plan("REMOVE COLUMN student.st_phone ;").statements[0])
    after = out.tables["student"]
    assert len(after.schema.columns) == len(before.schema.columns) - 1
    for c, h in hashes.items():
        assert _column_hash(after, c) == h, c


def test_add_column_leaves_others_untouched(seed42_cleansed):
    before = seed42_cleansed.tables["receipt"]
    hashes = {c: _column_hash(before, c) for c in before.schema.column_names}
    stmt = parse_plan(
        "ADD COLUMN receipt.re_paidOnDueDate BOOLEAN AS PAID_ON_DUE(receipt.re_dateOfPayment, receipt.re_dueDate) ;"
    ).statements[0]
    after = exec_add_column(seed42_cleansed, stmt).tables["receipt"]
    assert len(after.schema.columns) == len(before.schema.columns) + 1
    for c, h in hashes.items():
        assert _column_hash(after, c) == h, c


# --- execute_plan ---------------------------------------------------------------


def test_execute_canonical_plan_shape(seed42_transformed):
    assert len(seed42_transformed.tables) == 8
    assert seed42_transformed.fact_table == "transcript"
    assert [d for d, _ in seed42_transformed.dimensions] == [
        "student", "major", "instructor", "account", "receipt", "registeredActivities", "alumni",
    ]
    report = seed42_transformed.reports["transform"]
    assert report["timestamp"] == FIXTURE_TS
    assert [s["statement"] for s in report["statements"]] == list(map(pretty_stmt, canonical.canonical_plan().statements))


def test_execute_plan_is_deterministic(seed42_cleansed):
    a, _ = execute_plan(seed42_cleansed, canonical.canonical_plan(), timestamp=TS)
    b, _ = execute_plan(seed42_cleansed, canonical.canonical_plan(), timestamp=TS)
    assert staging_fingerprint(a) == staging_fingerprint(b)


def test_execute_plan_failure_preserves_prestate(seed42_cleansed):
    before = staging_fingerprint(seed42_cleansed)
    # statement 2 fits the schema but fails on the data: joining sections by
    # semester only is ambiguous; it is named before the later schema fault
    text = (
        "DROP TABLE assets ;\n"
        "DROP TABLE item ;\n"
        "MERGE section, course INTO transcript"
        " ON transcript.tr_semester = section.se_semester"
        " AND section.se_code = course.co_code"
        " KEEP course.co_name ;\n"
        "DROP TABLE nowhere ;\n"
    )
    with pytest.raises(PlanValidationError) as exc:
        execute_plan(seed42_cleansed, parse_plan(text), timestamp=TS)
    assert str(exc.value).startswith("plan validation failed: statement 2: ambiguous merge: 'section' has more than one row")
    assert staging_fingerprint(seed42_cleansed) == before
    assert "assets" in seed42_cleansed.tables


def test_execute_plan_validates_first(seed42_cleansed):
    before = staging_fingerprint(seed42_cleansed)
    with pytest.raises(PlanValidationError):
        execute_plan(seed42_cleansed, parse_plan("DROP TABLE nowhere ;"), timestamp=TS)
    assert staging_fingerprint(seed42_cleansed) == before


def _run_step(staging, stmt):
    if isinstance(stmt, DropTable):
        return exec_drop(staging, stmt.table)
    step = {Merge: exec_merge, AddColumn: exec_add_column, RemoveColumn: exec_remove_column, Clean: exec_clean}
    return step[type(stmt)](staging, stmt)


@pytest.mark.parametrize(
    "text",
    [
        "DROP TABLE payroll ;",
        "MERGE payroll, section INTO transcript ON transcript.tr_se_num = section.se_num KEEP section.se_room ;",
        "MERGE course, section INTO transcript ON transcript.tr_se_num = section.se_num KEEP course.co_name ;",
        "ADD COLUMN student.x BOOLEAN AS student.st_dob >= 'soon' ;",
        "REMOVE COLUMN student.st_id ;",
        "CLEAN student.ghost WITH trim ;",
        "CLEAN student.st_id WITH case('upper') ;",
        "CLEAN student.st_gender WITH sparkle ;",
    ],
)
def test_steps_raise_what_validation_reports(seed42_cleansed, text):
    """A step called directly fails with the message that validation,
    which runs the same step on empty tables, puts in its diagnostic."""
    stmt = parse_plan(text).statements[0]
    with pytest.raises(PlanValidationError) as planned:
        schema_after(Plan((stmt,)), seed42_cleansed.schema())
    with pytest.raises(ValidationError) as direct:
        _run_step(seed42_cleansed, stmt)
    assert planned.value.diagnostics == [PlanDiagnostic(0, str(direct.value))]


def _canonical_mutants():
    """Every one-statement deletion and every adjacent swap of the canonical plan."""
    stmts = canonical.canonical_plan().statements
    for i in range(len(stmts)):
        yield f"delete-{i}", stmts[:i] + stmts[i + 1:]
    for i in range(len(stmts) - 1):
        yield f"swap-{i}", stmts[:i] + (stmts[i + 1], stmts[i]) + stmts[i + 2:]


MUTANTS = dict(_canonical_mutants())


@pytest.mark.parametrize("mutant", MUTANTS)
def test_validation_predicts_execution(seed42_cleansed, mutant):
    plan = Plan(MUTANTS[mutant])
    before = staging_fingerprint(seed42_cleansed)
    try:
        final = schema_after(plan, seed42_cleansed.schema())
    except PlanValidationError as rejected:
        with pytest.raises(PlanValidationError) as exc:
            execute_plan(seed42_cleansed, plan, timestamp=TS)
        assert exc.value.diagnostics == rejected.diagnostics
        assert staging_fingerprint(seed42_cleansed) == before
    else:
        out, _ = execute_plan(seed42_cleansed, plan, timestamp=TS)
        assert out.schema() == final
        assert list(out.schema().tables) == list(final.tables)


def test_merge_preserves_cardinality_across_seeds():
    for seed in (3, 11):
        import tempfile
        from pathlib import Path

        src = Path(tempfile.mkdtemp())
        generate(GenConfig(seed=seed, students=30, semesters=2, dirty_rate=0.04), src)
        staging, _ = extract_database(src, canonical.canonical_schema(), timestamp=TS)
        cleansed, _ = cleanse_staging(staging, list(canonical.canonical_rules()), timestamp=TS)
        stmt = parse_plan(CANONICAL_MERGE).statements[0]
        before = len(cleansed.tables["transcript"].rows)
        out = exec_merge(cleansed, stmt)
        assert len(out.tables["transcript"].rows) == before
