from __future__ import annotations

from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cleanse_table_reference, ledger_precision_failures, ledger_recovery_failures
from uwh import canonical
from uwh.cleanse import (
    RULE_KINDS,
    apply_rule,
    cleanse_staging,
    cleanse_table,
    compile_rule,
    dedup,
    make_rule,
    parse_rules,
    reconcile_foreign_keys,
)
from uwh.errors import ValidationError
from uwh.manifest import parse_schema_manifest
from uwh.plan import Clean
from uwh.schema import Table, check_referential_integrity
from uwh.staging import StagingArea, staging_fingerprint
from uwh.values import RawCell, ValueType, make_decimal

PEOPLE = parse_schema_manifest(
    "TABLE people\n"
    "  id INTEGER PK\n"
    "  name TEXT NULL\n"
    "  gender TEXT NULL\n"
    "  born DATE NULL\n"
    "  score DECIMAL NULL\n"
).tables["people"]


def _people(rows):
    return Table(PEOPLE, rows)


def test_trim_rule():
    table, stats = apply_rule(_people([(1, "  John  ", None, None, None)]), make_rule("people", "name", "trim", ()))
    assert table.rows[0][1] == "John"
    assert stats.cells_changed == 1 and stats.cells_examined == 1


def test_collapse_rule():
    table, _ = apply_rule(_people([(1, "John   Smith", None, None, None)]),
                          make_rule("people", "name", "collapse_whitespace", ()))
    assert table.rows[0][1] == "John Smith"


def test_title_case_rule():
    table, _ = apply_rule(_people([(1, "jOHN sMITH", None, None, None)]), make_rule("people", "name", "case", ("title",)))
    assert table.rows[0][1] == "John Smith"


def test_normalize_date_day_first():
    rule = make_rule("people", "born", "normalize_date", ("day_first", "iso"))
    table, stats = apply_rule(_people([(1, None, None, RawCell("31/12/2011"), None)]), rule)
    assert table.rows[0][3] == date(2011, 12, 31)
    assert stats.cells_changed == 1


def test_null_standardize():
    rule = make_rule("people", "name", "null_standardize", ("", "N/A", "NULL", "-", "?"))
    table, stats = apply_rule(_people([(1, "N/A", None, None, None), (2, "Ann", None, None, None)]), rule)
    assert table.rows[0][1] is None and table.rows[1][1] == "Ann"
    assert stats.cells_changed == 1


def test_domain_violation_quarantines_row():
    rules = [make_rule("people", "gender", "domain", ("M", "F"))]
    table, slice_ = cleanse_table(_people([(1, None, "XX", None, None), (2, None, "F", None, None)]), rules)
    assert [r[0] for r in table.rows] == [2]
    assert slice_.quarantined[0].reason == "out-of-domain:gender"
    assert slice_.rule_stats[0].cells_quarantined == 1


def test_range_violation_quarantines_row():
    rules = [make_rule("people", "score", "range", (0, 100))]
    table, slice_ = cleanse_table(
        _people([(1, None, None, None, make_decimal("150")), (2, None, None, None, make_decimal("99")),
                 (3, None, None, None, make_decimal("0")), (4, None, None, None, make_decimal("100"))]), rules
    )
    assert [r[0] for r in table.rows] == [2, 3, 4]  # both bounds are inside the range
    assert slice_.quarantined[0].reason == "out-of-range:score"


def test_unparseable_date_quarantines_row():
    rules = [make_rule("people", "born", "normalize_date", ("iso", "day_first"))]
    table, slice_ = cleanse_table(_people([(1, None, None, RawCell("soon"), None)]), rules)
    assert not table.rows
    assert slice_.quarantined[0].reason == "unparseable-date:born"


def test_surviving_raw_cell_quarantines_row():
    table, slice_ = cleanse_table(_people([(1, None, None, None, RawCell("twelve"))]), [])
    assert not table.rows
    assert slice_.quarantined[0].reason == "type:score"


def test_repaired_raw_cell_reparses_to_declared_type():
    rules = [make_rule("people", "score", "trim", ())]
    table, slice_ = cleanse_table(_people([(1, None, None, None, RawCell(" 88.5 "))]), rules)
    assert table.rows[0][4] == make_decimal("88.5")
    assert not isinstance(table.rows[0][4], RawCell)


def test_trimmed_raw_cells_reparse_to_falsy_values():
    schema = parse_schema_manifest("TABLE t\n  id INTEGER PK\n  n INTEGER NULL\n  b BOOLEAN NULL\n  d DECIMAL NULL\n").tables["t"]
    rules = [make_rule("t", c, "trim", ()) for c in ("n", "b", "d")]
    table, slice_ = cleanse_table(Table(schema, [(1, RawCell(" 0 "), RawCell(" false "), RawCell(" 0.0 "))]), rules)
    assert not slice_.quarantined
    assert [(type(v), v) for v in table.rows[0]] == [(int, 1), (int, 0), (bool, False), (Decimal, Decimal("0"))]


def test_rule_type_compat_is_checked():
    with pytest.raises(ValueError, match=r"^rule people.name range\(0, 1\): range applies to numeric columns"):
        compile_rule(make_rule("people", "name", "range", (0, 1)), PEOPLE)
    with pytest.raises(ValueError, match=r"^rule people.score case\(upper\): case applies to TEXT columns, score is"):
        compile_rule(make_rule("people", "score", "case", ("upper",)), PEOPLE)
    with pytest.raises(ValueError, match="normalize_date applies to DATE columns, name is TEXT"):
        compile_rule(make_rule("people", "name", "normalize_date", ("iso",)), PEOPLE)
    with pytest.raises(ValueError, match=r"^rule people.ghost trim: people has no column 'ghost'$"):
        compile_rule(make_rule("people", "ghost", "trim", ()), PEOPLE)


def test_rule_args_coerce_to_the_column_type():
    stats, _ = compile_rule(make_rule("people", "score", "range", (0, 100)), PEOPLE)
    assert stats.rule.args == (make_decimal("0"), make_decimal("100"))
    stats, _ = compile_rule(make_rule("people", "born", "domain", ("2011-01-02",)), PEOPLE)
    assert stats.rule.args == (date(2011, 1, 2),)
    for bad in [None, "2011-02-30"]:  # a NULL argument is refused, as is a date that does not exist
        with pytest.raises(ValueError, match=r"^rule people.born domain\("):
            compile_rule(make_rule("people", "born", "domain", (bad,)), PEOPLE)


def test_make_rule_arg_validation():
    with pytest.raises(ValueError):
        make_rule("t", "c", "who_knows", ())
    with pytest.raises(ValueError):
        make_rule("t", "c", "case", ("sideways",))
    with pytest.raises(ValueError):
        make_rule("t", "c", "range", (100, 0))
    with pytest.raises(ValueError):
        make_rule("t", "c", "trim", ("x",))


def test_cleanse_table_second_pass_is_identity():
    rules = [
        make_rule("people", "name", "null_standardize", ("", "N/A")),
        make_rule("people", "name", "trim", ()),
        make_rule("people", "name", "collapse_whitespace", ()),
        make_rule("people", "name", "case", ("title",)),
        make_rule("people", "born", "normalize_date", ("iso", "day_first")),
    ]
    dirty = _people(
        [
            (1, "  ann  lee ", None, RawCell("31/12/2011"), None),
            (2, "N/A", None, None, None),
            (3, "Bob Ray", None, date(2011, 1, 1), None),
        ]
    )
    once, slice1 = cleanse_table(dirty, rules)
    twice, slice2 = cleanse_table(once, rules)
    assert twice.rows == once.rows
    assert sum(s.cells_changed for s in slice2.rule_stats) == 0
    assert not slice2.quarantined


def test_cleanse_empty_table():
    table, slice_ = cleanse_table(_people([]), [make_rule("people", "name", "trim", ())])
    assert not table.rows
    assert slice_.rows_in == slice_.rows_out == 0
    assert all(s.cells_examined == 0 for s in slice_.rule_stats)


# one column of each type, with a non-nullable TEXT column for the strict check
MIXED = parse_schema_manifest(
    "TABLE t\n"
    "  id INTEGER PK\n"
    "  name TEXT NULL\n"
    "  code TEXT\n"
    "  flag BOOLEAN NULL\n"
    "  born DATE NULL\n"
    "  score DECIMAL NULL\n"
    "  qty INTEGER NULL\n"
).tables["t"]

_TOKENS = ("", "N/A", "NULL", "-", "?")
_WORDS = ("ann", "Ann", "BOB", "x")
_RAW_TEXT = (" 12 ", "12", "3.5", " 88.5 ", "abc", "true", "yes", "2011-01-02", "31/12/2011", "12/31/2011",
             "31/02/2011", "March 3, 2011", "soon", "N/A", "  ", "a  b")
_PADDED = st.sampled_from(_WORDS + _TOKENS + ("  ann  lee ", "bob\t ray", " x", "ann lee  "))
_INTS = st.integers(-5, 120)
_DECS = st.decimals(-5, 120, places=1, allow_nan=False, allow_infinity=False).map(make_decimal)
_DATES = st.dates(date(2010, 1, 1), date(2012, 12, 31))
_TYPED = {
    ValueType.INTEGER: _INTS,
    ValueType.TEXT: _PADDED,
    ValueType.BOOLEAN: st.booleans(),
    ValueType.DATE: _DATES,
    ValueType.DECIMAL: _DECS,
}
_DOMAIN_ARGS = {
    ValueType.INTEGER: st.sampled_from((0, 1, 12, 100)),
    ValueType.TEXT: st.sampled_from(_WORDS + ("ann lee",)),
    ValueType.BOOLEAN: st.booleans(),
    ValueType.DATE: st.sampled_from((date(2011, 1, 2), date(2011, 12, 31), "2011-03-03")),
    ValueType.DECIMAL: st.sampled_from((0, 12, make_decimal("88.5"), make_decimal("3.5"))),
}


@st.composite
def _rules(draw):
    kind = draw(st.sampled_from(RULE_KINDS))
    columns = MIXED.columns
    if kind == "case":
        columns = [c for c in columns if c.type is ValueType.TEXT]
    elif kind == "normalize_date":
        columns = [c for c in columns if c.type is ValueType.DATE]
    elif kind == "range":
        columns = [c for c in columns if c.type in (ValueType.INTEGER, ValueType.DECIMAL)]
    col = draw(st.sampled_from(columns))
    if kind == "case":
        args = (draw(st.sampled_from(("upper", "lower", "title"))),)
    elif kind == "normalize_date":
        args = tuple(draw(st.lists(st.sampled_from(("iso", "day_first", "month_first", "month_name")), min_size=1)))
    elif kind == "null_standardize":
        args = tuple(draw(st.lists(st.sampled_from(_TOKENS), min_size=1)))
    elif kind == "domain":
        args = tuple(draw(st.lists(_DOMAIN_ARGS[col.type], min_size=1, max_size=3)))
    elif kind == "range":
        bound = _INTS if col.type is ValueType.INTEGER else st.one_of(_INTS, _DECS)
        args = tuple(sorted(draw(st.lists(bound, min_size=2, max_size=2))))
    else:
        args = ()
    return make_rule("t", col.name, kind, args)


def _cell(col):
    raw = st.sampled_from(_RAW_TEXT).map(RawCell)
    return st.one_of(st.none(), raw, _TYPED[col.type])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cleanse_table_matches_rule_by_rule_reference(data):
    """The one-pass cleanse_table against one whole-table pass per rule:
    same rows, same quarantine rows in the same order, same per-rule counts."""
    rules = data.draw(st.lists(_rules(), max_size=6))
    rows = data.draw(st.lists(st.tuples(*(_cell(c) for c in MIXED.columns)), max_size=12))
    table = Table(MIXED, rows)
    got, got_slice = cleanse_table(table, rules)
    want, want_slice = cleanse_table_reference(table, rules)
    assert got.rows == want.rows
    assert [type(v) for r in got.rows for v in r] == [type(v) for r in want.rows for v in r]
    assert got_slice.quarantined == want_slice.quarantined
    assert [(s.rule, s.cells_examined, s.cells_changed, s.cells_quarantined) for s in got_slice.rule_stats] == [
        (s.rule, s.cells_examined, s.cells_changed, s.cells_quarantined) for s in want_slice.rule_stats
    ]
    assert (got_slice.rows_in, got_slice.rows_out, got_slice.rows_quarantined) == (
        want_slice.rows_in,
        want_slice.rows_out,
        want_slice.rows_quarantined,
    )


# --- dedup -------------------------------------------------------------------


def test_dedup_collapses_exact_duplicates():
    table, slice_ = dedup(_people([(1, "A", None, None, None), (1, "A", None, None, None)]))
    assert len(table.rows) == 1 and slice_.exact_removed == 1


def test_dedup_keeps_all_distinct():
    rows = [(1, "A", None, None, None), (2, "B", None, None, None)]
    table, slice_ = dedup(_people(rows))
    assert table.rows == rows and slice_.exact_removed == 0 and slice_.pk_conflicts == 0


def test_dedup_pk_conflict_quarantines_second():
    table, slice_ = dedup(_people([(1, "A", None, None, None), (1, "B", None, None, None)]))
    assert [r[1] for r in table.rows] == ["A"]
    assert slice_.pk_conflicts == 1
    assert slice_.quarantined[0].reason == "pk-conflict"
    assert slice_.quarantined[0].fields[1] == "B"


def test_dedup_preserves_first_occurrence_order():
    rows = [(3, "C", None, None, None), (1, "A", None, None, None), (3, "C", None, None, None), (2, "B", None, None, None)]
    table, _ = dedup(_people(rows))
    assert [r[0] for r in table.rows] == [3, 1, 2]


# --- reconcile ---------------------------------------------------------------


def _orphan_staging():
    db = parse_schema_manifest(
        "TABLE account\n  ac_id INTEGER PK\n"
        "TABLE receipt\n  re_id INTEGER PK\n  re_ac_id INTEGER FK account(ac_id)\n"
        "TABLE note\n  no_id INTEGER PK\n  no_ac_id INTEGER NULL FK account(ac_id)\n"
    )
    return StagingArea(
        tables={
            "account": Table(db.tables["account"], [(1,)]),
            "receipt": Table(db.tables["receipt"], [(10, 1), (11, 99)]),
            "note": Table(db.tables["note"], [(20, 1), (21, 77)]),
        }
    )


def test_reconcile_quarantines_orphans_by_default():
    staging, stats = reconcile_foreign_keys(_orphan_staging())
    assert [r[0] for r in staging.tables["receipt"].rows] == [10]
    assert check_referential_integrity(staging.tables).is_empty()
    assert staging.quarantine["receipt"].rows[0].reason.startswith("orphan:")


def test_reconcile_without_orphans_is_byte_identical():
    staging = _orphan_staging()
    staging.tables["receipt"] = Table(staging.tables["receipt"].schema, [(10, 1)])
    staging.tables["note"] = Table(staging.tables["note"].schema, [(20, 1)])
    before = staging_fingerprint(staging)
    after, stats = reconcile_foreign_keys(staging)
    assert staging_fingerprint(after) == before
    assert stats.iterations == 0


def test_reconcile_cascades_to_fixpoint():
    db = parse_schema_manifest(
        "TABLE a\n  id INTEGER PK\n"
        "TABLE b\n  id INTEGER PK\n  a_ref INTEGER FK a(id)\n"
        "TABLE c\n  id INTEGER PK\n  b_ref INTEGER FK b(id)\n"
    )
    staging = StagingArea(
        tables={
            "a": Table(db.tables["a"], [(1,)]),
            "b": Table(db.tables["b"], [(5, 1), (6, 9)]),
            "c": Table(db.tables["c"], [(7, 5), (8, 6)]),  # 8 -> 6 -> missing a
        }
    )
    out, stats = reconcile_foreign_keys(staging)
    assert [r[0] for r in out.tables["c"].rows] == [7]
    assert stats.iterations == 2
    assert check_referential_integrity(out.tables).is_empty()


# --- whole-staging runs -----------------------------------------------------


def test_cleanse_staging_dirt_accounting(seed42_staging, seed42_ledger):
    cleaned, report = cleanse_staging(seed42_staging, list(canonical.canonical_rules()), timestamp="T")
    assert check_referential_integrity(cleaned.tables).is_empty()
    # conservation per table: in = out + quarantined-at-cleanse + deduped
    for name, flow in report.tables.items():
        dd = report.dedup[name]
        assert flow["rows_in"] == flow["rows_out"] + flow["rows_quarantined"] + dd["exact_removed"] + dd["pk_conflicts"]
    # every ledger-recorded anomaly left a trace somewhere
    touched = (
        sum(r["cells_changed"] for f in report.tables.values() for r in f["rules"])
        + sum(f["rows_quarantined"] for f in report.tables.values())
        + sum(d["exact_removed"] + d["pk_conflicts"] for d in report.dedup.values())
        + sum(e["quarantined"] for e in report.reconcile.values())
        + sum(t["rows_rejected"] for t in seed42_staging.reports["extraction"]["tables"].values())
    )
    assert touched >= len(seed42_ledger.entries)
    # reconcile counts each quarantined row once, under the FK it names
    orphans = [r for q in cleaned.quarantine.values() for r in q.rows if r.reason.startswith("orphan:")]
    assert sum(e["quarantined"] for e in report.reconcile.values()) == len(orphans)


def test_cleanse_staging_idempotent_on_seed42(seed42_cleansed):
    again, report = cleanse_staging(seed42_cleansed, list(canonical.canonical_rules()), timestamp="T")
    assert all(r["cells_changed"] == 0 for f in report.tables.values() for r in f["rules"])
    assert sum(f["rows_quarantined"] for f in report.tables.values()) == 0
    assert all(d["exact_removed"] + d["pk_conflicts"] == 0 for d in report.dedup.values())
    assert report.reconcile == {}


def test_rules_file_roundtrip():
    rules = parse_rules(canonical.canonical_rules_text())
    assert len(rules) == 110
    assert rules[0] == Clean("student", "st_name", "null_standardize", ("", "N/A", "NULL", "-", "?"))
    for rule in rules:
        assert rule.kind in ("trim", "collapse_whitespace", "case", "normalize_date", "null_standardize", "domain", "range")


def test_rules_file_errors():
    from uwh.errors import ParseError

    with pytest.raises(ParseError):
        parse_rules("CLEAN student st_name WITH trim ;")  # missing dot
    with pytest.raises(ValidationError):
        parse_rules("CLEAN student.st_name WITH frobnicate ;")


def test_rules_file_names_a_keyword_spelled_column():
    assert parse_rules("CLEAN t.group WITH trim ;") == [Clean("t", "group", "trim", ())]


def test_report_json_and_text(seed42_staging):
    cleaned, report = cleanse_staging(seed42_staging, list(canonical.canonical_rules()), timestamp="T")
    payload = report.to_json_dict()
    assert set(payload) == {"tables", "dedup", "reconcile"}
    assert cleaned.reports["cleanse"] == {"timestamp": "T", **payload}
    text = report.to_text()
    assert "cleanse report" in text and "total cells changed" in text


@pytest.mark.parametrize("seed, dirty_rate", [(42, 0.02), (7, 0.25)])
def test_cleansing_touches_only_what_the_dirt_ledger_names(tmp_path, seed, dirty_rate):
    # precision: no quarantine but an orphan's and no changed cell without a
    # ledger entry; recall: every entry repaired or quarantined
    from uwh.datagen import GenConfig, generate
    from uwh.ingest import extract_database

    ledger = generate(GenConfig(seed=seed, students=150, semesters=2, dirty_rate=dirty_rate), tmp_path / "src")
    extracted, _ = extract_database(tmp_path / "src", canonical.canonical_schema())
    cleansed, _ = cleanse_staging(extracted, list(canonical.canonical_rules()))
    assert len(ledger.entries) > 0 and sum(map(len, cleansed.quarantine.values())) > 0
    assert ledger_precision_failures(extracted, cleansed, ledger) == []
    assert ledger_recovery_failures(cleansed, ledger) == []
