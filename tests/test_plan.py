from __future__ import annotations

from datetime import date
from decimal import Decimal

import pytest

from conftest import schema_after
from uwh import canonical
from uwh.errors import PlanParseError, PlanValidationError, ValidationError
from uwh.lexer import tokenize
from uwh.manifest import parse_schema_manifest
from uwh.plan import (
    AddColumn,
    Clean,
    Cmp,
    Col,
    Difficulty,
    Dimension,
    DropTable,
    Fact,
    IsNull,
    JoinCond,
    Lit,
    Logical,
    Merge,
    Not,
    Plan,
    RemoveColumn,
    parse_plan,
    pretty_plan,
)
from uwh.schema import Table
from uwh.staging import StagingArea
from uwh.transform import PlanDiagnostic, compile_expr, execute_plan, validate_plan
from uwh.values import ValueType
from uwh.warehouse import load

CANONICAL_DB = canonical.canonical_schema()


# --- tokenize ----------------------------------------------------------------


def test_tokenize_drop_statement():
    tokens = tokenize("DROP TABLE assets ;")
    assert [(t.kind, t.norm) for t in tokens] == [
        ("kw", "DROP"), ("kw", "TABLE"), ("ident", "assets"), ("symbol", ";"), ("eof", ""),
    ]


def test_tokenize_positions_are_one_based():
    tokens = tokenize("DROP TABLE assets ;\nDROP TABLE item ;")
    assert (tokens[0].line, tokens[0].column) == (1, 1)
    assert (tokens[4].line, tokens[4].column) == (2, 1)
    assert (tokens[6].lexeme, tokens[6].line, tokens[6].column) == ("item", 2, 12)


def test_tokenize_comments_and_whitespace_only():
    tokens = tokenize("-- nothing here\n   \n-- more\n")
    assert [t.kind for t in tokens] == ["eof"]


def test_tokenize_keywords_case_insensitive():
    tokens = tokenize("drop Table X")
    assert tokens[0].kind == "kw" and tokens[0].norm == "DROP"
    assert tokens[1].kind == "kw" and tokens[2].kind == "ident"


def test_tokenize_string_escape():
    [tok, _] = tokenize("'it''s'")
    assert tok.kind == "string" and tok.lexeme == "it's"


def test_tokenize_errors_carry_position():
    from uwh.errors import ParseError

    with pytest.raises(ParseError) as exc:
        tokenize("DROP @ TABLE")
    assert exc.value.line == 1 and exc.value.column == 6
    with pytest.raises(ParseError):
        tokenize("'unterminated")
    # through the parser, lexical problems surface as plan parse errors
    with pytest.raises(PlanParseError):
        parse_plan("DROP @ TABLE ;")


def test_bad_date_text_lexes_as_string():
    [tok, _] = tokenize("'2011-13-40'")
    assert tok.kind == "string" and tok.lexeme == "2011-13-40"


# --- parse -------------------------------------------------------------------


def test_parse_canonical_plan_statement_mix():
    plan = canonical.canonical_plan()
    assert len(plan.statements) == 19
    kinds = [type(s).__name__ for s in plan.statements]
    assert kinds.count("DropTable") == 2
    assert kinds.count("Merge") == 2
    assert kinds.count("AddColumn") == 2
    assert kinds.count("RemoveColumn") == 5
    assert kinds.count("Fact") == 1
    assert kinds.count("Dimension") == 7


def test_parse_remove_column():
    plan = parse_plan("REMOVE COLUMN student.st_phone ;")
    assert plan.statements == (RemoveColumn("student", "st_phone"),)


def test_parse_merge_missing_on_reports_position():
    with pytest.raises(PlanParseError) as exc:
        parse_plan("MERGE department, section INTO x ;")
    assert "ON" in str(exc.value)
    assert exc.value.line == 1 and exc.value.column == 34


def test_parse_merge_requires_two_sources():
    with pytest.raises(PlanParseError):
        parse_plan("MERGE a INTO b ON a.x = b.y KEEP a.z ;")


def test_parse_duplicate_fact_rejected():
    with pytest.raises(PlanParseError) as exc:
        parse_plan("FACT a ;\nFACT b ;")
    assert "duplicate FACT" in str(exc.value) and exc.value.line == 2


def test_parse_add_column_with_expression():
    plan = parse_plan(
        "ADD COLUMN receipt.flag BOOLEAN AS PAID_ON_DUE(receipt.p, receipt.d) ;"
    )
    stmt = plan.statements[0]
    assert isinstance(stmt, AddColumn) and stmt.type is ValueType.BOOLEAN


def test_parse_expression_precedence():
    plan = parse_plan("ADD COLUMN t.x BOOLEAN AS t.a = 1 AND t.b = 2 OR NOT t.c = 3 ;")
    expr = plan.statements[0].derivation
    # ((a=1 AND b=2) OR (NOT c=3))
    assert expr.op == "OR"
    assert expr.left.op == "AND"
    assert type(expr.right).__name__ == "Not"


def test_parse_difficulty_thresholds():
    plan = parse_plan(
        "ADD COLUMN t.d TEXT AS DIFFICULTY(t.grade GROUP BY t.code THRESHOLDS 80, 65) ;"
    )
    expr = plan.statements[0].derivation
    assert isinstance(expr, Difficulty)
    assert expr.hi == Decimal("80") and expr.lo == Decimal("65")


def test_parse_clean_statement():
    plan = parse_plan("CLEAN student.st_name WITH case('title') ;")
    assert plan.statements == (Clean("student", "st_name", "case", ("title",)),)


def test_parse_error_on_garbage_statement():
    with pytest.raises(PlanParseError) as exc:
        parse_plan("DROP TABLE assets ;\nSELECT * FROM x ;")
    assert exc.value.line == 2


# --- pretty-print round trip --------------------------------------------------

CORPUS = [
    "DROP TABLE assets ;",
    "REMOVE COLUMN student.st_phone ;",
    "FACT transcript ;",
    "DIMENSION student KEY st_id ;",
    "CLEAN a.b WITH trim ;",
    "CLEAN a.b WITH null_standardize('', 'N/A') ;",
    "ADD COLUMN t.x BOOLEAN AS t.a = 1 AND (t.b = 2 OR NOT t.c = 'z') ;",
    "ADD COLUMN t.x TEXT AS COALESCE(t.a, 'none') ;",
    "ADD COLUMN t.x BOOLEAN AS IS_NULL(COALESCE(t.a, t.b)) ;",
    "ADD COLUMN t.x BOOLEAN AS NOT IS_NULL(t.a) ;",
    "ADD COLUMN t.y DECIMAL AS COALESCE(t.a, -3.5) ;",
    "ADD COLUMN t.x BOOLEAN AS t.a <> t.b OR t.c <= 10 ;",
    "MERGE a, b INTO c ON a.x = b.y KEEP a.z ;",
]


@pytest.mark.parametrize("text", CORPUS)
def test_pretty_roundtrip_corpus(text):
    plan = parse_plan(text)
    assert parse_plan(pretty_plan(plan)) == plan


def test_pretty_roundtrip_canonical_plan():
    plan = canonical.canonical_plan()
    printed = pretty_plan(plan)
    assert parse_plan(printed) == plan
    # canonical form is a fixpoint
    assert pretty_plan(parse_plan(printed)) == printed


def test_one_token_deletion_fuzz_reports_nearby_line():
    """Deleting any single token reports an error at or just past its line.

    The corpus is the gap-free canonical form (one statement per line), so
    an omission is discoverable no later than the following line.
    """
    text = pretty_plan(canonical.canonical_plan())
    tokens = [t for t in tokenize(text) if t.kind != "eof"]
    checked = 0
    for i, tok in enumerate(tokens):
        mutated = _render_without(tokens, i)
        try:
            parse_plan(mutated)
        except PlanParseError as exc:
            assert exc.line is not None
            assert exc.line <= tok.line + 1, f"deleting {tok} reported line {exc.line}"
            checked += 1
    assert checked > 100


def _render_without(tokens, skip_index):
    out = []
    line = 1
    for j, tok in enumerate(tokens):
        if j == skip_index:
            continue
        while line < tok.line:
            out.append("\n")
            line += 1
        lexeme = tok.lexeme
        if tok.kind == "string":
            lexeme = "'" + lexeme.replace("'", "''") + "'"
        out.append(lexeme + " ")
    return "".join(out)


# --- validate ----------------------------------------------------------------


def test_validate_canonical_plan_final_schema():
    final = validate_plan(canonical.canonical_plan(), CANONICAL_DB)
    assert len(final.tables) == 8
    assert set(final.tables) == {
        "student", "major", "account", "receipt", "registeredActivities",
        "transcript", "instructor", "alumni",
    }


def test_validate_is_pure():
    db = canonical.canonical_schema()
    before = dict(db.tables)
    validate_plan(canonical.canonical_plan(), db)
    assert db.tables == before


def test_validate_add_on_dropped_table():
    plan = parse_plan("DROP TABLE assets ;\nADD COLUMN assets.x INTEGER AS 1 ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    [diag] = exc.value.diagnostics
    assert diag.index == 1 and "unknown table" in diag.message


def test_validate_remove_key_column():
    plan = parse_plan("REMOVE COLUMN receipt.re_id ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "cannot remove key column" in exc.value.diagnostics[0].message


def test_validate_remove_column_used_later():
    plan = parse_plan("REMOVE COLUMN receipt.re_dueDate ;\nADD COLUMN receipt.x BOOLEAN AS PAID_ON_DUE(receipt.re_dateOfPayment, receipt.re_dueDate) ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    [diag] = exc.value.diagnostics
    assert diag.index == 1 and "unknown column receipt.re_dueDate" in diag.message


def test_validate_remove_fk_target_column():
    plan = parse_plan("REMOVE COLUMN account.ac_id ;")
    with pytest.raises(PlanValidationError):
        schema_after(plan, CANONICAL_DB)


def test_validate_type_mismatch_in_derivation():
    plan = parse_plan("ADD COLUMN student.x INTEGER AS IS_NULL(student.st_phone) ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "BOOLEAN" in exc.value.diagnostics[0].message


def test_validate_bad_date_literal_in_date_position():
    plan = parse_plan("ADD COLUMN student.x BOOLEAN AS student.st_dob = '2011-13-40' ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "not a valid date literal" in exc.value.diagnostics[0].message


def test_validate_coerces_date_and_decimal_literals():
    plan = parse_plan(
        "ADD COLUMN student.x BOOLEAN AS student.st_dob >= '1990-01-01' ;\n"
        "ADD COLUMN transcript.y BOOLEAN AS transcript.tr_grade >= 80 ;"
    )
    schema_after(plan, CANONICAL_DB)

    def evaluate(stmt, column, value):
        schema = CANONICAL_DB.tables[stmt.table]
        fn, vtype = compile_expr(stmt.derivation, Table(schema, []))
        row = [None] * len(schema.columns)
        row[schema.column_index(column)] = value
        return fn(tuple(row)), vtype

    # an uncoerced '1990-01-01' would make the DATE comparison raise TypeError
    assert evaluate(plan.statements[0], "st_dob", date(1990, 1, 1)) == (True, ValueType.BOOLEAN)
    assert evaluate(plan.statements[0], "st_dob", date(1989, 12, 31)) == (False, ValueType.BOOLEAN)
    assert evaluate(plan.statements[1], "tr_grade", Decimal("80.0000"))[0] is True
    assert evaluate(plan.statements[1], "tr_grade", Decimal("79.9999"))[0] is False


def test_validate_coerces_the_second_of_two_literals():
    schema_after(parse_plan("ADD COLUMN student.x DECIMAL AS COALESCE(2.5, 3) ;"), CANONICAL_DB)
    with pytest.raises(PlanValidationError) as exc:
        schema_after(parse_plan("ADD COLUMN student.x INTEGER AS COALESCE(3, 2.5) ;"), CANONICAL_DB)
    assert "literal Decimal('2.5000') does not match type INTEGER" in exc.value.diagnostics[0].message


def test_paid_on_due_checks_its_payment_column_before_its_due_column():
    plan = parse_plan("ADD COLUMN receipt.x BOOLEAN AS PAID_ON_DUE(receipt.re_amount, receipt.ghost) ;")
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "PAID_ON_DUE needs DATE columns, receipt.re_amount is not" in exc.value.diagnostics[0].message


def test_keyword_spelled_column_names_after_the_dot():
    plan = parse_plan(
        "ADD COLUMN t.key BOOLEAN AS t.date = t.group ;\n"
        "CLEAN t.date WITH trim ;\n"
        "REMOVE COLUMN t.group ;\n"
        "DIMENSION t KEY date ;"
    )
    assert plan.statements[0].derivation == Cmp("=", Col("t", "date"), Col("t", "group"))
    assert plan.statements[1:] == (Clean("t", "date", "trim"), RemoveColumn("t", "group"), Dimension("t", "date"))
    assert parse_plan(pretty_plan(plan)) == plan
    db = parse_schema_manifest("TABLE t\n  id INTEGER PK\n  date TEXT\n  group TEXT\n")
    final = schema_after(plan, db)
    assert final.tables["t"].column_names == ("id", "date", "key")


@pytest.mark.parametrize(
    "text, stmt",
    [
        ("DROP TABLE group ;", DropTable("group")),
        ("FACT date ;", Fact("date")),
        ("DIMENSION key KEY key ;", Dimension("key", "key")),
        ("REMOVE COLUMN group.x ;", RemoveColumn("group", "x")),
        ("CLEAN group.date WITH trim ;", Clean("group", "date", "trim")),
        (
            "MERGE date, key INTO group ON group.x = key.x AND key.y = date.y KEEP date.z ;",
            Merge(
                ("date", "key"),
                "group",
                (JoinCond(Col("group", "x"), Col("key", "x")), JoinCond(Col("key", "y"), Col("date", "y"))),
                (Col("date", "z"),),
            ),
        ),
        (
            "ADD COLUMN group.b BOOLEAN AS group.x = 1 AND NOT IS_NULL(group.date) ;",
            AddColumn(
                "group",
                "b",
                ValueType.BOOLEAN,
                Logical("AND", Cmp("=", Col("group", "x"), Lit(1)), Not(IsNull(Col("group", "date")))),
            ),
        ),
    ],
    ids=["drop", "fact", "dimension", "remove", "clean", "merge", "derivation"],
)
def test_keyword_spelled_table_names(text, stmt):
    plan = parse_plan(text)
    assert plan.statements == (stmt,)
    assert parse_plan(pretty_plan(plan)) == plan


def test_validate_merge_keep_collision():
    ok = parse_plan(
        "MERGE course, section INTO transcript ON transcript.tr_se_num = section.se_num "
        "AND section.se_code = course.co_code KEEP section.se_semester ;"
    )
    schema_after(ok, CANONICAL_DB)
    duplicated_keep = parse_plan(
        "MERGE course, section INTO transcript ON transcript.tr_se_num = section.se_num "
        "AND section.se_code = course.co_code KEEP course.co_name, course.co_name ;"
    )
    with pytest.raises(PlanValidationError) as exc:
        schema_after(duplicated_keep, CANONICAL_DB)
    assert "collides" in exc.value.diagnostics[0].message


def test_validate_keep_from_base_is_rejected():
    plan = parse_plan(
        "MERGE course, section INTO transcript ON transcript.tr_se_num = section.se_num "
        "AND section.se_code = course.co_code KEEP transcript.tr_grade ;"
    )
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "merged source" in exc.value.diagnostics[0].message


def test_validate_merge_disconnected_source():
    plan = parse_plan(
        "MERGE course, item INTO transcript ON transcript.tr_se_num = item.item_id "
        "KEEP course.co_name ;"
    )
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "not connected" in exc.value.diagnostics[0].message


def test_validate_merge_join_type_mismatch():
    plan = parse_plan(
        "MERGE course, section INTO transcript ON transcript.tr_se_num = section.se_code "
        "AND section.se_code = course.co_code KEEP course.co_name ;"
    )
    with pytest.raises(PlanValidationError) as exc:
        schema_after(plan, CANONICAL_DB)
    assert "type mismatch" in exc.value.diagnostics[0].message


def test_validate_fact_table_must_exist():
    plan = parse_plan(canonical.canonical_plan_text().replace("FACT transcript ;", "FACT nowhere ;"))
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(plan, CANONICAL_DB)
    assert exc.value.diagnostics == [PlanDiagnostic(-1, "fact table 'nowhere' does not exist")]


def test_validate_requires_one_fact_seven_dims_for_warehouse():
    plan = parse_plan("DROP TABLE assets ;")
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(plan, CANONICAL_DB)
    assert "FACT" in exc.value.diagnostics[0].message

    text = "FACT transcript ;\n" + "\n".join(
        f"DIMENSION {t} KEY {k} ;"
        for t, k in [("student", "st_id"), ("major", "mj_id"), ("instructor", "in_id"),
                     ("account", "ac_id"), ("receipt", "re_id"), ("alumni", "al_id")]
    )
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(parse_plan(text), CANONICAL_DB)
    assert "expected 7 dimensions, found 6" in exc.value.diagnostics[0].message


def test_validate_duplicate_dimension():
    text = canonical.canonical_plan_text().replace("DIMENSION alumni KEY al_id ;", "DIMENSION student KEY st_id ;")
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(parse_plan(text), CANONICAL_DB)
    assert exc.value.diagnostics == [PlanDiagnostic(-1, "dimensions must be seven distinct non-fact tables")]


# --- the snowflake a plan declares ----------------------------------------------

_DIMS = [f"d{i}" for i in range(1, 8)]


def _star(**extra: str):
    """A fact f and dimensions d1..d7, each joined straight to the fact on
    its key id; ``extra`` adds column lines to a table."""
    text = "TABLE f\n  id INTEGER PK\n" + "".join(f"  {d}_id INTEGER FK {d}(id)\n" for d in _DIMS) + extra.get("f", "")
    for d in _DIMS:
        text += f"TABLE {d}\n  id INTEGER PK\n  code INTEGER NULL\n" + extra.get(d, "")
    return parse_schema_manifest(text)


_DECLARED = "FACT f ;\n" + "".join(f"DIMENSION {d} KEY id ;\n" for d in _DIMS)


def test_validate_small_snowflake():
    final = validate_plan(parse_plan(_DECLARED), _star())
    assert set(final.tables) == {"f", *_DIMS}


@pytest.mark.parametrize(
    "extra, plan, message",
    [
        ({"f": "  again INTEGER FK d1(id)\n"}, _DECLARED, "dimension 'd1' connects through more than one arm"),
        ({"d1": "  d2_id INTEGER FK d2(id)\n"}, _DECLARED, "foreign key d1->d2 makes the dimension graph cyclic or ambiguous"),
        (
            {"f": "  d1_code INTEGER NULL FK d1(code)\n"},
            "REMOVE COLUMN f.d1_id ;\n" + _DECLARED,
            "fact key column(s) ('d1_code',) must reference the dimension key d1.id",
        ),
        ({}, "REMOVE COLUMN f.d7_id ;\n" + _DECLARED, "dimensions ['d7'] are not connected to the fact by foreign keys"),
        ({}, _DECLARED.replace("DIMENSION d7", "DIMENSION d1"), "dimensions must be seven distinct non-fact tables"),
        ({}, _DECLARED.replace("DIMENSION d7", "DIMENSION f"), "dimensions must be seven distinct non-fact tables"),
        ({}, _DECLARED.replace("FACT f", "FACT nowhere"), "fact table 'nowhere' does not exist"),
        ({}, "DROP TABLE d7 ;\n" + _DECLARED, "dimension table 'd7' does not exist"),
        ({}, _DECLARED.replace("DIMENSION d3 KEY id", "DIMENSION d3 KEY nope"), "dimension key d3.nope does not exist"),
    ],
    ids=["two-arms", "cycle", "fact-key", "unconnected", "repeated", "fact-as-dimension", "no-fact-table",
         "no-dimension-table", "no-dimension-key"],
)
def test_validate_refuses_a_declared_snowflake_that_load_would_refuse(extra, plan, message):
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(parse_plan(plan), _star(**extra))
    assert exc.value.diagnostics == [PlanDiagnostic(-1, message)]
    assert str(exc.value) == f"plan validation failed: plan: {message}"


def test_validate_counts_fact_statements_the_parser_would_refuse():
    plan = parse_plan(_DECLARED)
    with pytest.raises(PlanValidationError) as exc:
        validate_plan(Plan(plan.statements + (Fact("f"),)), _star())
    assert exc.value.diagnostics == [PlanDiagnostic(-1, "expected exactly 1 FACT statement, found 2")]


def test_execute_plan_leaves_the_declarations_to_validate_and_load(tmp_path):
    """The library's execute_plan runs a plan whose declarations do not form
    a snowflake; validate_plan and load refuse it."""
    plan = parse_plan("REMOVE COLUMN f.d7_id ;\n" + _DECLARED)
    db = _star()
    staging = StagingArea({name: Table(schema, []) for name, schema in db.tables.items()})
    out, _ = execute_plan(staging, plan)
    assert out.fact_table == "f" and len(out.dimensions) == 7
    with pytest.raises(ValidationError, match=r"dimensions \['d7'\] are not connected"):
        load(tmp_path / "wh", out, timestamp="2026-01-01T00:00:00Z")
    assert list(tmp_path.iterdir()) == []
