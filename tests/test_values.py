from __future__ import annotations

from datetime import date
from decimal import Decimal

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import parse_typed
from uwh.values import (
    RawCell,
    ValueType,
    coerce_literal,
    decimal_text,
    make_decimal,
    parse_date_flexible,
    parse_iso_date,
    render_cell,
    value_tag,
)

decimals_4dp = st.decimals(
    min_value=Decimal("-1000000"), max_value=Decimal("1000000"), places=4, allow_nan=False, allow_infinity=False
)


def test_value_tags():
    assert value_tag(None) is None
    assert value_tag(True) is ValueType.BOOLEAN  # bool before int
    assert value_tag(3) is ValueType.INTEGER
    assert value_tag(make_decimal("1.5")) is ValueType.DECIMAL
    assert value_tag("x") is ValueType.TEXT
    assert value_tag(RawCell("x")) is ValueType.TEXT
    assert value_tag(date(2011, 1, 1)) is ValueType.DATE


@pytest.mark.parametrize(
    "text,vtype,expected",
    [
        ("42", ValueType.INTEGER, 42),
        ("-7", ValueType.INTEGER, -7),
        ("80.5", ValueType.DECIMAL, Decimal("80.5000")),
        ("true", ValueType.BOOLEAN, True),
        ("FALSE", ValueType.BOOLEAN, False),
        ("2011-12-31", ValueType.DATE, date(2011, 12, 31)),
        ("anything", ValueType.TEXT, "anything"),
    ],
)
def test_parse_typed_accepts(text, vtype, expected):
    assert parse_typed(text, vtype) == expected


@pytest.mark.parametrize(
    "text,vtype",
    [
        ("abc", ValueType.INTEGER),
        ("1 2", ValueType.INTEGER),
        ("12.12345", ValueType.DECIMAL),  # more than 4 fractional digits
        ("1e3", ValueType.DECIMAL),
        ("yes", ValueType.BOOLEAN),
        ("31/12/2011", ValueType.DATE),  # loose formats are cleansing's job
        (" 2011-12-31", ValueType.DATE),
        (str(2**63), ValueType.INTEGER),
    ],
)
def test_parse_typed_rejects(text, vtype):
    with pytest.raises(ValueError):
        parse_typed(text, vtype)


def test_decimal_text_canonical():
    assert decimal_text(Decimal("80.0000")) == "80"
    assert decimal_text(Decimal("72.5000")) == "72.5"
    assert decimal_text(Decimal("0.0001")) == "0.0001"
    assert decimal_text(Decimal("-0.0000")) == "0"


@given(st.lists(decimals_4dp, min_size=1, max_size=50), st.randoms())
def test_decimal_sum_is_order_independent(values, rng):
    values = [make_decimal(v) for v in values]
    shuffled = list(values)
    rng.shuffle(shuffled)
    assert sum(values, Decimal(0)) == sum(shuffled, Decimal(0))


@given(decimals_4dp)
def test_decimal_render_roundtrip(value):
    value = make_decimal(value)
    assert parse_typed(decimal_text(value), ValueType.DECIMAL) == value


def test_flexible_date_priority_order():
    priority = ("iso", "day_first", "month_first", "month_name")
    assert parse_date_flexible("31/12/2011", priority) == date(2011, 12, 31)
    assert parse_date_flexible("2011-12-31", priority) == date(2011, 12, 31)
    # ambiguous day/month resolves by priority, deterministically
    assert parse_date_flexible("03/04/2011", priority) == date(2011, 4, 3)
    # day-first impossible, falls through to month-first
    assert parse_date_flexible("04/25/2011", priority) == date(2011, 4, 25)
    assert parse_date_flexible("December 31, 2011", priority) == date(2011, 12, 31)
    assert parse_date_flexible(" 2011-01-02 ", priority) == date(2011, 1, 2)
    assert parse_date_flexible("31/13/2011", priority) is None
    assert parse_date_flexible("N/A", priority) is None


def test_render_cell_forms():
    assert render_cell(None) == ""
    assert render_cell(True) == "true"
    assert render_cell(date(2011, 9, 1)) == "2011-09-01"
    assert render_cell(make_decimal("10.10")) == "10.1"
    assert render_cell("text") == "text"


def test_iso_date_strictness():
    with pytest.raises(ValueError):
        parse_iso_date("2011-1-02")
    with pytest.raises(ValueError):
        parse_iso_date("20111231")


@pytest.mark.parametrize(
    "value, vtype, coerced",
    [
        (3, ValueType.INTEGER, 3),
        (3, ValueType.DECIMAL, Decimal("3.0000")),
        (Decimal("2.5"), ValueType.DECIMAL, Decimal("2.5")),
        ("2012-02-29", ValueType.DATE, date(2012, 2, 29)),
        (date(2012, 2, 29), ValueType.DATE, date(2012, 2, 29)),
        ("x", ValueType.TEXT, "x"),
        (True, ValueType.BOOLEAN, True),
    ],
)
def test_coerce_literal_accepts(value, vtype, coerced):
    result = coerce_literal(value, vtype)
    assert result == coerced and value_tag(result) is vtype


@pytest.mark.parametrize(
    "value, vtype",
    [
        (None, ValueType.INTEGER),
        (None, ValueType.TEXT),
        (Decimal("3"), ValueType.INTEGER),  # only a query filter narrows DECIMAL
        ("3", ValueType.INTEGER),
        (3, ValueType.TEXT),
        (True, ValueType.INTEGER),
        (1, ValueType.BOOLEAN),
        ("2012-02-30", ValueType.DATE),
        ("2012-2-28", ValueType.DATE),
        (date(2012, 2, 28), ValueType.TEXT),
    ],
)
def test_coerce_literal_rejects(value, vtype):
    with pytest.raises(ValueError):
        coerce_literal(value, vtype)
