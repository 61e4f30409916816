"""The star-query mix: six classes, drawn by a seeded RNG, with fresh
literals per query so exact repeats are rare.

The mix is stratified by class (see ``stream``). A query is a plain dict
(``spec``) so it can be compared, counted and handed to the SQL oracle:
``measures`` is a list of ``[AGG, column]``
(column ``None`` for COUNT(*)), ``group_by`` a list of attributes,
``filters`` a list of ``[attribute, op, literal]``.

Classes:
  a_fact       fact-only group-bys (dep_name; tr_semester, tr_year; co_code)
  b_one_hop    one-hop dimension attributes (st_gender, in_rank)
  c_folded     folded chains (mj_name, al_degree) and one-to-many act_type
  d_fanout     receipt fan-out SUM(re_amount), with and without tr_year
  e_selective  selective filters: tr_semester/tr_year prefix, tr_grade > g,
               one in_id
  f_high_card  high-cardinality groups (st_id; co_code x tr_year)
"""

from __future__ import annotations

import json
import random
from decimal import Decimal

CLASSES = ("a_fact", "b_one_hop", "c_folded", "d_fanout", "e_selective", "f_high_card")

AVG = ["AVG", "tr_grade"]
MAX = ["MAX", "tr_grade"]
ROWS = ["COUNT", None]

# Four templates per class: (group_by, measures, extra filter kind). The
# k-th query of a class uses template k mod 4, so a mix's shape does not
# depend on the seed; only the order of classes and the literals do.
TEMPLATES = {
    "a_fact": [
        (["dep_name"], [AVG], None),
        (["tr_semester", "tr_year"], [ROWS], None),
        (["co_code"], [AVG, MAX], None),
        (["dep_name"], [["SUM", "co_credits"], ["COUNT", "tr_grade"]], None),
    ],
    "b_one_hop": [
        (["st_gender"], [AVG], None),
        (["in_rank"], [ROWS], None),
        (["st_gender"], [["MIN", "tr_grade"], ROWS], None),
        (["in_rank"], [AVG, MAX], None),
    ],
    "c_folded": [
        (["mj_name"], [AVG], None),
        (["al_degree"], [ROWS], None),
        (["act_type"], [ROWS], None),
        (["mj_name"], [AVG, MAX], None),
    ],
    "d_fanout": [
        (["ac_status"], [["SUM", "re_amount"]], "year"),
        (["ac_status"], [["SUM", "re_amount"]], None),
        (["re_semester"], [["SUM", "re_amount"], ROWS], "year"),
        (["re_semester"], [["SUM", "re_amount"], ROWS], None),
    ],
    "e_selective": [
        (["dep_name"], [AVG], "term"),
        (["st_gender"], [ROWS], "top_grade"),
        (["dep_name"], [AVG, MAX], "instructor"),
        (["st_gender"], [ROWS], "term"),
    ],
    "f_high_card": [
        (["st_id"], [AVG], None),
        (["co_code", "tr_year"], [ROWS], None),
        (["st_id"], [ROWS], None),
        (["co_code", "tr_year"], [AVG, MAX], None),
    ],
}


def domains(handle) -> dict:
    """Literal pools read from the opened warehouse's fact table."""
    fact = handle.relation(handle.catalog["fact"])
    col = fact.schema.column_index
    terms = sorted({(r[col("tr_year")], r[col("tr_semester")]) for r in fact.rows})
    instructors = sorted({r[col("se_in_id")] for r in fact.rows if r[col("se_in_id")] is not None})
    return {"terms": terms, "years": sorted({y for y, _ in terms}), "instructors": instructors}


def _grade(rng: random.Random, lo: int, hi: int) -> Decimal:
    return Decimal(rng.randint(lo * 100, hi * 100)).scaleb(-2)


def draw(rng: random.Random, dom: dict, cls: str, k: int) -> dict:
    """The ``k``-th query of class ``cls``, with fresh literals from ``rng``."""
    group_by, measures, extra = TEMPLATES[cls][k % 4]
    # a low grade floor keeps nearly every row but makes the literal fresh
    filters = [["tr_grade", ">=", _grade(rng, 0, 40)]]
    if extra == "year":
        filters.append(["tr_year", "=", rng.choice(dom["years"])])
    elif extra == "term":
        year, semester = rng.choice(dom["terms"])
        filters += [["tr_semester", "=", semester], ["tr_year", "=", year]]
    elif extra == "top_grade":
        filters = [["tr_grade", ">", _grade(rng, 90, 99)]]
    elif extra == "instructor":
        filters.append(["in_id", "=", rng.choice(dom["instructors"])])
    return {"cls": cls, "measures": [list(m) for m in measures], "group_by": list(group_by), "filters": filters}


def stream(seed: int, dom: dict):
    """An endless mix in blocks of six, one query of each class in a
    shuffled order, so every prefix of whole blocks has the same class
    composition whatever the seed."""
    rng = random.Random(seed)
    drawn = dict.fromkeys(CLASSES, 0)
    while True:
        block = list(CLASSES)
        rng.shuffle(block)
        for cls in block:
            yield draw(rng, dom, cls, drawn[cls])
            drawn[cls] += 1


def key(spec: dict) -> str:
    """Identity of a query, for counting exact repeats."""
    return json.dumps([spec["measures"], spec["group_by"], spec["filters"]], default=str)


def to_star_query(spec: dict):
    from uwh import Filter, Measure, StarQuery

    return StarQuery(
        tuple(Measure(agg, col) for agg, col in spec["measures"]),
        tuple(spec["group_by"]),
        tuple(Filter(attr, op, value) for attr, op, value in spec["filters"]),
    )
