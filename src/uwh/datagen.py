"""Deterministic synthetic operational data with controlled dirt.

One seeded PRNG drives everything, so a config maps to byte-identical
output. The pre-dirt dataset is schema-valid and referentially
consistent; dirt injection then corrupts sampled rows (at most one
corruption per row) and logs every corruption to a ledger, choosing only
corruptions the canonical cleansing rules provably repair or quarantine:

  padding        whitespace around TEXT/DATE cells   -> repaired
  case_scramble  case noise on name columns          -> repaired
  date_format    non-ISO renderings of real dates    -> repaired
  null_token     null markers in non-nullable cells  -> quarantined
  out_of_domain  bad gender codes / grades over 100  -> quarantined
  orphan_fk      dangling foreign keys               -> quarantined
  duplicate_row  exact row duplicates                -> deduplicated
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

from .canonical import canonical_schema
from .csvio import format_row
from .errors import MissingInputError, ValidationError
from .staging import Output, read_records, write_dir_atomically
from .values import make_decimal, render_cell

LEDGER_FILE = "dirt_ledger.csv"
MANIFEST_FILE = "gen_manifest.json"
GEN_OUTPUT = Output("gen output", "gen output", MANIFEST_FILE)

_LEDGER_COLUMNS = ("table", "row_key", "column", "original", "corrupted", "kind")


@dataclass(frozen=True)
class GenConfig:
    seed: int = 42
    students: int = 100
    courses_per_dept: int = 5
    semesters: int = 3
    dirty_rate: float = 0.0

    def validate(self) -> None:
        if not 0.0 <= self.dirty_rate <= 1.0:
            raise ValidationError(f"dirty_rate must be in [0, 1], got {self.dirty_rate}")
        for name in ("students", "courses_per_dept", "semesters"):
            if getattr(self, name) < 1:
                raise ValidationError(f"{name} must be at least 1")


@dataclass(frozen=True)
class DirtEntry:
    table: str
    row_key: str
    column: str
    original: str
    corrupted: str
    kind: str


@dataclass
class DirtLedger:
    entries: list[DirtEntry]

    def to_csv(self) -> str:
        lines = [",".join(_LEDGER_COLUMNS)]
        for e in self.entries:
            lines.append(
                format_row([(v, v == "") for v in (e.table, e.row_key, e.column, e.original, e.corrupted, e.kind)])
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, data: bytes, file: str) -> "DirtLedger":
        rows = [fields for fields, _ in read_records(data, file)]
        if not rows or tuple(rows[0]) != _LEDGER_COLUMNS or any(len(r) != len(_LEDGER_COLUMNS) for r in rows):
            raise ValidationError(f"{file}: not a dirt ledger file")
        return cls([DirtEntry(*r) for r in rows[1:]])


def load_ledger(path: Path) -> DirtLedger:
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"no dirt ledger at {path}")
    return DirtLedger.from_csv(path.read_bytes(), path.name)


# ---------------------------------------------------------------------------
# Value pools (every name pool is a fixpoint of the canonical title rule)

_DEPARTMENTS = [
    ("Computer Science", "Faculty Of Science"),
    ("Mathematics", "Faculty Of Science"),
    ("Biology", "Faculty Of Science"),
    ("Business Administration", "Faculty Of Business"),
    ("History", "Faculty Of Arts"),
    ("Civil Engineering", "Faculty Of Engineering"),
]

_MAJORS = [
    "Software Systems", "Data Science",
    "Pure Mathematics", "Applied Statistics",
    "Molecular Biology", "Ecology",
    "Accounting", "Marketing",
    "Modern History", "Archaeology",
    "Structural Design", "Urban Planning",
]

_COURSE_TOPICS = [
    "Foundations", "Methods", "Theory", "Systems", "Analysis",
    "Design", "Practice", "Modeling", "Algorithms", "Seminar",
]

_FIRST_NAMES = [
    "John", "Mary", "Ahmed", "Lina", "Carlos", "Sofia", "Wei", "Anna",
    "Omar", "Julia", "Peter", "Nadia", "Hassan", "Elena", "Marc", "Rana",
    "Samuel", "Leila", "David", "Maya",
]

_LAST_NAMES = [
    "Smith", "Haddad", "Chen", "Garcia", "Khalil", "Miller", "Rossi",
    "Nassar", "Kim", "Dubois", "Saleh", "Novak", "Farah", "Weber",
    "Mansour", "Silva",
]

_ACTIVITIES = [
    ("Chess Club", "CLUB"), ("Football Team", "SPORT"), ("Debate Society", "CLUB"),
    ("Drama Workshop", "ART"), ("Robotics Lab", "CLUB"), ("Swimming Team", "SPORT"),
    ("Photography Circle", "ART"), ("Volunteer Corps", "VOLUNTEER"),
    ("Basketball Team", "SPORT"), ("Music Ensemble", "ART"),
    ("Astronomy Club", "CLUB"), ("Red Cross Youth", "VOLUNTEER"),
]

_ITEMS = [
    ("Laptop", "ELECTRONICS"), ("Projector", "ELECTRONICS"), ("Microscope", "LAB"),
    ("Centrifuge", "LAB"), ("Whiteboard", "FURNITURE"), ("Desk Chair", "FURNITURE"),
    ("Server Rack", "ELECTRONICS"), ("Oscilloscope", "LAB"), ("Printer", "ELECTRONICS"),
    ("Bookshelf", "FURNITURE"),
]

_STREETS = ["Cedar", "Olive", "Pine", "Maple", "Jasmine", "Palm"]
_RANKS = ["Assistant Professor", "Associate Professor", "Professor", "Lecturer"]
_STATUSES = ["ACTIVE", "HOLD", "CLOSED"]
_DEGREES = ["BS", "BA", "MS"]
_EMPLOYERS = ["Acme Data", "Globex", "Initech", "Umbrella Labs", "Cedar Bank", None]

_SEMESTER_CYCLE = ["FALL", "SPRING", "SUMMER"]
_NULL_TOKENS = ["N/A", "NULL", "-", "?", ""]


def _semester_sequence(n: int) -> list[tuple[str, int]]:
    out = []
    year = 2011
    idx = 0  # start at FALL 2011
    for _ in range(n):
        name = _SEMESTER_CYCLE[idx % 3]
        if idx % 3 == 1:
            year += 1
        out.append((name, year))
        idx += 1
    return out


def _semester_start(name: str, year: int) -> date:
    month, day = {"FALL": (9, 1), "SPRING": (1, 15), "SUMMER": (6, 1)}[name]
    return date(year, month, day)


def _money(rng: random.Random, lo: float, hi: float):
    return make_decimal(f"{rng.uniform(lo, hi):.2f}")


def _grade(rng: random.Random):
    g = rng.normalvariate(72, 12)
    g = min(100.0, max(0.0, g))
    return make_decimal(f"{g:.2f}")


def _build_rows(config: GenConfig, rng: random.Random) -> dict[str, list[tuple]]:
    """Typed rows for all 14 tables, referentially consistent."""
    semesters = _semester_sequence(config.semesters)
    rows: dict[str, list[tuple]] = {}

    rows["department"] = [(i + 1, name, faculty) for i, (name, faculty) in enumerate(_DEPARTMENTS)]
    ndep = len(_DEPARTMENTS)

    rows["major"] = [(i + 1, _MAJORS[i], (i // 2) + 1) for i in range(2 * ndep)]

    courses = []
    for d in range(ndep):
        dep_short = "".join(w[0] for w in _DEPARTMENTS[d][0].split()).upper()
        for c in range(config.courses_per_dept):
            code = f"{dep_short}{101 + c}"
            topic = _COURSE_TOPICS[c % len(_COURSE_TOPICS)]
            name = f"{_DEPARTMENTS[d][0]} {topic}"
            credits = rng.choice([2, 3, 3, 4])
            courses.append((code, name, credits, d + 1))
    rows["course"] = courses

    instructors = []
    for d in range(ndep):
        for _ in range(3):
            name = f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}"
            instructors.append((len(instructors) + 1, name, d + 1, rng.choice(_RANKS)))
    rows["instructor"] = instructors

    sections = []
    sections_by_sem: dict[tuple[str, int], list[tuple]] = {s: [] for s in semesters}
    se_num = 1000
    for sem_name, sem_year in semesters:
        for code, _, _, dep_id in courses:
            dep_instructors = [i for i in instructors if i[2] == dep_id]
            for _ in range(1 + (rng.random() < 0.5)):
                se_num += 1
                section = (
                    se_num,
                    sem_name,
                    sem_year,
                    code,
                    rng.choice(dep_instructors)[0],
                    f"R{rng.randint(100, 399)}",
                )
                sections.append(section)
                sections_by_sem[(sem_name, sem_year)].append(section)
    rows["section"] = sections

    students = []
    first_sem = semesters[0]
    for st_id in range(1, config.students + 1):
        first = rng.choice(_FIRST_NAMES)
        last = rng.choice(_LAST_NAMES)
        dob = date(1988 + rng.randint(0, 6), rng.randint(1, 12), rng.randint(1, 28))
        enroll = _semester_start(*first_sem) - timedelta(days=rng.randint(0, 45))
        students.append(
            (
                st_id,
                f"{first} {last}",
                dob,
                rng.choice("MF"),
                f"03-{rng.randint(100000, 999999)}",
                f"{first.lower()}.{last.lower()}{st_id}@uni.example",
                f"{rng.randint(1, 200)} {rng.choice(_STREETS)} Street",
                enroll,
                rng.randint(1, 2 * ndep),
            )
        )
    rows["student"] = students

    rows["account"] = [
        (5000 + st_id, st_id, _money(rng, -500, 2500), rng.choice(_STATUSES)) for st_id in range(1, config.students + 1)
    ]

    receipts = []
    re_id = 0
    for st_id in range(1, config.students + 1):
        for sem_name, sem_year in semesters:
            re_id += 1
            due = _semester_start(sem_name, sem_year) + timedelta(days=30)
            roll = rng.random()
            if roll < 0.68:
                payment = due - timedelta(days=rng.randint(0, 20))
            elif roll < 0.98:
                payment = due + timedelta(days=rng.randint(1, 60))
            else:
                payment = None
            receipts.append((re_id, 5000 + st_id, _money(rng, 500, 5000), due, payment, sem_name, sem_year))
    rows["receipt"] = receipts

    transcripts = []
    for st_id in range(1, config.students + 1):
        for sem in semesters:
            available = sections_by_sem[sem]
            by_course: dict[str, list[tuple]] = {}
            for section in available:
                by_course.setdefault(section[3], []).append(section)
            codes = rng.sample(sorted(by_course), min(rng.randint(3, 5), len(by_course)))
            for code in codes:
                section = rng.choice(by_course[code])
                grade = None if rng.random() < 0.02 else _grade(rng)
                transcripts.append((st_id, section[0], sem[0], sem[1], grade))
    rows["transcript"] = transcripts

    rows["activities"] = [
        (i + 1, name, kind, f"{rng.choice(_FIRST_NAMES)} {rng.choice(_LAST_NAMES)}")
        for i, (name, kind) in enumerate(_ACTIVITIES)
    ]

    regs = []
    reg_id = 0
    last_sem = semesters[-1]
    for st_id in range(1, config.students + 1):
        for _ in range(rng.choices([0, 1, 2], weights=[5, 3, 2])[0]):
            reg_id += 1
            reg_day = _semester_start(*first_sem) + timedelta(
                days=rng.randint(0, max(30, (_semester_start(*last_sem) - _semester_start(*first_sem)).days))
            )
            regs.append((reg_id, st_id, rng.randint(1, len(_ACTIVITIES)), reg_day))
    rows["registrationActivities"] = regs

    rows["item"] = [(i + 1, name, cat) for i, (name, cat) in enumerate(_ITEMS)]

    assets = []
    as_id = 0
    for dep_id in range(1, ndep + 1):
        for item_id in rng.sample(range(1, len(_ITEMS) + 1), rng.randint(2, 4)):
            as_id += 1
            assets.append((as_id, dep_id, item_id, rng.randint(1, 20)))
    rows["assets"] = assets

    alumni = []
    al_id = 0
    for st_id in range(1, config.students + 1):
        if rng.random() < 0.15:
            al_id += 1
            grad = _semester_start(*first_sem) + timedelta(days=365 * 4 + rng.randint(0, 60))
            alumni.append((al_id, st_id, grad, rng.choice(_DEGREES), rng.choice(_EMPLOYERS)))
    rows["alumni"] = alumni

    return rows


# ---------------------------------------------------------------------------
# Dirt injection over the rendered text grid

_NAME_COLUMNS = {
    ("student", "st_name"), ("major", "mj_name"), ("activities", "act_name"),
    ("activities", "ac_supervisor"), ("course", "co_name"), ("department", "dep_name"),
    ("instructor", "in_name"), ("item", "item_name"),
}

_NULL_TOKEN_COLUMNS = {
    ("student", "st_gender"), ("student", "st_dob"), ("receipt", "re_semester"),
    ("alumni", "al_degree"), ("item", "item_name"), ("activities", "act_type"),
}

_DATE_COLUMNS = {
    ("student", "st_dob"), ("student", "st_enrollDate"), ("receipt", "re_dueDate"),
    ("receipt", "re_dateOfPayment"), ("registrationActivities", "reg_date"),
    ("alumni", "al_gradDate"),
}

_ORPHAN_COLUMNS = {
    ("receipt", "re_ac_id"), ("registrationActivities", "reg_act_id"),
    ("alumni", "al_st_id"), ("transcript", "tr_se_num"),
}

_GENDER_BAD = ["X", "U", "ZZ"]


def _pad(rng: random.Random, text: str) -> str:
    style = rng.randrange(4)
    if style == 0:
        return "  " + text
    if style == 1:
        return text + "  "
    if style == 2:
        return " " + text + " "
    if " " in text:
        return text.replace(" ", "  ", 1)
    return text + " "


def _scramble_case(rng: random.Random, text: str) -> str | None:
    for fn in rng.sample([str.upper, str.lower, str.swapcase], 3):
        out = fn(text)
        if out != text:
            return out
    return None


def _reformat_date(rng: random.Random, iso: str) -> str:
    y, m, d = (int(p) for p in iso.split("-"))
    choices = ["day_first", "month_name"]
    if d > 12:
        choices.append("month_first")
    style = rng.choice(choices)
    if style == "day_first":
        return f"{d:02d}/{m:02d}/{y}"
    if style == "month_first":
        return f"{m:02d}/{d:02d}/{y}"
    months = [
        "January", "February", "March", "April", "May", "June",
        "July", "August", "September", "October", "November", "December",
    ]
    return f"{months[m - 1]} {d}, {y}"


def _inject_dirt(
    config: GenConfig, rng: random.Random, grids: dict[str, list[list[str]]]
) -> tuple[DirtLedger, dict[str, list[int]]]:
    """Corrupt sampled rows in place; returns the ledger and, per table,
    the row indexes to duplicate."""
    db = canonical_schema()
    entries: list[DirtEntry] = []
    duplicates: dict[str, list[int]] = {}
    table_order = list(db.tables)

    total_cells = sum(len(grid) * len(db.tables[name].columns) for name, grid in grids.items())
    target = round(config.dirty_rate * total_cells)
    candidates = [(name, i) for name in table_order for i in range(len(grids[name]))]
    if target > len(candidates):
        target = len(candidates)
    chosen = rng.sample(candidates, target)
    chosen.sort(key=lambda c: (table_order.index(c[0]), c[1]))

    orphan_counter = 9000000
    for name, row_idx in chosen:
        schema = db.tables[name]
        grid_row = grids[name][row_idx]
        cols = {c.name: j for j, c in enumerate(schema.columns)}

        kinds: list[str] = ["duplicate_row"]
        text_cols = [
            c.name
            for c in schema.columns
            if c.type.value == "TEXT" and c.name not in schema.primary_key and grid_row[cols[c.name]] != ""
        ]
        date_cols = [
            c for (t, c) in _DATE_COLUMNS if t == name and grid_row[cols[c]] != ""
        ]
        if text_cols or date_cols:
            kinds.append("padding")
        name_cols = [c for (t, c) in _NAME_COLUMNS if t == name and grid_row[cols[c]] != ""]
        if name_cols:
            kinds.append("case_scramble")
        null_cols = [c for (t, c) in _NULL_TOKEN_COLUMNS if t == name and grid_row[cols[c]] != ""]
        if null_cols:
            kinds.append("null_token")
        if date_cols:
            kinds.append("date_format")
        domain_cols = []
        if name == "student" and grid_row[cols["st_gender"]] != "":
            domain_cols.append("st_gender")
        if name == "transcript" and grid_row[cols["tr_grade"]] != "":
            domain_cols.append("tr_grade")
        if domain_cols:
            kinds.append("out_of_domain")
        orphan_cols = [c for (t, c) in _ORPHAN_COLUMNS if t == name and grid_row[cols[c]] != ""]
        if orphan_cols:
            kinds.append("orphan_fk")

        kind = rng.choice(sorted(kinds))
        column = ""
        original = corrupted = ""
        if kind == "duplicate_row":
            duplicates.setdefault(name, []).append(row_idx)
        elif kind == "padding":
            column = rng.choice(sorted(set(text_cols) | set(date_cols)))
            original = grid_row[cols[column]]
            corrupted = _pad(rng, original)
        elif kind == "case_scramble":
            column = rng.choice(sorted(name_cols))
            original = grid_row[cols[column]]
            scrambled = _scramble_case(rng, original)
            if scrambled is None:
                continue
            corrupted = scrambled
        elif kind == "null_token":
            column = rng.choice(sorted(null_cols))
            original = grid_row[cols[column]]
            corrupted = rng.choice(_NULL_TOKENS)
        elif kind == "date_format":
            column = rng.choice(sorted(date_cols))
            original = grid_row[cols[column]]
            corrupted = _reformat_date(rng, original)
        elif kind == "out_of_domain":
            column = rng.choice(sorted(domain_cols))
            original = grid_row[cols[column]]
            if column == "st_gender":
                corrupted = rng.choice(_GENDER_BAD)
            else:
                corrupted = render_cell(make_decimal(f"{rng.uniform(100.01, 160):.2f}"))
        else:  # orphan_fk
            column = rng.choice(sorted(orphan_cols))
            original = grid_row[cols[column]]
            orphan_counter += 1
            corrupted = str(orphan_counter)
        if column:
            grid_row[cols[column]] = corrupted

        pk = "|".join(grid_row[cols[c]] for c in schema.primary_key)
        entries.append(DirtEntry(name, pk, column, original, corrupted, kind))

    return DirtLedger(entries), duplicates


def generate(config: GenConfig, out_dir: Path) -> DirtLedger:
    """Write all 14 CSVs plus the dirt ledger and a row-count manifest to
    ``out_dir``, atomically; the writer checks that ``out_dir`` may be
    replaced (``staging.check_target``)."""
    config.validate()
    rng = random.Random(config.seed)
    db = canonical_schema()
    typed = _build_rows(config, rng)

    grids = {name: [[render_cell(v) for v in row] for row in typed[name]] for name in db.tables}
    ledger, duplicates = _inject_dirt(config, rng, grids)

    files: dict[str, bytes] = {}
    counts: dict[str, int] = {}
    for name, schema in db.tables.items():
        grid = grids[name]
        dup_at = set(duplicates.get(name, ()))
        lines = [",".join(schema.column_names)]
        emitted = 0
        for i, row in enumerate(grid):
            # empty cells are Nulls here; the generator never emits empty text
            line = format_row([(cell, False) for cell in row])
            lines.append(line)
            emitted += 1
            if i in dup_at:
                lines.append(line)
                emitted += 1
        files[f"{name}.csv"] = ("\n".join(lines) + "\n").encode("utf-8")
        counts[name] = emitted

    files[LEDGER_FILE] = ledger.to_csv().encode("utf-8")
    manifest = {
        "config": {
            "seed": config.seed,
            "students": config.students,
            "courses_per_dept": config.courses_per_dept,
            "semesters": config.semesters,
            "dirty_rate": config.dirty_rate,
        },
        "row_counts": counts,
        "dirt_entries": len(ledger.entries),
    }
    files[MANIFEST_FILE] = (json.dumps(manifest, sort_keys=True, indent=2) + "\n").encode("utf-8")
    write_dir_atomically(files, out_dir, GEN_OUTPUT)
    return ledger
