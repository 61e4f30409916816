"""The ``uwh`` command line: every pipeline stage plus end-to-end build,
query, and reporting.

Exit codes: 0 success, 1 validation or semantic error, 2 I/O error,
3 plan/manifest parse error, 4 read-only violation, 5 integrity failure.
Messages go to stderr; data (query results, reports) goes to stdout.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

from . import canonical
from .cleanse import cleanse_staging, parse_rules
from .datagen import GEN_OUTPUT, GenConfig, generate
from .errors import MissingInputError, ReadOnlyError, UwhError, ValidationError
from .ingest import extract_database
from .manifest import parse_schema_manifest
from .plan import parse_plan
from .staging import CATALOG_NAME, STAGING_DUMP, check_target, dump_staging, load_staging, render_table_csv
from .transform import execute_plan, validate_plan
from .warehouse import WAREHOUSE, StarQuery, _fits, load, open_warehouse, parse_filter, parse_measure, star_query
from .staging import staging_fingerprint  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .warehouse import assemble_snowflake  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)
from .warehouse import sha256_hex  # noqa: F401  (unused here; the benchmark's tracer rebinds this name)


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems on stderr and exits 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValidationError(message)


_TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def _now_timestamp() -> str:
    return datetime.now(timezone.utc).strftime(_TIMESTAMP_FORMAT)


def _timestamp(text: str) -> str:
    """A ``--timestamp`` value, in exactly the form ``_now_timestamp`` writes."""
    if not re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", text, re.ASCII):
        raise argparse.ArgumentTypeError(f"{text!r} is not of the form YYYY-MM-DDTHH:MM:SSZ")
    datetime.strptime(text, _TIMESTAMP_FORMAT)  # ValueError for a date or time that does not exist
    return text


def _read_text(path: Path, what: str) -> str:
    path = Path(path)
    if not path.is_file():
        raise MissingInputError(f"no {what} at {path}")
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise MissingInputError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not valid UTF-8: {exc}") from exc


def _load(path, what: str, parse, canonical_default):
    """The ``what`` that ``parse`` reads from the file at ``path``, or ``canonical_default()`` when no path is given."""
    return canonical_default() if path is None else parse(_read_text(path, what))


def _staging_arg(path: Path):
    path = Path(path)
    if (path / CATALOG_NAME).is_file():
        raise ReadOnlyError(f"staging directory {path} holds a frozen warehouse ({CATALOG_NAME}); warehouses are read-only")
    return load_staging(path)


# ---------------------------------------------------------------------------
# subcommands: each reads its inputs, then checks each output before its first stage


def _cmd_gen(args) -> int:
    out = Path(args.out)
    config = GenConfig(
        seed=args.seed,
        students=args.students,
        courses_per_dept=args.courses_per_dept,
        semesters=args.semesters,
        dirty_rate=args.dirty_rate,
    )
    check_target(out, GEN_OUTPUT)
    ledger = generate(config, out)
    print(f"generated 14 tables under {out} ({len(ledger.entries)} dirt entries)", file=sys.stderr)
    return 0


def _cmd_extract(args) -> int:
    schema = _load(args.schema, "schema manifest", parse_schema_manifest, canonical.canonical_schema)
    out = Path(args.out)
    check_target(out, STAGING_DUMP)
    staging, report = extract_database(Path(args.src), schema, timestamp=args.timestamp)
    dump_staging(staging, out)
    total = sum(t.rows_staged for t in report.tables.values())
    rejected = sum(t.rows_rejected for t in report.tables.values())
    print(f"extracted {len(staging.tables)} tables, {total} rows staged, {rejected} rejected", file=sys.stderr)
    return 0


def _cmd_cleanse(args) -> int:
    staging = _staging_arg(args.staging)
    rules = _load(args.rules, "rules file", parse_rules, canonical.canonical_rules)
    out = Path(args.out or args.staging)
    check_target(out, STAGING_DUMP)
    cleaned, report = cleanse_staging(staging, rules, timestamp=args.timestamp)
    dump_staging(cleaned, out)
    print(report.to_text(), end="", file=sys.stderr)
    return 0


def _cmd_transform(args) -> int:
    staging = _staging_arg(args.staging)
    plan = _load(args.plan, "transform plan", parse_plan, canonical.canonical_plan)
    out = Path(args.out or args.staging)
    check_target(out, STAGING_DUMP)
    validate_plan(plan, staging.schema())
    transformed, report = execute_plan(staging, plan, timestamp=args.timestamp)
    dump_staging(transformed, out)
    print(f"executed {len(report['statements'])} statements; staging now holds {len(transformed.tables)} tables", file=sys.stderr)
    return 0


def _cmd_load(args) -> int:
    staging = _staging_arg(args.staging)
    out = Path(args.out)
    check_target(out, WAREHOUSE)
    catalog = load(out, staging, timestamp=args.timestamp)
    print(f"loaded {len(catalog['relations'])} relations into {out}", file=sys.stderr)
    return 0


def _cmd_build(args) -> int:
    schema = _load(args.schema, "schema manifest", parse_schema_manifest, canonical.canonical_schema)
    plan = _load(args.plan, "transform plan", parse_plan, canonical.canonical_plan)
    rules = _load(args.rules, "rules file", parse_rules, canonical.canonical_rules)
    out = Path(args.out)
    check_target(out, WAREHOUSE)
    kept = Path(args.keep_staging) if args.keep_staging else None
    if kept:
        if out.resolve() in (kept.resolve(), *kept.resolve().parents):
            raise ValidationError(f"--keep-staging {args.keep_staging} lies inside --out {out}, which must hold only the warehouse")
        if kept.resolve() in out.resolve().parents:
            raise ValidationError(f"--out {out} lies inside --keep-staging {args.keep_staging}, which a later stage replaces whole")
        check_target(kept, STAGING_DUMP)

    staging, _ = extract_database(Path(args.src), schema, timestamp=args.timestamp)
    validate_plan(plan, staging.schema())
    cleaned, _ = cleanse_staging(staging, rules, timestamp=args.timestamp)
    transformed, _ = execute_plan(cleaned, plan, timestamp=args.timestamp)
    try:  # a build that fails while loading still leaves the kept staging
        catalog = load(out, transformed, timestamp=args.timestamp)
    finally:
        if kept:
            dump_staging(transformed, kept)
    quarantined = sum(map(len, transformed.quarantine.values()))
    print(
        f"warehouse ready at {out}: {len(catalog['relations'])} relations, "
        f"{len(transformed.tables[catalog['fact']].rows)} fact rows, {quarantined} rows quarantined",
        file=sys.stderr,
    )
    return 0


def _cmd_query(args) -> int:
    handle = open_warehouse(Path(args.warehouse))
    measures = tuple(parse_measure(m) for m in args.measure)
    group_by = tuple(g.strip() for arg in (args.group_by or []) for g in arg.split(",") if g.strip())
    filters = tuple(parse_filter(f) for f in (args.filter or []))
    result = star_query(handle, StarQuery(measures, group_by, filters))
    sys.stdout.write(render_table_csv(result))
    return 0


# the transform report entries that ``report --staging`` prints
_STATEMENTS = {"transform": {"statements": [{"statement": str, "rows": int}]}}


def _cmd_report(args) -> int:
    if (args.staging is None) == (args.warehouse is None):
        raise ValidationError("report needs exactly one of --staging or --warehouse")
    if args.staging:
        staging = _staging_arg(args.staging)
        payload = {
            "tables": {name: len(t.rows) for name, t in staging.tables.items()},
            "quarantine": {name: len(q) for name, q in staging.quarantine.items() if len(q)},
            "fact_table": staging.fact_table,
            "dimensions": [list(d) for d in staging.dimensions],
            "reports": staging.reports,
        }
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print("staging report")
            print("==============")
            for name, n in payload["tables"].items():
                print(f"{name}: {n} rows")
            for name, n in payload["quarantine"].items():
                print(f"quarantine/{name}: {n} rows")
            if _fits(staging.reports, _STATEMENTS):
                for i, s in enumerate(staging.reports["transform"]["statements"]):
                    print(f"statement {i}: {s['statement']} ({s['rows']} rows affected)")
            if staging.fact_table:
                print(f"fact: {staging.fact_table}; dimensions: {', '.join(d for d, _ in staging.dimensions)}")
        return 0
    handle = open_warehouse(Path(args.warehouse))
    catalog = handle.catalog
    payload = {
        "relations": {r["name"]: r["row_count"] for r in catalog["relations"]},
        "fact": catalog["fact"],
        "dimensions": catalog["dimensions"],
        "indexes": [f"{j['relation']}({','.join(j['columns'])})" for j in catalog["joins"]],
        "build": catalog["build"],
    }
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("warehouse report")
        print("================")
        for name, n in payload["relations"].items():
            kind = "fact" if name == catalog["fact"] else "dimension"
            print(f"{name}: {n} rows ({kind})")
        for line in payload["indexes"]:
            print(f"index {line}")
        print(f"built {catalog['build']['timestamp']} plan={catalog['build']['plan_hash'][:12]}")
    return 0


# ---------------------------------------------------------------------------


def _add_timestamp(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timestamp", type=_timestamp, help="pin the timestamp (YYYY-MM-DDTHH:MM:SSZ) for reproducible output")


def build_arg_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="uwh", description="University warehouse ETL engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate synthetic operational CSVs")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--students", type=int, default=100)
    p.add_argument("--courses-per-dept", type=int, default=5)
    p.add_argument("--semesters", type=int, default=3)
    p.add_argument("--dirty-rate", type=float, default=0.0)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("extract", help="extract source CSVs into a staging dump")
    p.add_argument("--schema", default=None, help="schema manifest (default: canonical 14-table schema)")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    _add_timestamp(p)
    p.set_defaults(fn=_cmd_extract)

    p = sub.add_parser("cleanse", help="apply cleansing rules, dedup, and FK reconciliation")
    p.add_argument("--staging", required=True)
    p.add_argument("--rules", default=None, help="rules file (default: canonical rules)")
    p.add_argument("--out", default=None, help="output staging dir (default: rewrite --staging)")
    _add_timestamp(p)
    p.set_defaults(fn=_cmd_cleanse)

    p = sub.add_parser("transform", help="execute a transform plan against staging")
    p.add_argument("--staging", required=True)
    p.add_argument("--plan", default=None, help="plan file (default: canonical plan)")
    p.add_argument("--out", default=None, help="output staging dir (default: rewrite --staging)")
    _add_timestamp(p)
    p.set_defaults(fn=_cmd_transform)

    p = sub.add_parser("load", help="assemble the snowflake and load an indexed warehouse")
    p.add_argument("--staging", required=True)
    p.add_argument("--out", required=True)
    _add_timestamp(p)
    p.set_defaults(fn=_cmd_load)

    p = sub.add_parser("build", help="extract, cleanse, transform, and load in one atomic run")
    p.add_argument("--schema", default=None)
    p.add_argument("--src", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--rules", default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--keep-staging", default=None, help="also dump the final staging here")
    _add_timestamp(p)
    p.set_defaults(fn=_cmd_build)

    p = sub.add_parser("query", help="run a star-join aggregate query")
    p.add_argument("--warehouse", required=True)
    p.add_argument("--measure", action="append", required=True, help="AGG(column) or COUNT(*); repeatable")
    p.add_argument("--group-by", action="append", default=None, help="dimension/fact attributes; repeatable or comma-separated")
    p.add_argument("--filter", action="append", default=None, help="'attribute OP literal'; repeatable")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("report", help="summarize a staging dump or a warehouse")
    p.add_argument("--staging", default=None)
    p.add_argument("--warehouse", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_report)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "timestamp", None) is None and hasattr(args, "timestamp"):
            args.timestamp = _now_timestamp()
        return args.fn(args)
    except UwhError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
