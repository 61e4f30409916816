"""One measured step of the benchmark, in a fresh interpreter.

    python3 perfbench/child.py <spec.json> <result.json>

``spec["kind"]`` is ``cli`` (one ``uwh`` command through ``uwh.cli.run``)
or ``read`` (open a warehouse, then run ``count`` star queries from
position ``start`` of ``queries.stream`` on that handle). The
timed region covers only the engine call; the correctness checks run
after it, and the peak resident memory is read before them. With
``spec["trace"]`` the public functions of every module are wrapped
(``tracer.py``) and the spans are returned with the result.
"""

from __future__ import annotations

import itertools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

clock = time.perf_counter


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _import_engine(root: Path):
    sys.path.insert(0, str(root / "src"))
    import uwh

    if Path(uwh.__file__).resolve().parent != (root / "src" / "uwh").resolve():
        raise RuntimeError(f"imported uwh from {uwh.__file__}, not from {root / 'src'}")


def _capture(attr: str, into: dict) -> None:
    """Keep the return value of ``uwh.cli.<attr>`` for the checks."""
    from tracer import rebind

    def make(fn):
        def wrapper(*args, **kwargs):
            into[attr] = result = fn(*args, **kwargs)
            return result

        return wrapper

    rebind("uwh.cli", attr, make)


def _tracer(spec: dict):
    if not spec.get("trace"):
        return None
    from tracer import Tracer

    tracer = Tracer(spec["op"])
    tracer.install()
    return tracer


def run_cli(spec: dict, out: dict) -> None:
    import uwh.cli as cli
    from oracle import conservation_problems, ledger_problems

    argv = spec["argv"]
    tracer = _tracer(spec)
    captured: dict = {}
    _capture("extract_database", captured)
    _capture("cleanse_staging", captured)
    t0 = clock()
    if tracer is None:
        code = cli.run(argv)
    else:
        with tracer.span(f"cli.{argv[0]}"):
            code = cli.run(argv)
    out["elapsed"] = clock() - t0
    out["rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.dump()
    if code != 0:
        out["errors"].append(f"uwh {argv[0]} exited with {code}")
        return
    if spec.get("src") and "extract_database" in captured:
        out["errors"] += conservation_problems(captured["extract_database"][1], Path(spec["src"]))
    if spec.get("ledger") and "cleanse_staging" in captured:
        from uwh.datagen import load_ledger

        out["errors"] += ledger_problems(captured["cleanse_staging"][0], load_ledger(Path(spec["ledger"])))
    if spec.get("warehouse"):
        catalog = json.loads((Path(spec["warehouse"]) / "catalog.json").read_text(encoding="utf-8"))
        out["checksum"] = catalog["self_checksum"]


def run_read(spec: dict, out: dict) -> None:
    import uwh.warehouse as W
    import queries
    from oracle import SqliteOracle, fact_key_problems

    tracer = _tracer(spec)
    t0 = clock()
    handle = W.open_warehouse(Path(spec["warehouse"]))
    out["open_s"] = clock() - t0
    out["cells_decoded"] = sum(r["row_count"] * len(r["columns"]) for r in handle.catalog["relations"])
    executed = []  # (spec, rows or None, latency)
    query_errors: list[str] = []
    dom = queries.domains(handle)
    for q in itertools.islice(queries.stream(spec["seed"], dom), spec["start"], spec["start"] + spec["count"]):
        t0 = clock()
        try:
            rows = W.star_query(handle, queries.to_star_query(q)).rows
        except Exception as exc:  # a failed query is a failed operation
            rows = None
            query_errors.append(f"{queries.key(q)}: {exc!r}")
        executed.append((q, rows, clock() - t0))
    out["rss_kb"] = _peak_rss_kb()
    if tracer is not None:
        tracer.uninstall()
        out["spans"] = tracer.dump()

    out["errors"] += fact_key_problems(handle)
    oracle = SqliteOracle(handle)
    verdicts: dict[str, tuple[list[str], int]] = {}
    records = []  # [class, latency, passed, key, joined rows, groups] per query
    for q, rows, latency in executed:
        k = queries.key(q)
        if rows is None:
            records.append([q["cls"], latency, False, k, 0, 0])
            continue
        if k not in verdicts:
            verdicts[k] = oracle.check(q, rows)
            if verdicts[k][0]:
                query_errors.append(f"{k}: {verdicts[k][0][0]}")
        problems, joined = verdicts[k]
        records.append([q["cls"], latency, not problems, k, joined, len(rows)])
    out["queries"] = records
    out["query_errors"] = query_errors[:20]


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    out: dict = {"errors": []}
    try:
        _import_engine(Path(spec["root"]))
        if spec["kind"] == "cli":
            run_cli(spec, out)
        else:
            run_read(spec, out)
    except Exception:
        out["errors"].append(traceback.format_exc())
    Path(sys.argv[2]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
