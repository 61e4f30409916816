"""uwh benchmark: two closed-loop workloads, one client each.

    python3 perfbench/run.py --workload build-desk --seed 42 --seconds 30 --trace 0

Run from the root of a uwh checkout; the engine is imported from its
``src/``. Every measured step runs in a fresh interpreter
(``child.py``). With ``--trace 0`` the last line of standard output is
a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics derived from spans (``tracer.py``). Metric
definitions, predictions and seeds are in ``METRICS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMESTAMP = "2026-01-01T00:00:00Z"
DEFAULT_SEED = 42
DESK = {"students": 2000, "semesters": 3, "dirty_rate": 0.02}
DIRTY = {"students": 2000, "semesters": 3, "dirty_rate": 0.25}
SETUP_REPS = 5
MIN_ROUNDS = 3
MIN_QUERIES = 100  # at least 10 samples beyond p90
# Queries per read interpreter: half the templates, so two consecutive
# interpreters run every template once. A round runs an even number of
# interpreters, so every run has the same shapes and pays the same
# cold-handle costs (the first query over an edge builds its edge map).
QUERIES_PER_READ = 12
# A traced run alternates traced and untraced operations, and traced and
# untraced read interpreters, with at least this many of each kind.
MIN_TRACED = 3
RUN_LIMIT_S = 165  # stop starting new work after this; a run must end within 180 s
clock = time.perf_counter


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.started = clock()
        self.work = root / ".perfbench" / f"work-{os.getpid()}"
        self.steps = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.setup_s: list[float] = []
        self.etl_s: list[float] = []
        self.etl_traced: list[float] = []
        self.open_s: list[float] = []
        self.open_traced: list[float] = []
        self.reads = 0
        self.rss_kb: list[int] = []
        self.checksums: set[str] = set()
        self.disk_bytes = 0
        self.cells_decoded = 0
        # [class, latency, passed, key, joined rows, groups] per query
        self.queries: list[list] = []
        # operation id -> span lists, one per traced child of that operation
        self.traced: dict[str, list[list[dict]]] = defaultdict(list)

    # --- children -----------------------------------------------------------
    def child(self, spec: dict) -> dict:
        self.steps += 1
        spec = dict(spec, root=str(self.root))
        spec_path = self.work / f"spec{self.steps}.json"
        result_path = self.work / f"result{self.steps}.json"
        log_path = self.work / f"log{self.steps}.txt"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        timeout = max(1.0, 178 - (clock() - self.started))
        cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)]
        with log_path.open("w", encoding="utf-8") as log:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=log, timeout=timeout)
                code = proc.returncode
            except subprocess.TimeoutExpired:
                code = "timeout"
        if code != 0 or not result_path.is_file():
            tail = log_path.read_text(encoding="utf-8")[-2000:]
            return {"errors": [f"child {spec['kind']} exited with {code}: {tail}"]}
        result = json.loads(result_path.read_text(encoding="utf-8"))
        if "spans" in result:
            self.traced[spec["op"]].append(result["spans"])
        return result

    def fail(self, what: str, errors: list[str]) -> bool:
        """Count one operation; a non-empty ``errors`` makes it a failure."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.append(f"{what}: {errors[0]}")
        return not errors

    def uwh(self, argv: list[str], *, op: str = "", traced: bool = False, **checks) -> dict:
        spec = {"kind": "cli", "argv": [str(a) for a in argv], "trace": traced, "op": op}
        spec.update({k: str(v) for k, v in checks.items()})
        return self.child(spec)

    def out_of_time(self) -> bool:
        return clock() - self.started > RUN_LIMIT_S

    # --- steps ------------------------------------------------------------------
    def generate(self, config: dict, reps: int) -> Path:
        """Set-up: generate the drop ``reps`` times; the copies must be
        byte-identical."""
        digests = set()
        for i in range(reps):
            src = self.work / f"src-{i}"
            r = self.uwh(
                ["gen", "--out", src, "--seed", self.seed, "--students", config["students"],
                 "--semesters", config["semesters"], "--dirty-rate", config["dirty_rate"]]
            )
            if self.fail("gen", r["errors"]):
                self.setup_s.append(r["elapsed"])
                digests.add(tree_digest(src))
            if i:
                shutil.rmtree(src, ignore_errors=True)
        if len(digests) > 1:
            self.fail("gen determinism", ["the same seed generated different files"])
        return self.work / "src-0"

    def build(self, src: Path, out: Path, *, op: str, traced: bool = False) -> dict:
        r = self.uwh(
            ["build", "--src", src, "--out", out, "--timestamp", TIMESTAMP],
            op=op, traced=traced, src=src, ledger=src / "dirt_ledger.csv", warehouse=out,
        )
        if "checksum" in r:
            self.checksums.add(r["checksum"])
        return r

    def read(self, wh: Path, count: int) -> bool:
        """Run ``count`` read interpreters on ``wh``. Each opens it, as every
        ``uwh query`` must, then runs the next ``QUERIES_PER_READ`` queries
        of the mix on that handle. One interpreter's speed varies from the
        next on a shared machine, so the mix is spread over many. A traced
        run traces every second one. False after a read that ran no query:
        the next would fail the same way."""
        for _ in range(count):
            i = self.reads
            self.reads += 1
            traced = self.traced_op(i)
            r = self.child(
                {"kind": "read", "warehouse": str(wh), "seed": self.seed, "trace": traced, "op": f"read{i}",
                 "start": len(self.queries), "count": QUERIES_PER_READ}
            )
            if self.fail("open", r["errors"] or ([] if "open_s" in r else ["no open"])):
                (self.open_traced if traced else self.open_s).append(r["open_s"])
                self.rss_kb.append(r["rss_kb"])
                self.cells_decoded = r["cells_decoded"]
            records = r.get("queries", [])
            for record in records:
                self.fail("query", [] if record[2] else ["oracle mismatch or error"])
            self.errors += [f"query: {e}" for e in r.get("query_errors", [])[:3]]
            self.queries += records
            if not records:
                self.fail("query", ["no query ran"])
                return False
        return True

    def check_determinism(self) -> None:
        """Every build of this run's seed, with its pinned timestamp, has
        the same catalog checksum."""
        if len(self.checksums) > 1:
            self.fail("determinism", [f"{len(self.checksums)} different catalog checksums for one seed"])

    def traced_op(self, i: int) -> bool:
        """A traced run traces every second operation; the others give the
        untraced samples the overhead is measured against."""
        return self.trace and i % 2 == 1

    def enough_rounds(self, rounds: int, elapsed: float) -> bool:
        minimum = 2 * MIN_TRACED if self.trace else MIN_ROUNDS
        return rounds >= minimum and elapsed >= self.seconds and len(self.queries) >= MIN_QUERIES


# ---------------------------------------------------------------------------
# Workloads


def measure(b: Bench, etl_op, reads_per_round: int) -> None:
    """Rounds of one ETL operation, ``etl_op(round)``, then
    ``reads_per_round`` read interpreters on the warehouse it made, until
    the rounds have taken ``--seconds`` (at least ``MIN_ROUNDS`` rounds and
    ``MIN_QUERIES`` queries). The shared machine's speed drifts over tens
    of seconds, so interleaving the two kinds of step spreads the samples
    of every metric over the whole run. A traced run needs
    ``2 * MIN_TRACED`` rounds for its traced ETL samples, and two reads a
    round give it enough traced reads. A failed step ends the rounds."""
    if b.trace:
        reads_per_round = 2
    started, rounds = clock(), 0
    while not b.out_of_time() and not b.enough_rounds(rounds, clock() - started):
        wh = etl_op(rounds)
        rounds += 1
        if wh is None or not b.read(wh, reads_per_round):
            break
    b.check_determinism()


def build_desk(b: Bench) -> None:
    """One ``uwh build`` per operation on the desk drop."""
    src = b.generate(DESK, reps=SETUP_REPS)

    def build(i: int) -> Path | None:
        shutil.rmtree(b.work / f"wh{i - 1}", ignore_errors=True)
        wh = b.work / f"wh{i}"
        traced = b.traced_op(i)
        r = b.build(src, wh, op=f"build{i}", traced=traced)
        if not b.fail("build", r["errors"]):
            return None
        (b.etl_traced if traced else b.etl_s).append(r["elapsed"])
        b.rss_kb.append(r["rss_kb"])
        b.disk_bytes = dir_bytes(wh)
        return wh

    measure(b, build, reads_per_round=2)


def stages_dirty(b: Bench) -> None:
    """The stage-by-stage path, one ``uwh`` command per interpreter."""
    src = b.generate(DIRTY, reps=SETUP_REPS)

    def stages(i: int) -> Path | None:
        for d in (f"st{i - 1}", f"wh{i - 1}"):
            shutil.rmtree(b.work / d, ignore_errors=True)
        st, wh = b.work / f"st{i}", b.work / f"wh{i}"
        traced = b.traced_op(i)
        steps = [
            (["extract", "--src", src, "--out", st, "--timestamp", TIMESTAMP], {"src": src}),
            (["cleanse", "--staging", st, "--timestamp", TIMESTAMP], {"ledger": src / "dirt_ledger.csv"}),
            (["transform", "--staging", st, "--timestamp", TIMESTAMP], {}),
            (["load", "--staging", st, "--out", wh, "--timestamp", TIMESTAMP], {"warehouse": wh}),
            (["report", "--staging", st], {}),
        ]
        elapsed, errors, rss = 0.0, [], []
        for argv, checks in steps:
            r = b.uwh(argv, op=f"stages{i}", traced=traced, **checks)
            errors += r["errors"]
            if r["errors"]:
                break
            elapsed += r["elapsed"]
            rss.append(r["rss_kb"])
            if "checksum" in r:
                b.checksums.add(r["checksum"])
        if not b.fail("stages", errors):
            return None
        (b.etl_traced if traced else b.etl_s).append(elapsed)
        b.rss_kb += rss
        b.disk_bytes = dir_bytes(st) + dir_bytes(wh)
        return wh

    measure(b, stages, reads_per_round=6)


WORKLOADS = {"build-desk": build_desk, "stages-dirty": stages_dirty}


# ---------------------------------------------------------------------------
# Helpers and metrics


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def tree_digest(path: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(path).rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(path)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: list[float]) -> float:
    """On a shared machine an interpreter can run in a fast or a slow CPU
    state (about 1.6x apart on the 2-core machine of ``METRICS.md``); the
    mean moves with the share of slow samples, where a median of a few
    samples jumps between the two."""
    return statistics.fmean(values) if values else 0.0


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(b: Bench) -> dict:
    latencies = [record[1] * 1000 for record in b.queries]
    return {
        "setup_s": (median(b.setup_s), "s"),
        "etl_s": (mean(b.etl_s), "s"),
        "open_s": (mean(b.open_s), "s"),
        "query_ms.mean": (mean(latencies), "ms"),
        "peak_rss_mb": (max(b.rss_kb, default=0) / 1024, "MiB"),
        "disk_bytes": (b.disk_bytes, "B"),
    }


def summary(b: Bench) -> list[str]:
    records = b.queries
    distinct = len({record[3] for record in records})
    lines = [f"workload {b.workload} seed {b.seed} trace {int(b.trace)}"]
    for name, values in (("setup_s", b.setup_s), ("etl_s", b.etl_s), ("open_s", b.open_s)):
        lines.append(f"samples {name} n={len(values)} " + " ".join(f"{v:.4f}" for v in values))
    latencies = [record[1] * 1000 for record in records]
    lines += [
        f"samples query_ms n={len(records)} distinct={distinct} exact_repeats={len(records) - distinct}/{len(records)}"
        f" p50={median(latencies):.4f} p90={percentile(latencies, 90):.4f}",
        f"error_rate {b.failed / max(b.attempted, 1):.6f} ratio ({b.failed}/{b.attempted})",
    ]
    return lines + [f"error: {e}" for e in b.errors[:10]]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "uwh" / "__init__.py").is_file():
        print(f"error: {root} holds no uwh checkout (src/uwh is missing)", file=sys.stderr)
        return 2
    # on SIGTERM, unwind: the running child is killed and waited for, and
    # the working directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    b = Bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    b.work.mkdir(parents=True)
    try:
        WORKLOADS[args.workload](b)
    finally:
        shutil.rmtree(b.work, ignore_errors=True)

    if args.trace:
        from layers import per_layer, write_spans

        write_spans(b.traced, root / ".perfbench" / f"spans-{b.workload}-seed{b.seed}.jsonl")
        metrics = per_layer(b)
    else:
        metrics = end_to_end(b)
    for line in summary(b):
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": b.failed == 0,
                "attempted": b.attempted,
                "failed": b.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
