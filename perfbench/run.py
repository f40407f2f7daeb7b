"""sparsecore benchmark: Monte Carlo workloads run through the library, timed
in fresh interpreters, with their outputs checked against independent
computations.

    python3 perfbench/run.py --workload plfail-census --seed 1 --seconds 25 --trace 0

``--trace 0`` runs CHILDREN fresh processes (child.py), each set up from
scratch and given an equal share of ``--seconds`` of trial time, and
prints the end-to-end metrics.  ``--trace 1`` runs one traced process and
prints the per-layer metrics, with the tracing overhead.  Both then run
the untimed checks of oracles.py and print, as the last line, one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The same object,
with per-process details, is written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles
import workloads
from replay import replay
from tracing import NullTracer, unit_of

CHILDREN = 3  # fresh processes per untraced run; setup_s is their median
DEADLINE_S = 170.0  # a child still running this long after the start is killed
CHECK_CHILD = 63  # child index whose seeds the parent's own replay check uses
CHECK_TRIALS = {"pl-n30": 200, "pl-n120": 100, "kc-n40": 600, "sat-n15": 40, "col-n12": 40}
# small reports compared at workers=1 and workers=2: (trials, batch size)
WORKER_CHECK = {"pl-n30": (600, 200), "kc-n40": (6000, 2000), "sat-n15": (60, 20)}


def spawn(args, child: int, seconds: float, started: float, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--child", str(child), "--seconds", str(seconds),
           "--trace", str(args.trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"perfbench: child {child} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_reports(parts, reports, catalog, predictions) -> list[str]:
    by_name = {p.name: p for p in parts}
    errors = []
    for report in reports:
        part = by_name[report["part"]]
        if part.census:
            errors += oracles.check_census_report(report, part, catalog, predictions)
        else:
            errors += oracles.check_validation_report(report, part)
    return errors


def check_workers(sc, parts, catalog) -> list[str]:
    """A small report is the same at workers=1 and workers=2, timing aside."""
    part = next(p for p in parts if p.name in WORKER_CHECK)
    trials, batch = WORKER_CHECK[part.name]
    out = []
    for workers in (1, 2):
        config = sc.ExperimentConfig(kind=part.kind, n=part.n, r=part.r, alpha=part.alpha,
                                     trials=trials, seed=1, k=part.k, catalog=catalog,
                                     workers=workers, batch_size=batch)
        report = workloads.run_harness(sc, part, config).to_json_dict()
        report.pop("elapsed_seconds")
        report["config"].pop("workers")
        out.append(report)
    return [] if out[0] == out[1] else [f"{part.name}: report differs between 1 and 2 workers"]


def check_replay(sc, parts, seed, catalog) -> list[str]:
    """The library's cores and witnesses on a few replayed trials, by brute force."""
    from sparsecore import experiments

    errors = []
    for i, part in enumerate(parts):
        records = []
        seeds = workloads.replay_seeds(seed, CHECK_CHILD, 0, i, CHECK_TRIALS[part.name])
        replay(sc, experiments, part, seeds, catalog, NullTracer(), {}, records)
        errors += oracles.check_replay(part, records)
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description="sparsecore benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    if not (ROOT / "src" / "sparsecore" / "__init__.py").is_file():
        print("perfbench: src/sparsecore is missing from this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import sparsecore as sc  # also leaves compiled modules for the children

    parts = workloads.parts_of(args.workload)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"

    if args.trace:
        spans = results / f"{stem}.spans.jsonl"
        children = [spawn(args, 0, args.seconds, started, spans)]
    else:
        share = args.seconds / CHILDREN
        children = [spawn(args, c, share, started, None) for c in range(CHILDREN)]

    catalog = workloads.build_catalog(sc, args.workload)
    reports = [r for c in children for r in c["reports"]]
    errors = []
    for c in children:
        errors += check_reports(parts, c["reports"], catalog, c["predictions"])
        errors += c.get("errors", [])
    if catalog is not None:
        errors += oracles.check_catalog_counts(catalog)
    errors += check_workers(sc, parts, catalog)
    errors += check_replay(sc, parts, args.seed, catalog)

    attempted = sum(r["trials"] for r in reports)
    failed = sum(r["budget_exceeded"] + r.get("mismatches", 0) for r in reports)
    if args.trace:
        child = children[0]
        attempted += 2 * sum(v[1] for v in child["replay"].values())
        failed += child["replay_failed"]
        metrics = {name: {"value": value, "unit": unit_of(name)}
                   for name, value in child["per_layer"].items()}
    else:
        metrics = {
            "trials_per_s": {"value": attempted / sum(r["seconds"] for r in reports),
                             "unit": "1/s"},
            "setup_s": {"value": statistics.median(c["setup_s"] for c in children), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(c["peak_rss_mb"] for c in children),
                            "unit": "MB"},
        }
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "errors": errors,
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "numpy": __import__("numpy").__version__},
        "children": children,
    }
    (results / f"{stem}.json").write_text(json.dumps({**result, **details}, indent=1) + "\n")
    for error in errors:
        print(f"perfbench: check failed: {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
