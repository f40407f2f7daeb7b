"""One measured process of a workload, started fresh by run.py.

Untraced: time the set-up (import, catalog, exact expansion, first-order
prediction) from the first line of this file, then run whole rounds of
harness calls (``run_core_census`` / ``run_solver_validation``, workers=1,
as ``sparsecore mc`` runs them) until ``--seconds`` of trial time is
spent, each call timed with ``perf_counter``.

Traced (``--trace 1``): the same set-up with spans around the catalog and
predictor calls, then rounds of one untraced harness call plus the replay
of replay.py twice over the same seeds, once with spans and once without.
The spans give the per-layer metrics; the two replay times give the
tracing overhead.  The replay's outputs are checked here, untimed.

Prints one JSON object on its last line of output.
"""

from time import perf_counter

START = perf_counter()

import argparse
import json
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import oracles
import workloads
from replay import count_draws, replay
from tracing import NullTracer, Tracer, per_layer


def _summary(report) -> dict:
    out = report.to_json_dict()
    for key in ("config", "predicted_census"):
        out.pop(key, None)
    return out


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(args) -> dict:
    import sparsecore as sc

    catalog, predictions = workloads.set_up(sc, args.workload, NullTracer())
    setup_s = perf_counter() - START
    parts = workloads.parts_of(args.workload)
    reports, trial_s, round_index = [], 0.0, 0
    while trial_s < args.seconds:
        for i, part in enumerate(parts):
            seed = workloads.run_seed(args.seed, args.child, round_index, i)
            config = workloads.harness_config(sc, part, seed, catalog)
            t = perf_counter()
            report = workloads.run_harness(sc, part, config)
            elapsed = perf_counter() - t
            trial_s += elapsed
            reports.append({"part": part.name, "seconds": elapsed, **_summary(report)})
        round_index += 1
    return {"setup_s": setup_s, "peak_rss_mb": _peak_rss_mb(),
            "predictions": predictions, "reports": reports}


def trace(args) -> dict:
    import sparsecore as sc
    from sparsecore import experiments

    tracer = Tracer()
    catalog, predictions = workloads.set_up(sc, args.workload, tracer)
    parts = workloads.parts_of(args.workload)
    memos = {"traced": {}, "plain": {}}
    seeds_used = {p.name: [] for p in parts}
    counts = {p.name: [0, 0, 0, 0] for p in parts}  # replay hits/trials, harness hits/trials
    seconds = {"harness": 0.0, "traced": 0.0, "plain": 0.0}
    reports, errors, failed, round_index = [], [], 0, 0
    while sum(seconds.values()) < args.seconds:
        for i, part in enumerate(parts):
            config = workloads.harness_config(
                sc, part, workloads.run_seed(args.seed, args.child, round_index, i), catalog)
            t = perf_counter()
            report = workloads.run_harness(sc, part, config)
            seconds["harness"] += perf_counter() - t
            reports.append({"part": part.name, **_summary(report)})
            counts[part.name][2] += report.failures
            counts[part.name][3] += report.trials
            seeds = workloads.replay_seeds(args.seed, args.child, round_index, i,
                                           part.replay_trials)
            seeds_used[part.name].extend(seeds)
            # both passes keep their records, so that the overhead is the spans' alone
            records = {"traced": [], "plain": []}
            for mode in ("plain", "traced") if round_index % 2 == 0 else ("traced", "plain"):
                traced = mode == "traced"
                t = perf_counter()
                hits, trials = replay(sc, experiments, part, seeds, catalog,
                                      tracer if traced else NullTracer(), memos[mode],
                                      records[mode])
                seconds[mode] += perf_counter() - t
                if traced:
                    counts[part.name][0] += hits
                    counts[part.name][1] += trials
                    if not part.census:
                        failed += hits  # verdicts that disagree with the oracle
            errors += oracles.check_replay(part, records["traced"])
        round_index += 1

    for part in parts:
        if part.census:
            hits, trials, harness_hits, harness_trials = counts[part.name]
            errors += oracles.check_binomial(part.name, hits, trials, harness_hits,
                                             harness_trials)
    draws = {p.name: count_draws(sc, p, seeds_used[p.name]) for p in parts}
    metrics = per_layer(tracer.spans, list(workloads.PARTS), draws)
    metrics["trace.overhead_pct"] = 100.0 * (seconds["traced"] / seconds["plain"] - 1.0)
    if args.spans:
        tracer.write(args.spans)
    return {"predictions": predictions, "reports": reports, "per_layer": metrics,
            "replay": counts, "seconds": seconds, "replay_failed": failed,
            "errors": errors}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--child", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    out = trace(args) if args.trace else measure(args)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
