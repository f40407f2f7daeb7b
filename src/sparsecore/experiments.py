"""Reproducible Monte Carlo harness for failure rates, core censuses and
solver validation.

Trials are grouped into fixed-size batches; batch b draws its randomness
from SeedSequence(seed, spawn_key=(b,)), so every trial's randomness is a
deterministic function of (seed, batch size, trial index) and reports are
identical for any worker count.  A batch is sampled in one O(items) draw
and reduced as one disjoint union; only trials with a nonempty core
become Python objects.  Aggregation is pure counting, hence
order-independent.  Per-trial solver budget failures are recorded, never
fatal.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .catalog import (
    Catalog,
    enumerate_full,
    enumerate_k_dense,
    is_min_non_k_colorable,
    is_muf,
)
from .isomorph import canonical_key, count_copies
from .predictor import EVENT_FLAGS, core_type_distribution
from .reduction import _k_core_batch, _pure_literal_batch
from .sampling import (
    params_from_alpha,
    sample_batch,
    unrank_clauses,
    unrank_combinations,
)
from .structures import (
    BudgetExceededError,
    Clause,
    Formula,
    Hypergraph,
    induced_formula,
    induced_hypergraph,
    is_full,
    is_k_dense,
)
from .solver import (
    decide_colorable,
    decide_sat,
    least_coloring,
    least_satisfying,
)

REPORT_FORMAT_VERSION = 1

RATE_KINDS = ("pl-fail", "kcore", "unsat", "noncolorable")
VALIDATE_KINDS = ("sat", "coloring")

_SAT_ORACLE_MAX_N = 18
_COLOR_ORACLE_MAX_N = 13


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% Wilson score interval; behaves sensibly at rare-event counts."""
    if trials == 0:
        return 0.0, 1.0
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


@dataclass(frozen=True)
class ExperimentConfig:
    kind: str
    n: int
    r: int
    alpha: float
    trials: int
    seed: int
    k: int | None = None
    workers: int = 1
    batch_size: int = 4096
    sat_core_budget: int = 28
    coloring_budget: int = 300_000_000
    catalog: Catalog | None = None
    exclude_below_excess: int | None = None

    def validate(self, kinds) -> None:
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {kinds}, got {self.kind!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        if self.kind in ("kcore", "noncolorable", "coloring") and self.k is None:
            raise ValueError(f"kind {self.kind!r} needs k")
        if self.workers < 1 or self.batch_size < 1:
            raise ValueError("workers and batch_size must be positive")


@dataclass
class ExperimentReport:
    format_version: int
    config: dict
    trials: int
    failures: int
    rate: float
    wilson_low: float
    wilson_high: float
    predicted: float | None
    ratio: float | None
    budget_exceeded: int
    elapsed_seconds: float
    census: dict[str, int] | None = None
    other_count: int | None = None
    large_core_count: int | None = None
    census_excluded: int | None = None
    predicted_census: dict[str, float] | None = None
    tv_distance: float | None = None
    agreement_rate: float | None = None
    mismatches: int | None = None
    witness_failures: int | None = None
    sanity_checks: int | None = None

    def to_json_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    def to_csv(self) -> str:
        cfg = ";".join(f"{k}={v}" for k, v in sorted(self.config.items()))
        lines = ["config,statistic,value"]
        for key, value in self.to_json_dict().items():
            if key == "config":
                continue
            if isinstance(value, dict):
                for sub, v in sorted(value.items()):
                    lines.append(f'"{cfg}",{key}:{sub},{v}')
            else:
                lines.append(f'"{cfg}",{key},{value}')
        return "\n".join(lines) + "\n"


def _config_echo(config: ExperimentConfig) -> dict:
    d = {f: getattr(config, f) for f in (
        "kind", "n", "r", "alpha", "trials", "seed", "k", "workers", "batch_size",
        "sat_core_budget", "coloring_budget", "exclude_below_excess")}
    d["catalog"] = None if config.catalog is None else (
        f"{config.catalog.kind} r={config.catalog.r} k={config.catalog.k} "
        f"max_excess={config.catalog.max_excess} entries={len(config.catalog.entries)}"
    )
    return d


# ---------------------------------------------------------------------------
# sampling and reduction of a whole batch

def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(batch_index,)))


def _batch_items(config: ExperimentConfig, model_kind: str, batch_index: int, count: int):
    """(owner trial, item rows) of one batch: clause rows of signed literals
    or edge rows of vertices, sorted by trial."""
    params = params_from_alpha(config.n, config.r, config.alpha, model_kind)
    trial, index = sample_batch(params, _batch_rng(config.seed, batch_index), count)
    decode = unrank_clauses if model_kind == "sat" else unrank_combinations
    return trial, decode(index, config.n, config.r)


def _per_trial(trial: np.ndarray, rows: np.ndarray, count: int) -> list[list[tuple]]:
    """The item tuples of each of ``count`` trials, from rows sorted by trial."""
    bounds = np.searchsorted(trial, np.arange(count + 1)).tolist()
    items = [tuple(row) for row in rows.tolist()]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# core classification for the census

@lru_cache(maxsize=4096)  # far above the distinct small cores a census process meets
def _memo_key(kind: str, order: int, items: tuple) -> bytes:
    """Canonical key of a dense core, memoized for the life of the process."""
    return canonical_key(Formula(order, items) if kind == "sat" else Hypergraph(order, items))


def _classify_core(kind: str, core_items, max_order: int):
    """(iso key or None, dense structure) for a core given by raw items."""
    if kind == "sat":
        dense, _ = induced_formula(Clause(c) for c in core_items)
    else:
        dense, _ = induced_hypergraph(core_items)
    if dense.order > max_order:
        return "large", dense
    items = tuple(sorted(cl.literals for cl in dense.clauses)) if kind == "sat" \
        else tuple(sorted(dense.edges))
    return _memo_key(kind, dense.order, items), dense


# ---------------------------------------------------------------------------
# rate / census engine

def _rate_batch(config: ExperimentConfig, batch_index: int, count: int, census: bool):
    model_kind, flag = EVENT_FLAGS[config.kind]
    failures = budget = 0
    census_counts: Counter = Counter()
    other = large = excluded = 0
    sanity = 0
    catalog = config.catalog
    known = catalog.by_key() if (census and catalog) else {}
    max_order = catalog.max_order() if (census and catalog) else 0
    low_entries = ()
    if census and catalog and config.exclude_below_excess is not None:
        low_entries = tuple(e.structure for e in catalog.with_flag(flag)
                            if e.excess < config.exclude_below_excess)
    trial, items = _batch_items(config, model_kind, batch_index, count)
    if model_kind == "sat":
        alive = _pure_literal_batch(items, trial, config.n)
    else:
        alive = _k_core_batch(items, trial, config.n, config.k)
    # only the rows of nonempty cores become Python tuples
    for core_items in _per_trial(trial[alive], items[alive], count):
        if not core_items:
            continue
        failed = True
        dense = None
        if config.kind in ("unsat", "noncolorable"):
            try:
                if config.kind == "unsat":
                    dense, _ = induced_formula(Clause(c) for c in core_items)
                    if dense.order > config.sat_core_budget:
                        raise BudgetExceededError(str(dense.order))
                    lits = [cl.literals for cl in dense.sorted_clauses()]
                    failed = least_satisfying(lits, dense.order) is None
                else:
                    dense, _ = induced_hypergraph(core_items)
                    if config.k ** dense.order > config.coloring_budget:
                        raise BudgetExceededError(str(dense.order))
                    failed = least_coloring(list(dense.sorted_edges()), dense.order,
                                            config.k) is None
            except BudgetExceededError:
                budget += 1
                continue
        if not failed:
            continue
        failures += 1
        if census:
            key, dense = _classify_core(model_kind, core_items, max_order)
            if failures % 100 == 1:  # 1% sanity sample: cores really are cores
                ok = is_full(dense) if model_kind == "sat" else is_k_dense(dense, config.k)
                if not ok:
                    raise RuntimeError("reduction produced a non-core structure")
                sanity += 1
            if low_entries and any(count_copies(b, dense) > 0 for b in low_entries):
                excluded += 1
                continue
            if key == "large":
                large += 1
            elif key in known:
                census_counts[key.decode("ascii")] += 1
            else:
                other += 1
    return {
        "failures": failures, "budget": budget, "census": census_counts,
        "other": other, "large": large, "excluded": excluded, "sanity": sanity,
    }


def _split_batches(trials: int, batch_size: int):
    return [(b, min(batch_size, trials - b * batch_size))
            for b in range((trials + batch_size - 1) // batch_size)]


def _run_batches(config: ExperimentConfig, worker, batches):
    if config.workers == 1 or len(batches) <= 1:
        return [worker(config, b, c) for b, c in batches]
    with ProcessPoolExecutor(max_workers=config.workers) as pool:
        futures = [pool.submit(worker, config, b, c) for b, c in batches]
        return [f.result() for f in futures]


def _auto_catalog(config: ExperimentConfig) -> Catalog | None:
    try:
        if config.kind in ("pl-fail", "unsat"):
            return enumerate_full(config.r, config.r - 2)
        if config.r == 2:
            k = config.k
            return enumerate_k_dense(2, k, (k - 2) * (k + 1) // 2)
    except ValueError:
        return None
    return None


def _prediction(config: ExperimentConfig, catalog: Catalog | None):
    """First-order predicted failure rate and census weights at (n, alpha)."""
    if catalog is None:
        return None, None
    if config.alpha <= 0:
        return 0.0, None
    _, flag = EVENT_FLAGS[config.kind]
    entries = catalog.with_flag(flag)
    if not entries:
        return None, None
    min_excess = min(e.excess for e in entries)
    leading = [e for e in entries if e.excess == min_excess]
    sign = lambda e: 2 ** e.order if e.kind == "sat" else 1
    rate = sum(
        sign(e) / e.aut_count * config.alpha ** e.size * config.n ** (-e.excess)
        for e in leading
    )
    dist = core_type_distribution(leading, Fraction(config.alpha))
    weights = {key.decode("ascii"): float(w) for key, w in dist.weights}
    return rate, weights


def _assemble_rate_report(config, results, census: bool, t0: float,
                          predicted, predicted_census) -> ExperimentReport:
    failures = sum(r["failures"] for r in results)
    budget = sum(r["budget"] for r in results)
    rate = failures / config.trials if config.trials else 0.0
    low, high = wilson_interval(failures, config.trials)
    report = ExperimentReport(
        format_version=REPORT_FORMAT_VERSION,
        config=_config_echo(config),
        trials=config.trials,
        failures=failures,
        rate=rate,
        wilson_low=low,
        wilson_high=high,
        predicted=predicted,
        ratio=(rate / predicted) if predicted else None,
        budget_exceeded=budget,
        elapsed_seconds=time.perf_counter() - t0,
    )
    if census:
        counts: Counter = Counter()
        for r in results:
            counts.update(r["census"])
        report.census = dict(sorted(counts.items()))
        report.other_count = sum(r["other"] for r in results)
        report.large_core_count = sum(r["large"] for r in results)
        report.census_excluded = sum(r["excluded"] for r in results)
        report.sanity_checks = sum(r["sanity"] for r in results)
        report.predicted_census = predicted_census
        classified = failures - report.census_excluded
        if classified > 0 and predicted_census is not None:
            emp = {k: v / classified for k, v in counts.items()}
            emp["__other__"] = (report.other_count + report.large_core_count) / classified
            pred = dict(predicted_census)
            pred["__other__"] = 0.0
            keys = set(emp) | set(pred)
            report.tv_distance = 0.5 * sum(
                abs(emp.get(k, 0.0) - pred.get(k, 0.0)) for k in keys
            )
    return report


def run_failure_probability(config: ExperimentConfig) -> ExperimentReport:
    """Sample, reduce, and count nonempty cores (plus a solver pass for the
    unsatisfiability / non-colorability kinds)."""
    config.validate(RATE_KINDS)
    t0 = time.perf_counter()
    catalog = config.catalog or _auto_catalog(config)
    predicted, _ = _prediction(config, catalog)
    results = _run_batches(config, _rate_worker_plain,
                           _split_batches(config.trials, config.batch_size))
    return _assemble_rate_report(config, results, False, t0, predicted, None)


def run_core_census(config: ExperimentConfig) -> ExperimentReport:
    """Failure rate plus the isomorphism-class census of the failing cores."""
    config.validate(RATE_KINDS)
    if config.catalog is None:
        config = replace(config, catalog=_auto_catalog(config))
    if config.catalog is None:
        raise ValueError("core census needs a catalog")
    t0 = time.perf_counter()
    predicted, predicted_census = _prediction(config, config.catalog)
    results = _run_batches(config, _rate_worker_census,
                           _split_batches(config.trials, config.batch_size))
    return _assemble_rate_report(config, results, True, t0, predicted, predicted_census)


def _rate_worker_plain(config, batch_index, count):
    return _rate_batch(config, batch_index, count, census=False)


def _rate_worker_census(config, batch_index, count):
    return _rate_batch(config, batch_index, count, census=True)


# ---------------------------------------------------------------------------
# solver validation against exhaustive oracles

@lru_cache(maxsize=4)
def _truth_columns(n: int) -> np.ndarray:
    grid = np.arange(2 ** n, dtype=np.uint32)
    return ((grid[:, None] >> np.arange(n)) & 1).astype(bool)  # column v-1: var v True

@lru_cache(maxsize=4)
def _color_columns(n: int, k: int) -> np.ndarray:
    grid = np.arange(k ** n, dtype=np.int64)
    cols = np.empty((k ** n, n), dtype=np.uint8)
    for v in range(n):
        cols[:, v] = (grid // (k ** v)) % k
    return cols


def _oracle_max_sat(clause_lits, n: int) -> int:
    cols = _truth_columns(n)
    counts = np.zeros(2 ** n, dtype=np.int32)
    for lits in clause_lits:
        sat = np.zeros(2 ** n, dtype=bool)
        for l in lits:
            sat |= cols[:, abs(l) - 1] if l > 0 else ~cols[:, abs(l) - 1]
        counts += sat
    return int(counts.max()) if clause_lits else 0


def _oracle_colorable(edges, n: int, k: int) -> bool:
    if not edges:
        return True
    cols = _color_columns(n, k)
    ok = np.ones(k ** n, dtype=bool)
    for e in edges:
        mono = np.ones(k ** n, dtype=bool)
        first = cols[:, e[0] - 1]
        for v in e[1:]:
            mono &= cols[:, v - 1] == first
        ok &= ~mono
        if not ok.any():
            return False
    return bool(ok.any())


def _validate_batch(config: ExperimentConfig, batch_index: int, count: int):
    model_kind = "sat" if config.kind == "sat" else "hypergraph"
    agree = mismatch = witness_bad = budget = 0
    for items in _per_trial(*_batch_items(config, model_kind, batch_index, count), count):
        try:
            if config.kind == "sat":
                formula = Formula(config.n, items)
                verdict = decide_sat(formula, config.sat_core_budget)
                oracle_max = _oracle_max_sat(items, config.n)
                oracle_sat = oracle_max == formula.size
                ok = (verdict.status == "SAT") == oracle_sat and \
                    verdict.max_satisfied == oracle_max
                if verdict.status == "UNSAT" and not is_muf(verdict.muf):
                    witness_bad += 1
                    ok = False
            else:
                graph = Hypergraph(config.n, items)
                verdict = decide_colorable(graph, config.k, config.coloring_budget)
                ok = verdict.colorable == _oracle_colorable(items, config.n, config.k)
                if not verdict.colorable and not is_min_non_k_colorable(
                        verdict.obstruction, config.k):
                    witness_bad += 1
                    ok = False
        except BudgetExceededError:
            budget += 1
            continue
        if ok:
            agree += 1
        else:
            mismatch += 1
    return {"agree": agree, "mismatch": mismatch, "witness_bad": witness_bad,
            "budget": budget}


def run_solver_validation(config: ExperimentConfig) -> ExperimentReport:
    """Exact agreement of the solver with full-enumeration oracles.

    The oracle enumerates all 2^n assignments (n <= 18) or k^n colorings
    (n <= 13) without any reduction, so it shares nothing with the
    solver's reduce-then-exhaust path.
    """
    config.validate(VALIDATE_KINDS)
    if config.kind == "sat" and config.n > _SAT_ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {_SAT_ORACLE_MAX_N}")
    if config.kind == "coloring" and config.n > _COLOR_ORACLE_MAX_N:
        raise ValueError(f"coloring oracle capped at n <= {_COLOR_ORACLE_MAX_N}")
    t0 = time.perf_counter()
    results = _run_batches(config, _validate_batch,
                           _split_batches(config.trials, config.batch_size))
    agree = sum(r["agree"] for r in results)
    mismatch = sum(r["mismatch"] for r in results)
    budget = sum(r["budget"] for r in results)
    witness_bad = sum(r["witness_bad"] for r in results)
    compared = agree + mismatch
    return ExperimentReport(
        format_version=REPORT_FORMAT_VERSION,
        config=_config_echo(config),
        trials=config.trials,
        failures=mismatch,
        rate=mismatch / config.trials if config.trials else 0.0,
        wilson_low=0.0,
        wilson_high=0.0,
        predicted=None,
        ratio=None,
        budget_exceeded=budget,
        elapsed_seconds=time.perf_counter() - t0,
        agreement_rate=(agree / compared) if compared else None,
        mismatches=mismatch,
        witness_failures=witness_bad,
    )
