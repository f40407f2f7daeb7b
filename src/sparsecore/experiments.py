"""Reproducible Monte Carlo harness for failure rates, core censuses and
solver validation.

Trials are grouped into fixed-size batches; batch b draws its randomness
from SeedSequence(seed, spawn_key=(b,)), so every trial's randomness is a
deterministic function of (seed, batch size, trial index) and reports are
identical for any worker count.  A batch is sampled in one O(items) draw
and reduced as one disjoint union; only trials with a nonempty core
become Python objects.  Each batch returns one tally, a Counter of its
failures, budget hits, census buckets or verdicts, and the run sums the
tallies once and builds its report from the sum; summing is
order-independent.  Per-trial solver budget failures are recorded, never
fatal.

Every process that runs batches asks glibc to keep the heap pages it frees
(``_keep_freed_pages``), so a batch's temporaries reuse the pages of the
batch before instead of faulting fresh ones; the process may hold up to
64 MiB of freed heap.
"""

from __future__ import annotations

import csv
import ctypes
import io
import itertools
import math
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cache, partial
from itertools import chain

import numpy as np

from .catalog import (
    Catalog,
    _class_rows,
    enumerate_full,
    enumerate_k_dense,
    is_min_non_k_colorable,
    is_muf,
)
from .isomorph import _anchored_row
from .predictor import EVENTS, core_type_distribution, failure_expansion
from .reduction import _peel_keys
from .sampling import _rng, decode_rows, key_codes, params_from_alpha, sample_keys
from .structures import (
    MODELS,
    BudgetExceededError,
    dense_relabel,
    is_full,
    is_k_dense,
)
from . import solver
from .solver import _decide_colorable, _decide_sat

REPORT_FORMAT_VERSION = 1

RATE_KINDS = tuple(EVENTS)
VALIDATE_KINDS = {"sat": "sat", "coloring": "hypergraph"}  # kind -> model it samples

_SAT_ORACLE_MAX_N = 18
_COLOR_ORACLE_MAX_COLORINGS = 3 ** 13  # max(k, 2)^n: n <= 13 at k = 3, 20 at k = 2


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval (z = 1.96); behaves sensibly at rare-event counts."""
    z = 1.96
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
    catalog: Catalog | None = None
    exclude_below_excess: int | None = None

    def validate(self, kinds, uses=()) -> None:
        """Raise ValueError on a bad kind, count or k, on model parameters that
        ``params_from_alpha`` refuses, on a set option outside ``uses`` (the
        run would ignore it), or on another model's, r's or k's catalog."""
        if self.kind not in kinds:
            raise ValueError(f"kind must be one of {tuple(kinds)}, got {self.kind!r}")
        if self.trials < 0:
            raise ValueError("trials must be nonnegative")
        model = EVENTS[self.kind].model if self.kind in EVENTS else VALIDATE_KINDS[self.kind]
        params_from_alpha(self.n, self.r, self.alpha, model)
        if self.k is None and not MODELS[model].signed:
            raise ValueError(f"kind {self.kind!r} needs k")
        if self.k is not None and MODELS[model].signed:  # k counts colors or degree
            raise ValueError(f"k does not apply to kind {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise ValueError("k must be >= 1")
        if self.workers < 1 or self.batch_size < 1:
            raise ValueError("workers and batch_size must be positive")
        for option in ("catalog", "exclude_below_excess"):
            if getattr(self, option) is not None and option not in uses:
                raise ValueError(f"{option} does not apply to this run")
        cat = self.catalog
        if cat is not None and (cat.kind != model or cat.r != self.r or cat.k != self.k):
            raise ValueError(f"catalog ({cat.kind} r={cat.r} k={cat.k}) does not fit "
                             f"{self.kind} r={self.r} k={self.k}")


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
    catalog_refused: str | None = None
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
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")  # quotes the commas of census keys
        writer.writerow(["config", "statistic", "value"])
        for key, value in self.to_json_dict().items():
            if key == "config":
                continue
            if isinstance(value, dict):
                writer.writerows([cfg, f"{key}:{sub}", v] for sub, v in sorted(value.items()))
            else:
                writer.writerow([cfg, key, value])
        return out.getvalue()


def _config_echo(config: ExperimentConfig) -> dict:
    d = {f: getattr(config, f) for f in (
        "kind", "n", "r", "alpha", "trials", "seed", "k", "workers", "batch_size")}
    d.update(sat_core_budget=solver.SAT_CORE_BUDGET, coloring_budget=solver.COLORING_BUDGET,
             exclude_below_excess=config.exclude_below_excess)
    d["catalog"] = None if config.catalog is None else (
        f"{config.catalog.kind} r={config.catalog.r} k={config.catalog.k} "
        f"max_excess={config.catalog.max_excess} entries={len(config.catalog.entries)}"
    )
    return d


# ---------------------------------------------------------------------------
# sampling and reduction of a whole batch

def _batch_keys(config: ExperimentConfig, model_kind: str, batch_index: int, count: int):
    """(model params, sorted packed row keys) of one batch."""
    params = params_from_alpha(config.n, config.r, config.alpha, model_kind)
    return params, sample_keys(params, _rng(config.seed, batch_index), count)


def _batch_items(config: ExperimentConfig, model_kind: str, batch_index: int, count: int):
    """(owner trial, item rows) of one batch: clause rows of signed literals
    or edge rows of vertices, sorted by trial."""
    params, keys = _batch_keys(config, model_kind, batch_index, count)
    return decode_rows(keys, params)


def _core_orders(keys: np.ndarray, params, count: int) -> list[int]:
    """Number of distinct variables or vertices in each of ``count`` trials,
    from the packed keys of their rows: one sort of the rows' variable
    codes, then one bincount of the distinct codes' trials."""
    codes = np.concatenate(key_codes(keys, params, False))
    codes.sort()
    return np.bincount(codes[np.diff(codes, prepend=-1) != 0] // params.n,
                       minlength=count).tolist()


def _per_owner(trial: np.ndarray, rows: np.ndarray, owners: np.ndarray) -> list[list[tuple]]:
    """The item tuples of each trial in ``owners``, from rows sorted by
    trial; ``owners`` ascends and holds the owner of every row."""
    bounds = np.searchsorted(trial, owners).tolist() + [len(rows)]
    items = [tuple(row) for row in rows.tolist()]
    return [items[a:b] for a, b in zip(bounds, bounds[1:])]


# ---------------------------------------------------------------------------
# core classification for the census

def _classify_core(items, order: int, max_order: int, classes: dict, signed: bool):
    """Census bucket of a raw core on ``order`` points: "large" above
    ``max_order``, else the iso key its anchored row finds, else "other"."""
    return "large" if order > max_order else classes.get(_anchored_row(items, signed), "other")


def _holds_low_obstruction(core_items, classes: dict, low: dict, signed: bool) -> bool:
    """Some item subset of the core has the shape of a class in ``low`` (iso
    key -> (order, size)) and an anchored row that finds the class's key."""
    shapes = set(low.values())
    return any((len({abs(v) for item in subset for v in item}), size) in shapes
               and classes.get(_anchored_row(subset, signed)) in low
               for size in sorted({e for _, e in shapes})
               for subset in itertools.combinations(core_items, size))


# ---------------------------------------------------------------------------
# rate / census engine

def _rate_batch(config: ExperimentConfig, batch_index: int, count: int,
                census: bool) -> Counter:
    """Tally of one batch: "failures" and "budget" hits; for a census also
    "sanity" checks run and each failing core's bucket: "excluded", "large",
    "other" or its catalog class's iso key (bytes)."""
    model_kind, flag, core_decides = event = EVENTS[config.kind]
    signed, tally = MODELS[model_kind].signed, Counter()
    params, keys = _batch_keys(config, model_kind, batch_index, count)
    keys = keys[_peel_keys(keys, params, config.k or 1)]
    # only the rows of nonempty cores are decoded, and walked in trial order
    trial, items = decode_rows(keys, params)
    owners = trial[np.diff(trial, prepend=-1) != 0]  # np.unique raised peak RSS by 1 MB
    if census:  # a census always has a catalog
        catalog, s = config.catalog, config.exclude_below_excess or 0  # 0: no excess is below
        classes, max_order = _class_rows(catalog), catalog.max_order()
        low = {e.iso_key: (e.order, e.size) for e in catalog.with_flag(flag) if e.excess < s}
        orders = _core_orders(keys, params, count)
    for owner, core_items in zip(owners.tolist(), _per_owner(trial, items, owners)):
        try:
            if not (core_decides or event.fails(core_items, config.n, config.k)):
                continue
        except BudgetExceededError:
            tally["budget"] += 1
            continue
        tally["failures"] += 1
        if not census:
            continue
        if tally["failures"] % 100 == 1:  # 1% sanity sample: cores really are cores
            support, rows = dense_relabel(core_items)
            dense = MODELS[model_kind](len(support), rows)
            if not (is_full(dense) if signed else is_k_dense(dense, config.k)):
                raise RuntimeError("reduction produced a non-core structure")
            tally["sanity"] += 1
        if low and _holds_low_obstruction(core_items, classes, low, signed):
            tally["excluded"] += 1
            continue
        tally[_classify_core(core_items, orders[owner], max_order, classes, signed)] += 1
    return tally


def _split_batches(trials: int, batch_size: int):
    return [(b, min(batch_size, trials - b * batch_size))
            for b in range((trials + batch_size - 1) // batch_size)]


@cache
def _keep_freed_pages() -> None:
    """Let glibc keep up to 64 MiB of freed heap instead of returning it to
    the system, and serve blocks up to 32 MiB (its own dynamic ceiling on
    64-bit) from that heap, so each batch's temporaries reuse the last
    batch's pages.  Both settings are needed: setting either one stops
    glibc from adjusting the other.  A no-op where libc has no ``mallopt``;
    reports do not depend on it."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):  # no libc handle, or no mallopt
        return
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _run_batches(config: ExperimentConfig, worker) -> Counter:
    """Sum of ``worker``'s tallies over the batches of the run."""
    batches = _split_batches(config.trials, config.batch_size)
    if config.workers == 1 or len(batches) <= 1:
        _keep_freed_pages()
        return sum(itertools.starmap(partial(worker, config), batches), Counter())
    with ProcessPoolExecutor(max_workers=config.workers,
                             initializer=_keep_freed_pages) as pool:
        futures = [pool.submit(worker, config, b, c) for b, c in batches]
        return sum((f.result() for f in futures), Counter())


def _auto_catalog(config: ExperimentConfig) -> Catalog | None:
    """The first complete catalog of excess 1, 2, ... that holds a class, or
    None where the engine rejects the parameters.  A full (k-dense) structure
    has a larger excess than any it properly contains, so each class is a
    minimal obstruction of the model's core event.  Past the group-table cap
    it raises BudgetExceededError."""
    build = partial(enumerate_full, config.r) if EVENTS[config.kind].model == "sat" \
        else partial(enumerate_k_dense, config.r, config.k)
    try:
        return next(c for c in map(build, itertools.count(1)) if c.entries)
    except ValueError:  # no catalog at these parameters
        return None


def _prediction(config: ExperimentConfig, catalog: Catalog | None):
    """(rate, census weights, refusal) at (n, alpha): the leading term of
    ``failure_expansion`` at the least excess s0 of the event's obstructions,
    its classes' weights, and why there is no prediction: no catalog, no
    class of the event, or an incomplete catalog."""
    if catalog is None:
        return None, None, "no catalog for these parameters"
    if config.alpha <= 0:  # no item is drawn
        return 0.0, None, None
    entries = catalog.with_flag(flag := EVENTS[config.kind].flag)
    if not entries:
        return None, None, f"catalog through excess {catalog.max_excess} holds no {flag} class"
    s0 = min(e.excess for e in entries)
    try:
        lead = failure_expansion(catalog, config.kind, s0).terms[s0]
    except ValueError as exc:  # a catalog that is not complete certifies no term
        return None, None, str(exc)
    # power by power, each times n^-s0: the float of the sum over the classes,
    # to the last bit (dividing the whole sum by n^s0 rounds differently)
    rate = sum(float(c) * config.alpha ** p * config.n ** (-s0)
               for p, c in sorted(lead.coeffs.items()))
    dist = core_type_distribution([e for e in entries if e.excess == s0],
                                  Fraction(config.alpha))
    return rate, {key.decode("ascii"): float(w) for key, w in dist.weights}, None


def _report(config: ExperimentConfig, tally: Counter, t0: float, failures: int,
            predicted: float | None = None, **fields) -> ExperimentReport:
    """The report of a run from its summed tally: the fields every run
    fills, plus ``fields``."""
    rate = failures / config.trials if config.trials else 0.0
    return ExperimentReport(
        format_version=REPORT_FORMAT_VERSION, config=_config_echo(config), trials=config.trials,
        failures=failures, rate=rate, predicted=predicted,
        ratio=(rate / predicted) if predicted else None, budget_exceeded=tally["budget"],
        elapsed_seconds=time.perf_counter() - t0, **fields)


def _rate_report(config: ExperimentConfig, census: bool, t0: float,
                 predicted, predicted_census, refused) -> ExperimentReport:
    """Run the rate batches and report them, with the census fields when ``census``."""
    tally = _run_batches(config, partial(_rate_batch, census=census))
    failures = tally["failures"]
    low, high = wilson_interval(failures, config.trials)
    fields = {}
    if census:
        classes = dict(sorted((k.decode("ascii"), v) for k, v in tally.items()
                              if isinstance(k, bytes)))
        fields = dict(census=classes, other_count=tally["other"],
                      large_core_count=tally["large"], census_excluded=tally["excluded"],
                      sanity_checks=tally["sanity"], predicted_census=predicted_census)
        classified = failures - tally["excluded"]
        if classified > 0 and predicted_census is not None:
            # fsum rounds the exact sum once, so the terms' order does not matter
            terms = [abs(classes.get(k, 0) / classified - predicted_census.get(k, 0.0))
                     for k in classes.keys() | predicted_census.keys()]
            terms.append((tally["other"] + tally["large"]) / classified)
            fields["tv_distance"] = 0.5 * math.fsum(terms)
    return _report(config, tally, t0, failures, predicted, wilson_low=low, wilson_high=high,
                   catalog_refused=refused, **fields)


def run_failure_probability(config: ExperimentConfig) -> ExperimentReport:
    """Sample, reduce, and count nonempty cores (plus a solver pass for the
    unsatisfiability / non-colorability kinds)."""
    config.validate(RATE_KINDS, uses=("catalog",))
    t0 = time.perf_counter()
    try:
        prediction = _prediction(config, config.catalog or _auto_catalog(config))
    except BudgetExceededError as exc:  # the rate needs no catalog; only its prediction does
        prediction = None, None, str(exc)
    return _rate_report(config, False, t0, *prediction)


def run_core_census(config: ExperimentConfig) -> ExperimentReport:
    """Failure rate plus the isomorphism-class census of the failing cores."""
    config.validate(RATE_KINDS, uses=("catalog", "exclude_below_excess"))
    config = replace(config, catalog=config.catalog or _auto_catalog(config))
    if config.catalog is None:
        raise ValueError("core census needs a catalog")
    s = config.exclude_below_excess
    if s is not None and not (config.catalog.complete and config.catalog.max_excess >= s - 1):
        raise ValueError(f"excluding cores below excess {s} needs a complete catalog "
                         f"through excess {s - 1}")
    _class_rows(config.catalog)  # checks the catalog's keys, once, before any batch
    t0 = time.perf_counter()
    return _rate_report(config, True, t0, *_prediction(config, config.catalog))


# ---------------------------------------------------------------------------
# solver validation against exhaustive oracles

# The oracles enumerate every assignment of n variables to values 0..k-1
# (k = 2 for truth values) as a pair (low, high): the first h = n // 2
# variables and the rest.  A demand row lists the value each variable must
# take (-1: any) for a clause to be false, or for an edge to be
# monochromatic in one color c.  A row is met exactly when it is met in
# the low half and in the high half, so the number of rows an assignment
# meets is one entry of HIGH @ LOW.T, where column i of a half's 0/1 table
# marks the half assignments that meet row i there.

# Each block of the product takes at most this many multiply-adds, which
# OpenBLAS runs on one thread (it threads from 2^19 up).  A threaded
# product this small stalls whenever another process holds a CPU: 1M
# multiply-adds took 7 ms that way, against 0.05 ms on one thread.
_PRODUCT_BLOCK = 1 << 18


def _half_table(part: np.ndarray, k: int) -> np.ndarray:
    """(k^w, rows) 0/1 table of a half of w variables: does each of its
    assignments (digit j of the index is the value of variable j) meet
    each row of ``part``, the half's columns of the demand matrix."""
    accepts = ((part[:, :, None] < 0) | (part[:, :, None] == np.arange(k))).T  # [value, j, row]
    met = np.ones((1, len(part)), dtype=bool)
    for j in range(part.shape[1]):  # prepend variable j as the next more significant digit
        met = (accepts[:, j, None, :] & met).reshape(-1, len(part))
    return met.astype(np.float32)


def _least_violations(demand: np.ndarray, n: int, k: int, stop_at_zero: bool) -> int:
    """Fewest demand rows met by one of the k^n assignments."""
    if not len(demand):
        return 0
    # float32 is exact here: every entry is an integer count <= len(demand) < 2^24
    assert len(demand) < 1 << 24
    h = n // 2
    low = np.ascontiguousarray(_half_table(demand[:, :h], k).T)
    high = _half_table(demand[:, h:], k)
    step = max(1, _PRODUCT_BLOCK // low.size)
    best = len(demand)
    for start in range(0, len(high), step):
        best = min(best, int((high[start:start + step] @ low).min()))
        if stop_at_zero and best == 0:
            break
    return best


def _flat_items(items):
    """(owner item, entry) arrays of the entries of a list of tuples."""
    owner = np.repeat(np.arange(len(items)), np.fromiter(map(len, items), dtype=np.int64))
    return owner, np.fromiter(chain.from_iterable(items), dtype=np.int64, count=len(owner))


def _oracle_max_sat(clause_lits, n: int) -> int:
    """MaxSAT by full enumeration of the 2^n assignments."""
    owner, lits = _flat_items(clause_lits)
    demand = np.full((len(clause_lits), n), -1, dtype=np.int8)
    demand[owner, np.abs(lits) - 1] = lits < 0  # a clause is false when each literal is
    return len(clause_lits) - _least_violations(demand, n, 2, stop_at_zero=False)


def _oracle_colorable(edges, n: int, k: int) -> bool:
    """Weak k-colorability by full enumeration of the k^n colorings."""
    owner, vertices = _flat_items(edges)
    demand = np.full((k, len(edges), n), -1, dtype=np.int8)
    demand[:, owner, vertices - 1] = np.arange(k)[:, None]  # edge monochromatic in color c
    return _least_violations(demand.reshape(k * len(edges), n), n, k, stop_at_zero=True) == 0


def _witness_in_input(rows, labels, items) -> bool:
    """The witness's rows (a MUF's clauses or an obstruction's edges), lifted
    to the input's labels, are rows of the input (both sorted by variable;
    the labels ascend)."""
    present = set(items)
    return all(tuple(labels[x - 1] if x > 0 else -labels[-x - 1] for x in row) in present
               for row in rows)


def _validate_batch(config: ExperimentConfig, batch_index: int, count: int) -> Counter:
    """Tally of one batch: solver verdicts that "agree" with the oracle or
    are a "mismatch", "witness_bad" among the latter, and "budget" hits."""
    model_kind = VALIDATE_KINDS[config.kind]
    tally: Counter = Counter()
    trial, rows = _batch_items(config, model_kind, batch_index, count)
    for items in _per_owner(trial, rows, np.arange(count)):
        try:
            # sorted rows are the order of sorted_clauses() / sorted_edges()
            if config.kind == "sat":
                verdict = _decide_sat(config.n, sorted(items))
                oracle_max = _oracle_max_sat(items, config.n)
                ok = (verdict.status == "SAT") == (oracle_max == len(items)) and \
                    verdict.max_satisfied == oracle_max
                witness, labels, minimal = verdict.muf, verdict.muf_variables, is_muf
            else:
                verdict = _decide_colorable(config.n, sorted(items), config.k)
                ok = verdict.colorable == _oracle_colorable(items, config.n, config.k)
                witness, labels = verdict.obstruction, verdict.obstruction_vertices
                minimal = partial(is_min_non_k_colorable, k=config.k)
            if witness is not None and not (
                    minimal(witness) and _witness_in_input(witness.rows(), labels, items)):
                tally["witness_bad"] += 1
                ok = False
        except BudgetExceededError:
            tally["budget"] += 1
            continue
        tally["agree" if ok else "mismatch"] += 1
    return tally


def run_solver_validation(config: ExperimentConfig) -> ExperimentReport:
    """Exact agreement of the solver with full-enumeration oracles.

    The oracle enumerates all 2^n assignments (n <= 18) or k^n colorings
    (max(k, 2)^n <= 3^13) without any reduction, so it shares nothing with
    the solver's reduce-then-exhaust path.  It tabulates the two halves of
    the variables separately and takes every assignment's count of
    violated clauses or monochromatic edges from one matrix product of
    the half tables; the counts are exact integers.
    """
    config.validate(VALIDATE_KINDS)
    if config.kind == "sat" and config.n > _SAT_ORACLE_MAX_N:
        raise ValueError(f"oracle capped at n <= {_SAT_ORACLE_MAX_N}")
    cap = _COLOR_ORACLE_MAX_COLORINGS  # n is clipped where 2^n alone passes it: a small power
    if config.kind == "coloring" and max(config.k, 2) ** min(config.n, cap.bit_length()) > cap:
        raise ValueError(f"coloring oracle capped at max(k, 2)^n <= {cap:,}")
    t0 = time.perf_counter()
    tally = _run_batches(config, _validate_batch)
    compared = tally["agree"] + tally["mismatch"]
    return _report(config, tally, t0, tally["mismatch"], wilson_low=0.0, wilson_high=0.0,
                   agreement_rate=(tally["agree"] / compared) if compared else None,
                   mismatches=tally["mismatch"], witness_failures=tally["witness_bad"])
