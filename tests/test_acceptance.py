"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Three checks (6a, 6b, 7b, 10c) encode first-order asymptotics at small n.
Independent measurement (see tests below and the repository notes) shows
the exact model disagrees with those tolerances at the stated n: the
failure rate at n=30 sits about 5x above the leading term because
higher-excess cores still dominate there, converging to the leading term
only around n~300.  Those checks are kept exactly as specified and fail
honestly; everything they were meant to guard is also covered by exact
checks elsewhere in the suite.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from sparsecore import (
    ExperimentConfig,
    Formula,
    canonical_key,
    classify_colorable,
    classify_sat,
    enumerate_full,
    enumerate_k_dense,
    expected_copies_exact,
    failure_expansion,
    filter_minimal_full,
    filter_minimal_k_dense,
    first_order_containment,
    is_min_non_k_colorable,
    pure_literal_threshold,
    run_core_census,
    run_solver_validation,
    wilson_interval,
)
from sparsecore import experiments
from sparsecore.sampling import pure_literal_objective
from sparsecore.structures import full_excess_bound

from oracle_utils import signed_images

pytestmark = pytest.mark.acceptance

SEED = 20260810


def check(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def catalog_r3():
    return enumerate_full(3, 2)


@pytest.fixture(scope="module")
def catalog_g3():
    return enumerate_k_dense(2, 3, 2)


@pytest.fixture(scope="module")
def pl_fail_runs(catalog_r3):
    """Criterion-6 protocol at n = 30, 60, 120 (criterion 10 reuses these)."""
    runs = {}
    for n in (30, 60, 120):
        config = ExperimentConfig(kind="pl-fail", n=n, r=3, alpha=0.8, trials=200_000,
                                  seed=SEED, catalog=catalog_r3)
        runs[n] = run_core_census(config)
    return runs


@pytest.fixture(scope="module")
def kcore_run(catalog_g3):
    config = ExperimentConfig(kind="kcore", n=40, r=2, k=3, alpha=1.5, trials=1_000_000,
                              seed=SEED, catalog=catalog_g3, batch_size=20_000)
    return run_core_census(config)


def test_criterion_01_unique_minimal_full_class():
    t0 = time.time()
    catalog = filter_minimal_full(enumerate_full(3, 1))
    elapsed = time.time() - t0
    entry = catalog.entries[0] if catalog.entries else None
    shape = (entry.order, entry.size, entry.excess, entry.aut_count) if entry else None
    ok = (
        len(catalog.entries) == 1
        and shape == (3, 2, 1, 12)
        and entry.iso_key == canonical_key(Formula(3, [(1, 2, 3), (-1, -2, -3)]))
        and elapsed < 10
    )
    check("criterion 1", ok, f"classes={len(catalog.entries)} shape={shape} "
                             f"elapsed={elapsed:.2f}s (<10s)")


def test_criterion_02_unique_minimal_dense_class(k4):
    t0 = time.time()
    catalog = filter_minimal_k_dense(enumerate_k_dense(2, 3, 2))
    minimal_ok = len(catalog.entries) == 1
    entry = catalog.entries[0] if catalog.entries else None
    shape = (entry.order, entry.size, entry.excess, entry.aut_count) if entry else None
    obstruction_ok = is_min_non_k_colorable(k4, 3)
    elapsed = time.time() - t0
    ok = (minimal_ok and shape == (4, 6, 2, 24)
          and entry.iso_key == canonical_key(k4) and obstruction_ok and elapsed < 60)
    check("criterion 2", ok, f"classes={len(catalog.entries)} shape={shape} "
                             f"min-non-3-colorable={obstruction_ok} elapsed={elapsed:.2f}s (<60s)")


def test_criterion_03_excess_inequalities(catalog_r3, f_pair):
    bound_violations = [
        e for e in catalog_r3.entries if Fraction(e.excess) < full_excess_bound(3, e.order)
    ]
    # every labeled placement of two distinct excess-1 minimal classes on
    # at most six shared variables
    images = signed_images(f_pair)
    copies = set()
    for vars3 in itertools.combinations(range(1, 7), 3):
        for image in images:
            copies.add(frozenset(
                tuple(sorted(((1 if l > 0 else -1) * vars3[abs(l) - 1] for l in clause),
                             key=abs))
                for clause in image))
    union_violations = 0
    pairs = 0
    for a, b in itertools.combinations(sorted(copies, key=sorted), 2):
        union = set(a) | set(b)
        support = {abs(l) for c in union for l in c}
        if 2 * len(union) - len(support) < 2:
            union_violations += 1
        pairs += 1
    ok = not bound_violations and union_violations == 0
    check("criterion 3", ok,
          f"entries={len(catalog_r3.entries)} bound-violations={len(bound_violations)}; "
          f"placements={len(copies)} pairs={pairs} union-violations={union_violations}")


def test_criterion_04_expectation_oracle(catalog_r3):
    worst = 0.0
    cases = 0
    for entry in catalog_r3.entries:
        images = len(signed_images(entry.structure))
        for n in (5, 6, 7, 8):
            labeled = math.comb(n, entry.order) * images
            for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
                p = alpha * Fraction(n) ** (-2)
                oracle = labeled * p ** entry.size
                got = expected_copies_exact(entry.structure, n, alpha)
                rel = abs(got - oracle) / oracle if oracle else abs(got)
                worst = max(worst, float(rel))
                cases += 1
    ok = worst <= 1e-12
    check("criterion 4", ok, f"{cases} cases, worst relative error={worst:.2e} (<=1e-12)")


def test_criterion_05_first_order_arbitration(f_pair, pl_fail_runs):
    images = len(signed_images(f_pair))
    oracle_coeff = Fraction(images, math.factorial(3))
    term = first_order_containment(f_pair)
    alternative = Fraction(1, 2 * math.factorial(3))  # the competing constant
    factor = term.coefficient / alternative
    run = pl_fail_runs[30]
    main_pred = float(term.coefficient) * 0.8 ** 2 / 30
    alt_pred = float(alternative) * 0.8 ** 2 / 30
    discriminates = abs(math.log(run.rate / main_pred)) < abs(math.log(run.rate / alt_pred))
    ok = (
        oracle_coeff == Fraction(2, 3)
        and term.coefficient == Fraction(2, 3)
        and term.alpha_power == 2
        and term.exponent == 1
        and discriminates
    )
    check("criterion 5", ok,
          f"oracle coefficient={oracle_coeff} (labeled-copy count {images} per variable "
          f"triple), competing constant={alternative}, ratio={factor}; measured rate "
          f"{run.rate:.5f} is {run.rate/main_pred:.1f}x the confirmed constant's prediction "
          f"vs {run.rate/alt_pred:.1f}x the competing one: data rejects {alternative}")


def test_criterion_06_runtime(pl_fail_runs):
    elapsed = pl_fail_runs[30].elapsed_seconds
    check("criterion 6 (runtime)", elapsed < 300, f"elapsed={elapsed:.0f}s (<300s)")


def test_criterion_06_rate_band(pl_fail_runs):
    run = pl_fail_runs[30]
    predicted_ok = run.predicted == pytest.approx(0.014222, abs=2e-5)
    ratio = run.ratio
    ok = predicted_ok and 0.80 <= ratio <= 1.25
    check("criterion 6 (rate band)", ok,
          f"rate={run.rate:.5f} predicted={run.predicted:.5f} ratio={ratio:.3f} "
          f"required [0.80, 1.25]")


def test_criterion_06_core_census(pl_fail_runs, catalog_r3, f_pair):
    run = pl_fail_runs[30]
    key = canonical_key(f_pair).decode("ascii")
    leading = run.census.get(key, 0)
    share = leading / run.failures if run.failures else 0.0
    # every core isomorphic to the leading class is satisfiable iff the
    # class itself is (satisfiability is isomorphism-invariant)
    leading_sat = classify_sat(f_pair)
    ok = share >= 0.85 and leading_sat
    check("criterion 6 (census)", ok,
          f"leading-class share={leading}/{run.failures}={share:.3f} (required >=0.85), "
          f"leading class satisfiable={leading_sat}")


def test_criterion_07_runtime(kcore_run):
    elapsed = kcore_run.elapsed_seconds
    check("criterion 7 (runtime)", elapsed < 600, f"elapsed={elapsed:.0f}s (<600s)")


def test_criterion_07_rate_band(kcore_run):
    predicted_ok = kcore_run.predicted == pytest.approx(2.966e-4, abs=2e-6)
    ratio = kcore_run.ratio
    ok = predicted_ok and 0.6 <= ratio <= 1.5
    check("criterion 7 (rate band)", ok,
          f"rate={kcore_run.rate:.3e} predicted={kcore_run.predicted:.3e} "
          f"ratio={ratio:.3f} required [0.6, 1.5]")


def test_criterion_07_census(kcore_run, catalog_g3, k4):
    key = canonical_key(k4).decode("ascii")
    leading = kcore_run.census.get(key, 0)
    share = leading / kcore_run.failures if kcore_run.failures else 0.0
    leading_noncol = not classify_colorable(k4, 3)
    ok = share >= 0.80 and leading_noncol
    check("criterion 7 (census)", ok,
          f"complete-graph share={leading}/{kcore_run.failures}={share:.3f} "
          f"(required >=0.80), leading class non-3-colorable={leading_noncol}")


def test_criterion_08_sat_validation():
    details = []
    ok = True
    for alpha in (0.6, 1.0, 1.2):
        report = run_solver_validation(ExperimentConfig(
            kind="sat", n=15, r=3, alpha=alpha, trials=10_000, seed=SEED))
        details.append(f"alpha={alpha}: agreement={report.agreement_rate} "
                       f"bad-witnesses={report.witness_failures}")
        ok = ok and report.agreement_rate == 1.0 and report.witness_failures == 0
    check("criterion 8 (sat)", ok, "; ".join(details))


def test_criterion_08_sat_validation_unsat():
    # criterion 8's densities give only satisfiable formulas; these reach
    # MaxSAT below m, so the agreement covers UNSAT verdicts and witnesses
    details = []
    ok = True
    unsat = 0
    for alpha, trials in ((3.0, 2000), (4.0, 500)):
        config = ExperimentConfig(kind="sat", n=15, r=3, alpha=alpha, trials=trials, seed=SEED)
        report = run_solver_validation(config)
        below = sum(
            experiments._oracle_max_sat(items, config.n) < len(items)
            for batch, count in experiments._split_batches(trials, config.batch_size)
            for items in experiments._per_owner(
                *experiments._batch_items(config, "sat", batch, count), np.arange(count)))
        unsat += below
        details.append(f"alpha={alpha}: trials={trials} agreement={report.agreement_rate} "
                       f"bad-witnesses={report.witness_failures} "
                       f"budget-hits={report.budget_exceeded} maxsat<m={below}")
        ok = ok and report.agreement_rate == 1.0 and report.witness_failures == 0 \
            and report.budget_exceeded == 0
    ok = ok and unsat >= 50
    check("criterion 8 (sat, unsat side)", ok,
          "; ".join(details) + f"; instances with maxsat<m={unsat} (required >=50)")


def test_criterion_08_coloring_validation():
    details = []
    ok = True
    for alpha in (1.0, 2.0, 3.0):
        report = run_solver_validation(ExperimentConfig(
            kind="coloring", n=12, r=2, k=3, alpha=alpha, trials=10_000, seed=SEED))
        details.append(f"alpha={alpha}: agreement={report.agreement_rate} "
                       f"bad-witnesses={report.witness_failures}")
        ok = ok and report.agreement_rate == 1.0 and report.witness_failures == 0
    check("criterion 8 (coloring)", ok, "; ".join(details))


def test_criterion_09_threshold():
    details = []
    ok = True
    for r in (3, 4):
        res = pure_literal_threshold(r)
        ys = np.arange(1e-4, 50.0 + 1e-4, 1e-4)
        grid = math.factorial(r - 1) * ys / (2 ** (r - 1) * (1 - np.exp(-ys)) ** (r - 1))
        i = int(np.argmin(grid))
        grid_alpha, grid_y = float(grid[i]), float(ys[i])
        local_min = (pure_literal_objective(r, res.y_star - 1e-3) >= res.alpha_star
                     and pure_literal_objective(r, res.y_star + 1e-3) >= res.alpha_star)
        agrees = abs(grid_alpha - res.alpha_star) < 1e-6 and abs(grid_y - res.y_star) < 2e-4
        ok = ok and local_min and agrees
        details.append(f"r={r}: alpha*={res.alpha_star:.8f} y*={res.y_star:.6f} "
                       f"grid=({grid_alpha:.8f},{grid_y:.4f}) local-min={local_min}")
    check("criterion 9", ok, "; ".join(details))


def test_criterion_10_exact_polynomial(catalog_r3):
    expansion = failure_expansion(catalog_r3, "pl-fail", 1)
    poly = expansion.terms[1]
    ok = poly.coeffs == {2: Fraction(2, 3)}
    check("criterion 10 (exact polynomial)", ok, f"p'_1 = {poly!r}")


def test_criterion_10_prediction_halving(catalog_r3):
    expansion = failure_expansion(catalog_r3, "pl-fail", 1)
    values = {n: float(expansion.evaluate(n, Fraction(4, 5))) for n in (30, 60, 120)}
    r1 = values[30] / values[60]
    r2 = values[60] / values[120]
    ok = abs(r1 - 2.0) <= 0.01 and abs(r2 - 2.0) <= 0.01
    check("criterion 10 (halving)", ok,
          f"predictions={values} ratios=({r1:.4f}, {r2:.4f}) required 2.0 +- 0.01")


def test_criterion_10_mc_tracks_scaling(pl_fail_runs):
    scaled = {}
    for n, run in pl_fail_runs.items():
        low, high = wilson_interval(run.failures, run.trials)
        scaled[n] = (n * low, n * high)
    overlaps = {
        (a, b): max(scaled[a][0], scaled[b][0]) <= min(scaled[a][1], scaled[b][1])
        for a, b in ((30, 60), (60, 120))
    }
    ok = all(overlaps.values())
    check("criterion 10 (mc scaling)", ok,
          f"scaled-rate intervals {scaled}; pairwise overlap {overlaps}")
