import csv
import ctypes
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from sparsecore import (
    BudgetExceededError,
    Clause,
    ExperimentConfig,
    Formula,
    Hypergraph,
    canonical_key,
    decide_colorable,
    decide_sat,
    enumerate_full,
    enumerate_k_dense,
    filter_minimal_full,
    induced_formula,
    induced_hypergraph,
    run_core_census,
    run_failure_probability,
    run_solver_validation,
    wilson_interval,
)
from sparsecore import experiments
from sparsecore.predictor import EVENTS, failure_expansion
from sparsecore.reduction import _peel_keys
from sparsecore.sampling import decode_rows
from sparsecore.structures import sign_factor

from oracle_utils import (
    brute_colorable,
    brute_max_sat,
    count_copies,
    random_formula,
    random_hypergraph,
)


def test_wilson_interval_behaviour():
    low, high = wilson_interval(0, 100)
    assert low == 0.0 and 0.0 < high < 0.05
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    mid = wilson_interval(5, 1000)
    assert mid[0] < 5 / 1000 < mid[1]
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_alpha_zero_never_fails():
    report = run_failure_probability(
        ExperimentConfig(kind="pl-fail", n=20, r=3, alpha=0.0, trials=500, seed=1))
    assert report.failures == 0 and report.rate == 0.0


def test_rate_runs_without_a_catalog_past_the_table_cap():
    # the r=8 catalog's signed group table (165M entries) is past its cap
    report = run_failure_probability(
        ExperimentConfig(kind="pl-fail", n=20, r=8, alpha=0.0, trials=500, seed=1))
    assert report.failures == 0 and report.predicted is None


def _reports_at_one_and_two_workers(run, **base) -> list[dict]:
    """The JSON reports of ``run`` at workers=1 and workers=2, with the
    timing and the echoed worker count dropped."""
    reports = []
    for workers in (1, 2):
        data = run(ExperimentConfig(**base, workers=workers)).to_json_dict()
        data.pop("elapsed_seconds")
        data["config"].pop("workers")
        reports.append(data)
    return reports


def test_reports_identical_across_worker_counts():
    one, two = _reports_at_one_and_two_workers(
        run_failure_probability, kind="pl-fail", n=20, r=3, alpha=1.0, trials=3000, seed=11,
        batch_size=400)
    assert one == two and one["failures"] > 0


def test_census_identical_across_worker_counts(full_catalog_r3):
    one, two = _reports_at_one_and_two_workers(
        run_core_census, kind="pl-fail", n=18, r=3, alpha=1.0, trials=2500, seed=23,
        batch_size=300, catalog=full_catalog_r3)
    assert one == two
    assert one["failures"] > 0 and one["sanity_checks"] >= 1 and one["census"]


def test_validation_identical_across_worker_counts():
    one, two = _reports_at_one_and_two_workers(
        run_solver_validation, kind="sat", n=15, r=3, alpha=3.0, trials=300, seed=8,
        batch_size=100)
    assert one == two and one["agreement_rate"] == 1.0


def test_failure_rate_monotone_in_alpha():
    counts = []
    for alpha in (0.5, 0.8, 1.1):
        report = run_failure_probability(
            ExperimentConfig(kind="pl-fail", n=25, r=3, alpha=alpha, trials=3000, seed=99))
        counts.append(report.failures)
    assert counts[0] <= counts[1] <= counts[2]


def test_census_counts_add_up(full_catalog_r3):
    config = ExperimentConfig(kind="pl-fail", n=25, r=3, alpha=1.1, trials=4000, seed=5,
                              catalog=full_catalog_r3)
    report = run_core_census(config)
    assert report.failures > 0
    total = sum(report.census.values()) + report.other_count + \
        report.large_core_count + report.census_excluded
    assert total == report.failures
    assert report.sanity_checks >= 1
    assert set(report.census) <= {e.iso_key.decode() for e in full_catalog_r3.entries}
    assert report.predicted_census is not None
    assert sum(report.predicted_census.values()) == pytest.approx(1.0)
    assert report.tv_distance is not None and 0 <= report.tv_distance <= 1


def test_census_exclusion_filter(full_catalog_r3):
    base = dict(kind="pl-fail", n=25, r=3, alpha=1.1, trials=4000, seed=5,
                catalog=full_catalog_r3)
    plain = run_core_census(ExperimentConfig(**base))
    filtered = run_core_census(ExperimentConfig(**base, exclude_below_excess=2))
    assert filtered.census_excluded > 0
    # excluded trials all contained the excess-1 class, so its census count drops
    key1 = [e for e in full_catalog_r3.entries if e.excess == 1][0].iso_key.decode()
    assert filtered.census.get(key1, 0) == 0
    assert plain.failures == filtered.failures


def test_census_exclusion_needs_a_complete_catalog_below_it(full_catalog_r3):
    # excluding below excess s needs every obstruction of excess < s: the
    # auto catalog stops at excess 1 and a truncated one certifies none
    base = dict(kind="pl-fail", n=30, r=3, alpha=0.8, trials=10, seed=3)
    for catalog, s in ((None, 3), (enumerate_full(3, 2, order_cap=4), 2)):
        with pytest.raises(ValueError, match=f"complete catalog through excess {s - 1}"):
            run_core_census(ExperimentConfig(**base, catalog=catalog, exclude_below_excess=s))
    for catalog, s in ((None, 2), (full_catalog_r3, 3)):
        report = run_core_census(ExperimentConfig(**base, catalog=catalog,
                                                  exclude_below_excess=s))
        assert report.trials == 10


def test_runs_refuse_a_catalog_built_for_other_parameters(full_catalog_r3, dense_catalog_k3):
    # a catalog of another model, r or k would predict, and classify, the wrong structures
    cases = [
        (run_failure_probability, dict(kind="pl-fail", r=4, alpha=2.0), full_catalog_r3),
        (run_core_census, dict(kind="kcore", r=2, k=4, alpha=2.0), dense_catalog_k3),
        (run_core_census, dict(kind="pl-fail", r=3, alpha=0.8), dense_catalog_k3),
        (run_failure_probability, dict(kind="noncolorable", r=2, k=3, alpha=2.0),
         full_catalog_r3),
    ]
    for run, params, catalog in cases:
        with pytest.raises(ValueError, match="does not fit"):
            run(ExperimentConfig(n=30, trials=10, seed=1, catalog=catalog, **params))
    for kind in ("pl-fail", "unsat"):  # both events read the r=3 full-formula catalog
        config = ExperimentConfig(kind=kind, n=30, r=3, alpha=0.8, trials=10, seed=1,
                                  catalog=full_catalog_r3)
        assert run_failure_probability(config).trials == 10


def test_runs_refuse_options_they_ignore(full_catalog_r3):
    rate = dict(kind="pl-fail", n=20, r=3, alpha=0.5, trials=10, seed=1)
    with pytest.raises(ValueError, match="exclude_below_excess does not apply"):
        run_failure_probability(ExperimentConfig(**rate, exclude_below_excess=2))
    validate = dict(kind="sat", n=10, r=3, alpha=1.0, trials=20, seed=1)
    with pytest.raises(ValueError, match="catalog does not apply"):
        run_solver_validation(ExperimentConfig(**validate, catalog=full_catalog_r3))
    with pytest.raises(ValueError, match="exclude_below_excess does not apply"):
        run_solver_validation(ExperimentConfig(**validate, exclude_below_excess=2))


@pytest.mark.parametrize("run, kind", [
    (run_failure_probability, "pl-fail"), (run_failure_probability, "unsat"),
    (run_core_census, "pl-fail"), (run_solver_validation, "sat")])
def test_k_applies_only_to_hypergraph_kinds(run, kind):
    # k is a degree or a color count, and a formula model has neither
    config = ExperimentConfig(kind=kind, n=10, r=3, alpha=0.5, trials=10, seed=1, k=3)
    with pytest.raises(ValueError, match=f"k does not apply to kind '{kind}'"):
        run(config)


# Digests of fixed-seed reports, their JSON with elapsed_seconds dropped and
# the key order kept.  A refactor keeps every one; only a deliberate change
# of a random stream or of a report's fields may move one.  Census cases
# read the conftest catalogs: enumerate_full(3, 2) and enumerate_k_dense(2, 3, 2);
# the noncolorable and r = 3 k-core censuses build their own.  The budget pins
# lower a solver budget (monkeypatch targets) so that budget hits reach the report.
REPORT_PINS = [
    (run_core_census, dict(kind="pl-fail", n=30, r=3, alpha=0.8, trials=2048, seed=3,
                           exclude_below_excess=2), {}, "9e08ebc48ba2a54d"),
    (run_core_census, dict(kind="kcore", n=30, r=2, k=3, alpha=2.0, trials=4096, seed=16),
     {}, "e8f25c62b9a81788"),
    (run_failure_probability, dict(kind="pl-fail", n=120, r=3, alpha=0.8, trials=2048, seed=5),
     {}, "b7039dcb299b2a26"),
    (run_failure_probability, dict(kind="unsat", n=12, r=3, alpha=3.0, trials=400, seed=5),
     {}, "f12fb29bc0694bf4"),
    (run_failure_probability, dict(kind="noncolorable", n=12, r=2, k=3, alpha=3.0, trials=400,
                                   seed=5), {}, "419dd3214d30971e"),
    (run_solver_validation, dict(kind="sat", n=15, r=3, alpha=3.0, trials=100, seed=8),
     {}, "beeaba1402f1a3fc"),
    (run_solver_validation, dict(kind="coloring", n=12, r=2, k=3, alpha=3.0, trials=60, seed=8),
     {}, "39923cfbae9dc608"),
    (run_core_census, dict(kind="noncolorable", n=12, r=2, k=3, alpha=3.0, trials=400, seed=5),
     {}, "bc5292e2cbd9ee4c"),
    (run_core_census, dict(kind="noncolorable", n=12, r=2, k=3, alpha=3.0, trials=400, seed=5),
     {"sparsecore.solver.COLORING_BUDGET": 3 ** 8}, "cce8d61e3ebd020b"),
    (run_solver_validation, dict(kind="sat", n=15, r=3, alpha=3.0, trials=100, seed=8),
     {"sparsecore.solver.SAT_CORE_BUDGET": 13}, "8c357e72f13c6e47"),
    (run_failure_probability, dict(kind="kcore", n=30, r=3, k=2, alpha=2.0, trials=20000, seed=5),
     {}, "2797c29805443e5e"),
    (run_core_census, dict(kind="kcore", n=30, r=3, k=2, alpha=2.0, trials=20000, seed=16),
     {}, "78b03cba859b01bb"),
]


@pytest.mark.parametrize("run, params, budgets, digest", REPORT_PINS, ids=[
    "census-pl-fail-excluded", "census-kcore", "rate-sparse-sampler", "rate-unsat",
    "rate-noncolorable", "validate-sat", "validate-coloring", "census-noncolorable",
    "census-noncolorable-budget", "validate-sat-budget", "rate-kcore-r3", "census-kcore-r3"])
def test_fixed_seed_reports_are_pinned(run, params, budgets, digest, full_catalog_r3,
                                       dense_catalog_k3, monkeypatch):
    for target, value in budgets.items():
        monkeypatch.setattr(target, value)
    catalog = None
    if run is run_core_census:  # other runs use the automatic catalog
        catalog = {("pl-fail", 3): full_catalog_r3,
                   ("kcore", 2): dense_catalog_k3}.get((params["kind"], params["r"]))
    assert _pin_digest(run(ExperimentConfig(**params, catalog=catalog))) == digest


def _pin_digest(report) -> str:
    data = report.to_json_dict()
    data.pop("elapsed_seconds")
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()[:16]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="libc has no mallopt")
def test_repeated_batches_fault_no_fresh_pages():
    """The harness keeps freed heap pages, so an identical run reuses the
    pages of the one before: each repeat faulted about 10,600 pages when
    glibc trimmed them between batches."""
    resource = pytest.importorskip("resource")
    config = ExperimentConfig(kind="pl-fail", n=120, r=3, alpha=0.8, trials=2 * 4096, seed=7)
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        run_failure_probability(config)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


@pytest.mark.parametrize("libc", ["unloadable", "without-mallopt"])
def test_allocator_setting_never_raises(libc, dense_catalog_k3, monkeypatch):
    calls = []

    def fake_cdll(name, *args, **kwargs):
        calls.append(name)
        if libc == "unloadable":
            raise OSError("no libc")
        return object()

    monkeypatch.setattr(ctypes, "CDLL", fake_cdll)
    experiments._keep_freed_pages.cache_clear()
    try:
        run, params, _, digest = REPORT_PINS[1]  # census-kcore
        report = run(ExperimentConfig(**params, catalog=dense_catalog_k3))
    finally:
        experiments._keep_freed_pages.cache_clear()
    assert calls and _pin_digest(report) == digest


@pytest.mark.parametrize("kind, r, k", [("pl-fail", 3, None), ("pl-fail", 4, None),
                                         ("kcore", 2, 3), ("kcore", 2, 4),
                                         ("noncolorable", 2, 3), ("kcore", 3, 2)])
def test_predicted_is_the_per_class_sum_to_the_last_bit(kind, r, k):
    """``predicted`` reads the leading term of ``failure_expansion``; as a
    float it equals, bit for bit, the sum over the least-excess classes
    written out here, the weights of the classes of one size summed exactly
    (r = 3, k = 2 has two classes of size 4; the other points have one
    leading class).  Dividing the alpha sum by n^s0 instead, as
    ``ExpansionPolynomial.evaluate`` does, moves the last bit at some of
    these points for every model."""
    base = ExperimentConfig(kind=kind, n=5, r=r, k=k, alpha=1.0, trials=0, seed=0)
    catalog = experiments._auto_catalog(base)
    flagged = catalog.with_flag(EVENTS[kind].flag)
    s0 = min(f.excess for f in flagged)
    weights = Counter()  # size -> exact sum of its leading classes' weights
    for e in flagged:
        if e.excess == s0:
            weights[e.size] += Fraction(sign_factor(e.kind, e.order), e.aut_count)
    for n in range(5, 398, 28):
        for alpha in (i / 20 for i in range(1, 80, 6)):
            reference = sum(float(w) * alpha ** size * n ** (-s0)
                            for size, w in sorted(weights.items()))
            got, _, refused = experiments._prediction(replace(base, n=n, alpha=alpha), catalog)
            assert got == reference and refused is None, (n, alpha)


def _closed_form_catalog(kind, r, k):
    """The catalog through the leading excess, written out per model: r - 2
    for full formulas (the complementary pair), (k - 2)(k + 1)/2 for the
    k-dense graphs (K_{k+1})."""
    if EVENTS[kind].model == "sat":
        return enumerate_full(r, r - 2)
    return enumerate_k_dense(2, k, (k - 2) * (k + 1) // 2)


@pytest.mark.parametrize("kind, r, k, closed_form", [
    *[("pl-fail", r, None, True) for r in (3, 4, 5, 6)], ("unsat", 3, None, True),
    *[(kind, 2, k, True) for kind in ("kcore", "noncolorable") for k in (3, 4, 5)],
    ("kcore", 3, 2, False), ("kcore", 3, 3, False), ("kcore", 4, 2, False)])
def test_auto_catalog_stops_at_the_least_excess(kind, r, k, closed_form):
    """The walk over excess 1, 2, ... stops at the first catalog with a
    class; each class there is a minimal obstruction of the core event."""
    catalog = experiments._auto_catalog(
        ExperimentConfig(kind=kind, n=30, r=r, k=k, alpha=1.0, trials=0, seed=0))
    if closed_form:
        assert catalog == _closed_form_catalog(kind, r, k)
    core_flag = EVENTS["pl-fail" if EVENTS[kind].model == "sat" else "kcore"].flag
    assert catalog.complete and catalog.entries
    assert catalog.with_flag(core_flag) == catalog.entries
    assert {e.excess for e in catalog.entries} == {catalog.max_excess}


@pytest.mark.parametrize("kind, r, k", [("pl-fail", 2, None), ("unsat", 2, None),
                                         ("kcore", 2, 2), ("noncolorable", 2, 2),
                                         ("kcore", 3, 1), ("noncolorable", 2, 1)])
def test_auto_catalog_is_none_where_the_engine_has_no_catalog(kind, r, k):
    config = ExperimentConfig(kind=kind, n=30, r=r, k=k, alpha=1.0, trials=0, seed=0)
    assert experiments._auto_catalog(config) is None


def test_auto_catalog_walk_reaches_the_first_cell_that_can_hold_a_core():
    # no graph on 10 vertices is 10-dense: the walk used to refuse at (order 10)
    config = ExperimentConfig(kind="kcore", n=30, r=2, k=10, alpha=1.0, trials=0, seed=0)
    with pytest.raises(BudgetExceededError, match=re.escape(
            "hypergraph cell (order 11, size 55): group table")):
        experiments._auto_catalog(config)


@pytest.mark.parametrize("kind, r, k, reason", [
    ("noncolorable", 3, 2, "catalog through excess 2 holds no min_non_k_colorable class"),
    ("unsat", 3, None, "catalog through excess 1 holds no muf class"),
    ("kcore", 2, 2, "no catalog for these parameters")], ids=["noncolorable", "unsat", "none"])
def test_a_rate_that_predicts_nothing_says_why(kind, r, k, reason):
    report = run_failure_probability(
        ExperimentConfig(kind=kind, n=20, r=r, k=k, alpha=2.0, trials=200, seed=1))
    assert report.predicted is None and report.catalog_refused == reason


def test_census_builds_the_class_index_once(full_catalog_r3):
    experiments._class_rows.cache_clear()
    report = run_core_census(ExperimentConfig(kind="pl-fail", n=30, r=3, alpha=0.8,
                                              trials=3 * 512, seed=4, batch_size=512,
                                              catalog=full_catalog_r3))
    info = experiments._class_rows.cache_info()
    assert report.census and (info.misses, info.hits) == (1, 3)
    assert info.maxsize is not None and info.maxsize <= 8


def test_r_uniform_k_core_rate_predicts_the_leading_term():
    # ROADMAP item 6, gap 1: p_2 = 1/6 a^3 + 5/48 a^4 for 3-uniform 2-cores
    expansion = failure_expansion(enumerate_k_dense(3, 2, 2), "kcore", 2)
    for n, alpha in ((60, 0.7), (30, 2.0)):
        report = run_failure_probability(
            ExperimentConfig(kind="kcore", n=n, r=3, k=2, alpha=alpha, trials=2000, seed=2))
        expected = float(expansion.evaluate(n, Fraction(alpha)))
        assert report.predicted == pytest.approx(expected, rel=1e-12)
        assert report.catalog_refused is None


def test_incomplete_catalog_predicts_nothing_and_says_why():
    # capped at order 4, the catalog still flags K4 as minimal
    # non-3-colorable, but it certifies no term of the expansion
    catalog = enumerate_k_dense(2, 3, 3, order_cap=4)
    assert not catalog.complete and catalog.with_flag("min_non_k_colorable")
    config = ExperimentConfig(kind="noncolorable", n=12, r=2, k=3, alpha=2.5, trials=300,
                              seed=2, catalog=catalog)
    for run in (run_failure_probability, run_core_census):
        report = run(config).to_json_dict()
        assert not {"predicted", "ratio", "predicted_census"} & set(report)
        assert report["catalog_refused"].startswith("catalog certifies excess <= nothing")


def test_kcore_census_matches_expectations(dense_catalog_k3):
    config = ExperimentConfig(kind="kcore", n=25, r=2, k=3, alpha=2.2, trials=6000,
                              seed=17, catalog=dense_catalog_k3)
    report = run_core_census(config)
    assert report.failures > 0
    k4_key = dense_catalog_k3.entries[0].iso_key.decode()
    assert report.census.get(k4_key, 0) > 0
    assert report.sanity_checks >= 1
    assert report.predicted is not None and report.ratio is not None


def test_unsat_kind_runs_solver_on_core():
    report = run_failure_probability(
        ExperimentConfig(kind="unsat", n=12, r=3, alpha=1.2, trials=2000, seed=13))
    # unsatisfiable instances are rarer than pure-literal failures
    plain = run_failure_probability(
        ExperimentConfig(kind="pl-fail", n=12, r=3, alpha=1.2, trials=2000, seed=13))
    assert report.failures <= plain.failures


@pytest.mark.parametrize("kind,base", [("unsat", dict(n=12, r=3, alpha=3.0)),
                                       ("noncolorable", dict(n=12, r=2, k=3, alpha=2.5))])
def test_exhausted_rate_counts_the_event_test(kind, base):
    """Batch for batch, the rate counts the trials whose peeled core fails
    the event's own test, the one the expansion's weights come from; on
    the whole trial the test gives the same count."""
    config = ExperimentConfig(kind=kind, trials=600, seed=13, batch_size=200, **base)
    event = EVENTS[kind]
    total = 0
    for b, count in experiments._split_batches(config.trials, config.batch_size):
        params, keys = experiments._batch_keys(config, event.model, b, count)
        alive = _peel_keys(keys, params, config.k or 1)
        trial, items = decode_rows(keys, params)
        cores = experiments._per_owner(trial[alive], items[alive], np.arange(count))
        expected = sum(event.fails(core, config.n, config.k) for core in cores)
        assert expected == sum(event.fails(whole, config.n, config.k)
                               for whole in experiments._per_owner(trial, items, np.arange(count)))
        got = experiments._rate_batch(config, b, count, census=False)
        assert (got["failures"], got["budget"]) == (expected, 0)
        total += expected
    assert total > 0


def test_validation_maps_the_witness_back_to_the_input():
    # all eight sign patterns on variables 2, 5, 7: the witness is that
    # block, found densely on 1..3 and mapped back through its labels
    block = [tuple(v if (bits >> j) & 1 else -v for j, v in enumerate((2, 5, 7)))
             for bits in range(8)]
    items = block + [(1, 3, 8), (-4, 6, 8)]
    verdict = decide_sat(Formula(8, items))
    assert verdict.status == "UNSAT" and verdict.muf_variables == (2, 5, 7)
    muf = verdict.muf.rows(), verdict.muf_variables
    assert experiments._witness_in_input(*muf, items)
    assert not experiments._witness_in_input(*muf, block[1:])
    # and K4 on vertices 2, 4, 5, 7 for 3-coloring
    k4 = list(itertools.combinations((2, 4, 5, 7), 2))
    edges = k4 + [(1, 3), (3, 8)]
    verdict = decide_colorable(Hypergraph(8, edges), 3)
    assert verdict.obstruction_vertices == (2, 4, 5, 7)
    obstruction = verdict.obstruction.rows(), verdict.obstruction_vertices
    assert experiments._witness_in_input(*obstruction, edges)
    assert not experiments._witness_in_input(*obstruction, k4[1:])


def test_noncolorable_kind_runs_solver_on_core():
    base = dict(n=12, r=2, k=3, alpha=2.5, trials=2000, seed=13)
    report = run_failure_probability(ExperimentConfig(kind="noncolorable", **base))
    plain = run_failure_probability(ExperimentConfig(kind="kcore", **base))
    # some 3-cores are 3-colorable, so failures drop but do not vanish
    assert 0 < report.failures < plain.failures
    assert report.budget_exceeded == 0


def test_solver_validation_agrees(tmp_path):
    report = run_solver_validation(
        ExperimentConfig(kind="sat", n=9, r=3, alpha=1.0, trials=400, seed=3))
    assert report.agreement_rate == 1.0
    assert report.witness_failures == 0
    report = run_solver_validation(
        ExperimentConfig(kind="coloring", n=8, r=2, k=3, alpha=2.5, trials=300, seed=3))
    assert report.agreement_rate == 1.0
    assert report.witness_failures == 0


def test_validation_checks_the_coloring_witness_against_its_input(monkeypatch):
    """A minimal non-colorable obstruction lifted onto the wrong vertices
    is a witness failure, like a MUF that is not in its input."""
    decide = experiments._decide_colorable

    def shifted(*args):
        verdict = decide(*args)
        if verdict.colorable:
            return verdict
        return replace(verdict, obstruction_vertices=tuple(
            v + 1 for v in verdict.obstruction_vertices))

    monkeypatch.setattr(experiments, "_decide_colorable", shifted)
    report = run_solver_validation(
        ExperimentConfig(kind="coloring", n=8, r=2, k=3, alpha=2.5, trials=300, seed=3))
    assert report.witness_failures > 0


def _shifted(formula: Formula, order: int, by: int) -> Formula:
    """The formula with every variable moved up by ``by``, on ``order`` variables."""
    return Formula(order, [tuple(l + by if l > 0 else l - by for l in cl.literals)
                           for cl in formula.clauses])


def test_exhaustive_oracles_match_brute_force():
    rng = random.Random(31)
    formulas = [(Formula(0), 0), (Formula(1), 1), (Formula(1, [(1,)]), 1),
                (Formula(1, [(1,), (-1,)]), 1), (Formula(5), 5)]
    for n in range(1, 11):
        r = min(3, n)
        for _ in range(6):
            cap = math.comb(n, r) * 2 ** r
            formulas.append((random_formula(rng, n, r, rng.randint(0, min(cap, 4 * n))), n))
        h = n // 2
        for lo, width in ((0, h), (h, n - h)):  # every literal in the low, then the high half
            if width >= 2:
                inner = random_formula(rng, width, 2, rng.randint(1, 2 * width))
                formulas.append((_shifted(inner, n, lo), n))
    unsatisfiable = 0
    for formula, n in formulas:
        items = [cl.literals for cl in formula.clauses]
        best = experiments._oracle_max_sat(items, n)
        assert best == brute_max_sat(formula), formula
        unsatisfiable += best < formula.size
    assert 0 < unsatisfiable < len(formulas)

    graphs = [(Hypergraph(0), k) for k in (1, 2)] + [(Hypergraph(1), 3)] + \
        [(Hypergraph(2, [(1, 2)]), k) for k in (1, 2)]
    for k, max_n in ((1, 10), (2, 10), (3, 7), (4, 6)):
        for n in range(2, max_n + 1):
            for r in (2, 3):
                if r > n:
                    continue
                for _ in range(4):
                    m = rng.randint(0, min(math.comb(n, r), 3 * n))
                    graphs.append((random_hypergraph(rng, n, r, m), k))
    colorable = 0
    for graph, k in graphs:
        got = experiments._oracle_colorable(list(graph.edges), graph.order, k)
        assert got == brute_colorable(graph, k), (graph, k)
        colorable += got
    assert 0 < colorable < len(graphs)


def test_exhaustive_oracles_stay_below_the_full_tables():
    """One call at each size cap peaks below the (assignments x variables)
    byte table that a column scan over every assignment would hold."""
    rng = random.Random(4)
    formula = random_formula(rng, 18, 3, 4 * 18)
    k4 = [(a, b) for a in range(1, 5) for b in range(a + 1, 5)]
    graph = Hypergraph(13, set(random_hypergraph(rng, 13, 2, 3 * 13).edges) | set(k4))
    calls = [
        (lambda: experiments._oracle_max_sat([cl.literals for cl in formula.clauses], 18),
         2 ** 18 * 18),
        (lambda: experiments._oracle_colorable(list(graph.edges), 13, 3), 3 ** 13 * 13),
    ]
    results = []
    for call, table_bytes in calls:
        tracemalloc.start()
        try:
            results.append(call())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2, (peak, table_bytes)
    assert results[1] is False  # K4 is not 3-colorable, so every block was formed


def test_random_generators_refuse_impossible_counts():
    rng = random.Random(0)
    assert random_formula(rng, 2, 2, 4).size == 4
    assert random_hypergraph(rng, 4, 3, 4).size == 4
    with pytest.raises(ValueError):
        random_formula(rng, 2, 2, 5)
    with pytest.raises(ValueError):
        random_hypergraph(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        random_hypergraph(rng, 4, 3, 5)


def test_zero_trials_is_an_empty_report():
    report = run_solver_validation(
        ExperimentConfig(kind="sat", n=9, r=3, alpha=1.0, trials=0, seed=3))
    assert report.trials == 0 and report.agreement_rate is None


@pytest.mark.parametrize("k, n, refused", [(3, 13, False), (3, 14, True), (4, 10, False),
                                          (4, 11, True), (8, 6, False), (8, 7, True),
                                          (8, 13, True), (2, 20, False), (2, 21, True),
                                          (1, 20, False), (1, 21, True)])
def test_coloring_oracle_cap_reads_k(k, n, refused, monkeypatch):
    """The coloring oracle refuses max(k, 2)^n > 3^13 colorings before any
    batch: at n = 12 its peak RSS rose by 1, 13 and 130 MB at k = 3, 5
    and 7, so a cap on n alone let k = 8, n = 13 ask for about 1.2 GB."""
    batches = []
    monkeypatch.setattr(experiments, "_validate_batch", lambda *args: batches.append(args))
    config = ExperimentConfig(kind="coloring", n=n, r=2, k=k, alpha=3.0, trials=0, seed=1)
    if refused:
        with pytest.raises(ValueError, match=r"coloring oracle capped at max\(k, 2\)\^n"):
            run_solver_validation(config)
    else:
        assert run_solver_validation(config).trials == 0
    assert not batches


def test_validation_size_caps():
    with pytest.raises(ValueError):
        run_solver_validation(
            ExperimentConfig(kind="sat", n=19, r=3, alpha=1.0, trials=10, seed=1))
    with pytest.raises(ValueError):
        run_solver_validation(
            ExperimentConfig(kind="coloring", n=14, r=2, k=3, alpha=1.0, trials=10, seed=1))


def test_report_serialization(full_catalog_r3, tmp_path):
    config = ExperimentConfig(kind="pl-fail", n=20, r=3, alpha=1.0, trials=500, seed=2,
                              catalog=full_catalog_r3)
    report = run_core_census(config)
    data = report.to_json_dict()
    assert data["format_version"] == 1
    assert "config" in data and data["config"]["n"] == 20
    assert data["sanity_checks"] == report.sanity_checks
    text = report.to_csv()
    assert text.startswith("config,statistic,value\n")
    assert "rate," in text
    assert f"sanity_checks,{report.sanity_checks}" in text
    # census keys hold commas: every row still parses into three fields
    rows = list(csv.reader(io.StringIO(text)))
    assert report.census and all(len(row) == 3 for row in rows)
    parsed = {stat: value for _, stat, value in rows[1:]}
    for key, n in report.census.items():
        assert parsed[f"census:{key}"] == str(n)
    for key, weight in report.predicted_census.items():
        assert float(parsed[f"predicted_census:{key}"]) == weight
    # the budgets are the solver's constants, echoed where the config fields were
    assert list(data["config"]) == [
        "kind", "n", "r", "alpha", "trials", "seed", "k", "workers", "batch_size",
        "sat_core_budget", "coloring_budget", "exclude_below_excess", "catalog"]
    assert (data["config"]["sat_core_budget"], data["config"]["coloring_budget"]) == \
        (28, 300_000_000)
    with pytest.raises(TypeError):
        ExperimentConfig(kind="pl-fail", n=20, r=3, alpha=1.0, trials=1, seed=1,
                         sat_core_budget=5)


def _reference_tally(config: ExperimentConfig, batch_index: int, count: int) -> Counter:
    """Census tally of one batch with every failing core built densely and
    keyed, checking on the way, core by core, the order read from the batch
    arrays and ``_classify_core``'s bucket, a lookup among the catalog's
    anchored images."""
    model_kind, flag = EVENTS[config.kind][:2]
    catalog = config.catalog
    known, max_order = {e.iso_key for e in catalog.entries}, catalog.max_order()
    classes, signed = experiments._class_rows(catalog), model_kind == "sat"
    low = [e.structure for e in catalog.with_flag(flag)
           if config.exclude_below_excess is not None and e.excess < config.exclude_below_excess]
    params, keys = experiments._batch_keys(config, model_kind, batch_index, count)
    keys = keys[_peel_keys(keys, params, config.k or 1)]
    trial, items = decode_rows(keys, params)
    orders = experiments._core_orders(keys, params, count)
    tally = Counter()
    for owner, core_items in enumerate(experiments._per_owner(trial, items, np.arange(count))):
        if not core_items:
            assert orders[owner] == 0
            continue
        tally["failures"] += 1
        tally["sanity"] += tally["failures"] % 100 == 1
        dense, _ = induced_formula(Clause(c) for c in core_items) if model_kind == "sat" \
            else induced_hypergraph(core_items)
        assert orders[owner] == dense.order, core_items
        if low and any(count_copies(b, dense) > 0 for b in low):
            tally["excluded"] += 1
            continue
        if dense.order > max_order:
            bucket = "large"
        else:
            key = canonical_key(dense)
            bucket = key if key in known else None
        assert experiments._classify_core(core_items, dense.order, max_order, classes,
                                          signed) == (bucket or "other"), core_items
        tally["large" if bucket == "large" else "keyed" if bucket else "other"] += 1
        if bucket not in ("large", None):
            tally[bucket] += 1
    return tally


@pytest.mark.parametrize("case", ["pl-fail", "pl-fail-minimal", "kcore", "excluded",
                                  "excluded-s3", "kcore-excluded-s3"])
def test_classification_matches_dense_reference(case, full_catalog_r3, dense_catalog_k3):
    config = {
        "pl-fail": ExperimentConfig(kind="pl-fail", n=30, r=3, alpha=0.8, trials=0, seed=41,
                                    catalog=full_catalog_r3),
        "pl-fail-minimal": ExperimentConfig(kind="pl-fail", n=30, r=3, alpha=0.8, trials=0,
                                            seed=42, catalog=filter_minimal_full(full_catalog_r3)),
        "kcore": ExperimentConfig(kind="kcore", n=30, r=2, k=3, alpha=2.0, trials=0, seed=16,
                                  catalog=dense_catalog_k3),
        "excluded": ExperimentConfig(kind="pl-fail", n=30, r=3, alpha=1.0, trials=0, seed=12,
                                     catalog=full_catalog_r3, exclude_below_excess=2),
        "excluded-s3": ExperimentConfig(kind="pl-fail", n=30, r=3, alpha=0.8, trials=0, seed=3,
                                        catalog=full_catalog_r3, exclude_below_excess=3),
        "kcore-excluded-s3": ExperimentConfig(kind="kcore", n=30, r=2, k=3, alpha=2.0, trials=0,
                                              seed=16, catalog=dense_catalog_k3,
                                              exclude_below_excess=3),
    }[case]
    count = {"kcore": 20000, "excluded": 1500, "excluded-s3": 1024,
             "kcore-excluded-s3": 6000}.get(case, 4096)
    reference = _reference_tally(config, 0, count)
    got = experiments._rate_batch(config, 0, count, census=True)
    # at s=3 every cataloged core (excess <= 2) holds an obstruction below 3, so none is keyed
    least = {"excluded-s3": dict(failures=60, sanity=1, excluded=15, keyed=0),
             "kcore-excluded-s3": dict(failures=30, sanity=1, excluded=8, keyed=0)}.get(
        case, dict(failures=101, sanity=2, excluded=0, keyed=1))
    assert reference["failures"] == got["failures"] >= least["failures"]
    assert reference["sanity"] == got["sanity"] >= least["sanity"]
    assert reference["excluded"] == got["excluded"] >= least["excluded"]
    assert reference["large"] == got["large"] > 0
    assert reference["other"] == got["other"]
    # the tally holds each catalog class under its bytes iso key
    classes = {key: n for key, n in got.items() if isinstance(key, bytes)}
    assert reference["keyed"] == sum(classes.values()) >= least["keyed"]
    assert all(reference[key] == n for key, n in classes.items())
    if case == "excluded":
        assert got["excluded"] > 0
    if case == "pl-fail-minimal":
        assert got["other"] > 0  # a keyed core of a catalog shape, but not minimal


def test_census_report_independent_of_hash_seed():
    script = (
        "import json; from sparsecore import ExperimentConfig, enumerate_full, run_core_census\n"
        "r = run_core_census(ExperimentConfig(kind='pl-fail', n=30, r=3, alpha=0.8,"
        " trials=3000, seed=2, catalog=enumerate_full(3, 2))).to_json_dict()\n"
        "r.pop('elapsed_seconds'); print(json.dumps(r, sort_keys=True))\n"
    )
    src = str(Path(experiments.__file__).resolve().parents[1])
    outputs = []
    for hash_seed in ("1", "3"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, check=True)
        outputs.append(proc.stdout)
    assert json.loads(outputs[0])["tv_distance"] is not None
    assert outputs[0] == outputs[1]
