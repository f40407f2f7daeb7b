import math
import tracemalloc

import numpy as np
import pytest

from sparsecore import (
    Formula,
    Hypergraph,
    params_from_alpha,
    pure_literal_threshold,
    sample_formula,
    sample_hypergraph,
)
from sparsecore.experiments import _batch_rng
from sparsecore.sampling import (
    DENSE_CANDIDATE_LIMIT,
    candidate_clauses,
    candidate_edges,
    candidate_indices,
    pure_literal_objective,
    sample_batch,
    sample_indices,
    unrank_clause,
    unrank_clauses,
    unrank_combination,
    unrank_combinations,
)


def test_params_examples():
    p = params_from_alpha(10, 3, 1.0, "sat")
    assert p.p == pytest.approx(0.01)
    assert p.c == pytest.approx(0.96)
    zero = params_from_alpha(10, 3, 0.0, "sat")
    assert zero.p == 0.0 and zero.c == 0.0
    hyper = params_from_alpha(40, 2, 1.5, "hypergraph")
    assert hyper.p == pytest.approx(1.5 / 40)
    assert hyper.c * 40 == pytest.approx(math.comb(40, 2) * 1.5 / 40)


def test_params_reject_p_above_one():
    with pytest.raises(ValueError):
        params_from_alpha(4, 3, 20.0, "sat")
    with pytest.raises(ValueError):
        params_from_alpha(10, 3, 1.0, "nonsense")


def test_sample_extremes():
    zero = params_from_alpha(8, 3, 0.0, "sat")
    assert sample_formula(zero, 1).size == 0
    full = params_from_alpha(5, 3, 25.0, "sat")  # p = 1
    assert sample_formula(full, 1).size == 8 * math.comb(5, 3)
    hz = params_from_alpha(6, 2, 0.0, "hypergraph")
    assert sample_hypergraph(hz, 3).size == 0
    hf = params_from_alpha(6, 2, 6.0, "hypergraph")
    assert sample_hypergraph(hf, 3).size == math.comb(6, 2)


def test_sample_reproducible():
    params = params_from_alpha(20, 3, 1.0, "sat")
    assert sample_formula(params, 99) == sample_formula(params, 99)
    assert sample_formula(params, 99) != sample_formula(params, 100)


def test_monotone_coupling():
    n = 20
    for seed in range(30):
        low = sample_formula(params_from_alpha(n, 3, 0.5, "sat"), seed)
        high = sample_formula(params_from_alpha(n, 3, 1.2, "sat"), seed)
        assert low.clauses <= high.clauses


def test_binomial_mean_formula():
    params = params_from_alpha(20, 3, 1.0, "sat")
    total_candidates = 8 * math.comb(20, 3)
    assert total_candidates * params.p == pytest.approx(22.8)
    counts = [sample_formula(params, seed).size for seed in range(10_000)]
    se = math.sqrt(total_candidates * params.p * (1 - params.p) / 10_000)
    assert abs(np.mean(counts) - 22.8) < 3 * se


def test_binomial_mean_hypergraph():
    params = params_from_alpha(40, 2, 1.5, "hypergraph")
    mean = math.comb(40, 2) * params.p
    assert mean == pytest.approx(29.25)
    counts = [sample_hypergraph(params, seed).size for seed in range(10_000)]
    se = math.sqrt(math.comb(40, 2) * params.p * (1 - params.p) / 10_000)
    assert abs(np.mean(counts) - mean) < 3 * se


def test_sparse_sampler_mean_and_validity():
    params = params_from_alpha(80, 3, 1.0, "sat")  # 657,664 candidates: sparse path
    assert params.candidate_count > DENSE_CANDIDATE_LIMIT
    sizes = []
    for seed in range(300):
        f = sample_formula(params, seed)
        sizes.append(f.size)
        assert all(cl.width == 3 for cl in f.clauses)
    mean = params.candidate_count * params.p
    se = math.sqrt(mean / 300)
    assert abs(np.mean(sizes) - mean) < 4 * se


def _check_rows(rows, params):
    """Rows are r-sets of 1..n in ascending order, signed only for formulas."""
    variables = np.abs(rows)
    assert rows.shape[1] == params.r
    assert variables.min() >= 1 and variables.max() <= params.n
    assert np.all(np.diff(variables, axis=1) > 0)
    if params.kind == "hypergraph":
        assert np.all(rows > 0)


@pytest.mark.parametrize("n,r,kind,alpha", [(30, 3, "sat", 0.8), (80, 3, "sat", 1.0),
                                             (40, 2, "hypergraph", 1.5)])
def test_batch_sampler_distinct_sorted_binomial(n, r, kind, alpha):
    params = params_from_alpha(n, r, alpha, kind)
    trials = 2000
    trial, rows = sample_batch(params, _batch_rng(7, 0), trials)
    _check_rows(rows, params)
    index = candidate_indices(rows, params)
    assert index.min() >= 0 and index.max() < params.candidate_count
    # sorted by trial, then index, with no index twice in a trial
    assert np.all(np.diff(trial * params.candidate_count + index) > 0)
    sizes = np.bincount(trial, minlength=trials)
    mean = params.candidate_count * params.p
    se = math.sqrt(mean * (1 - params.p) / trials)
    assert abs(sizes.mean() - mean) < 4 * se


def test_batch_sampler_depends_on_seed_and_batch_only():
    params = params_from_alpha(30, 3, 0.8, "sat")
    first = sample_batch(params, _batch_rng(3, 5), 300)
    again = sample_batch(params, _batch_rng(3, 5), 300)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    other = sample_batch(params, _batch_rng(3, 6), 300)
    assert not np.array_equal(first[1], other[1])


def _chi2_quantile(df: int, z: float) -> float:
    """Wilson-Hilferty approximation to the chi-square quantile at normal score z."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


@pytest.mark.parametrize("n,r,kind,p", [(5, 3, "sat", 0.3), (7, 3, "sat", 0.05),
                                         (6, 2, "hypergraph", 0.4), (7, 3, "hypergraph", 0.3)])
def test_batch_sampler_uniform_over_candidates(n, r, kind, p):
    # every candidate is in a sample independently with probability p, so
    # its count over the trials is Binomial(trials, p); at these sizes most
    # draws repeat a variable or a candidate, so the redraw loop runs often
    params = params_from_alpha(n, r, p * n ** (r - 1), kind)
    trials = 20_000
    trial, rows = sample_batch(params, _batch_rng(11, 0), trials)
    _check_rows(rows, params)
    counts = np.bincount(candidate_indices(rows, params), minlength=params.candidate_count)
    assert len(counts) == params.candidate_count
    expected = trials * params.p
    chi2 = float((((counts - expected) ** 2) / (expected * (1 - params.p))).sum())
    df = params.candidate_count
    assert _chi2_quantile(df, -3.09) < chi2 < _chi2_quantile(df, 3.09)


@pytest.mark.parametrize("n,kind,alpha", [(80, "sat", 1.0), (120, "hypergraph", 1.5)])
def test_sample_indices_rank_the_batch_rows(n, kind, alpha):
    params = params_from_alpha(n, 3, alpha, kind)
    assert params.candidate_count > DENSE_CANDIDATE_LIMIT  # the sparse branch
    decode = unrank_clauses if kind == "sat" else unrank_combinations
    build, sample = (Formula, sample_formula) if kind == "sat" else (Hypergraph, sample_hypergraph)
    for seed in range(20):
        index = sample_indices(params, np.random.default_rng(seed))
        rows = sample_batch(params, np.random.default_rng(seed), 1)[1]
        assert len(rows) > 0 and np.all(np.diff(index) > 0)
        assert np.array_equal(decode(index, n, 3), rows)
        # the same seed's sample is those rows
        assert sample(params, seed) == build(n, rows.tolist())


class _RestrictedRng:
    """The three Generator methods a sampler may call, and nothing else."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)

    def random(self, size=None):
        return self._rng.random(size)

    def binomial(self, n, p, size=None):
        return self._rng.binomial(n, p, size)

    def integers(self, low, high=None, size=None):
        return self._rng.integers(low, high, size=size)


def test_samplers_draw_only_binomial_integers_random():
    for n, kind in ((30, "sat"), (80, "sat"), (40, "hypergraph"), (120, "hypergraph")):
        params = params_from_alpha(n, 3 if n != 40 else 2, 1.0, kind)
        assert len(sample_indices(params, _RestrictedRng(1))) > 0
        assert len(sample_batch(params, _RestrictedRng(1), 50)[1]) > 0


class _NoDraws:
    def __getattr__(self, name):
        raise AssertionError(f"drew {name} before the overflow guard")


def test_batch_sampler_overflow_guard_raises_before_allocating():
    # 3 variables of 20 bits plus 3 sign bits fill 63 bits: one trial fits, two do not
    wide = params_from_alpha(2 ** 20, 3, 1e-6, "sat")
    trial, rows = sample_batch(wide, np.random.default_rng(0), 1)
    _check_rows(rows, wide)
    assert np.all(trial == 0)
    tracemalloc.start()
    try:
        for params, count in ((wide, 2), (wide, 2 ** 40),
                              (params_from_alpha(2 ** 21, 3, 1e-6, "hypergraph"), 2)):
            with pytest.raises(ValueError, match="overflow"):
                sample_batch(params, _NoDraws(), count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_unranking_matches_dense_order():
    table = candidate_clauses(9, 3)
    for index in (0, 1, 7, 8, 100, len(table) - 1):
        assert unrank_clause(index, 9, 3) == table[index]
    assert unrank_clauses(range(len(table)), 9, 3).tolist() == [list(c) for c in table]
    combos = [unrank_combination(i, 6, 3) for i in range(math.comb(6, 3))]
    assert combos == sorted(combos) and len(set(combos)) == len(combos)
    # ranking is the inverse of unranking, for every candidate
    formulas = params_from_alpha(9, 3, 1.0, "sat")
    assert candidate_indices(np.array(table), formulas).tolist() == list(range(len(table)))
    edges = params_from_alpha(9, 3, 1.0, "hypergraph")
    assert candidate_indices(np.array(candidate_edges(9, 3)), edges).tolist() == \
        list(range(math.comb(9, 3)))


def test_threshold_values():
    r3 = pure_literal_threshold(3)
    assert r3.alpha_star == pytest.approx(1.2277, abs=2e-4)
    r4 = pure_literal_threshold(4)
    assert r4.alpha_star == pytest.approx(2.32, abs=5e-3)
    with pytest.raises(ValueError):
        pure_literal_threshold(2)


def test_threshold_is_local_minimum():
    for r in (3, 4, 5):
        res = pure_literal_threshold(r)
        assert pure_literal_objective(r, res.y_star) == pytest.approx(res.alpha_star, abs=1e-6)
        assert pure_literal_objective(r, res.y_star - 1e-3) >= res.alpha_star
        assert pure_literal_objective(r, res.y_star + 1e-3) >= res.alpha_star
