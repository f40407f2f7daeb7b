import math

import numpy as np
import pytest

from sparsecore import params_from_alpha, pure_literal_threshold, sample_formula, sample_hypergraph
from sparsecore.experiments import _batch_rng
from sparsecore.sampling import (
    DENSE_CANDIDATE_LIMIT,
    candidate_clauses,
    pure_literal_objective,
    sample_batch,
    unrank_clause,
    unrank_clauses,
    unrank_combination,
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


@pytest.mark.parametrize("n,r,kind,alpha", [(30, 3, "sat", 0.8), (80, 3, "sat", 1.0),
                                             (40, 2, "hypergraph", 1.5)])
def test_batch_sampler_distinct_sorted_binomial(n, r, kind, alpha):
    params = params_from_alpha(n, r, alpha, kind)
    trials = 2000
    trial, index = sample_batch(params, _batch_rng(7, 0), trials)
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


def test_unranking_matches_dense_order():
    table = candidate_clauses(9, 3)
    for index in (0, 1, 7, 8, 100, len(table) - 1):
        assert unrank_clause(index, 9, 3) == table[index]
    assert unrank_clauses(range(len(table)), 9, 3).tolist() == [list(c) for c in table]
    combos = [unrank_combination(i, 6, 3) for i in range(math.comb(6, 3))]
    assert combos == sorted(combos) and len(set(combos)) == len(combos)


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
