import hashlib
import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext

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
from sparsecore.sampling import (
    DENSE_CANDIDATE_LIMIT,
    _candidates,
    _rng,
    candidate_indices,
    decode_rows,
    key_codes,
    pure_literal_objective,
    sample_batch,
    sample_indices,
    sample_keys,
)

from oracle_utils import candidate_clauses, candidate_edges


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


def test_params_reject_a_nan_alpha():
    # NaN compares False both ways, so neither "alpha < 0" nor "p > 1" catches it
    for kind in ("sat", "hypergraph"):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            params_from_alpha(10, 3, float("nan"), kind)


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
    trial, rows = sample_batch(params, _rng(7, 0), trials)
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
    first = sample_batch(params, _rng(3, 5), 300)
    again = sample_batch(params, _rng(3, 5), 300)
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    other = sample_batch(params, _rng(3, 6), 300)
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
    trial, rows = sample_batch(params, _rng(11, 0), trials)
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
    table = _candidates(n, 3, kind)
    build, sample = (Formula, sample_formula) if kind == "sat" else (Hypergraph, sample_hypergraph)
    for seed in range(20):
        index = sample_indices(params, np.random.default_rng(seed))
        rows = sample_batch(params, np.random.default_rng(seed), 1)[1]
        assert len(rows) > 0 and np.all(np.diff(index) > 0)
        assert np.array_equal(table[index], rows)
        # the same seed's sample is those rows
        assert sample(params, seed) == build(n, rows.tolist())


@pytest.mark.parametrize("n,r,kind,alpha", [(30, 3, "sat", 0.8), (120, 3, "sat", 0.8),
                                             (40, 2, "hypergraph", 1.5)])
def test_key_codes_are_the_codes_of_the_decoded_rows(n, r, kind, alpha):
    params = params_from_alpha(n, r, alpha, kind)
    keys = sample_keys(params, _rng(4, 0), 300)
    trial, rows = decode_rows(keys, params)
    variables = [trial * n + np.abs(rows[:, j]) - 1 for j in range(r)]
    assert all(map(np.array_equal, key_codes(keys, params, False), variables))
    if kind == "sat":  # a literal: twice its variable's code, plus 1 when negated
        literals = [2 * v + (rows[:, j] < 0) for j, v in enumerate(variables)]
        assert all(map(np.array_equal, key_codes(keys, params, True), literals))


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
    # the candidate table against the order written out as loops
    for n, r in ((9, 3), (6, 2), (7, 4), (3, 3), (2, 3)):
        assert candidate_edges(n, r) == list(itertools.combinations(range(1, n + 1), r))
        assert candidate_clauses(n, r) == [
            tuple(-v if bits >> j & 1 else v for j, v in enumerate(combo))
            for combo in itertools.combinations(range(1, n + 1), r) for bits in range(2 ** r)]
    table = candidate_clauses(9, 3)
    combos = candidate_edges(6, 3)
    assert combos == sorted(combos) and len(set(combos)) == len(combos)
    assert not _candidates(9, 3, "sat").flags.writeable
    # ranking is the inverse of the candidate order, for every candidate
    formulas = params_from_alpha(9, 3, 1.0, "sat")
    assert candidate_indices(np.array(table), formulas).tolist() == list(range(len(table)))
    edges = params_from_alpha(9, 3, 1.0, "hypergraph")
    assert candidate_indices(np.array(candidate_edges(9, 3)), edges).tolist() == \
        list(range(math.comb(9, 3)))


# sha256 (first 16 hex digits) of repr((order, sorted items)) of seeds 0..4;
# a changed digest is a changed random stream, which only a deliberate
# change may bring.  The first four points take the dense branch.
SAMPLE_PINS = [
    ((100, 3, 1.0, "hypergraph"), "4d9aada14e71e2a9"),
    ((30, 3, 0.8, "sat"), "3bc8398d8ea97054"),
    ((12, 4, 2.0, "sat"), "4c236f2287cc7217"),
    ((40, 2, 1.5, "hypergraph"), "9cadc0b86d6e54fd"),
    ((150, 3, 1.0, "hypergraph"), "695129f94a6b2a53"),
    ((80, 3, 1.0, "sat"), "6f721ef83772da2f"),
    ((200, 3, 1.2, "hypergraph"), "1ce45773c192a9a8"),
    ((700, 2, 1.5, "hypergraph"), "cea0b911053ac3a9"),
]


@pytest.mark.parametrize("point,digest", SAMPLE_PINS)
def test_fixed_seed_samples_are_pinned(point, digest):
    n, r, alpha, kind = point
    params = params_from_alpha(n, r, alpha, kind)
    assert (params.candidate_count <= DENSE_CANDIDATE_LIMIT) == (n <= 40 or n == 100)
    h = hashlib.sha256()
    for seed in range(5):
        if kind == "sat":
            sample = sample_formula(params, seed)
            rows = [c.literals for c in sample.sorted_clauses()]
        else:
            sample = sample_hypergraph(params, seed)
            rows = list(sample.sorted_edges())
        h.update(repr((sample.order, rows)).encode())
    assert h.hexdigest()[:16] == digest


# sha256 (first 16 hex digits) of the trial and row arrays of sample_batch
# for three (seed, batch) streams: the census points pl-n30, pl-n120 and
# kc-n40 at their batch sizes, and the redraw-heavy n=5, p=0.3 point of
# test_batch_sampler_uniform_over_candidates
BATCH_PINS = [
    ((30, 3, 0.8, "sat"), 1024, 88409, "e58f93b10065c587"),
    ((120, 3, 0.8, "sat"), 512, 191616, "0f36121cc29ae46a"),
    ((40, 2, 1.5, "hypergraph"), 4096, 358812, "9b413135d278db56"),
    ((5, 3, 0.3 * 5 ** 2, "sat"), 2048, 147340, "a30fac39b9b25fb0"),
]


@pytest.mark.parametrize("point,count,rows_total,digest", BATCH_PINS,
                         ids=["pl-n30", "pl-n120", "kc-n40", "n5-redraws"])
def test_fixed_seed_batches_are_pinned(point, count, rows_total, digest):
    params = params_from_alpha(*point)
    h = hashlib.sha256()
    total = 0
    for seed, batch in ((0, 0), (1, 0), (2, 5)):
        trial, rows = sample_batch(params, _rng(seed, batch), count)
        h.update(trial.tobytes())
        h.update(np.ascontiguousarray(rows).tobytes())
        total += len(rows)
    assert total == rows_total
    assert h.hexdigest()[:16] == digest


def test_fixed_seed_small_samples():
    formula = sample_formula(params_from_alpha(8, 3, 2.0, "sat"), 0)
    assert sorted(c.literals for c in formula.clauses) == [
        (-4, -6, 8), (-3, 5, -7), (-3, 7, -8), (-2, 6, -7), (-1, -4, -7), (-1, -2, 3),
        (-1, -2, 4), (-1, 4, 8), (1, -6, -7), (1, 2, -5), (1, 4, -5), (2, 3, -7), (3, 5, -8)]
    graph = sample_hypergraph(params_from_alpha(9, 3, 2.0, "hypergraph"), 0)
    assert sorted(graph.edges) == [(1, 2, 6), (1, 3, 8)]


def _threshold_root(r: int) -> Decimal:
    """Root of e^y - 1 = (r-1) y on y > 0 by Newton's method at 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        y = Decimal(r)
        for _ in range(60):
            y -= (y.exp() - 1 - (r - 1) * y) / (y.exp() - (r - 1))
        return y


def test_threshold_solves_its_equation():
    for r in range(3, 9):
        res = pure_literal_threshold(r)
        assert abs(Decimal(res.y_star) - _threshold_root(r)) < Decimal("1e-8"), r
        assert type(res.y_star) is float and type(res.alpha_star) is float
    assert abs(pure_literal_threshold(3).alpha_star - 1.227703741142064) < 1e-12


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
