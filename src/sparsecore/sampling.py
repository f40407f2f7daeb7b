"""Random models for sparse CNF formulas and r-uniform hypergraphs.

Every candidate clause (2^r * C(n,r) of them) or edge (C(n,r)) is included
independently with probability p = alpha * n^{-(r-1)}.  Candidates are
enumerated in a fixed lexicographic order: variable r-sets ascending, then
sign patterns by bit pattern (bit j set = variable j negated); the order
lives in one place, the table ``_candidates``.  The dense sampler draws
one uniform per candidate and reads the kept candidates' rows from that
table, so two samples sharing a seed are coupled monotonically across p.
Above ``DENSE_CANDIDATE_LIMIT`` candidates ``sample_formula`` /
``sample_hypergraph`` switch to ``sample_batch``, the O(m) sampler the
Monte Carlo harness uses at every size: a Binomial count per sample and
that many distinct uniform candidates, drawn directly as rows of r
variables (plus sign bits), with no table.  It is equally
seed-deterministic but not coupled across p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations

import numpy as np

from .structures import MODELS, Formula, Hypergraph, sign_factor

DENSE_CANDIDATE_LIMIT = 200_000


@dataclass(frozen=True)
class ModelParams:
    """One point of the random model in all three parametrizations.

    p is the per-candidate probability, alpha = p * n^(r-1), and c*n is
    the expected number of clauses/edges.
    """

    n: int
    r: int
    alpha: float
    p: float
    c: float
    kind: str  # the model, a key of structures.MODELS

    @property
    def candidate_count(self) -> int:
        return sign_factor(self.kind, self.r) * math.comb(self.n, self.r)


def params_from_alpha(n: int, r: int, alpha: float, kind: str = "sat") -> ModelParams:
    if kind not in MODELS:
        raise ValueError(f"kind must be {' or '.join(map(repr, MODELS))}")
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    p = alpha * float(n) ** (-(r - 1))
    if p > 1.0:
        raise ValueError(f"alpha {alpha} gives clause probability {p} > 1")
    c = p * sign_factor(kind, r) * math.comb(n, r) / n
    return ModelParams(n=n, r=r, alpha=float(alpha), p=p, c=c, kind=kind)


# ---------------------------------------------------------------------------
# the candidate order

@lru_cache(maxsize=8)  # a process meets few (n, r); 200,000 rows of 3 take 4.6 MB
def _candidates(n: int, r: int, kind: str) -> np.ndarray:
    """Read-only (candidates, r) int64 array of every candidate in the fixed
    order: rows of signed literals (formulas) or of vertices (hypergraphs)."""
    combos = np.fromiter(chain.from_iterable(combinations(range(1, n + 1), r)),
                         dtype=np.int64, count=r * math.comb(n, r)).reshape(-1, r)
    if MODELS[kind].signed:  # bit j of the sign pattern negates variable j
        signs = 1 - 2 * (np.arange(2 ** r)[:, None] >> np.arange(r) & 1)
        combos = (combos[:, None, :] * signs).reshape(-1, r)
    combos.flags.writeable = False
    return combos


def candidate_clauses(n: int, r: int) -> list[tuple[int, ...]]:
    """All candidate clauses in the fixed lexicographic order."""
    return list(map(tuple, _candidates(n, r, "sat").tolist()))


def candidate_edges(n: int, r: int) -> list[tuple[int, ...]]:
    return list(map(tuple, _candidates(n, r, "hypergraph").tolist()))


@lru_cache(maxsize=32)
def _colex_tables(n: int, r: int) -> list:
    """Binomial tables for vectorized ranking: T[j][c] = C(c, r-j)."""
    return [np.array([math.comb(c, r - j) for c in range(n)], dtype=np.int64)
            for j in range(r)]


# ---------------------------------------------------------------------------
# sampling

def _rng(seed: int, *spawn: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn))


def _sorting_network(r: int) -> list[tuple[int, int]]:
    """Compare-exchange pairs that sort r columns (odd-even transposition)."""
    return [(i, i + 1) for rnd in range(r) for i in range(rnd % 2, r - 1, 2)]


def sample_batch(params: ModelParams, rng: np.random.Generator,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent samples in O(total items), consuming the given stream.

    Returns (trial, rows): trial t keeps a Binomial(candidates, p) number
    of distinct uniform candidates, as rows of signed literals (formulas)
    or of vertices (hypergraphs), sorted by trial, then candidate index.
    A row is drawn as r uniform variables, sorted by a min/max network
    and dropped when a variable repeats, so a kept row is a uniform r-set;
    a formula's row then takes r uniform sign bits.  Each row packs into
    one int64 key (trial, v_1 .. v_r, signs) whose order is (trial,
    candidate index).  Duplicate keys are dropped after a sort and only
    the shortfall is drawn again, so the kept set of each trial is a
    uniform subset of its size.  The rows come in column-major order, so
    each column is contiguous.
    """
    n, r = params.n, params.r
    sign_bits = r if MODELS[params.kind].signed else 0
    var_bits = max(1, (n - 1).bit_length())
    trial_shift = r * var_bits + sign_bits
    if max(count - 1, 0).bit_length() + trial_shift > 63:
        raise ValueError(f"{count} samples of {r}-sets of {n} variables overflow int64 keys")
    short = rng.binomial(params.candidate_count, params.p, size=count)
    keys = np.empty(0, dtype=np.int64)
    while (total := int(short.sum())) > 0:
        cols = list(rng.integers(0, n, size=(r, total)))
        for i, j in _sorting_network(r):
            cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
        distinct = np.ones(total, dtype=bool)
        for low, high in zip(cols, cols[1:]):
            distinct &= low != high
        owner = np.repeat(np.arange(count, dtype=np.int64), short)
        fresh = owner[distinct]
        for col in cols:
            fresh <<= var_bits
            fresh |= col[distinct]
        if sign_bits:
            fresh <<= sign_bits
            fresh |= rng.integers(0, 1 << sign_bits, size=len(fresh))
        fresh.sort()
        keys = np.concatenate([keys, fresh])
        keys.sort(kind="stable")  # merges the two sorted runs
        kept = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=kept[1:])
        # a trial is short by the rows it lost to a repeated variable or a duplicate
        short = (np.bincount(owner[~distinct], minlength=count)
                 + np.bincount(keys[~kept] >> trial_shift, minlength=count))
        keys = keys[kept]
    rows = np.empty((len(keys), r), dtype=np.int64, order="F")
    mask = (1 << var_bits) - 1
    for j in range(r):
        rows[:, j] = (keys >> (sign_bits + (r - 1 - j) * var_bits) & mask) + 1
        if sign_bits:
            rows[:, j] *= 1 - 2 * (keys >> j & 1)
    return keys >> trial_shift, rows


def candidate_indices(rows: np.ndarray, params: ModelParams) -> np.ndarray:
    """Candidate index of each row, the inverse of the fixed order.

    The lexicographic rank R of an r-set v_1 < ... < v_r of 1..n satisfies
    C(n,r) - 1 - R = sum_j C(n - v_j, r - j), a sum of table gathers.
    """
    n, r = params.n, params.r
    variables = np.abs(rows)
    tables = _colex_tables(n, r)
    index = math.comb(n, r) - 1 - sum(tables[j][n - variables[:, j]] for j in range(r))
    if MODELS[params.kind].signed:
        index = index << r | ((rows < 0) << np.arange(r)).sum(axis=1)
    return index


def sample_indices(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Sorted candidate indices of one sample, consuming the given stream."""
    m_total = params.candidate_count
    if m_total <= DENSE_CANDIDATE_LIMIT:
        u = rng.random(m_total)
        return np.flatnonzero(u < params.p)
    return candidate_indices(sample_batch(params, rng, 1)[1], params)


def _sample(params: ModelParams, seed: int, kind: str):
    """One draw of the ``kind`` model's structure; identical given (params, seed)."""
    if params.kind != kind:
        raise ValueError(f"params are not for the {kind} model")
    rng = _rng(seed)
    if params.candidate_count > DENSE_CANDIDATE_LIMIT:
        rows = sample_batch(params, rng, 1)[1].tolist()
    else:
        rows = _candidates(params.n, params.r, kind)[sample_indices(params, rng)].tolist()
    return MODELS[kind](params.n, rows)


def sample_formula(params: ModelParams, seed: int) -> Formula:
    """One draw of the random formula; identical given (params, seed)."""
    return _sample(params, seed, "sat")


def sample_hypergraph(params: ModelParams, seed: int) -> Hypergraph:
    return _sample(params, seed, "hypergraph")


# ---------------------------------------------------------------------------
# the sharp threshold for the pure literal rule

@dataclass(frozen=True)
class ThresholdResult:
    alpha_star: float
    y_star: float


def pure_literal_objective(r: int, y: float) -> float:
    """(r-1)! * y / (2^(r-1) * (1 - e^-y)^(r-1)); minimized over y > 0."""
    return math.factorial(r - 1) * y / (2 ** (r - 1) * (1.0 - math.exp(-y)) ** (r - 1))


def pure_literal_threshold(r: int) -> ThresholdResult:
    """Minimum of the objective over y > 0, with y* to absolute tolerance 1e-8.

    The objective's logarithmic derivative 1/y - (r-1)/(e^y - 1) vanishes
    only at the root of g(y) = e^y - 1 - (r-1)*y on y > 0.  g is convex,
    negative at its minimum log(r-1) and positive at y = r, so bisection
    on (log(r-1), r) finds y*.
    """
    if r < 3:
        raise ValueError("the pure literal threshold needs r >= 3")
    a, b = math.log(r - 1), float(r)
    while b - a > 1e-9:  # a tenth of the tolerance
        mid = (a + b) / 2
        if math.expm1(mid) > (r - 1) * mid:
            b = mid
        else:
            a = mid
    y_star = (a + b) / 2
    return ThresholdResult(alpha_star=pure_literal_objective(r, y_star), y_star=y_star)
