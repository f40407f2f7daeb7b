"""Random models for sparse CNF formulas and r-uniform hypergraphs.

Every candidate clause (2^r * C(n,r) of them) or edge (C(n,r)) is included
independently with probability p = alpha * n^{-(r-1)}.  Candidates are
enumerated in a fixed lexicographic order: variable r-sets ascending, then
sign patterns by bit pattern (bit j set = variable j negated).  The dense
sampler draws one uniform per candidate, so two samples sharing a seed are
coupled monotonically across p.  Above ``DENSE_CANDIDATE_LIMIT`` candidates
``sample_formula`` / ``sample_hypergraph`` switch to ``sample_batch``, the
O(m) sampler the Monte Carlo harness uses at every size: a Binomial count
and distinct uniform indices per sample.  It is equally seed-deterministic
but not coupled across p.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .structures import Formula, Hypergraph

DENSE_CANDIDATE_LIMIT = 200_000

FORMULA = "sat"
HYPERGRAPH = "hypergraph"


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
    kind: str

    @property
    def candidate_count(self) -> int:
        scale = 2 ** self.r if self.kind == FORMULA else 1
        return scale * math.comb(self.n, self.r)


def params_from_alpha(n: int, r: int, alpha: float, kind: str = FORMULA) -> ModelParams:
    if kind not in (FORMULA, HYPERGRAPH):
        raise ValueError(f"kind must be {FORMULA!r} or {HYPERGRAPH!r}")
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    p = alpha * float(n) ** (-(r - 1))
    if p > 1.0:
        raise ValueError(f"alpha {alpha} gives clause probability {p} > 1")
    scale = 2 ** r if kind == FORMULA else 1
    c = p * scale * math.comb(n, r) / n
    return ModelParams(n=n, r=r, alpha=float(alpha), p=p, c=c, kind=kind)


# ---------------------------------------------------------------------------
# candidate enumeration and unranking

@lru_cache(maxsize=32)
def candidate_clauses(n: int, r: int) -> list[tuple[int, ...]]:
    """All candidate clauses in the fixed lexicographic order."""
    out = []
    for combo in combinations(range(1, n + 1), r):
        for bits in range(2 ** r):
            out.append(tuple(-v if (bits >> j) & 1 else v for j, v in enumerate(combo)))
    return out


@lru_cache(maxsize=32)
def candidate_edges(n: int, r: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), r))


@lru_cache(maxsize=32)
def _colex_tables(n: int, r: int) -> list:
    """Binomial tables for vectorized unranking: T[j][c] = C(c, r-j)."""
    return [np.array([math.comb(c, r - j) for c in range(n)], dtype=np.int64)
            for j in range(r)]


def unrank_combinations(indices, n: int, r: int) -> np.ndarray:
    """The index-th r-subsets of 1..n in lexicographic order, vectorized.

    Uses the complement identity: lexicographic rank R satisfies
    C(n,r) - 1 - R = sum_j C(n - v_j, r - j), so each position decodes by
    a search in a fixed binomial table.
    """
    rp = math.comb(n, r) - 1 - np.asarray(indices, dtype=np.int64)
    out = np.empty((len(rp), r), dtype=np.int64)
    for j, table in enumerate(_colex_tables(n, r)):
        c = np.searchsorted(table, rp, side="right") - 1
        rp = rp - table[c]
        out[:, j] = n - c
    return out


def unrank_combination(index: int, n: int, r: int) -> tuple[int, ...]:
    """The index-th r-subset of 1..n in lexicographic order."""
    return tuple(int(v) for v in unrank_combinations([index], n, r)[0])


def unrank_clauses(indices, n: int, r: int) -> np.ndarray:
    """Candidate clauses at the given indices, in the fixed dense order, as
    rows of signed literals."""
    indices = np.asarray(indices, dtype=np.int64)
    combos = unrank_combinations(indices >> r, n, r)
    bits = indices & (2 ** r - 1)
    return combos * (1 - 2 * ((bits[:, None] >> np.arange(r)) & 1))


def unrank_clause(index: int, n: int, r: int) -> tuple[int, ...]:
    return tuple(unrank_clauses([index], n, r)[0].tolist())


# ---------------------------------------------------------------------------
# sampling

def _rng(seed: int, *spawn: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=spawn))


def sample_batch(params: ModelParams, rng: np.random.Generator,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent samples in O(total items), consuming the given stream.

    Returns (trial, index): trial t keeps a Binomial(candidates, p) number
    of distinct uniform candidate indices, and the pairs come sorted by
    trial, then index.  Indices are drawn keyed ``trial * candidates +
    index``, duplicates are dropped after a sort, and only the shortfall
    is drawn again, so the kept set of each trial is a uniform subset of
    its size.
    """
    m_total = params.candidate_count
    if count * m_total >= 2 ** 63:
        raise ValueError(f"{count} samples of {m_total} candidates overflow int64 keys")
    want = rng.binomial(m_total, params.p, size=count)
    keys = np.empty(0, dtype=np.int64)
    short = want
    while (total := int(short.sum())) > 0:
        owner = np.repeat(np.arange(count, dtype=np.int64), short)
        keys = np.concatenate([keys, owner * m_total + rng.integers(0, m_total, size=total)])
        keys.sort()
        fresh = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        keys = keys[fresh]
        short = want - np.bincount(keys // m_total, minlength=count)
    return keys // m_total, keys % m_total


def sample_indices(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Sorted candidate indices of one sample, consuming the given stream."""
    m_total = params.candidate_count
    if m_total <= DENSE_CANDIDATE_LIMIT:
        u = rng.random(m_total)
        return np.flatnonzero(u < params.p)
    return sample_batch(params, rng, 1)[1]


def sample_formula(params: ModelParams, seed: int) -> Formula:
    """One draw of the random formula; identical given (params, seed)."""
    if params.kind != FORMULA:
        raise ValueError("params are not for the formula model")
    idx = sample_indices(params, _rng(seed))
    return Formula(params.n, unrank_clauses(idx, params.n, params.r).tolist())


def sample_hypergraph(params: ModelParams, seed: int) -> Hypergraph:
    if params.kind != HYPERGRAPH:
        raise ValueError("params are not for the hypergraph model")
    idx = sample_indices(params, _rng(seed))
    return Hypergraph(params.n, unrank_combinations(idx, params.n, params.r).tolist())


# ---------------------------------------------------------------------------
# the sharp threshold for the pure literal rule

@dataclass(frozen=True)
class ThresholdResult:
    alpha_star: float
    y_star: float


def pure_literal_objective(r: int, y: float) -> float:
    """(r-1)! * y / (2^(r-1) * (1 - e^-y)^(r-1)); minimized over y > 0."""
    return math.factorial(r - 1) * y / (2 ** (r - 1) * (1.0 - math.exp(-y)) ** (r - 1))


def pure_literal_threshold(r: int, tol: float = 1e-8) -> ThresholdResult:
    """Minimum of the objective over y > 0 to absolute tolerance ``tol``.

    Brackets the minimum by a coarse scan of (1e-6, 50), then converges by
    golden-section search.  The objective diverges at both ends (like
    y^(2-r) at 0 and linearly at infinity), so it is unimodal in between.
    """
    if r < 3:
        raise ValueError("the pure literal threshold needs r >= 3")
    grid = np.linspace(1e-6, 50.0, 5001)
    values = [pure_literal_objective(r, y) for y in grid]
    i = int(np.argmin(values))
    lo = grid[max(i - 1, 0)]
    hi = grid[min(i + 1, len(grid) - 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = pure_literal_objective(r, c)
    fd = pure_literal_objective(r, d)
    while b - a > tol / 10:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = pure_literal_objective(r, c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = pure_literal_objective(r, d)
    y_star = (a + b) / 2
    return ThresholdResult(alpha_star=pure_literal_objective(r, y_star), y_star=y_star)
