"""Random models for sparse CNF formulas and r-uniform hypergraphs.

Every candidate clause (2^r * C(n,r) of them) or edge (C(n,r)) is included
independently with probability p = alpha * n^{-(r-1)}.  Candidates are
enumerated in a fixed lexicographic order: variable r-sets ascending, then
sign patterns by bit pattern (bit j set = variable j negated).  The dense
sampler draws one uniform per candidate, so two samples sharing a seed are
coupled monotonically across p.  Above ``DENSE_CANDIDATE_LIMIT`` candidates
``sample_formula`` / ``sample_hypergraph`` switch to ``sample_batch``, the
O(m) sampler the Monte Carlo harness uses at every size: a Binomial count
per sample and that many distinct uniform candidates, drawn directly as
rows of r variables (plus sign bits), with no unranking.  It is equally
seed-deterministic but not coupled across p.
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
    """Binomial tables for vectorized ranking and unranking: T[j][c] = C(c, r-j)."""
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
    sign_bits = r if params.kind == FORMULA else 0
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
    """Candidate index of each row, from the complement identity of
    ``unrank_combinations`` as a sum of table gathers."""
    n, r = params.n, params.r
    variables = np.abs(rows)
    tables = _colex_tables(n, r)
    index = math.comb(n, r) - 1 - sum(tables[j][n - variables[:, j]] for j in range(r))
    if params.kind == FORMULA:
        index = index << r | ((rows < 0) << np.arange(r)).sum(axis=1)
    return index


def sample_indices(params: ModelParams, rng: np.random.Generator) -> np.ndarray:
    """Sorted candidate indices of one sample, consuming the given stream."""
    m_total = params.candidate_count
    if m_total <= DENSE_CANDIDATE_LIMIT:
        u = rng.random(m_total)
        return np.flatnonzero(u < params.p)
    return candidate_indices(sample_batch(params, rng, 1)[1], params)


def _sample_rows(params: ModelParams, seed: int, kind: str) -> list[list[int]]:
    """The items of one sample as rows; identical given (params, seed)."""
    if params.kind != kind:
        raise ValueError(f"params are not for the {kind} model")
    rng = _rng(seed)
    if params.candidate_count > DENSE_CANDIDATE_LIMIT:
        return sample_batch(params, rng, 1)[1].tolist()
    decode = unrank_clauses if kind == FORMULA else unrank_combinations
    return decode(sample_indices(params, rng), params.n, params.r).tolist()


def sample_formula(params: ModelParams, seed: int) -> Formula:
    """One draw of the random formula; identical given (params, seed)."""
    return Formula(params.n, _sample_rows(params, seed, FORMULA))


def sample_hypergraph(params: ModelParams, seed: int) -> Hypergraph:
    return Hypergraph(params.n, _sample_rows(params, seed, HYPERGRAPH))


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
