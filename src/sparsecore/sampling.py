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
that many distinct uniform candidates, drawn directly with no table.  It
is equally seed-deterministic but not coupled across p.  Its draw,
``sample_keys``, returns each row as one sorted int64 key (trial, r
variables, sign bits); ``decode_rows`` turns keys into rows, and
``key_codes`` reads per-trial variable or literal codes straight from
the key bits, so the harness peels a batch on its keys and decodes only
the rows that lie in a core.
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
    if not alpha >= 0:  # NaN too
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


def _key_fields(params: ModelParams) -> tuple[int, int, int]:
    """(variable bits, sign bits, trial shift) of a packed row key.  From
    high to low a key holds the trial, the row's r variables less one in
    ascending order, and for a formula r sign bits (bit j negates the
    variable in column j), so key order is (trial, candidate index)."""
    sign_bits = params.r if MODELS[params.kind].signed else 0
    var_bits = max(1, (params.n - 1).bit_length())
    return var_bits, sign_bits, params.r * var_bits + sign_bits


def _variable_bits(keys: np.ndarray, params: ModelParams, j: int) -> np.ndarray:
    """The variable less one in column j of each key."""
    var_bits, sign_bits, _ = _key_fields(params)
    variables = keys >> (sign_bits + (params.r - 1 - j) * var_bits)
    variables &= (1 << var_bits) - 1
    return variables


def _in_sorted(values: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Which ``values`` occur in the ascending array ``sorted_keys``."""
    if not len(sorted_keys):
        return np.zeros(len(values), dtype=bool)
    at = np.searchsorted(sorted_keys, values)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == values


def sample_keys(params: ModelParams, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` independent samples in O(total items) as sorted packed row
    keys (``_key_fields``), consuming the given stream.

    Trial t keeps a Binomial(candidates, p) number of distinct uniform
    candidates.  A row is drawn as r uniform variables, sorted by a
    min/max network and dropped when a variable repeats, so a kept row is
    a uniform r-set; a formula's row then takes r uniform sign bits.  A
    repeated key is dropped and only the shortfall is drawn again, so the
    kept set of each trial is a uniform subset of its size.  The first
    round's keys stay put: each redraw is checked against them and against
    the earlier redraws by binary search, and the redraws are merged in
    once at the end.
    """
    n, r = params.n, params.r
    var_bits, sign_bits, trial_shift = _key_fields(params)
    if max(count - 1, 0).bit_length() + trial_shift > 63:
        raise ValueError(f"{count} samples of {r}-sets of {n} variables overflow int64 keys")
    short = rng.binomial(params.candidate_count, params.p, size=count)
    keys = redrawn = np.empty(0, dtype=np.int64)
    while (total := int(short.sum())) > 0:
        # the network runs in place with one spare column: a fresh column per
        # compare-exchange would add a pass of memory traffic over the draw
        cols = list(rng.integers(0, n, size=(r, total)))
        spare = np.empty(total, dtype=np.int64)
        for i, j in _sorting_network(r):
            np.minimum(cols[i], cols[j], out=spare)
            np.maximum(cols[i], cols[j], out=cols[j])
            cols[i], spare = spare, cols[i]
        distinct = cols[0] != cols[1]
        for low, high in zip(cols[1:], cols[2:]):
            distinct &= low != high
        packed = np.repeat(np.arange(count, dtype=np.int64), short)
        for col in cols:
            packed <<= var_bits
            packed |= col
        del cols, spare
        fresh = packed[distinct]
        if sign_bits:
            fresh <<= sign_bits
            fresh |= rng.integers(0, 1 << sign_bits, size=len(fresh))
        fresh.sort()
        new = np.ones(len(fresh), dtype=bool)
        np.not_equal(fresh[1:], fresh[:-1], out=new[1:])
        new &= ~(_in_sorted(fresh, keys) | _in_sorted(fresh, redrawn))
        if len(keys):
            redrawn = np.sort(np.concatenate([redrawn, fresh[new]]))
        else:
            keys = fresh[new]
        # a trial is short by the rows it lost to a repeated variable or key
        short = np.bincount(np.concatenate([packed[~distinct] >> (trial_shift - sign_bits),
                                            fresh[~new] >> trial_shift]), minlength=count)
    keys = np.concatenate([keys, redrawn])
    keys.sort(kind="stable")  # merges the two sorted runs
    return keys


def decode_rows(keys: np.ndarray, params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(trial, rows) of packed row keys: rows of signed literals (formulas)
    or of vertices (hypergraphs), in column-major order, so each column
    is contiguous."""
    _, sign_bits, trial_shift = _key_fields(params)
    rows = np.empty((len(keys), params.r), dtype=np.int64, order="F")
    for j in range(params.r):
        rows[:, j] = _variable_bits(keys, params, j) + 1
        if sign_bits:
            rows[:, j] *= 1 - 2 * (keys >> j & 1)
    return keys >> trial_shift, rows


def key_codes(keys: np.ndarray, params: ModelParams, literals: bool) -> list[np.ndarray]:
    """Per column j, a code for the point of each key that no other trial
    shares: the variable's ``trial * n + v - 1``, or with ``literals`` (a
    formula's keys) the literal's ``trial * 2n + 2(v - 1) + sign bit``,
    so that a literal's complement has its code XOR 1."""
    base = keys >> _key_fields(params)[2]
    base *= params.n
    codes = [_variable_bits(keys, params, j) for j in range(params.r)]
    for j, code in enumerate(codes):
        code += base
        if literals:
            code <<= 1
            sign = keys >> j
            sign &= 1
            code |= sign
    return codes


def sample_batch(params: ModelParams, rng: np.random.Generator,
                 count: int) -> tuple[np.ndarray, np.ndarray]:
    """``count`` independent samples as (trial, rows), sorted by trial,
    then candidate index: ``decode_rows`` of ``sample_keys``."""
    return decode_rows(sample_keys(params, rng, count), params)


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
