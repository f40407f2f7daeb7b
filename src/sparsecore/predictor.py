"""Exact expectation, containment and failure-probability predictions.

Expected copy counts and first-order containment probabilities come from
the labeled-placement count C(n,t) * t! * 2^t / |aut H| (the 2^t sign
factor disappears for hypergraphs) times p^size.  The failure-probability
expansion in powers of 1/n sums over configurations (unions of copies of
the cataloged minimal obstructions), attaches each configuration's
inclusion-exclusion weight, a Moebius sum of the event's failure test over
its item subsets, and expands (n)_t / n^t exactly.  The configurations
need no search of their own: a union of copies of full formulas is full
(of k-dense hypergraphs, k-dense), has no isolated variables and has
excess at least 1, so every configuration of excess <= s_max is already
an entry of a catalog complete through s_max, with its |Aut| and excess.
Entries that are not unions of copies get weight 0.  All expansion
arithmetic is in rationals; floats appear only when a prediction is
evaluated at numeric (n, alpha).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .isomorph import automorphism_count
from .solver import _core_fails
from .structures import MODELS, is_full, is_k_dense, sign_factor

if TYPE_CHECKING:
    from .catalog import Catalog


class Event(NamedTuple):
    model: str  # "sat" | "hypergraph"
    flag: str  # catalog flag of the event's minimal obstructions
    core_decides: bool  # a nonempty core is the failure: no test runs past the peel

    def fails(self, items, order: int, k) -> bool:
        """The failure test on int-tuple items over 1..order: a nonempty
        core, exhausted unless ``core_decides``, within the solver's budgets
        as they stand at the call, which no catalog entry (order <= r*s/(r-2))
        comes near by default."""
        return _core_fails(items, order, k or 1, MODELS[self.model].signed, not self.core_decides)


# The event table, in report order.
EVENTS = {
    "pl-fail": Event("sat", "mff", True),
    "kcore": Event("hypergraph", "minimal_k_dense", True),
    "unsat": Event("sat", "muf", False),
    "noncolorable": Event("hypergraph", "min_non_k_colorable", False),
}


class AlphaPoly:
    """A polynomial in the density parameter with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for power, c in dict(coeffs).items():
                c = Fraction(c)
                if c:
                    self.coeffs[int(power)] = c

    @classmethod
    def term(cls, coefficient, power: int) -> "AlphaPoly":
        return cls({power: Fraction(coefficient)})

    def __add__(self, other: "AlphaPoly") -> "AlphaPoly":
        out = dict(self.coeffs)
        for p, c in other.coeffs.items():
            out[p] = out.get(p, Fraction(0)) + c
        return AlphaPoly(out)

    def scaled(self, factor) -> "AlphaPoly":
        f = Fraction(factor)
        return AlphaPoly({p: c * f for p, c in self.coeffs.items()})

    def __call__(self, alpha):
        if isinstance(alpha, (int, Fraction)):
            return sum((c * Fraction(alpha) ** p for p, c in self.coeffs.items()),
                       Fraction(0))
        return float(sum(float(c) * float(alpha) ** p for p, c in self.coeffs.items()))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, AlphaPoly) and self.coeffs == other.coeffs

    def __repr__(self):
        parts = [f"{c}" if p == 0 else (f"{c}*a" if p == 1 else f"{c}*a^{p}")
                 for p, c in sorted(self.coeffs.items())]
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

    def to_json(self):
        return [[p, str(self.coeffs[p])] for p in sorted(self.coeffs)]


def _structure_facts(structure):
    """(model, width, order, size, excess) of a nonempty uniform structure."""
    if type(structure) not in MODELS.values():
        raise TypeError(f"unsupported structure {type(structure).__name__}")
    r = structure.width()
    if r is None:
        raise ValueError("empty structure has no clause width or edge size")
    t, e = structure.order, structure.size
    return structure.model, r, t, e, (r - 1) * e - t


def class_weight(model: str, order: int, aut_count: int) -> Fraction:
    """2^order/|Aut| (1/|Aut| for hypergraphs): a class's labeled copies on
    ``order`` given variables over order!; a formula's copy also picks signs."""
    return Fraction(sign_factor(model, order), aut_count)


def _monomial(coefficient: Fraction, alpha, power: int, n: int, exponent: int):
    """coefficient * alpha^power / n^exponent, a float unless alpha is exact."""
    if isinstance(alpha, (int, Fraction)):
        return coefficient * Fraction(alpha) ** power / Fraction(n) ** exponent
    return float(coefficient) * float(alpha) ** power / float(n) ** exponent


def expected_copies_exact(structure, n: int, alpha) -> Fraction | float:
    """Exact expected number of copies in the random model at (n, alpha).

    (n)_t / n^t * 2^t/|aut| * alpha^size * n^(-excess) for formulas; the
    2^t factor drops for hypergraphs.  Exact (Fraction) when alpha is an
    int or Fraction.  Returns 0 when n < order.
    """
    kind, r, t, e, _ = _structure_facts(structure)
    weight = math.perm(n, t) * class_weight(kind, t, automorphism_count(structure))
    return _monomial(weight, alpha, e, n, (r - 1) * e)


@dataclass(frozen=True)
class FirstOrderTerm:
    """Leading containment term: coefficient * alpha^alpha_power * n^-exponent."""

    coefficient: Fraction
    alpha_power: int
    exponent: int

    def evaluate(self, n: int, alpha) -> Fraction | float:
        return _monomial(self.coefficient, alpha, self.alpha_power, n, self.exponent)


def first_order_containment(structure, k: int | None = None) -> FirstOrderTerm:
    """Leading term of the containment probability for a minimal-core shape.

    The hypothesis requires a full formula or (given k) a k-dense
    hypergraph.  The constant is the shape's ``class_weight``.
    """
    kind, r, t, e, excess = _structure_facts(structure)
    if kind == "sat":
        if not is_full(structure):
            raise ValueError("containment asymptotics require a full formula")
    else:
        if k is None:
            raise ValueError("hypergraph containment needs k")
        if not is_k_dense(structure, k):
            raise ValueError("containment asymptotics require a k-dense hypergraph")
    return FirstOrderTerm(coefficient=class_weight(kind, t, automorphism_count(structure)),
                          alpha_power=e, exponent=excess)


# ---------------------------------------------------------------------------
# conditional core-type distribution

@dataclass(frozen=True)
class CoreTypeDistribution:
    """Exact normalized weights over isomorphism classes at one excess level."""

    weights: tuple[tuple[bytes, Fraction], ...]


def core_type_distribution(entries, alpha) -> CoreTypeDistribution:
    """Weights alpha^size * class_weight, normalized; entries share one excess."""
    entries = list(entries)
    if not entries:
        raise ValueError("need at least one catalog entry")
    if len({e.excess for e in entries}) != 1:
        raise ValueError("entries must all have the same excess")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    a = Fraction(alpha)  # exact also for floats, which are binary rationals
    raw = [(e.iso_key, a ** e.size * class_weight(e.kind, e.order, e.aut_count))
           for e in entries]
    total = sum(w for _, w in raw)
    return CoreTypeDistribution(tuple((key, w / total) for key, w in raw))


# ---------------------------------------------------------------------------
# the 1/n expansion of the failure probability

@dataclass(frozen=True)
class ExpansionPolynomial:
    """Coefficients of n^-s, s = 1..s_max, of a failure probability."""

    event: str
    s_max: int
    terms: dict[int, AlphaPoly]
    validity: str

    def evaluate(self, n: int, alpha) -> Fraction | float:
        if n < 1:
            raise ValueError(f"n must be at least 1, got {n}")
        exact = isinstance(alpha, (int, Fraction))
        total = Fraction(0) if exact else 0.0
        for s, poly in self.terms.items():
            val = poly(alpha)
            total += val / Fraction(n) ** s if exact else val / float(n) ** s
        return total

    def to_json_dict(self) -> dict:
        return {
            "format_version": 1,
            "event": self.event,
            "s_max": self.s_max,
            "terms": {str(s): poly.to_json() for s, poly in sorted(self.terms.items())},
            "validity": self.validity,
        }


def _falling_coeffs(t: int, d_max: int) -> list[Fraction]:
    """Coefficients of x^d, d <= d_max, in prod_{i=0}^{t-1} (1 - i*x)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * d_max
    for i in range(t):
        for d in range(d_max, 0, -1):
            coeffs[d] -= i * coeffs[d - 1]
    return coeffs


def _cover_weight(w, fails, k) -> int:
    """Signed number of ways copies of the event's obstructions cover w
    exactly: sum over covering sets S of copies of (-1)^(|S|+1).  An item
    subset of w holds a copy iff it fails (its minimal failing subsets are
    full, or k-dense, of no larger excess: catalog obstructions), so by
    Moebius inversion over item sets this is the sum over item subsets T
    of (-1)^(|w|-|T|) [T fails]."""
    items = w.rows()
    m = len(items)
    return sum((-1) ** (m - j) for j in range(m + 1)
               for subset in itertools.combinations(items, j) if fails(subset, w.order, k))


def failure_expansion(catalog: Catalog, event: str, s_max: int) -> ExpansionPolynomial:
    """Exact polynomials p_s with failure probability sum_s p_s(alpha) n^-s + O(n^-s_max-1).

    By inclusion-exclusion over the copies of the event's obstructions, the
    failure probability is a sum over configurations w (unions of copies)
    of cover weight * 2^t/|Aut w| (no 2^t for hypergraphs) * (n)_t/n^t *
    alpha^size * n^-excess.  Every configuration of excess <= s_max is full
    (k-dense), of excess >= 1 and without isolated variables, so the
    catalog lists it exactly once; the sum runs over the catalog entries
    and skips those of cover weight 0, which are not unions of copies.

    Requires a catalog certified complete through excess s_max for the
    event's obstruction class; refuses otherwise rather than emitting
    uncertifiable coefficients.
    """
    if event not in EVENTS:
        raise ValueError(f"unknown event {event!r}; one of {sorted(EVENTS)}")
    kind = EVENTS[event].model
    if catalog.kind != kind:
        raise ValueError(f"event {event!r} needs a {kind!r} catalog")
    if s_max < 1:
        raise ValueError("s_max must be >= 1")
    if not catalog.complete or catalog.max_excess < s_max:
        raise ValueError(
            f"catalog certifies excess <= {catalog.max_excess if catalog.complete else 'nothing'}"
            f"; cannot expand to order n^-{s_max}"
        )
    terms: dict[int, AlphaPoly] = {s: AlphaPoly() for s in range(1, s_max + 1)}
    for w in catalog.entries:
        if w.excess > s_max:
            continue
        sigma = _cover_weight(w.structure, EVENTS[event].fails, catalog.k)
        if sigma == 0:
            continue
        base_coeff = sigma * class_weight(kind, w.order, w.aut_count)
        falling = _falling_coeffs(w.order, s_max - w.excess)
        for s in range(w.excess, s_max + 1):
            terms[s] = terms[s] + AlphaPoly.term(base_coeff * falling[s - w.excess], w.size)
    validity = (
        f"complete catalog through excess {catalog.max_excess} "
        f"(order cap {catalog.order_cap}, size cap {catalog.size_cap})"
    )
    return ExpansionPolynomial(event=event, s_max=s_max, terms=terms, validity=validity)


# ---------------------------------------------------------------------------
# explicit tail bounds for medium-size structures

def tail_bound(r: int, alpha: float, n: int, t: int) -> float:
    """Upper bound ((4^((r-1)/r) e a^(2/r)) (t/n)^(1-2/r))^t on the probability
    of a full subformula with exactly t variables; valid for
    1 <= t <= n / (2 a^(1/(r-1)))."""
    if r < 3:
        raise ValueError("needs r >= 3")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 1 <= t <= n / (2 * alpha ** (1.0 / (r - 1))):
        raise ValueError(f"t={t} outside the valid range [1, n/(2 a^(1/(r-1)))]")
    base = (4.0 ** ((r - 1) / r)) * math.e * alpha ** (2.0 / r) * (t / n) ** (1.0 - 2.0 / r)
    return base ** t


def tail_bound_hypergraph(r: int, k: int, alpha: float, n: int, t: int) -> float:
    """Upper bound ((e a^(k/r)) (t/n)^(k-1-1/r))^t on the probability of a
    k-dense subhypergraph with exactly t vertices; valid for
    1 <= t <= n / a^(1/(r-1))."""
    if r < 2 or k < 2 or r + k <= 4:
        raise ValueError("needs r, k >= 2 and r + k > 4")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if not 1 <= t <= n / alpha ** (1.0 / (r - 1)):
        raise ValueError(f"t={t} outside the valid range [1, n/a^(1/(r-1))]")
    base = math.e * alpha ** (k / r) * (t / n) ** (k - 1 - 1.0 / r)
    return base ** t
