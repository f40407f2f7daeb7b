"""Independent computations the benchmark checks the library's outputs against.

Nothing here calls the library's reducers, canonical keys, catalogs or
solver: fixpoints, automorphism groups, labeled counts, satisfiability and
colorability are recomputed from first principles by brute force.  Every
check returns a list of error strings; an empty list means it passed.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter

import numpy as np

# ---------------------------------------------------------------------------
# plain fixpoint reducers (original labels in, original labels out)


def plain_pure_literal_core(clauses) -> frozenset:
    """Delete every clause holding a pure literal until none is left."""
    core = {frozenset(c) for c in clauses}
    while True:
        lits = {l for c in core for l in c}
        pure = {l for l in lits if -l not in lits}
        if not pure:
            return frozenset(core)
        core = {c for c in core if not (c & pure)}


def plain_k_core(edges, k: int) -> frozenset:
    """Delete every edge at a vertex of degree < k until none is left."""
    core = {frozenset(e) for e in edges}
    while True:
        degree = Counter(v for e in core for v in e)
        low = {v for v, d in degree.items() if d < k}
        if not low:
            return frozenset(core)
        core = {e for e in core if not (e & low)}


# ---------------------------------------------------------------------------
# automorphisms, predictions and labeled counts

PAIR = ((1, 2, 3), (-1, -2, -3))  # the minimal full formula at r=3
K4 = tuple(itertools.combinations(range(1, 5), 2))  # the minimal 3-dense graph


def signed_aut(clauses, t: int) -> int:
    target = {frozenset(c) for c in clauses}
    count = 0
    for perm in itertools.permutations(range(1, t + 1)):
        for flips in itertools.product((1, -1), repeat=t):
            image = {frozenset((1 if l > 0 else -1) * flips[abs(l) - 1] * perm[abs(l) - 1]
                               for l in c) for c in clauses}
            count += image == target
    return count


def vertex_aut(edges, t: int) -> int:
    target = {frozenset(e) for e in edges}
    return sum({frozenset(perm[v - 1] for v in e) for e in edges} == target
               for perm in itertools.permutations(range(1, t + 1)))


def leading_prediction(kind: str, n: int, alpha: float) -> float:
    """2^t/|aut| * alpha^size * n^-excess of the pair, or alpha^6/(|aut| n^2) of K4."""
    if kind == "pl-fail":
        return 2 ** 3 / signed_aut(PAIR, 3) * alpha ** 2 / n
    return 1 / vertex_aut(K4, 4) * alpha ** 6 / n ** 2


LABELED_COUNT_MAX_SUBSETS = 200_000


def _exact_covers(literals: frozenset, clauses) -> int:
    """Sets of clauses that use every literal exactly once."""
    if not literals:
        return 1
    low = min(literals, key=abs)
    return sum(_exact_covers(literals - c, clauses) for c in clauses
               if low in c and c <= literals)


def labeled_count(kind: str, r: int, k: int | None, t: int, e: int) -> int | None:
    """Labeled full formulas / k-dense graphs with e items on exactly 1..t.

    A full formula with r*e == 2t uses each literal exactly once, so it is
    counted as an exact cover of the 2t literals.  Otherwise all e-subsets
    are tried, or None is returned when there are more than
    LABELED_COUNT_MAX_SUBSETS of them.
    """
    combos = list(itertools.combinations(range(1, t + 1), r))
    if kind == "sat":
        items = [tuple(v if (bits >> j) & 1 else -v for j, v in enumerate(c))
                 for c in combos for bits in range(2 ** r)]
    else:
        items = combos
    if kind == "sat" and r * e == 2 * t:
        literals = frozenset(range(-t, t + 1)) - {0}
        return _exact_covers(literals, [frozenset(c) for c in items])
    if math.comb(len(items), e) > LABELED_COUNT_MAX_SUBSETS:
        return None
    count = 0
    for subset in itertools.combinations(items, e):
        if kind == "sat":
            lits = {l for c in subset for l in c}
            count += len(lits) == 2 * t
        else:
            degree = Counter(v for c in subset for v in c)
            count += len(degree) == t and min(degree.values()) >= k
    return count


def check_catalog_counts(catalog) -> list[str]:
    """Sum of |G|/aut over each catalog cell against a brute-force labeled count.

    |G| is 2^t t! for formulas (signed permutations) and t! for graphs.
    Cells with too many candidate subsets are skipped; at least one must
    be small enough.
    """
    errors, checked = [], 0
    cells = Counter()
    for entry in catalog.entries:
        group = (2 ** entry.order if catalog.kind == "sat" else 1) * math.factorial(entry.order)
        cells[entry.order, entry.size] += group // entry.aut_count
    for t in range(catalog.r, catalog.order_cap + 1):
        for e in range(1, (t + catalog.max_excess) // (catalog.r - 1) + 1):
            if not 1 <= (catalog.r - 1) * e - t <= catalog.max_excess:
                continue
            brute = labeled_count(catalog.kind, catalog.r, catalog.k, t, e)
            if brute is None:
                continue
            checked += 1
            if brute != cells[t, e]:
                errors.append(f"catalog cell t={t} e={e}: classes give {cells[t, e]}, "
                              f"brute force {brute}")
    if checked == 0:
        errors.append("no catalog cell small enough to count")
    return errors


# ---------------------------------------------------------------------------
# exhaustive satisfiability and colorability, for witness checks


def _violations_sat(clauses, t: int) -> np.ndarray:
    """(clauses, 2^t) bool: clause i is false under assignment a (bit v-1 = var v)."""
    grid = np.arange(2 ** t)
    value = [(grid >> (v - 1)) & 1 == 1 for v in range(1, t + 1)]
    return np.array([~np.any([value[abs(l) - 1] if l > 0 else ~value[abs(l) - 1] for l in c],
                             axis=0) for c in clauses]).reshape(len(clauses), -1)


def _violations_coloring(edges, t: int, k: int) -> np.ndarray:
    """(edges, k^t) bool: edge i is monochromatic under coloring c."""
    grid = np.arange(k ** t)
    color = [(grid // k ** (v - 1)) % k for v in range(1, t + 1)]
    return np.array([np.all([color[v - 1] == color[e[0] - 1] for v in e], axis=0)
                     for e in edges]).reshape(len(edges), -1)


def minimal_obstruction(violations: np.ndarray) -> bool:
    """Nothing avoids every item, and for each item something avoids all others."""
    bad = violations.sum(axis=0)
    if np.any(bad == 0):
        return False
    only = violations & (bad == 1)
    return bool(np.all(only.any(axis=1)))


def check_sat_verdict(formula, verdict) -> list[str]:
    clauses = [cl.literals for cl in formula.clauses]
    if verdict.status == "SAT":
        a = verdict.assignment
        if not all(any((l > 0) == a[abs(l) - 1] for l in c) for c in clauses):
            return ["SAT assignment leaves a clause false"]
        return []
    muf, labels = verdict.muf, verdict.muf_variables
    lifted = {frozenset((1 if l > 0 else -1) * labels[abs(l) - 1] for l in cl.literals)
              for cl in muf.clauses}
    if not lifted <= {frozenset(c) for c in clauses}:
        return ["MUF is not a subformula of its input"]
    if not minimal_obstruction(_violations_sat([cl.literals for cl in muf.clauses], muf.order)):
        return ["MUF fails the exhaustive minimal-unsatisfiability check"]
    return []


def check_color_verdict(graph, verdict, k: int) -> list[str]:
    if verdict.colorable:
        c = verdict.coloring
        if not all(1 <= x <= k for x in c) or any(len({c[v - 1] for v in e}) == 1
                                                  for e in graph.edges):
            return ["coloring is not a proper k-coloring"]
        return []
    obs, labels = verdict.obstruction, verdict.obstruction_vertices
    lifted = {tuple(sorted(labels[v - 1] for v in e)) for e in obs.edges}
    if not lifted <= set(graph.edges):
        return ["obstruction is not a subgraph of its input"]
    if not minimal_obstruction(_violations_coloring(list(obs.edges), obs.order, k)):
        return ["obstruction fails the exhaustive minimal non-colorability check"]
    return []


# ---------------------------------------------------------------------------
# report checks


def check_census_report(report: dict, part, catalog, predictions) -> list[str]:
    errors = []
    total = (sum(report["census"].values()) + report["other_count"]
             + report["large_core_count"] + report["census_excluded"])
    if total != report["failures"]:
        errors.append(f"{part.name}: census {total} != nonempty cores {report['failures']}")
    flag = "is_full" if part.kind == "pl-fail" else "is_k_dense"
    allowed = {e.iso_key.decode("ascii") for e in catalog.entries if getattr(e, flag)}
    stray = set(report["census"]) - allowed
    if stray:
        errors.append(f"{part.name}: census keys outside the catalog: {sorted(stray)}")
    expected = leading_prediction(part.kind, part.n, part.alpha)
    for label, value in (("harness", report["predicted"]),
                         ("set-up", predictions[part.name]["first_order"])):
        if not math.isclose(value, expected, rel_tol=1e-12):
            errors.append(f"{part.name}: {label} prediction {value} != brute force {expected}")
    return errors


def check_validation_report(report: dict, part) -> list[str]:
    if report["agreement_rate"] != 1.0 or report["witness_failures"] or report["mismatches"]:
        return [f"{part.name}: agreement {report['agreement_rate']}, mismatches "
                f"{report['mismatches']}, witness failures {report['witness_failures']}"]
    return []


def check_replay(part, records) -> list[str]:
    """Library cores against the plain reducers; verdict witnesses by brute force."""
    errors = []
    for instance, result in records:
        if part.kind == "pl-fail":
            core, trace = result
            labels = trace.core_variables
            lib = frozenset(frozenset((1 if l > 0 else -1) * labels[abs(l) - 1]
                                      for l in cl.literals) for cl in core.clauses)
            own = plain_pure_literal_core(cl.literals for cl in instance.clauses)
        elif part.kind == "kcore":
            core, trace = result
            labels = trace.core_vertices
            lib = frozenset(frozenset(labels[v - 1] for v in e) for e in core.edges)
            own = plain_k_core(instance.edges, part.k)
        elif part.kind == "sat":
            errors += check_sat_verdict(instance, result)
            continue
        else:
            errors += check_color_verdict(instance, result, part.k)
            continue
        if lib != own:
            errors.append(f"{part.name}: library core differs from the plain fixpoint")
    return errors


def check_binomial(name: str, a: int, ta: int, b: int, tb: int, z: float = 5.0) -> list[str]:
    """Two counts of the same event agree within z standard errors (plus one)."""
    pooled = (a + b) / (ta + tb)
    sd = math.sqrt(pooled * (1 - pooled) * (1 / ta + 1 / tb))
    if abs(a / ta - b / tb) > z * sd + 1 / min(ta, tb):
        return [f"{name}: replay rate {a}/{ta} vs harness {b}/{tb} beyond {z} sd"]
    return []
