"""Independent brute-force oracles used by the tests.

Nothing here goes through the library's canonicalization, reduction or
search code: group actions, satisfiability, colorability and pure-literal
fixpoints are recomputed from first principles so the tests check the
library against a second, dumber route.
"""

import itertools
import math
import random

from sparsecore import Formula, Hypergraph


def apply_signed(formula: Formula, perm, flips) -> Formula:
    """Relabel variable v -> perm[v-1] and flip the sign of v when flips[v-1]."""
    clauses = []
    for cl in formula.clauses:
        lits = []
        for l in cl.literals:
            v = abs(l)
            sign = (l > 0) ^ flips[v - 1]
            lits.append(perm[v - 1] if sign else -perm[v - 1])
        clauses.append(tuple(lits))
    return Formula(formula.order, clauses)


def apply_perm(graph: Hypergraph, perm) -> Hypergraph:
    return Hypergraph(graph.order, [tuple(perm[v - 1] for v in e) for e in graph.edges])


def signed_group(n):
    for perm in itertools.permutations(range(1, n + 1)):
        for bits in range(2 ** n):
            yield perm, tuple(bool((bits >> i) & 1) for i in range(n))


def signed_images(formula: Formula) -> set:
    """All distinct labeled images under signed permutations of its variables."""
    clause_rows = [cl.literals for cl in formula.clauses]
    out = set()
    for perm, flips in signed_group(formula.order):
        image = frozenset(
            tuple(sorted(
                ((perm[abs(l) - 1] if (l > 0) ^ flips[abs(l) - 1]
                  else -perm[abs(l) - 1]) for l in row), key=abs))
            for row in clause_rows
        )
        out.add(image)
    return out


def vertex_images(graph: Hypergraph) -> set:
    rows = list(graph.edges)
    out = set()
    for perm in itertools.permutations(range(1, graph.order + 1)):
        out.add(frozenset(tuple(sorted(perm[v - 1] for v in e)) for e in rows))
    return out


def labeled_copy_count(pattern: Formula | Hypergraph, n: int) -> int:
    """Number of labeled placements of a pattern without isolated variables
    on a ground set of n labels: C(n, order) * (distinct images on a fixed set)."""
    if isinstance(pattern, Formula):
        images = len(signed_images(pattern))
    else:
        images = len(vertex_images(pattern))
    return math.comb(n, pattern.order) * images


def brute_max_sat(formula: Formula) -> int:
    best = 0
    for bits in itertools.product((False, True), repeat=formula.order):
        sat = sum(
            1
            for cl in formula.clauses
            if any((l > 0) == bits[abs(l) - 1] for l in cl.literals)
        )
        best = max(best, sat)
    return best


def brute_sat(formula: Formula) -> bool:
    return brute_max_sat(formula) == formula.size


def brute_colorable(graph: Hypergraph, k: int) -> bool:
    for colors in itertools.product(range(k), repeat=graph.order):
        if all(len({colors[v - 1] for v in e}) > 1 for e in graph.edges):
            return True
    return graph.size == 0


def random_pure_literal_core(formula: Formula, rng: random.Random):
    """Sequential pure-literal fixpoint choosing a random pure literal each step.

    Returns the surviving clause set in the original labels.
    """
    clauses = {cl.literals for cl in formula.clauses}
    while True:
        lits = {l for c in clauses for l in c}
        pure = sorted(l for l in lits if -l not in lits)
        if not pure:
            return clauses
        chosen = rng.choice(pure)
        clauses = {c for c in clauses if chosen not in c}


def _check_count(m: int, available: int, what: str) -> None:
    if m > available:
        raise ValueError(f"{m} distinct {what} asked for, only {available} exist")


def random_formula(rng: random.Random, n: int, r: int, m: int) -> Formula:
    _check_count(m, math.comb(n, r) * 2 ** r, "clauses")
    clauses = set()
    while len(clauses) < m:
        vs = rng.sample(range(1, n + 1), r)
        clauses.add(tuple(sorted((v * rng.choice((1, -1)) for v in vs), key=abs)))
    return Formula(n, clauses)


def random_hypergraph(rng: random.Random, n: int, r: int, m: int) -> Hypergraph:
    _check_count(m, math.comb(n, r), "edges")
    edges = set()
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(1, n + 1), r))))
    return Hypergraph(n, edges)
