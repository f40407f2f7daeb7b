"""Independent brute-force oracles used by the tests.

Nothing here goes through the library's canonicalization, reduction or
search code: group actions, copies, satisfiability, colorability and
pure-literal fixpoints are recomputed from first principles so the tests
check the library against a second, dumber route.  Three exceptions,
all resting on the library's canonical_key (itself checked against brute
force): the slow expansion reference deduplicates its configurations
with it; find_copies, the subset-scan copy finder that the copy-based
cover weight, minimality and census-exclusion references use, keys every
candidate item subset with it (and is checked against brute_copies); and
the unanchored catalog cell reference takes whole orbits from the
library's orbit kernel.
"""

import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np

from sparsecore import AlphaPoly, Formula, Hypergraph, canonical_key, isomorph
from sparsecore.predictor import EVENTS
from sparsecore.sampling import candidate_clauses, candidate_edges
from sparsecore.structures import dense_relabel


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


def images_of(structure) -> set:
    return signed_images(structure) if isinstance(structure, Formula) else vertex_images(structure)


def items_of(structure) -> frozenset:
    """Clauses as signed-literal tuples, or edges, as a set of int tuples."""
    if isinstance(structure, Formula):
        return frozenset(cl.literals for cl in structure.clauses)
    return structure.edges


def _placed(image, ground) -> frozenset:
    """An image on labels 1..t moved onto the ascending labels ``ground``."""
    return frozenset(tuple(ground[abs(x) - 1] * (1 if x > 0 else -1) for x in item)
                     for item in image)


def brute_copies(pattern, host, images=None) -> set:
    """Substructures of ``host`` isomorphic to ``pattern``, as (variables,
    items): every distinct image of the pattern on every set of host
    variables of its order, kept when all its items are host items."""
    images = images_of(pattern) if images is None else images
    host_items = items_of(host)
    out = set()
    for chosen in itertools.combinations(range(1, host.order + 1), pattern.order):
        for image in images:
            placed = _placed(image, chosen)
            if placed <= host_items:
                out.add((frozenset(chosen), placed))
    return out


def find_copies(pattern, host):
    """Yield each substructure of ``host`` isomorphic to ``pattern`` less its
    isolated variables, once, as (variables, items).

    Both are frozensets in host labels; items are int tuples (signed
    literals or vertices).  Every subset of host items of the pattern's
    size that touches as many variables as the pattern's support is keyed
    and compared.  Nothing is yielded when the pattern has more variables
    or items than the host, so a copy exists iff ``count_copies`` > 0.
    """
    if type(pattern) not in (Formula, Hypergraph) or type(host) is not type(pattern):
        raise TypeError("pattern and host must be structures of the same kind")
    if pattern.order > host.order or pattern.size > host.size:
        return
    support, dense = dense_relabel(sorted(items_of(pattern)))
    target = canonical_key(type(pattern)(len(support), dense))
    for subset in itertools.combinations(sorted(items_of(host)), pattern.size):
        used = frozenset(abs(x) for item in subset for x in item)
        if len(used) != len(support):
            continue
        if canonical_key(type(host)(len(used), dense_relabel(subset)[1])) == target:
            yield used, frozenset(subset)


def count_copies(pattern, host) -> int:
    """Number of distinct substructures of ``host`` isomorphic to ``pattern``.

    A substructure is a variable subset together with a clause subset over
    it; isolated variables of the pattern are matched by arbitrary extra
    host variables.
    """
    return sum(math.comb(host.order - len(used), pattern.order - len(used))
               for used, _ in find_copies(pattern, host))


def reference_expansion_terms(catalog, event: str, s_max: int) -> dict:
    """The ``terms`` of ``failure_expansion(...).to_json_dict()``, the slow way.

    The configurations (isomorphism classes of unions of distinct copies of
    the event's obstructions, excess <= s_max) are grown copy by copy,
    breadth first, from the obstructions' brute-force images: every union
    of m copies passes through unions of fewer copies of excess no larger.
    Each configuration w contributes sigma * images(w) / t! * alpha^size *
    (n)_t / n^t * n^-excess, where sigma is the signed number of sets of
    copies covering w exactly and images(w) * C(n, t) counts its labeled
    placements.
    """
    kind, flag = EVENTS[event][:2]
    make = Formula if kind == "sat" else Hypergraph
    bases = [e.structure for e in catalog.with_flag(flag) if e.excess <= s_max]
    images = [images_of(b) for b in bases]

    def excess(w):
        return (catalog.r - 1) * w.size - w.order

    seen = {}
    for b in bases:
        seen.setdefault(canonical_key(b), b)
    queue = list(seen.values())
    while queue:
        w = queue.pop()
        if excess(w) >= s_max:
            continue
        w_items = items_of(w)
        for base, imgs in zip(bases, images):
            for overlap in range(min(w.order, base.order) + 1):
                fresh = tuple(range(w.order + 1, w.order + base.order - overlap + 1))
                for shared in itertools.combinations(range(1, w.order + 1), overlap):
                    for img in imgs:
                        new_items = w_items | _placed(img, shared + fresh)
                        if len(new_items) == len(w_items):
                            continue
                        candidate = make(w.order + len(fresh), new_items)
                        if excess(candidate) > s_max:
                            continue
                        key = canonical_key(candidate)
                        if key not in seen:
                            seen[key] = candidate
                            queue.append(candidate)
    terms = {s: AlphaPoly() for s in range(1, s_max + 1)}
    for w in seen.values():
        copies = [c for b, imgs in zip(bases, images) for c in brute_copies(b, w, imgs)]
        whole = (frozenset(range(1, w.order + 1)), items_of(w))
        sigma = sum(
            (-1) ** (m + 1)
            for m in range(1, len(copies) + 1)
            for subset in itertools.combinations(copies, m)
            if (frozenset().union(*(c[0] for c in subset)),
                frozenset().union(*(c[1] for c in subset))) == whole
        )
        falling = [Fraction(1)]  # coefficients of prod_{i<t} (1 - i x)
        for i in range(w.order):
            falling = [a - i * b for a, b in zip(falling + [0], [0] + falling)]
        lead = Fraction(sigma * len(images_of(w)), math.factorial(w.order))
        for s in range(excess(w), s_max + 1):
            terms[s] = terms[s] + AlphaPoly.term(lead * falling[s - excess(w)], w.size)
    return {str(s): poly.to_json() for s, poly in sorted(terms.items())}


def copy_cover_weight(w, bases) -> int:
    """Signed number of ways copies of the bases inside w cover w exactly:
    sum over covering sets S of copies of (-1)^(|S|+1), every set of
    copies listed."""
    copies = [copy for base in bases for copy in find_copies(base, w)]

    def covers(subset) -> bool:  # copies lie inside w, so counting suffices
        return (len(frozenset().union(*(used for used, _ in subset))) == w.order
                and len(frozenset().union(*(items for _, items in subset))) == w.size)

    if not covers(copies):
        return 0
    return sum(1 if m % 2 else -1 for m in range(1, len(copies) + 1)
               for subset in itertools.combinations(copies, m) if covers(subset))


def copy_minimal_flags(entries, attr: str) -> list:
    """Catalog entries (sorted by excess, complete below each entry's
    excess) with ``attr`` set: no entry of smaller excess occurs inside."""
    out = []
    for e in entries:
        smaller = [x for x in out if x.excess < e.excess]
        minimal = not any(any(find_copies(x.structure, e.structure)) for x in smaller)
        out.append(replace(e, **{attr: minimal}))
    return out


def labeled_covers(candidates, units, need_units, e, r):
    """Index tuples of e candidates covering all coverage units: every
    labeled cover of a catalog cell, found by a lexicographic set search
    pruned by the coverage deficit (``units``: unit -> multiplicity owed;
    each candidate covers r units, one per member)."""
    index_of = {cov: i for i, cov in enumerate(candidates)}
    results = []
    chosen = []

    def rec(start, deficit, total):
        slots = (e - len(chosen)) * r
        if total > slots:
            return
        if len(chosen) == e:
            if total == 0:
                results.append(tuple(chosen))
            return
        if total == slots:
            for combo in itertools.combinations(sorted(deficit), r):
                if len({need_units(u) for u in combo}) != r:
                    continue
                idx = index_of.get(frozenset(combo))
                if idx is None or idx < start:
                    continue
                new_deficit = dict(deficit)
                for u in combo:
                    if new_deficit[u] == 1:
                        del new_deficit[u]
                    else:
                        new_deficit[u] -= 1
                chosen.append(idx)
                rec(idx + 1, new_deficit, total - r)
                chosen.pop()
            return
        for idx in range(start, len(candidates)):
            cov = candidates[idx]
            gain = sum(1 for u in cov if u in deficit)
            if total - gain > slots - r:
                continue
            new_deficit = dict(deficit)
            for u in cov:
                if u in new_deficit:
                    if new_deficit[u] == 1:
                        del new_deficit[u]
                    else:
                        new_deficit[u] -= 1
            chosen.append(idx)
            rec(idx + 1, new_deficit, total - gain)
            chosen.pop()

    rec(0, dict(units), sum(units.values()))
    return results


def reference_cell(kind, r, k, t, e):
    """``catalog._enumerate_cell`` the slow way, plus the labeled cover count.

    Every labeled cover of the cell is listed; the first time one is seen,
    its whole orbit (the distinct sorted rows of ``isomorph._orbit_masks``)
    enters the seen-set, its least row is the canonical form and
    |G| / |orbit| its automorphism count.  Returns
    ([(structure, aut_count, iso_key)], labeled covers).
    """
    signed = kind == "sat"
    if signed:
        rows = [tuple(2 * (abs(l) - 1) + (l < 0) for l in lits)
                for lits in candidate_clauses(t, r)]
        units = {u: 1 for u in range(2 * t)}
        need_units = lambda u: u // 2
    else:
        rows = [tuple(v - 1 for v in edge) for edge in candidate_edges(t, r)]
        units = {v: k for v in range(t)}
        need_units = lambda u: u
    group = (2 ** t if signed else 1) * math.factorial(t)
    packed = [isomorph._pack_row(row) for row in rows]
    covers = labeled_covers([frozenset(row) for row in rows], units, need_units, e, r)
    seen = set()
    classes = []
    for ids in covers:
        if tuple(sorted(packed[i] for i in ids)) in seen:
            continue
        masks = isomorph._orbit_masks(t, [rows[i] for i in ids], signed)
        masks.sort(axis=1)
        orbit = np.unique(masks, axis=0)
        seen.update(map(tuple, orbit.tolist()))
        encoding = isomorph._decode_orbit_row(orbit[0])
        classes.append((isomorph._from_encoding(t, encoding, signed), group // len(orbit),
                        isomorph._render("F" if signed else "G", t, 0, encoding)))
    return classes, len(covers)


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
