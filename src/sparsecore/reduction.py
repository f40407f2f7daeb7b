"""Core extraction: the pure literal rule and round-based k-core peeling.

Both reducers delete in rounds and record enough to reconstruct a witness:
a satisfying assignment extends through a pure-literal trace by setting
each eliminated literal True, and a proper coloring extends through a peel
trace because every peeled vertex had at most k-1 incident edges when it
was removed.  The surviving core is relabeled densely; the trace keeps the
original labels.

The batched reducers at the end find only the cores, with no trace, of
many instances at once: the core of a disjoint union is the union of the
cores of its parts, whatever the elimination order.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .structures import Clause, Formula, Hypergraph, induced_formula, induced_hypergraph


@dataclass(frozen=True)
class PureLiteralStep:
    """One pure literal set True, with the clauses it satisfied and removed."""

    literal: int
    removed: tuple[Clause, ...]


@dataclass(frozen=True)
class PureLiteralTrace:
    order: int
    steps: tuple[PureLiteralStep, ...]
    core_variables: tuple[int, ...]  # original labels of core variables, ascending

    def extend_assignment(self, core_assignment: tuple[bool, ...]) -> tuple[bool, ...]:
        """Lift a core assignment to the original variables.

        Eliminated literals are set True; variables that dropped out with
        no clauses left are unconstrained and default to True.
        """
        if len(core_assignment) != len(self.core_variables):
            raise ValueError("core assignment length mismatch")
        values = [True] * self.order
        for step in self.steps:
            values[abs(step.literal) - 1] = step.literal > 0
        for var, val in zip(self.core_variables, core_assignment):
            values[var - 1] = bool(val)
        return tuple(values)


@dataclass(frozen=True)
class PeelRound:
    """Vertices of degree <= k-1 at round start, with their incident edges."""

    vertices: tuple[int, ...]
    edges: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class PeelTrace:
    order: int
    k: int
    rounds: tuple[PeelRound, ...]
    core_vertices: tuple[int, ...]

    def extend_coloring(self, core_coloring: tuple[int, ...]) -> tuple[int, ...]:
        """Lift a proper core coloring (colors 1..k) to the original vertices.

        Rounds are replayed in reverse; each peeled vertex sees at most k-1
        constraining edges, so a free color always exists.
        """
        if len(core_coloring) != len(self.core_vertices):
            raise ValueError("core coloring length mismatch")
        colors = [0] * self.order
        for v, c in zip(self.core_vertices, core_coloring):
            colors[v - 1] = int(c)
        for rnd in reversed(self.rounds):
            for v in rnd.vertices:
                forbidden = set()
                for e in rnd.edges:
                    if v not in e:
                        continue
                    others = {colors[u - 1] for u in e if u != v}
                    if 0 not in others and len(others) == 1:
                        forbidden.add(others.pop())
                for c in range(1, self.k + 1):
                    if c not in forbidden:
                        colors[v - 1] = c
                        break
                else:
                    raise RuntimeError("no free color while lifting; peel trace is inconsistent")
        return tuple(colors)


# ---------------------------------------------------------------------------
# pure literal rule

def _pure_literal_raw(clauses: list[tuple[int, ...]]):
    """Round-based reduction on raw literal tuples.

    Returns (core clause indices, core variables, steps) where steps are
    (literal, removed clause indices).  Variables whose clauses all vanish
    are dropped silently.  Within a round the pure literals found at round
    start are processed in sorted order, so a clause containing several of
    them is attributed to the first.
    """
    occ: Counter[int] = Counter()
    by_var: dict[int, list[int]] = defaultdict(list)
    for ci, cl in enumerate(clauses):
        for lit in cl:
            occ[lit] += 1
            by_var[abs(lit)].append(ci)
    alive = [True] * len(clauses)
    active = set(by_var)
    steps: list[tuple[int, list[int]]] = []
    while True:
        pure: list[int] = []
        gone: list[int] = []
        for v in sorted(active):
            pos, neg = occ[v], occ[-v]
            if pos == 0 and neg == 0:
                gone.append(v)
            elif neg == 0:
                pure.append(v)
            elif pos == 0:
                pure.append(-v)
        if not pure and not gone:
            break
        for v in gone:
            active.discard(v)
        for lit in sorted(pure, key=lambda l: (abs(l), l < 0)):
            removed = [ci for ci in by_var[abs(lit)] if alive[ci]]
            for ci in removed:
                alive[ci] = False
                for l in clauses[ci]:
                    occ[l] -= 1
            active.discard(abs(lit))
            if removed:
                steps.append((lit, removed))
            # else the variable lost its clauses earlier this round: silent
    core_idx = [ci for ci, a in enumerate(alive) if a]
    return core_idx, sorted(active), steps


def pure_literal_core(formula: Formula) -> tuple[Formula, PureLiteralTrace]:
    """Maximal full subformula (relabeled densely) plus the elimination trace.

    The core is empty or has no pure literals; it does not depend on the
    order in which pure literals are chosen.
    """
    clause_list = [cl.literals for cl in formula.sorted_clauses()]
    core_idx, core_vars, raw_steps = _pure_literal_raw(clause_list)
    steps = tuple(
        PureLiteralStep(lit, tuple(Clause(clause_list[ci]) for ci in removed))
        for lit, removed in raw_steps
    )
    core, support = induced_formula(Clause(clause_list[ci]) for ci in core_idx)
    assert list(support) == core_vars
    trace = PureLiteralTrace(order=formula.order, steps=steps, core_variables=tuple(core_vars))
    return core, trace


# ---------------------------------------------------------------------------
# k-core peeling

def _k_core_raw(n: int, edges: list[tuple[int, ...]], k: int):
    """Round-based peeling on raw edges.

    Returns (core edge indices, core vertices, rounds) with rounds as
    (vertices removed, edge indices removed).  Vertices of degree 0,
    including those above the support, peel in the first round.
    """
    deg = [0] * (n + 1)
    by_vertex: dict[int, list[int]] = defaultdict(list)
    for ei, e in enumerate(edges):
        for v in e:
            deg[v] += 1
            by_vertex[v].append(ei)
    alive = [True] * len(edges)
    rounds: list[tuple[list[int], list[int]]] = []
    current = list(range(1, n + 1))
    while True:
        doomed = [v for v in current if deg[v] <= k - 1]
        if not doomed:
            break
        removed_edges = []
        doomed_set = set(doomed)
        for v in doomed:
            for ei in by_vertex[v]:
                if alive[ei]:
                    alive[ei] = False
                    removed_edges.append(ei)
                    for u in edges[ei]:
                        deg[u] -= 1
        rounds.append((doomed, sorted(removed_edges)))
        current = [v for v in current if v not in doomed_set]
    core_idx = [ei for ei, a in enumerate(alive) if a]
    return core_idx, current, rounds


def k_core(graph: Hypergraph, k: int) -> tuple[Hypergraph, PeelTrace]:
    """Maximal sub-hypergraph of minimum degree >= k (relabeled densely)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    edge_list = list(graph.sorted_edges())
    core_idx, core_vertices, raw_rounds = _k_core_raw(graph.order, edge_list, k)
    rounds = tuple(
        PeelRound(tuple(vs), tuple(edge_list[ei] for ei in eis)) for vs, eis in raw_rounds
    )
    core, support = induced_hypergraph(edge_list[ei] for ei in core_idx)
    assert list(support) == core_vertices
    trace = PeelTrace(order=graph.order, k=k, rounds=rounds, core_vertices=tuple(core_vertices))
    return core, trace


# ---------------------------------------------------------------------------
# batched cores of a disjoint union

def _union_ids(owner: np.ndarray, labels: np.ndarray, n: int) -> np.ndarray:
    """Dense ids 0..V-1 of the (owner, label) pairs, labels in 1..n.

    Variables of different instances are kept apart by the offset
    ``owner * n``; only the V pairs present get an id, so memory follows
    the number of items, not the number of instances times n.
    """
    keys = (owner[:, None] * n + (labels - 1)).ravel()
    order = np.argsort(keys)
    ranked = keys[order]
    new = np.ones(len(keys), dtype=bool)
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids.reshape(labels.shape)


def _peel_union(codes: np.ndarray, partner, threshold: int) -> np.ndarray:
    """Alive mask after deleting, round by round, every row holding a code
    whose partner code occurs fewer than ``threshold`` times among live rows."""
    live = np.arange(len(codes))
    count = np.bincount(codes.ravel(), minlength=int(codes.max(initial=0)) + 2)
    while len(live):
        rows = codes[live]
        keep = (count[partner(rows)] >= threshold).all(axis=1)
        if keep.all():
            break
        np.subtract.at(count, rows[~keep].ravel(), 1)
        live = live[keep]
    alive = np.zeros(len(codes), dtype=bool)
    alive[live] = True
    return alive


def _pure_literal_batch(clauses: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Which rows of ``clauses`` (signed literals on 1..n; row i belongs to
    formula ``owner[i]``) lie in the pure-literal core of their formula.

    A clause dies when one of its literals has no live complement.
    """
    codes = 2 * _union_ids(owner, np.abs(clauses), n) + (clauses < 0)
    return _peel_union(codes, lambda rows: rows ^ 1, 1)


def _k_core_batch(edges: np.ndarray, owner: np.ndarray, n: int, k: int) -> np.ndarray:
    """Which rows of ``edges`` (vertices 1..n; row i belongs to hypergraph
    ``owner[i]``) lie in the k-core of their hypergraph.

    An edge dies when one of its vertices has live degree below k.
    """
    return _peel_union(_union_ids(owner, edges, n), lambda rows: rows, k)
