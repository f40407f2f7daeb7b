"""Core extraction: the pure literal rule and round-based k-core peeling.

Both reducers delete in rounds and record enough to reconstruct a witness:
a satisfying assignment extends through a pure-literal trace by setting
each eliminated literal True, and a proper coloring extends through a peel
trace because every peeled vertex had at most k-1 incident edges when it
was removed.  The surviving core is relabeled densely; the trace keeps the
original labels.

The batched reducers at the end find only the cores, with no trace, of
many instances at once: the core of a disjoint union is the union of the
cores of its parts, whatever the elimination order.  Variable v of
instance t gets the direct code ``t * n + v - 1`` (for literals, twice
that plus the sign bit), so no id has to be searched for; the count
table has a slot for every code, which makes memory O(instances * n),
within a constant of the item count for alpha bounded away from 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

from .structures import Formula, Hypergraph, dense_relabel


@dataclass(frozen=True)
class PureLiteralStep:
    """One pure literal set True, with the clauses it satisfied and removed,
    as literal tuples in original labels."""

    literal: int
    removed: tuple[tuple[int, ...], ...]


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
        for lit in pure:  # in variable order, as ``active`` was scanned
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


def _pure_literal_trace(order: int, clauses: list[tuple[int, ...]]):
    """(core clauses relabeled densely and sorted, trace) of literal tuples
    over variables 1..order."""
    core_idx, core_vars, raw_steps = _pure_literal_raw(clauses)
    steps = tuple(PureLiteralStep(lit, tuple(clauses[ci] for ci in removed))
                  for lit, removed in raw_steps)
    support, core = dense_relabel([clauses[ci] for ci in core_idx])
    assert list(support) == core_vars
    return core, PureLiteralTrace(order=order, steps=steps, core_variables=support)


def pure_literal_core(formula: Formula) -> tuple[Formula, PureLiteralTrace]:
    """Maximal full subformula (relabeled densely) plus the elimination trace.

    The core is empty or has no pure literals; it does not depend on the
    order in which pure literals are chosen.
    """
    core, trace = _pure_literal_trace(formula.order, formula.rows())
    return Formula(len(trace.core_variables), core), trace


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


def _k_core_trace(order: int, edges: list[tuple[int, ...]], k: int):
    """(core edges relabeled densely and sorted, trace) of sorted vertex
    tuples over vertices 1..order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    core_idx, core_vertices, raw_rounds = _k_core_raw(order, edges, k)
    rounds = tuple(PeelRound(tuple(vs), tuple(edges[ei] for ei in eis))
                   for vs, eis in raw_rounds)
    support, core = dense_relabel([edges[ei] for ei in core_idx])
    assert list(support) == core_vertices
    return core, PeelTrace(order=order, k=k, rounds=rounds, core_vertices=support)


def k_core(graph: Hypergraph, k: int) -> tuple[Hypergraph, PeelTrace]:
    """Maximal sub-hypergraph of minimum degree >= k (relabeled densely)."""
    core, trace = _k_core_trace(graph.order, graph.rows(), k)
    return Hypergraph(len(trace.core_vertices), core), trace


# ---------------------------------------------------------------------------
# batched cores of a disjoint union

def _peel_union(lines: list[np.ndarray], width: int, threshold: int, size: int) -> np.ndarray:
    """Alive mask after deleting, round by round, every row holding a code
    whose partner code occurs fewer than ``threshold`` times among live rows.

    ``lines`` holds one contiguous array per column: the first ``width``
    are the rows' codes and the last ``width`` their partner codes (the
    same arrays when each code is its own partner), all below ``size``.
    Each round rescans the live rows and compacts the lines to the
    survivors.
    """
    alive = np.zeros(len(lines[0]), dtype=bool)
    live = np.arange(len(alive))
    count = np.bincount(np.concatenate(lines[:width]), minlength=size)
    while len(live):
        keep = count[lines[-1]] >= threshold
        for partner in lines[-width:-1]:
            keep &= count[partner] >= threshold
        if keep.all():
            break
        dead = np.flatnonzero(~keep)
        for code in lines[:width]:
            np.subtract.at(count, code[dead], 1)
        kept = np.flatnonzero(keep)
        live = live[kept]
        lines = [line[kept] for line in lines]
    alive[live] = True
    return alive


def _variable_codes(rows: np.ndarray, owner: np.ndarray, n: int) -> list[np.ndarray]:
    """Per column j, ``owner * n + v - 1`` for the variable v in column j
    of each row: instances of the union never share a code."""
    base = owner * n - 1
    return [base + np.abs(rows[:, j]) for j in range(rows.shape[1])]


def _pure_literal_batch(clauses: np.ndarray, owner: np.ndarray, n: int) -> np.ndarray:
    """Which rows of ``clauses`` (signed literals on 1..n; row i belongs to
    formula ``owner[i]``) lie in the pure-literal core of their formula.

    A literal's code is twice its variable's code plus its sign bit, so
    its complement's code is the code XOR 1.  A clause dies when one of
    its literals has no live complement.
    """
    codes = [2 * code + (clauses[:, j] < 0)
             for j, code in enumerate(_variable_codes(clauses, owner, n))]
    size = 2 * n * (int(owner.max(initial=-1)) + 1)
    return _peel_union(codes + [code ^ 1 for code in codes], len(codes), 1, size)


def _k_core_batch(edges: np.ndarray, owner: np.ndarray, n: int, k: int) -> np.ndarray:
    """Which rows of ``edges`` (vertices 1..n; row i belongs to hypergraph
    ``owner[i]``) lie in the k-core of their hypergraph.

    An edge dies when one of its vertices has live degree below k.
    """
    codes = _variable_codes(edges, owner, n)
    return _peel_union(codes, len(codes), k, n * (int(owner.max(initial=-1)) + 1))
