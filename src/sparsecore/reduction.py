"""Core extraction: the pure literal rule and k-core peeling, as one peel.

Items (clauses, or edges) sit on points (variables, or vertices).  In
each round, every live point whose rarer literal occurs fewer than k
times among the live items leaves with its live items: k = 1 for the
pure literal rule, while for k-core peeling a vertex is its own literal,
so the test reads its live degree.  What survives is the core, a full
formula or a k-dense hypergraph, whatever the order of deletion.

The per-instance peel (``_peel_raw``) records its rounds, which is
enough to lift a witness: a satisfying assignment of the core extends
by setting each eliminated literal True, and a proper coloring extends
because every peeled vertex had at most k-1 live edges when it left.
The core is relabeled densely; the trace keeps the original labels.

The batched peel (``_peel_keys``) finds only the cores of many
instances at once: the core of a disjoint union is the union of the
cores of its parts.  It reads the rows' codes from the sampler's packed
keys (``sampling.key_codes``): vertex v of instance t gets the direct
code ``t * n + v - 1``, a literal twice its variable's code plus its
sign bit, so no id has to be searched for.  The count table has a slot
for every code, which makes memory O(instances * n), within a constant
of the item count for alpha bounded away from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .sampling import ModelParams, key_codes
from .structures import MODELS, Formula, Hypergraph, dense_relabel


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
# the per-instance peel, read as a pure-literal trace or a k-core peel trace

def _peel_raw(order: int, items, k: int, signed: bool):
    """Round-based peel of ``items`` (literal tuples when ``signed``, else
    vertex tuples) over points 1..order, by the rule in the module docstring.

    Returns (live item indices, live points, rounds) where each round is
    (the points that left, ascending; for each, the indices of the live
    items it removed).  A point whose items all left earlier in its round
    removes nothing.
    """
    # count[x] of literal or vertex x; a negative literal wraps to the top half
    count = [0] * (2 * order + 1)
    by_point = [[] for _ in range(order + 1)]
    for i, item in enumerate(items):
        for x in item:
            count[x] += 1
            by_point[abs(x)].append(i)
    alive = [True] * len(items)
    live = range(1, order + 1)
    rounds = []
    while True:
        if signed:
            doomed = [v for v in live if count[v] < k or count[-v] < k]
        else:  # a vertex is its own literal
            doomed = [v for v in live if count[v] < k]
        if not doomed:
            break
        removals = []
        for v in doomed:
            removed = []
            for i in by_point[v]:
                if alive[i]:
                    alive[i] = False
                    removed.append(i)
                    for x in items[i]:
                        count[x] -= 1
            removals.append(removed)
        rounds.append((doomed, removals))
        gone = set(doomed)
        live = [v for v in live if v not in gone]
    return [i for i, a in enumerate(alive) if a], list(live), rounds


def _pure_literal_trace(order: int, clauses: list[tuple[int, ...]]):
    """(core clauses relabeled densely and sorted, trace) of literal tuples
    over variables 1..order.  A step is a variable that removed clauses;
    its pure literal is the variable's literal in the first of them."""
    core_idx, core_vars, rounds = _peel_raw(order, clauses, 1, True)
    steps = tuple(PureLiteralStep(v if v in clauses[removed[0]] else -v,
                                  tuple(clauses[ci] for ci in removed))
                  for points, removals in rounds for v, removed in zip(points, removals)
                  if removed)
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


def _k_core_trace(order: int, edges: list[tuple[int, ...]], k: int):
    """(core edges relabeled densely and sorted, trace) of sorted vertex
    tuples over vertices 1..order."""
    if k < 1:
        raise ValueError("k must be >= 1")
    core_idx, core_vertices, raw_rounds = _peel_raw(order, edges, k, False)
    rounds = tuple(PeelRound(tuple(vertices),
                             tuple(edges[ei] for ei in sorted(chain.from_iterable(removals))))
                   for vertices, removals in raw_rounds)
    support, core = dense_relabel([edges[ei] for ei in core_idx])
    assert list(support) == core_vertices
    return core, PeelTrace(order=order, k=k, rounds=rounds, core_vertices=support)


def k_core(graph: Hypergraph, k: int) -> tuple[Hypergraph, PeelTrace]:
    """Maximal sub-hypergraph of minimum degree >= k (relabeled densely)."""
    core, trace = _k_core_trace(graph.order, graph.rows(), k)
    return Hypergraph(len(trace.core_vertices), core), trace


# ---------------------------------------------------------------------------
# batched cores of a disjoint union

def _peel_keys(keys: np.ndarray, params: ModelParams, k: int) -> np.ndarray:
    """Which rows of a batch, given as packed row keys (``sample_keys``),
    lie in the core of their trial: the k-core of a hypergraph, or with k = 1
    the pure-literal core of a formula.

    Each round deletes every live row holding a code whose partner occurs
    fewer than k times among the live rows (a literal's partner is its
    complement, a vertex's itself), then compacts the codes to the
    survivors.  ``count[c]`` counts the live occurrences of the partner
    of code c, so a round reads one gather per column.
    """
    signed = MODELS[params.kind].signed
    codes = key_codes(keys, params, signed)
    flip = int(signed)  # a literal's complement has its code XOR 1
    alive = np.zeros(len(keys), dtype=bool)
    if not len(keys):
        return alive
    step = params.n << flip  # codes per trial; the last key is in the last trial
    count = np.empty((int(codes[0][-1]) // step + 1) * step, dtype=np.int64)

    def count_partners(codes):  # into the one table: a recount never holds two
        count.fill(0)
        for code in codes:
            np.add.at(count, code ^ flip, 1)

    count_partners(codes)
    live = np.arange(len(keys))
    while len(live):
        keep = count[codes[0]] >= k
        for code in codes[1:]:
            keep &= count[code] >= k
        kept = np.flatnonzero(keep)
        if len(kept) == len(live):
            break
        if 2 * len(kept) < len(live):  # fewer survivors than deaths: count them afresh
            codes = [code[kept] for code in codes]
            count_partners(codes)
        else:
            dead = np.flatnonzero(~keep)
            for code in codes:
                np.subtract.at(count, code[dead] ^ flip, 1)
            codes = [code[kept] for code in codes]
        live = live[kept]
    alive[live] = True
    return alive
