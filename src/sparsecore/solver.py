"""Decision procedures: reduce to the core, then exhaust the core.

Satisfiability (with an exact MaxSAT count), minimal unsatisfiable
subformula extraction by deletion, and the k-colorability analogue with
minimal obstruction extraction.  Cores below the pure-literal / k-core
thresholds are almost always tiny, so exhausting 2^t assignments or k^t
colorings is cheap on typical inputs; a budget guards the exceptional
case and exceeding it raises rather than guessing.  Both models share
one exhaustion engine: a falsified clause, or an edge monochromatic in
color c, is a demand row of (variable, value) ids, and the least model
is the first assignment outside the union of the demand rows' packed
bitsets, read from one cached table per (k, width) (``_value_bits``).

Witnesses are deterministic: the lexicographically least satisfying
assignment / proper coloring of the core (variable 1 most significant,
False < True, colors 1..k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .structures import BudgetExceededError, Formula, Hypergraph, dense_relabel
from .reduction import _k_core_trace, _peel_raw, _pure_literal_trace

_CHUNK = 1 << 16

SAT_CORE_BUDGET = 28  # largest core order t whose 2^t assignments are scanned
COLORING_BUDGET = 300_000_000  # most min(k, t)^t colorings scanned


def check_budget(t: int, k: int, signed: bool, budget: int | None = None) -> None:
    """Raise BudgetExceededError unless exhausting a core of order ``t`` is
    within ``budget``: its order for satisfiability (``signed``), the
    min(k, t)^t colorings ``least_coloring`` scans for k-colorability.
    ``None`` is SAT_CORE_BUDGET / COLORING_BUDGET as they stand at the call."""
    if signed:
        budget = SAT_CORE_BUDGET if budget is None else budget
        if t > budget:
            raise BudgetExceededError(f"core order {t} exceeds budget {budget}")
    else:
        budget = COLORING_BUDGET if budget is None else budget
        if min(k, t) ** t > budget:
            raise BudgetExceededError(f"{min(k, t)}^{t} colorings exceed budget {budget}")


# ---------------------------------------------------------------------------
# checking helpers

def satisfies(formula: Formula, assignment: tuple[bool, ...]) -> bool:
    return count_satisfied(formula, assignment) == formula.size


def count_satisfied(formula: Formula, assignment: tuple[bool, ...]) -> int:
    if len(assignment) != formula.order:
        raise ValueError("assignment length mismatch")
    return _count_satisfied(formula.rows(), assignment)


def _count_satisfied(clauses, assignment: tuple[bool, ...]) -> int:
    return sum(any((l > 0) == assignment[abs(l) - 1] for l in lits) for lits in clauses)


def proper_coloring(graph: Hypergraph, coloring: tuple[int, ...]) -> bool:
    """No edge monochromatic (weak hypergraph coloring)."""
    if len(coloring) != graph.order:
        raise ValueError("coloring length mismatch")
    return _is_proper(graph.edges, coloring)


def _is_proper(edges, coloring: tuple[int, ...]) -> bool:
    return all(len({coloring[v - 1] for v in e}) > 1 for e in edges)


# ---------------------------------------------------------------------------
# exhaustive scans.  Assignments of t variables with values 0..k-1 are
# numbered with variable 1 the most significant base-k digit, so ascending
# numbers are lexicographically ascending tuples.  A demand row is a set
# of ids k(v-1) + c, "variable v takes value c"; both models are scanned
# for the least assignment that meets none of their demand rows.

def _assignment_tuple(a: int, t: int) -> tuple[bool, ...]:
    return tuple(bool((a >> (t - i)) & 1) for i in range(1, t + 1))


@lru_cache(maxsize=64)  # a process meets few (k, low) pairs; at k <= 4 a table is <= 270 KB
def _value_bits(k: int, low: int) -> np.ndarray:
    """Read-only (k low + 1, ceil(k^low / 64)) uint64 table of the k^low
    assignments of ``low`` variables: bit a % 64 of word a // 64 stands
    for assignment a, and row k(v-1) + c is the bitset of the assignments
    under which variable v takes value c.  The last row is all ones, for
    variables above the chunk.  Pad bits past k^low are set in every row,
    so the first zero bit of an OR of ANDs of rows is never a pad bit."""
    codes = np.arange(-(-k ** low // 64) * 64)
    pad = codes >= k ** low
    table = np.full((k * low + 1, len(codes) // 64), 2 ** 64 - 1, dtype=np.uint64)
    for row in range(k * low):  # variable v = row // k + 1 is digit low - v of a code
        meets = (codes // k ** (low - 1 - row // k) % k == row % k) | pad
        table[row] = np.packbits(meets, bitorder="little").view("<u8")
    table.flags.writeable = False
    return table


def _padded(rows) -> np.ndarray:
    """The rows as one int array; a short row repeats its first entry,
    which leaves the AND of its rows unchanged."""
    width = max(map(len, rows), default=1)
    return np.array([r + r[:1] * (width - len(r)) for r in rows],
                    dtype=np.int64).reshape(-1, width)


def _demand_chunks(demand: np.ndarray, t: int, k: int):
    """Yield (first assignment, rows) for each chunk of k^low assignments,
    in ascending order, where k^low is the largest power of k within
    ``_CHUNK``.  A chunk fixes the digits of the t - low high variables;
    ``rows`` holds, for every demand row whose high ids the prefix meets,
    the bitset of the chunk's assignments that meet the row: the AND of
    its low ids' ``_value_bits`` rows."""
    low = 0
    while low < t and k ** (low + 1) <= _CHUNK:
        low += 1
    top = t - low
    table = _value_bits(k, low)
    if not top:
        yield 0, np.bitwise_and.reduce(table[demand], axis=1)
        return
    high = demand < k * top  # a high id reads the all-ones row
    rows = np.bitwise_and.reduce(table[np.where(high, len(table) - 1, demand - k * top)], axis=1)
    var = np.where(high, demand // k, top)  # a low id compares digit 0 with 0
    value = np.where(high, demand % k, 0)
    for h in range(k ** top):
        digits = np.array([h // k ** (top - v) % k for v in range(1, top + 1)] + [0])
        yield h * k ** low, rows[(digits[var] == value).all(axis=1)]


def _least_unmet(demand: np.ndarray, t: int, k: int) -> int | None:
    """Least assignment meeting no demand row, or None: the first zero
    bit of the OR of the chunks' rows."""
    for first, rows in _demand_chunks(demand, t, k):
        free = ~np.bitwise_or.reduce(rows, axis=0)
        hits = np.flatnonzero(free)
        if len(hits):
            word = int(free[hits[0]])
            return first + 64 * int(hits[0]) + (word & -word).bit_length() - 1
    return None


def _clause_demand(clauses) -> np.ndarray:
    """One demand row per clause, the values that falsify it: literal +-v
    is false when v takes value [negative] (the ids of ``isomorph._ids``)."""
    literals = _padded(clauses)
    return 2 * np.abs(literals) - 2 + (literals < 0)


def least_satisfying(clauses, t: int) -> int | None:
    """Least satisfying assignment of width-t clauses (bit t - v is
    variable v), or None."""
    return _least_unmet(_clause_demand(clauses), t, 2)


def max_satisfied_assignment(clauses, t: int) -> tuple[int, int]:
    """(maximum satisfiable count, least assignment attaining it): the
    first assignment falsifying the fewest clauses, counted by unpacking
    the clauses' falsifying bitsets (a pad bit falsifies every clause)."""
    fewest, best = len(clauses) + 1, 0
    for first, rows in _demand_chunks(_clause_demand(clauses), t, 2):
        falsified = np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1,
                                  bitorder="little").sum(axis=0)
        i = int(np.argmin(falsified))
        if falsified[i] < fewest:
            fewest, best = int(falsified[i]), first + i
    return len(clauses) - fewest, best


def least_coloring(edges, t: int, k: int) -> tuple[int, ...] | None:
    """Least proper k-coloring (vertex 1 most significant digit), or None:
    an edge is k demand rows, one per color its vertices could all take."""
    k = min(k, t)  # a vertex colored above t can move to a color no other vertex holds
    vertices = _padded(edges) - 1
    demand = (k * vertices[:, None, :] + np.arange(k)[:, None]).reshape(-1, vertices.shape[1])
    a = _least_unmet(demand, t, k)
    return None if a is None else tuple(a // k ** (t - v) % k + 1 for v in range(1, t + 1))


# ---------------------------------------------------------------------------
# satisfiability

@dataclass(frozen=True)
class SatVerdict:
    status: str  # "SAT" | "UNSAT"
    assignment: tuple[bool, ...]  # satisfying on SAT, a MaxSAT optimum on UNSAT
    max_satisfied: int
    muf: Formula | None
    muf_variables: tuple[int, ...] | None  # original labels of muf variables
    core_order: int
    core_size: int


def decide_sat(formula: Formula, core_budget: int | None = None) -> SatVerdict:
    """Pure-literal reduction, then exhaustion of the core.

    MaxSAT decomposes: clauses removed by the trace are all satisfied once
    their pure literals are set True, so the optimum is (removed clauses)
    + MaxSAT(core).  A core larger than ``core_budget`` (``None``:
    SAT_CORE_BUDGET at the call) raises BudgetExceededError; the answer is
    never guessed.
    """
    return _decide_sat(formula.order, formula.rows(), core_budget)


def _decide_sat(order: int, clauses: list, core_budget: int | None = None) -> SatVerdict:
    """``decide_sat`` on distinct sorted literal tuples over 1..order."""
    core, trace = _pure_literal_trace(order, clauses)
    t = len(trace.core_variables)
    check_budget(t, 1, True, core_budget)
    a = least_satisfying(core, t)
    max_sat = len(clauses)
    if a is None:
        best_count, a = max_satisfied_assignment(core, t)
        max_sat -= len(core) - best_count
    assignment = trace.extend_assignment(_assignment_tuple(a, t))
    if _count_satisfied(clauses, assignment) != max_sat:
        raise RuntimeError("lifted assignment fails verification")
    if max_sat == len(clauses):
        return SatVerdict("SAT", assignment, max_sat, None, None, t, len(core))
    support, muf = _minimal_witness(core, t, 1, True, core_budget)
    muf_vars = tuple(trace.core_variables[v - 1] for v in support)
    return SatVerdict("UNSAT", assignment, max_sat, Formula(len(support), muf), muf_vars,
                      t, len(core))


def _minimal_witness(items: list, order: int, k: int, signed: bool,
                     budget: int | None) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """``dense_relabel`` of a minimal failing subset of failing ``items``
    over 1..order, by deletion (Marques-Silva, ISMVL 2010): delete the items
    one at a time, in order, keeping each deletion after which the rest
    still fails ``_core_fails``.  That check is monotone in the items, so
    the result fails and no single-item deletion of it does."""
    kept = list(items)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if _core_fails(trial, order, k, signed, True, budget):
            kept = trial
        else:
            i += 1
    return dense_relabel(kept)


def _core_fails(items, order: int, k: int, signed: bool, exhaust: bool,
                budget: int | None = None) -> bool:
    """The core of ``items`` over 1..order is nonempty and, if ``exhaust``,
    has no satisfying assignment (``signed``, k = 1) or no proper
    k-coloring.  Monotone in the items; a core past ``check_budget`` raises
    BudgetExceededError."""
    core_idx, _, _ = _peel_raw(order, items, k, signed)
    if not (core_idx and exhaust):
        return bool(core_idx)
    support, core = dense_relabel([items[i] for i in core_idx])
    t = len(support)
    check_budget(t, k, signed, budget)
    if signed:
        return least_satisfying(core, t) is None
    return least_coloring(core, t, k) is None


def extract_muf(formula: Formula, core_budget: int | None = None) -> Formula:
    """Deletion-minimal unsatisfiable subformula, unused variables dropped.

    The result is unsatisfiable and every single-clause deletion of it is
    satisfiable.  Deletion candidates are re-checked through reduction
    plus exhaustion, so each of the O(size) checks touches only a core.
    """
    clauses = formula.rows()
    if not _core_fails(clauses, formula.order, 1, True, True, core_budget):
        raise ValueError("input formula is satisfiable; no MUF exists")
    support, muf = _minimal_witness(clauses, formula.order, 1, True, core_budget)
    return Formula(len(support), muf)


# ---------------------------------------------------------------------------
# k-colorability

@dataclass(frozen=True)
class ColorVerdict:
    colorable: bool
    coloring: tuple[int, ...] | None  # colors 1..k per vertex, when colorable
    obstruction: Hypergraph | None
    obstruction_vertices: tuple[int, ...] | None
    core_order: int
    core_size: int


def decide_colorable(graph: Hypergraph, k: int,
                     coloring_budget: int | None = None) -> ColorVerdict:
    """k-core reduction, then exhaustion of the core's k^t colorings.

    A graph is k-colorable iff its k-core is, and a coloring of the core
    extends greedily through the peel trace.  A non-colorable core is
    minimized edge-by-edge into a minimal non-k-colorable obstruction.
    ``coloring_budget`` (``None``: COLORING_BUDGET at the call) caps the
    colorings scanned.
    """
    return _decide_colorable(graph.order, graph.rows(), k, coloring_budget)


def _decide_colorable(order: int, edges: list, k: int,
                      coloring_budget: int | None = None) -> ColorVerdict:
    """``decide_colorable`` on distinct sorted edge tuples over 1..order."""
    core, trace = _k_core_trace(order, edges, k)
    t = len(trace.core_vertices)
    check_budget(t, k, False, coloring_budget)
    col = least_coloring(core, t, k)
    if col is not None:
        full = trace.extend_coloring(col)
        if not _is_proper(edges, full):
            raise RuntimeError("lifted coloring fails verification")
        return ColorVerdict(True, full, None, None, t, len(core))
    support, obstruction = _minimal_witness(core, t, k, False, coloring_budget)
    original = tuple(trace.core_vertices[v - 1] for v in support)
    return ColorVerdict(False, None, Hypergraph(len(support), obstruction), original,
                        t, len(core))
