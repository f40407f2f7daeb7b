"""Decision procedures: reduce to the core, then exhaust the core.

Satisfiability (with an exact MaxSAT count), minimal unsatisfiable
subformula extraction by deletion, and the k-colorability analogue with
minimal obstruction extraction.  Cores below the pure-literal / k-core
thresholds are almost always tiny, so exhausting 2^t assignments or k^t
colorings is cheap on typical inputs; a budget guards the exceptional
case and exceeding it raises rather than guessing.  Assignments are
exhausted as bitsets: one cached table per width gives each literal the
packed set of assignments that falsify it (``_false_bits``).

Witnesses are deterministic: the lexicographically least satisfying
assignment / proper coloring of the core (variable 1 most significant,
False < True, colors 1..k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .structures import BudgetExceededError, Formula, Hypergraph, dense_relabel
from .reduction import _k_core_raw, _k_core_trace, _pure_literal_raw, _pure_literal_trace

_CHUNK = 1 << 16

SAT_CORE_BUDGET = 28  # largest core order t whose 2^t assignments are scanned
COLORING_BUDGET = 300_000_000  # most k^t colorings scanned


def check_sat_budget(t: int, budget: int = SAT_CORE_BUDGET) -> None:
    """Raise BudgetExceededError unless order ``t`` is at most ``budget``."""
    if t > budget:
        raise BudgetExceededError(f"core order {t} exceeds budget {budget}")


def check_coloring_budget(k: int, t: int, budget: int = COLORING_BUDGET) -> None:
    """Raise BudgetExceededError unless k^t colorings are at most ``budget``."""
    if k ** t > budget:
        raise BudgetExceededError(f"{k}^{t} colorings exceed budget {budget}")


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
# exhaustive scans (assignment bit i encodes variable t-i: ascending ints
# are lexicographically ascending assignment tuples)

def _assignment_tuple(a: int, t: int) -> tuple[bool, ...]:
    return tuple(bool((a >> (t - i)) & 1) for i in range(1, t + 1))


@lru_cache(maxsize=17)  # one table per low <= 16, the largest 256 KB
def _false_bits(low: int) -> np.ndarray:
    """Read-only (2 low, max(1, 2^low / 64)) uint64 table of the
    assignments of width ``low``: bit a % 64 of word a // 64 stands for
    assignment a, and row 2(v-1) + [negative] (``isomorph._ids``) is the
    bitset of the assignments under which literal +-v is false.  Below
    low = 6 the one word repeats the 2^low assignments, so a pad bit past
    2^low is falsified exactly when its copy a % 2^low is, and the first
    zero bit of any union of rows is never a pad bit."""
    index = np.arange(max(1, 2 ** low // 64), dtype=np.uint64)
    table = np.empty((2 * low, len(index)), dtype=np.uint64)
    for v in range(1, low + 1):
        bit = low - v  # variable v is True in the assignments with this bit set
        if bit < 6:
            true = np.uint64(sum(1 << a for a in range(64) if a >> bit & 1))
        else:
            true = (index >> np.uint64(bit - 6) & np.uint64(1)) * np.uint64(2 ** 64 - 1)
        table[2 * v - 2] = ~true
        table[2 * v - 1] = true
    table.flags.writeable = False
    return table


def _falsified_chunks(clauses, t: int):
    """Yield (first assignment, rows) for each chunk of min(2^t, _CHUNK)
    assignments, in ascending order.  A chunk fixes the t - low high
    variables; ``rows`` holds, for every clause the high prefix leaves
    unsatisfied, the bitset of the chunk's assignments that falsify it:
    the AND of its low literals' ``_false_bits`` rows."""
    low = min(t, _CHUNK.bit_length() - 1)
    top = t - low
    table = _false_bits(low)
    width = max(map(len, clauses))
    # literal ids (isomorph._ids) less the high variables' 2 top; a short
    # clause repeats its first literal, which leaves its AND unchanged
    ids = np.array([[2 * abs(x) - 2 + (x < 0) for x in c + c[:1] * (width - len(c))]
                    for c in clauses]) - 2 * top
    if not top:
        yield 0, np.bitwise_and.reduce(table[ids], axis=1)
        return
    ids[ids < 0] = len(table)  # a high literal reads an all-ones row
    table = np.vstack([table, np.full(table.shape[1], 2 ** 64 - 1, dtype=np.uint64)])
    rows = np.bitwise_and.reduce(table[ids], axis=1)
    pos = np.array([sum(1 << (top - x) for x in c if 0 < x <= top) for c in clauses])
    neg = np.array([sum(1 << (top + x) for x in c if -top <= x < 0) for c in clauses])
    for h in range(2 ** top):  # variable v <= top is bit top - v of h
        yield h << low, rows[((h & pos) == 0) & ((h & neg) == neg)]


def least_satisfying(clauses, t: int) -> int | None:
    """Least satisfying assignment of width-t clauses, or None: the first
    assignment outside the union of the clauses' falsifying bitsets."""
    if not clauses:
        return 0
    for first, rows in _falsified_chunks(clauses, t):
        free = ~np.bitwise_or.reduce(rows, axis=0)
        hits = np.flatnonzero(free)
        if len(hits):
            word = int(free[hits[0]])
            return first + 64 * int(hits[0]) + (word & -word).bit_length() - 1
    return None


def max_satisfied_assignment(clauses, t: int) -> tuple[int, int]:
    """(maximum satisfiable count, least assignment attaining it): the
    first assignment falsifying the fewest clauses, counted by unpacking
    the clauses' falsifying bitsets."""
    if not clauses:
        return 0, 0
    size = min(2 ** t, _CHUNK)
    fewest, best = len(clauses) + 1, 0
    for first, rows in _falsified_chunks(clauses, t):
        bits = np.unpackbits(rows.astype("<u8", copy=False).view(np.uint8), axis=1,
                             bitorder="little")[:, :size]
        falsified = bits.sum(axis=0)
        i = int(np.argmin(falsified))
        if falsified[i] < fewest:
            fewest, best = int(falsified[i]), first + i
    return len(clauses) - fewest, best


@lru_cache(maxsize=32)  # a process meets few (k, low) pairs; the largest table is 1 MB
def _digit_table(k: int, low: int) -> np.ndarray:
    """Read-only (low, k^low) int8 table: row i holds digit i (most
    significant first) of every code 0..k^low - 1 in base k."""
    codes = np.arange(k ** low, dtype=np.int64)
    table = np.empty((low, len(codes)), dtype=np.int8)
    for i in range(low):
        table[i] = (codes // k ** (low - 1 - i)) % k
    table.flags.writeable = False
    return table


def least_coloring(edges, t: int, k: int) -> tuple[int, ...] | None:
    """Least proper k-coloring (vertex 1 most significant digit), or None.

    Scans chunks of k^low colorings, the largest power of k within
    ``_CHUNK``.  The low vertices' digits come from one table per
    (k, low), kept for the life of the process, and the high vertices'
    digits are fixed within a chunk, so an edge among low vertices masks
    every chunk alike and is checked once.
    """
    if t == 0:
        return ()
    low = 0
    while low < t and k ** (low + 1) <= _CHUNK:
        low += 1
    high = t - low
    digits = _digit_table(k, low)  # row v - high - 1 is vertex v's digit
    base = np.ones(digits.shape[1], dtype=bool)
    mixed = []  # (high vertices, low digit rows) of edges with a high vertex
    for e in edges:
        tops = [v for v in e if v <= high]
        lows = [digits[v - high - 1] for v in e if v > high]
        if tops:
            mixed.append((tops, lows))
        else:
            base &= ~np.logical_and.reduce([d == lows[0] for d in lows[1:]])
    if not base.any():
        return None
    for chunk, top in enumerate(itertools.product(range(k), repeat=high)):
        ok = base
        for tops, lows in mixed:
            color = top[tops[0] - 1]
            if all(top[v - 1] == color for v in tops):
                ok = ok & ~np.logical_and.reduce([d == color for d in lows])
                if not ok.any():
                    break
        hits = np.flatnonzero(ok)
        if len(hits):
            a = chunk * digits.shape[1] + int(hits[0])
            return tuple((a // k ** (t - v)) % k + 1 for v in range(1, t + 1))
    return None


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


def decide_sat(formula: Formula, core_budget: int = SAT_CORE_BUDGET) -> SatVerdict:
    """Pure-literal reduction, then exhaustion of the core.

    MaxSAT decomposes: clauses removed by the trace are all satisfied once
    their pure literals are set True, so the optimum is (removed clauses)
    + MaxSAT(core).  A core larger than ``core_budget`` raises
    BudgetExceededError; the answer is never guessed.
    """
    return _decide_sat(formula.order, formula.rows(), core_budget)


def _decide_sat(order: int, clauses: list, core_budget: int) -> SatVerdict:
    """``decide_sat`` on distinct sorted literal tuples over 1..order."""
    core, trace = _pure_literal_trace(order, clauses)
    t = len(trace.core_variables)
    check_sat_budget(t, core_budget)
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
    support, muf = dense_relabel(_minimal(core, lambda kept: _is_unsat(kept, core_budget)))
    muf_vars = tuple(trace.core_variables[v - 1] for v in support)
    return SatVerdict("UNSAT", assignment, max_sat, Formula(len(support), muf), muf_vars,
                      t, len(core))


def _minimal(items: list, still_fails) -> list:
    """Deletion-based minimization (Marques-Silva, ISMVL 2010): delete the
    items one at a time, in order, keeping each deletion after which
    ``still_fails`` holds.  For a monotone property of a failing input,
    the result fails and no single-item deletion of it does."""
    kept = list(items)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if still_fails(trial):
            kept = trial
        else:
            i += 1
    return kept


def _is_unsat(clause_literals, core_budget: int) -> bool:
    core_idx, _, _ = _pure_literal_raw(list(clause_literals))
    if not core_idx:
        return False
    support, core = dense_relabel([clause_literals[i] for i in core_idx])
    check_sat_budget(len(support), core_budget)
    return least_satisfying(core, len(support)) is None


def extract_muf(formula: Formula, core_budget: int = SAT_CORE_BUDGET) -> Formula:
    """Deletion-minimal unsatisfiable subformula, unused variables dropped.

    The result is unsatisfiable and every single-clause deletion of it is
    satisfiable.  Deletion candidates are re-checked through reduction
    plus exhaustion, so each of the O(size) checks touches only a core.
    """
    clauses = formula.rows()
    if not _is_unsat(clauses, core_budget):
        raise ValueError("input formula is satisfiable; no MUF exists")
    support, muf = dense_relabel(_minimal(clauses, lambda kept: _is_unsat(kept, core_budget)))
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
                     coloring_budget: int = COLORING_BUDGET) -> ColorVerdict:
    """k-core reduction, then exhaustion of the core's k^t colorings.

    A graph is k-colorable iff its k-core is, and a coloring of the core
    extends greedily through the peel trace.  A non-colorable core is
    minimized edge-by-edge into a minimal non-k-colorable obstruction.
    """
    return _decide_colorable(graph.order, graph.rows(), k, coloring_budget)


def _decide_colorable(order: int, edges: list, k: int, coloring_budget: int) -> ColorVerdict:
    """``decide_colorable`` on distinct sorted edge tuples over 1..order."""
    core, trace = _k_core_trace(order, edges, k)
    t = len(trace.core_vertices)
    check_coloring_budget(k, t, coloring_budget)
    col = least_coloring(core, t, k)
    if col is not None:
        full = trace.extend_coloring(col)
        if not _is_proper(edges, full):
            raise RuntimeError("lifted coloring fails verification")
        return ColorVerdict(True, full, None, None, t, len(core))
    support, obstruction = dense_relabel(
        _minimal(core, lambda kept: _is_noncolorable(t, kept, k, coloring_budget)))
    original = tuple(trace.core_vertices[v - 1] for v in support)
    return ColorVerdict(False, None, Hypergraph(len(support), obstruction), original,
                        t, len(core))


def _is_noncolorable(n: int, edges, k: int, coloring_budget: int) -> bool:
    core_idx, _, _ = _k_core_raw(n, list(edges), k)
    if not core_idx:
        return False
    support, core = dense_relabel([edges[i] for i in core_idx])
    check_coloring_budget(k, len(support), coloring_budget)
    return least_coloring(core, len(support), k) is None
