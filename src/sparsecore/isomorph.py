"""Canonical keys, automorphism counts and copy finding for small structures.

Formulas are isomorphic under signed variable permutations (relabel the
variables and optionally swap a variable's two literals: a group of size
2^t * t! on support size t); hypergraphs under vertex permutations.  Keys
are exact: equal keys iff isomorphic.

Two engines compute the same canonical form.  For small supports every
group element's image of the labeled structure is formed with numpy, as
rows of clause bitmasks; the least row is the canonical form, the number
of elements reaching it is the automorphism count, and the distinct rows
are the labeled images of the structure.  Above the orbit limit a
pruned branch-and-bound search over label assignments is used.  Both
minimize the same encoding: clauses written as descending literal-id
tuples, listed in ascending order.  Isolated variables are split off
first; they only contribute a count to the key and a factorial (times
2^m for formulas) to the automorphism count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial

import numpy as np

from .structures import (
    BudgetExceededError,
    Clause,
    Formula,
    Hypergraph,
    dense_relabel,
)

DEFAULT_ORDER_CAP = 16
_FORMULA_ORBIT_MAX = 7
_HYPERGRAPH_ORBIT_MAX = 8
# Largest group table built, in entries: the signed table at support 7 has
# 9.0M and the unsigned one at 9 has 3.3M; the signed one at 8 has 165M.
_TABLE_ENTRY_CAP = 1 << 24


# ---------------------------------------------------------------------------
# orbit engine.  A clause is the bitmask of its literal ids (sum of 1 << id);
# for sets of one width, bitmask order is the order of descending id tuples,
# so the least sorted row of clause masks is the least encoding.

def _signed_lit_maps(t: int) -> np.ndarray:
    """(2^t * t!, 2t) array: image of each literal id under each group element."""
    perms = np.array(list(itertools.permutations(range(t))), dtype=np.int8)
    flips = ((np.arange(2 ** t, dtype=np.uint32)[:, None] >> np.arange(t)) & 1).astype(np.int8)
    maps = np.empty((len(perms), 2 ** t, 2 * t), dtype=np.int8)
    for lit in range(2 * t):
        v, s = divmod(lit, 2)
        maps[:, :, lit] = perms[:, v][:, None] * 2 + (flips[:, v][None, :] ^ s)
    return maps.reshape(-1, 2 * t)


def _check_table(t: int, signed: bool, what: str) -> None:
    """Raise BudgetExceededError, naming ``what``, if the group table of
    support ``t`` would exceed ``_TABLE_ENTRY_CAP`` entries."""
    entries = (2 ** t * 2 * t if signed else t) * factorial(t)
    if entries > _TABLE_ENTRY_CAP:
        raise BudgetExceededError(
            f"{what}: group table of {entries:,} entries exceeds cap {_TABLE_ENTRY_CAP:,}")


@lru_cache(maxsize=None)
def _bit_table(t: int, signed: bool) -> np.ndarray:
    """(group size, ids) array: bit of each id's image under each group element."""
    _check_table(t, signed, f"support {t}")
    maps = _signed_lit_maps(t) if signed else \
        np.array(list(itertools.permutations(range(t))), dtype=np.int8)
    dtype = np.min_scalar_type((1 << maps.shape[1]) - 1)  # unsigned, holds any clause mask
    return np.left_shift(1, maps.astype(dtype), dtype=dtype)


def _orbit_masks(t: int, rows: list[tuple[int, ...]], signed: bool) -> np.ndarray:
    """(group size, clauses) array: each clause's image mask under each group element."""
    table = _bit_table(t, signed)
    cols = np.array(rows, dtype=np.int64).T
    masks = table[:, cols[0]]
    for col in cols[1:]:
        masks |= table[:, col]
    return masks


def _orbit_rows(t: int, rows: list[tuple[int, ...]], signed: bool) -> np.ndarray:
    """Distinct labeled images as sorted rows of clause masks, sorted; one row per image."""
    masks = _orbit_masks(t, rows, signed)
    masks.sort(axis=1)
    return np.unique(masks, axis=0)


def _least_image(t: int, rows: list[tuple[int, ...]], signed: bool):
    """(least orbit row, number of group elements mapping onto it).

    Only the rows holding the least clause are sorted, then narrowed
    column by column; the survivors form a coset of the automorphism group.
    """
    masks = _orbit_masks(t, rows, signed)
    low = masks.min(axis=1)
    masks = masks[low == low.min()]
    masks.sort(axis=1)
    for j in range(1, masks.shape[1]):
        masks = masks[masks[:, j] == masks[:, j].min()]
    return masks[0], len(masks)


def _pack_row(ids) -> int:
    return sum(1 << l for l in ids)


def _decode_orbit_row(row) -> tuple[tuple[int, ...], ...]:
    """Clause masks back to descending literal-id tuples."""
    return tuple(tuple(l for l in range(m.bit_length() - 1, -1, -1) if m >> l & 1)
                 for m in map(int, row))


# ---------------------------------------------------------------------------
# branch-and-bound engine (any widths, any support size)

def _canonical_dfs(t: int, rows: list[tuple[int, ...]], signed: bool):
    """Minimum encoding over the group, plus the automorphism count.

    Assigns new labels 1..t to variables one at a time; a clause is
    emitted when its last variable is labeled, so the emitted key stream
    is ascending and prefixes compare against the incumbent best.
    """
    clause_lits = [[(l // 2, l % 2) if signed else (l, 0) for l in row] for row in rows]
    by_var: list[list[int]] = [[] for _ in range(t)]
    for ci, lits in enumerate(clause_lits):
        for v, _ in lits:
            by_var[v].append(ci)
    flips = (0, 1) if signed else (0,)
    best: list[tuple[int, ...]] | None = None
    best_count = 0
    label = [-1] * t
    flip = [0] * t
    missing = [len(lits) for lits in clause_lits]

    def clause_key(ci: int) -> tuple[int, ...]:
        if signed:
            ids = [2 * label[v] + (s ^ flip[v]) for v, s in clause_lits[ci]]
        else:
            ids = [label[v] for v, _ in clause_lits[ci]]
        return tuple(sorted(ids, reverse=True))

    def rec(step: int, stream: list):
        nonlocal best, best_count
        if step == t:
            if best is None or stream < best:
                best = list(stream)
                best_count = 1
            elif stream == best:
                best_count += 1
            return
        candidates = []
        for u in range(t):
            if label[u] != -1:
                continue
            for f in flips:
                label[u] = step
                flip[u] = f
                block = sorted(clause_key(ci) for ci in by_var[u] if missing[ci] == 1)
                label[u] = -1
                flip[u] = 0
                candidates.append((block, u, f))
        candidates.sort(key=lambda c: c[0])
        for block, u, f in candidates:
            if best is not None and stream + block > best[:len(stream) + len(block)]:
                continue
            label[u] = step
            flip[u] = f
            for ci in by_var[u]:
                missing[ci] -= 1
            stream.extend(block)
            rec(step + 1, stream)
            del stream[len(stream) - len(block):]
            for ci in by_var[u]:
                missing[ci] += 1
            label[u] = -1
            flip[u] = 0
        return

    rec(0, [])
    assert best is not None
    return tuple(best), best_count


# ---------------------------------------------------------------------------
# dispatch

def _support_canonical(t, rows, signed, orbit_max):
    """(encoding, support automorphism count) for a structure with no isolates."""
    if t == 0:
        return (), 1
    if t <= orbit_max and len({len(r) for r in rows}) == 1:
        row, aut = _least_image(t, rows, signed)
        return _decode_orbit_row(row), aut
    return _canonical_dfs(t, rows, signed)


def _render(kind: str, t: int, isolated: int, encoding) -> bytes:
    body = ";".join(",".join(map(str, cl)) for cl in encoding)
    return f"{kind}|{t}|{isolated}|{body}".encode("ascii")


# Per structure type: key letter, signed group, orbit limit, and the items
# as sorted int tuples (signed literals or vertices; abs() is the variable).
_MODELS = {
    Formula: ("F", True, _FORMULA_ORBIT_MAX, lambda f: sorted(c.literals for c in f.clauses)),
    Hypergraph: ("G", False, _HYPERGRAPH_ORBIT_MAX, lambda g: sorted(g.edges)),
}


def _model(structure, action: str):
    if type(structure) not in _MODELS:
        raise TypeError(f"cannot {action} {type(structure).__name__}")
    return _MODELS[type(structure)]


def _parts(structure, action: str, order_cap: int | None = None):
    """(key letter, support size, rows, isolated count, signed, orbit limit).

    Rows are the items on the dense support as literal ids: 2*(v-1), plus
    1 for a negative literal, for formulas; v-1 for hypergraphs.
    """
    letter, signed, omax, items = _model(structure, action)
    if order_cap is not None and structure.order > order_cap:
        raise BudgetExceededError(
            f"order {structure.order} exceeds canonicalization cap {order_cap}"
        )
    support, dense = dense_relabel(items(structure))
    step = 2 if signed else 1
    rows = [tuple(step * (abs(x) - 1) + (x < 0) for x in item) for item in dense]
    return letter, len(support), rows, structure.order - len(support), signed, omax


def canonical_key(structure, order_cap: int = DEFAULT_ORDER_CAP) -> bytes:
    """Deterministic key equal for two structures iff they are isomorphic."""
    kind, t, rows, isolated, signed, omax = _parts(structure, "canonicalize", order_cap)
    encoding, _ = _support_canonical(t, rows, signed, omax)
    return _render(kind, t, isolated, encoding)


def automorphism_count(structure, order_cap: int = DEFAULT_ORDER_CAP) -> int:
    """Size of the automorphism group (signed permutations for formulas)."""
    _, t, rows, isolated, signed, omax = _parts(structure, "count automorphisms of", order_cap)
    _, aut = _support_canonical(t, rows, signed, omax)
    return aut * (2 ** isolated if signed else 1) * factorial(isolated)


def distinct_relabelings(structure):
    """All distinct labeled forms of a structure on its own (dense) support.

    Requires no isolated variables and a support within the orbit limit.
    The list has length group_size / automorphism_count.
    """
    _, t, rows, isolated, signed, omax = _parts(structure, "relabel")
    if isolated:
        raise ValueError("structure has isolated variables")
    if t == 0:
        return [structure]
    if t > omax:
        raise BudgetExceededError(f"support {t} exceeds orbit limit {omax}")
    if len({len(r) for r in rows}) != 1:
        raise ValueError("mixed clause widths")
    return [_from_encoding(t, _decode_orbit_row(row), signed)
            for row in _orbit_rows(t, rows, signed)]


def _from_encoding(t: int, encoding, signed: bool):
    """The structure on 1..t whose clauses are the given literal-id tuples."""
    if signed:
        return Formula(t, [Clause(tuple((l // 2 + 1) * (1 - 2 * (l % 2)) for l in cl))
                           for cl in encoding])
    return Hypergraph(t, [tuple(sorted(l + 1 for l in cl)) for cl in encoding])


# ---------------------------------------------------------------------------
# copy finding

def find_copies(pattern, host, order_cap: int = DEFAULT_ORDER_CAP):
    """Yield each substructure of ``host`` isomorphic to ``pattern`` less its
    isolated variables, once, as (variables, items).

    Both are frozensets in host labels; items are int tuples (signed
    literals or vertices).  Every subset of host items of the pattern's
    size that touches as many variables as the pattern's support is keyed
    and compared.  Nothing is yielded when the pattern has more variables
    or items than the host, so a copy exists iff ``count_copies`` > 0.
    """
    _, _, _, items = _model(pattern, "find copies of")
    if type(host) is not type(pattern):
        raise TypeError("pattern and host must be the same kind")
    if pattern.order > host.order or pattern.size > host.size:
        return
    support, dense = dense_relabel(items(pattern))
    target = canonical_key(type(pattern)(len(support), dense), order_cap)
    for subset in itertools.combinations(items(host), pattern.size):
        used = frozenset(abs(x) for item in subset for x in item)
        if len(used) != len(support):
            continue
        if canonical_key(type(host)(len(used), dense_relabel(subset)[1]), order_cap) == target:
            yield used, frozenset(subset)


def count_copies(pattern, host, order_cap: int = DEFAULT_ORDER_CAP) -> int:
    """Number of distinct substructures of ``host`` isomorphic to ``pattern``.

    A substructure is a variable subset together with a clause subset over
    it; isolated variables of the pattern are matched by arbitrary extra
    host variables.
    """
    return sum(comb(host.order - len(used), pattern.order - len(used))
               for used, _ in find_copies(pattern, host, order_cap))
