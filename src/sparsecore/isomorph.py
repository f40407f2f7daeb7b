"""Canonical keys and automorphism counts of small structures.

Formulas are isomorphic under signed variable permutations (relabel the
variables and optionally swap a variable's two literals: a group of size
2^t * t! on support size t); hypergraphs under vertex permutations.  Keys
are exact: equal keys iff isomorphic.

Two engines compute the same canonical form.  For one clause width and a
group table within ``_TABLE_ENTRY_CAP``, every group element's image is
formed with numpy, as rows of clause bitmasks; the least row is the
canonical form and the number of elements reaching it is the
automorphism count.  Otherwise a pruned branch-and-bound search over
labelings is used.  Both minimize the same encoding: clauses written as
descending literal-id tuples, listed in ascending order.  Isolated
variables are split off first; they only contribute a count to the key
and a factorial (times 2^m for formulas) to the automorphism count.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial

import numpy as np

from .structures import (
    MODELS,
    BudgetExceededError,
    Formula,
    Hypergraph,
    dense_relabel,
    sign_factor,
)

DEFAULT_ORDER_CAP = 16  # largest order keyed or counted
# Largest group table built, in entries: 9.0M signed at support 7 and 3.3M
# unsigned at 9 fit; 165M signed at 8 and 36M unsigned at 10 do not.
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


def _table_entries(t: int, signed: bool) -> int:
    """Entries of the group table of support ``t``: one per (element, id)."""
    return (2 ** t * 2 * t if signed else t) * factorial(t)


def _check_table(t: int, signed: bool, what: str) -> None:
    """Raise BudgetExceededError, naming ``what``, if the group table of
    support ``t`` would exceed ``_TABLE_ENTRY_CAP`` entries."""
    entries = _table_entries(t, signed)
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

def _support_canonical(t, rows, signed):
    """(encoding, support automorphism count) for a structure with no isolates."""
    if t == 0:
        return (), 1
    if len({len(r) for r in rows}) == 1 and _table_entries(t, signed) <= _TABLE_ENTRY_CAP:
        row, aut = _least_image(t, rows, signed)
        return _decode_orbit_row(row), aut
    return _canonical_dfs(t, rows, signed)


def _render(kind: str, t: int, isolated: int, encoding) -> bytes:
    body = ";".join(",".join(map(str, cl)) for cl in encoding)
    return f"{kind}|{t}|{isolated}|{body}".encode("ascii")


def _ids(item, signed: bool) -> tuple[int, ...]:
    """An item's literal ids: 2(v-1) + [negative] when signed, else v-1."""
    return tuple(2 * (abs(x) - 1) + (x < 0) if signed else x - 1 for x in item)


def _parts(structure, action: str):
    """(key letter, support size, dense items as ids, isolated count, signed)."""
    if type(structure) not in MODELS.values():
        raise TypeError(f"cannot {action} {type(structure).__name__}")
    if structure.order > DEFAULT_ORDER_CAP:
        raise BudgetExceededError(
            f"order {structure.order} exceeds canonicalization cap {DEFAULT_ORDER_CAP}"
        )
    signed = structure.signed
    support, dense = dense_relabel(structure.rows())
    rows = [_ids(item, signed) for item in dense]
    return "F" if signed else "G", len(support), rows, structure.order - len(support), signed


def canonical_key(structure) -> bytes:
    """Deterministic key equal for two structures iff they are isomorphic."""
    kind, t, rows, isolated, signed = _parts(structure, "canonicalize")
    encoding, _ = _support_canonical(t, rows, signed)
    return _render(kind, t, isolated, encoding)


def automorphism_count(structure) -> int:
    """Size of the automorphism group (signed permutations for formulas)."""
    _, t, rows, isolated, signed = _parts(structure, "count automorphisms of")
    _, aut = _support_canonical(t, rows, signed)
    return aut * sign_factor(structure.model, isolated) * factorial(isolated)


def _from_encoding(t: int, encoding, signed: bool):
    """The structure on 1..t whose items have the given literal ids (see _ids)."""
    if signed:
        return Formula(t, [[(l // 2 + 1) * (1 - 2 * (l % 2)) for l in cl] for cl in encoding])
    return Hypergraph(t, [[l + 1 for l in cl] for cl in encoding])

