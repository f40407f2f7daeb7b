"""Canonical keys and automorphism counts of small structures.

Formulas are isomorphic under signed variable permutations (relabel the
variables and optionally swap a variable's two literals: a group of size
2^t * t! on support size t); hypergraphs under vertex permutations.  Keys
are exact: equal keys iff isomorphic.

Two engines compute the same canonical form.  For one clause width and a
group table within ``_TABLE_ENTRY_CAP``, every group element's image is
formed with numpy, as rows of clause bitmasks; the least row is the
canonical form and the number of elements reaching it is the
automorphism count.  Mixed widths and larger supports go to a level-wise
least-prefix search, after the least-leaf search of canonical labeling
(McKay & Piperno, J. Symbolic Comput. 60 (2014) 94-112): it labels one
more variable per level in every kept partial labeling and keeps only
those whose emitted part of the encoding is least.  Its memory grows
with the kept level, which is never smaller than the automorphism count;
a level past ``_TABLE_ENTRY_CAP`` entries (labelings x support) raises
BudgetExceededError.
Both minimize the same encoding: clauses written as descending
literal-id tuples, listed in ascending order.  Isolated variables are
split off first; they only contribute a count to the key and a
factorial (times 2^m for formulas) to the automorphism count.
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
# unsigned at 9 fit; 165M signed at 8 and 36M unsigned at 10 do not.  Also
# the largest least-prefix level kept, in labelings x support entries.
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


def _check_entries(entries: int, what: str) -> None:
    """Raise BudgetExceededError, naming ``what``, past ``_TABLE_ENTRY_CAP`` entries."""
    if entries > _TABLE_ENTRY_CAP:
        raise BudgetExceededError(
            f"{what} of {entries:,} entries exceeds cap {_TABLE_ENTRY_CAP:,}")


@lru_cache(maxsize=None)
def _bit_table(t: int, signed: bool) -> np.ndarray:
    """(group size, ids) array: bit of each id's image under each group element."""
    _check_entries(_table_entries(t, signed), f"support {t}: group table")
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


def _anchored_images(t: int, rows: list[tuple[int, ...]], signed: bool) -> np.ndarray:
    """The orbit rows, each sorted, whose least clause is the least over
    the group: the rows ``_least_image`` narrows."""
    masks = _orbit_masks(t, rows, signed)
    low = masks.min(axis=1)
    masks = masks[low == low.min()]
    masks.sort(axis=1)
    return masks


def _anchored_row(items, signed: bool):
    """(order, sorted clause masks) of int-tuple ``items`` relabeled so that
    the first item is item 0 (points 1..r, negative literals' variables
    flipped; the rest ascending): one of the class's ``_anchored_images``."""
    width = 2 if signed else 1
    code = {abs(x): width * i + (x < 0) for i, x in enumerate(items[0])}
    for v in sorted({abs(x) for item in items for x in item} - code.keys()):
        code[v] = width * len(code)
    return len(code), tuple(sorted(_pack_row(code[abs(x)] ^ (x < 0) for x in it) for it in items))


def _least_image(images: np.ndarray):
    """(encoding of the least of the anchored ``images``, number of group
    elements mapping onto it): narrowed column by column, the survivors
    form a coset of the automorphism group."""
    for j in range(1, images.shape[1]):
        images = images[images[:, j] == images[:, j].min()]
    return _decode_orbit_row(images[0]), len(images)


def _pack_row(ids) -> int:
    return sum(1 << l for l in ids)


def _decode_orbit_row(row) -> tuple[tuple[int, ...], ...]:
    """Clause masks back to descending literal-id tuples."""
    return tuple(tuple(l for l in range(m.bit_length() - 1, -1, -1) if m >> l & 1)
                 for m in map(int, row))


# ---------------------------------------------------------------------------
# least-prefix engine (any widths, any support size)

_END = (float("inf"),)  # ends a block; sorts above every clause


def _canonical_levels(t: int, rows: list[tuple[int, ...]], signed: bool):
    """Minimum encoding over the group, plus the automorphism count.

    Level i places one more variable at label i in every kept node, and
    for a formula chooses its flip: a node holds each variable's code,
    2 * label + flip (the label for a hypergraph; -1 while unplaced), so
    literal (v, s) gets id code[v] ^ s.  A clause is emitted, in its
    level's sorted block, once its last variable is placed.  Its leading
    id is then that variable's, above every id emitted before, so the
    blocks concatenate to the encoding.  A child whose block, ended by
    ``_END``, is not the least of its level therefore loses for every
    completion, while every labeling reaching the minimum keeps the least
    block at each level: the kept nodes share one emitted prefix, and the
    last level holds one node per automorphism.
    """
    width = 2 if signed else 1
    by_var: list[list] = [[] for _ in range(t)]  # (v's sign, the other literals)
    for row in rows:
        lits = [divmod(l, width) for l in row]
        for j, (v, s) in enumerate(lits):
            by_var[v].append((s, lits[:j] + lits[j + 1:]))
    encoding: list[tuple[int, ...]] = []
    level = [(-1,) * t]
    what = f"support {t}: least-prefix level"
    for i in range(t):
        least, kept = None, []
        while level:  # each node is freed once its children are made
            node = level.pop()
            for u in range(t):
                if node[u] != -1:
                    continue
                # (u's sign, the other ids descending) of each clause u completes
                completed = [(s, sorted((node[w] ^ sw for w, sw in rest), reverse=True))
                             for s, rest in by_var[u] if all(node[w] != -1 for w, _ in rest)]
                for code in range(width * i, width * i + width):
                    block = sorted((code ^ s, *rest) for s, rest in completed)
                    block.append(_END)
                    if least is None or block < least:
                        least, kept = block, []
                    if block == least:
                        kept.append(node[:u] + (code,) + node[u + 1:])
            _check_entries(len(kept) * t, what)
        encoding += least[:-1]
        level = kept
    return tuple(encoding), len(level)


# ---------------------------------------------------------------------------
# dispatch

def _support_canonical(t, rows, signed):
    """(encoding, support automorphism count) for a structure with no isolates."""
    if t == 0:
        return (), 1
    if len({len(r) for r in rows}) == 1 and _table_entries(t, signed) <= _TABLE_ENTRY_CAP:
        return _least_image(_anchored_images(t, rows, signed))
    return _canonical_levels(t, rows, signed)


def _render(signed: bool, t: int, isolated: int, encoding) -> bytes:
    body = ";".join(",".join(map(str, cl)) for cl in encoding)
    return f"{'F' if signed else 'G'}|{t}|{isolated}|{body}".encode("ascii")


def _ids(item, signed: bool) -> tuple[int, ...]:
    """An item's literal ids: 2(v-1) + [negative] when signed, else v-1."""
    return tuple(2 * (abs(x) - 1) + (x < 0) if signed else x - 1 for x in item)


def _parts(structure, action: str):
    """(support size, dense items as ids, isolated count, signed)."""
    if type(structure) not in MODELS.values():
        raise TypeError(f"cannot {action} {type(structure).__name__}")
    if structure.order > DEFAULT_ORDER_CAP:
        raise BudgetExceededError(
            f"order {structure.order} exceeds canonicalization cap {DEFAULT_ORDER_CAP}"
        )
    signed = structure.signed
    support, dense = dense_relabel(structure.rows())
    rows = [_ids(item, signed) for item in dense]
    return len(support), rows, structure.order - len(support), signed


def canonical_key(structure) -> bytes:
    """Deterministic key equal for two structures iff they are isomorphic."""
    t, rows, isolated, signed = _parts(structure, "canonicalize")
    encoding, _ = _support_canonical(t, rows, signed)
    return _render(signed, t, isolated, encoding)


def automorphism_count(structure) -> int:
    """Size of the automorphism group (signed permutations for formulas)."""
    t, rows, isolated, signed = _parts(structure, "count automorphisms of")
    _, aut = _support_canonical(t, rows, signed)
    return aut * sign_factor(structure.model, isolated) * factorial(isolated)


def _from_encoding(t: int, encoding, signed: bool):
    """The structure on 1..t whose items have the given literal ids (see _ids)."""
    if signed:
        return Formula(t, [[(l // 2 + 1) * (1 - 2 * (l % 2)) for l in cl] for cl in encoding])
    return Hypergraph(t, [[l + 1 for l in cl] for cl in encoding])

