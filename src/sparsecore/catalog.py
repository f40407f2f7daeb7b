"""Catalogs of small obstructions, enumerated exhaustively up to isomorphism.

One engine serves formulas and hypergraphs.  A full formula is a cover
of degree 2 (every variable occurs once per sign), a k-dense r-uniform
hypergraph one of degree k, and a cover of excess s in which every point
has degree >= d has at most r*s/((d-1)(r-1)-1) points (r*s/(r-2) for
full formulas), so the classes with excess below a bound form a finite,
enumerable catalog.  Enumeration runs per (order, size) cell as a
lexicographic set search pruned by the coverage deficit (occurrences
still owed), over the covers through item 0 only (every orbit holds
some), and deduplicates by orbit: the first time a labeled structure is
seen, the images of it that hold item 0 enter the seen-set, which also
yields the automorphism count and canonical key for free.  A cell whose
group table would pass ``isomorph._TABLE_ENTRY_CAP`` raises
BudgetExceededError before any cell is searched.

Entries are classified by brute force within the solver's budgets
(satisfiability over 2^t assignments, weak colorability over k^t
colorings) and, when the catalog is complete, by minimality: the
structure has a nonempty core and no single-item deletion of it has one
(the failure test of the event the catalog serves, ``predictor.EVENTS``).
Catalogs serialize to JSON so expensive enumerations are computed once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, replace
from math import floor
from pathlib import Path

from . import isomorph
from .predictor import EVENTS
from .sampling import _candidates
from .solver import check_coloring_budget, check_sat_budget, least_coloring, least_satisfying
from .structures import MODELS, Formula, Hypergraph

CATALOG_FORMAT_VERSION = 1

# Each model's catalog JSON vocabulary: the items' name and the flags, in order.
_KINDS = {
    "sat": ("clauses", ("is_full", "is_mff", "is_satisfiable", "is_muf")),
    "hypergraph": ("edges", ("is_k_dense", "is_minimal_k_dense",
                             "is_k_colorable", "is_min_non_k_colorable")),
}

FLAG_ATTRS = {attr.removeprefix("is_"): attr for _, flags in _KINDS.values() for attr in flags}


def _kind(kind: str) -> tuple[str, tuple[str, ...]]:
    if kind not in _KINDS:
        raise ValueError(f"unknown catalog kind {kind!r}; one of {sorted(_KINDS)}")
    return _KINDS[kind]


@dataclass(frozen=True)
class CatalogEntry:
    kind: str  # "sat" | "hypergraph"
    structure: object  # Formula | Hypergraph
    order: int
    size: int
    excess: int
    aut_count: int
    iso_key: bytes
    is_full: bool | None = None
    is_mff: bool | None = None
    is_satisfiable: bool | None = None
    is_muf: bool | None = None
    is_k_dense: bool | None = None
    is_minimal_k_dense: bool | None = None
    is_k_colorable: bool | None = None
    is_min_non_k_colorable: bool | None = None


@dataclass(frozen=True)
class Catalog:
    kind: str
    r: int
    k: int | None
    max_excess: int
    order_cap: int
    size_cap: int
    complete: bool
    entries: tuple[CatalogEntry, ...]

    def with_flag(self, flag: str) -> tuple[CatalogEntry, ...]:
        attr = FLAG_ATTRS[flag]
        return tuple(e for e in self.entries if getattr(e, attr) is True)

    def by_key(self) -> dict[bytes, CatalogEntry]:
        return {e.iso_key: e for e in self.entries}

    def max_order(self) -> int:
        return max((e.order for e in self.entries), default=0)

    def to_json_dict(self) -> dict:
        items, flags = _kind(self.kind)
        entries = [{
            "order": e.order, "size": e.size, "excess": e.excess,
            "aut_count": e.aut_count, "iso_key": e.iso_key.decode("ascii"),
            items: [list(item) for item in e.structure.rows()],
            "flags": {attr: getattr(e, attr) for attr in flags},
        } for e in self.entries]
        return {
            "format_version": CATALOG_FORMAT_VERSION,
            "kind": self.kind,
            "r": self.r,
            "k": self.k,
            "max_excess": self.max_excess,
            "order_cap": self.order_cap,
            "size_cap": self.size_cap,
            "complete": self.complete,
            "entries": entries,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Catalog":
        if data.get("format_version") != CATALOG_FORMAT_VERSION:
            raise ValueError(f"unsupported catalog format {data.get('format_version')}")
        kind = data["kind"]
        items, _ = _kind(kind)
        entries = tuple(CatalogEntry(
            kind=kind, structure=MODELS[kind](rec["order"], [tuple(x) for x in rec[items]]),
            order=rec["order"], size=rec["size"], excess=rec["excess"],
            aut_count=rec["aut_count"], iso_key=rec["iso_key"].encode("ascii"), **rec["flags"],
        ) for rec in data["entries"])
        return cls(kind=kind, r=data["r"], k=data["k"], max_excess=data["max_excess"],
                   order_cap=data["order_cap"], size_cap=data["size_cap"],
                   complete=data["complete"], entries=entries)


def save_catalog(catalog: Catalog, path) -> None:
    Path(path).write_text(json.dumps(catalog.to_json_dict(), indent=1) + "\n")


def load_catalog(path) -> Catalog:
    return Catalog.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# brute-force classification

def _minimal_failing(items: list, fails) -> bool:
    """``fails(items)`` holds and fails for no single-item deletion.

    Brute force on purpose: it is the independent check that the solver's
    deletion minimizer is tested against.
    """
    return fails(items) and not any(fails(items[:i] + items[i + 1:])
                                    for i in range(len(items)))


def classify_sat(formula: Formula) -> bool:
    """Satisfiability by exhausting all 2^order assignments."""
    check_sat_budget(formula.order)
    return least_satisfying(formula.rows(), formula.order) is not None


def is_muf(formula: Formula) -> bool:
    """Unsatisfiable, each clause-deleted subformula satisfiable, no unused variables."""
    check_sat_budget(formula.order)
    return len(formula.support) == formula.order and _minimal_failing(
        formula.rows(), lambda cs: least_satisfying(cs, formula.order) is None)


def classify_colorable(graph: Hypergraph, k: int) -> bool:
    """Weak k-colorability (no monochromatic edge) over all k^order colorings."""
    check_coloring_budget(k, graph.order)
    return least_coloring(graph.rows(), graph.order, k) is not None


def is_min_non_k_colorable(graph: Hypergraph, k: int) -> bool:
    """Non-colorable, each edge-deleted subhypergraph colorable, no isolated vertices."""
    check_coloring_budget(k, graph.order)
    return len(graph.support) == graph.order and _minimal_failing(
        graph.rows(), lambda es: least_coloring(es, graph.order, k) is None)


# ---------------------------------------------------------------------------
# labeled enumeration per (order, size) cell

def _take(deficit: dict, cov) -> dict:
    """The deficit after one more candidate: each still-owed unit of ``cov`` drops by one."""
    out = dict(deficit)
    for u in cov:
        if u in out:
            if out[u] == 1:
                del out[u]
            else:
                out[u] -= 1
    return out


def _covering_sets(candidates, units, need_units, e, r):
    """Yield the index tuples of e candidates covering all coverage units
    that hold candidate 0.

    ``candidates``: per-index frozenset of units it covers (each candidate
    covers r units, one per member).  ``units``: the initial uncovered
    multiset, as a dict unit -> multiplicity.  A candidate reduces each of
    its still-deficient units by one.  The search starts with candidate 0
    chosen, prunes on the unit deficit versus the r*(clauses left) slots
    remaining, and in the tight case generates candidates directly from
    the deficient units.
    """
    index_of = {cov: i for i, cov in enumerate(candidates)}
    chosen = [0]

    def rec(start: int, deficit: dict, total: int):
        slots = (e - len(chosen)) * r
        if total > slots:
            return
        if len(chosen) == e:
            if total == 0:
                yield tuple(chosen)
            return
        if total == slots:
            for combo in itertools.combinations(sorted(deficit), r):
                if len({need_units(u) for u in combo}) != r:
                    continue
                idx = index_of.get(frozenset(combo))
                if idx is None or idx < start:
                    continue
                chosen.append(idx)
                yield from rec(idx + 1, _take(deficit, combo), total - r)
                chosen.pop()
            return
        for idx in range(start, len(candidates)):
            cov = candidates[idx]
            gain = sum(1 for u in cov if u in deficit)
            if total - gain > slots - r:
                continue
            chosen.append(idx)
            yield from rec(idx + 1, _take(deficit, cov), total - gain)
            chosen.pop()

    deficit = _take(units, candidates[0])
    yield from rec(1, deficit, sum(deficit.values()))


def _enumerate_cell(kind, r, k, t, e):
    """Distinct isomorphism classes at one (order, size) cell.

    Returns a list of (structure, aut_count, iso_key) with the structure
    labeled canonically and using all t variables/vertices.

    Item 0 (the all-positive clause, or the edge, on 1..r) has the least
    bitmask and the group moves it onto every item, so every orbit holds
    covers through item 0 and its least row starts with item 0: only those
    covers are searched, and only the orbit rows through item 0 are kept.
    """
    signed = MODELS[kind].signed
    rows = [isomorph._ids(item, signed) for item in _candidates(t, r, kind).tolist()]
    # a full formula owes each literal once, a k-dense hypergraph each vertex k times
    step = 2 if signed else 1
    units = dict.fromkeys(range(step * t), 1 if signed else k)
    need_units = lambda u: u // step  # the variable of a unit: distinct within an item
    covers = [frozenset(row) for row in rows]
    packed = [isomorph._pack_row(row) for row in rows]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for ids in _covering_sets(covers, units, need_units, e, r):
        key_row = tuple(sorted(packed[i] for i in ids))
        if key_row in seen:
            continue
        masks = isomorph._orbit_masks(t, [rows[i] for i in ids], signed)
        masks = masks[(masks == packed[0]).any(axis=1)]
        masks.sort(axis=1)
        anchored = set(map(tuple, masks.tolist()))
        seen |= anchored
        aut = int((masks == key_row).all(axis=1).sum())
        encoding = isomorph._decode_orbit_row(min(anchored))
        iso_key = isomorph._render("F" if signed else "G", t, 0, encoding)
        classes.append((isomorph._from_encoding(t, encoding, signed), aut, iso_key))
    return classes


def _entry_sort_key(entry: CatalogEntry):
    return (entry.excess, entry.order, entry.size, entry.iso_key)


# ---------------------------------------------------------------------------
# the engine: covers of excess 1..max_excess, one (order, size) cell at a time

def _enumerate(event, r, k, degree, max_excess, order_cap, size_cap, flags) -> Catalog:
    """Every class of ``event``'s structures of excess 1..max_excess whose
    points all have degree >= ``degree``, classified by ``flags(structure)``.
    Caps below the order and size bounds truncate the search and mark the
    catalog incomplete; only a complete catalog gets the event's minimality
    flag, a deletion check of its failure test (a failing proper
    substructure holds a full, or k-dense, one of smaller excess)."""
    kind, flag, _, fails = EVENTS[event]
    bound = floor(r * max_excess / ((degree - 1) * (r - 1) - 1))
    t_max = bound if order_cap is None else min(order_cap, bound)
    size_needed = max(
        ((t + max_excess) // (r - 1) for t in range(r, t_max + 1)), default=0
    )
    e_cap = size_needed if size_cap is None else min(size_cap, size_needed)
    complete = t_max == bound and e_cap == size_needed
    cells = [(t, e) for t in range(r, t_max + 1)
             for e in range(-(-degree * t // r), min((t + max_excess) // (r - 1), e_cap) + 1)
             if 1 <= (r - 1) * e - t <= max_excess]
    for t, e in cells:  # refuse up front, before any cell is searched
        isomorph._check_table(t, MODELS[kind].signed, f"{kind} cell (order {t}, size {e})")
    entries: list[CatalogEntry] = []
    for t, e in cells:
        for structure, aut, iso_key in _enumerate_cell(kind, r, k, t, e):
            minimal = {FLAG_ATTRS[flag]: _minimal_failing(
                structure.rows(), lambda its: fails(its, t, k))} if complete else {}
            entries.append(CatalogEntry(
                kind=kind, structure=structure, order=t, size=e,
                excess=(r - 1) * e - t, aut_count=aut, iso_key=iso_key,
                **flags(structure), **minimal,
            ))
    entries.sort(key=_entry_sort_key)
    return Catalog(kind=kind, r=r, k=k, max_excess=max_excess,
                   order_cap=t_max, size_cap=e_cap, complete=complete,
                   entries=tuple(entries))


def _filter_minimal(catalog: Catalog, kind: str, attr: str, what: str) -> Catalog:
    if catalog.kind != kind:
        raise ValueError(f"expected a {what} catalog")
    if not catalog.complete:
        raise ValueError("cannot certify minimality from an incomplete catalog")
    return replace(catalog, entries=tuple(e for e in catalog.entries if getattr(e, attr)))


def enumerate_full(r: int, max_excess: int, order_cap: int | None = None,
                   size_cap: int | None = None) -> Catalog:
    """Every isomorphism class of full formula with excess <= max_excess.

    Bounded by order <= r*max_excess/(r-2); caps below the bound truncate
    the search and mark the catalog incomplete (minimality flags are then
    left unset).
    """
    if r < 3:
        raise ValueError("full-formula catalogs need r >= 3")
    if max_excess < 0:
        raise ValueError("max_excess must be nonnegative")
    if order_cap is not None and order_cap < r:
        raise ValueError(f"order cap {order_cap} cannot hold any {r}-clause")
    if size_cap is not None and size_cap < 2:
        raise ValueError(f"size cap {size_cap} cannot hold any full formula")
    return _enumerate("pl-fail", r, None, 2, max_excess, order_cap, size_cap,
                      lambda f: dict(is_full=True, is_satisfiable=classify_sat(f),
                                     is_muf=is_muf(f)))


def filter_minimal_full(catalog: Catalog) -> Catalog:
    return _filter_minimal(catalog, "sat", "is_mff", "full-formula")


def enumerate_k_dense(r: int, k: int, max_excess: int, order_cap: int | None = None,
                      size_cap: int | None = None) -> Catalog:
    """Every isomorphism class of k-dense r-uniform hypergraph, excess <= max_excess."""
    if r < 2 or k < 2 or r + k <= 4:
        raise ValueError("k-dense catalogs need r, k >= 2 and r + k > 4")
    if max_excess < 0:
        raise ValueError("max_excess must be nonnegative")
    if order_cap is not None and order_cap < r:
        raise ValueError(f"order cap {order_cap} cannot hold any {r}-edge")
    if size_cap is not None and size_cap < 1:
        raise ValueError("size cap must be positive")
    return _enumerate("kcore", r, k, k, max_excess, order_cap, size_cap,
                      lambda g: dict(is_k_dense=True, is_k_colorable=classify_colorable(g, k),
                                     is_min_non_k_colorable=is_min_non_k_colorable(g, k)))


def filter_minimal_k_dense(catalog: Catalog) -> Catalog:
    return _filter_minimal(catalog, "hypergraph", "is_minimal_k_dense", "k-dense")


# ---------------------------------------------------------------------------

def excess_spectrum(catalog: Catalog, flag: str) -> list[int]:
    """Sorted distinct excess values among entries carrying ``flag``."""
    if flag not in FLAG_ATTRS:
        raise ValueError(f"unknown flag {flag!r}; one of {sorted(FLAG_ATTRS)}")
    if not catalog.complete:
        raise ValueError("spectrum of an incomplete catalog is not certified")
    return sorted({e.excess for e in catalog.with_flag(flag)})
