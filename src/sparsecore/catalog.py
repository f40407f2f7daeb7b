"""Catalogs of small obstructions, enumerated exhaustively up to isomorphism.

A full formula of excess s has at most r*s/(r-2) variables (every variable
occurs at least twice, once per sign), and a k-dense r-uniform hypergraph
of excess s has at most r*s/((k-1)(r-1)-1) vertices, so the classes with
excess below a bound form a finite, enumerable catalog.  Enumeration runs
per (order, size) cell as a lexicographic set search pruned by the
coverage deficit (literal occurrences still owed), and deduplicates by
orbit: the first time a labeled structure is seen, its entire isomorphism
orbit enters the seen-set, which also yields the automorphism count and
canonical key for free.

Entries are classified by brute force (satisfiability over 2^t
assignments, weak colorability over k^t colorings) and, when the catalog
is complete, by minimality (no smaller-excess catalog structure occurs as
a substructure).  Catalogs serialize to JSON so expensive enumerations
are computed once.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from math import factorial, floor
from pathlib import Path

from . import isomorph
from .isomorph import find_copies
from .sampling import candidate_clauses, candidate_edges
from .solver import least_coloring, least_satisfying
from .structures import (
    BudgetExceededError,
    Formula,
    Hypergraph,
)

CATALOG_FORMAT_VERSION = 1

FLAG_ATTRS = {
    "full": "is_full",
    "mff": "is_mff",
    "satisfiable": "is_satisfiable",
    "muf": "is_muf",
    "k_dense": "is_k_dense",
    "minimal_k_dense": "is_minimal_k_dense",
    "k_colorable": "is_k_colorable",
    "min_non_k_colorable": "is_min_non_k_colorable",
}


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
        entries = []
        for e in self.entries:
            rec = {
                "order": e.order,
                "size": e.size,
                "excess": e.excess,
                "aut_count": e.aut_count,
                "iso_key": e.iso_key.decode("ascii"),
            }
            if self.kind == "sat":
                rec["clauses"] = [list(c.literals) for c in e.structure.sorted_clauses()]
                rec["flags"] = {
                    "is_full": e.is_full, "is_mff": e.is_mff,
                    "is_satisfiable": e.is_satisfiable, "is_muf": e.is_muf,
                }
            else:
                rec["edges"] = [list(t) for t in e.structure.sorted_edges()]
                rec["flags"] = {
                    "is_k_dense": e.is_k_dense,
                    "is_minimal_k_dense": e.is_minimal_k_dense,
                    "is_k_colorable": e.is_k_colorable,
                    "is_min_non_k_colorable": e.is_min_non_k_colorable,
                }
            entries.append(rec)
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
        entries = []
        for rec in data["entries"]:
            if kind == "sat":
                st = Formula(rec["order"], [tuple(c) for c in rec["clauses"]])
            else:
                st = Hypergraph(rec["order"], [tuple(e) for e in rec["edges"]])
            entries.append(CatalogEntry(
                kind=kind, structure=st, order=rec["order"], size=rec["size"],
                excess=rec["excess"], aut_count=rec["aut_count"],
                iso_key=rec["iso_key"].encode("ascii"), **rec["flags"],
            ))
        return cls(kind=kind, r=data["r"], k=data["k"], max_excess=data["max_excess"],
                   order_cap=data["order_cap"], size_cap=data["size_cap"],
                   complete=data["complete"], entries=tuple(entries))


def save_catalog(catalog: Catalog, path) -> None:
    Path(path).write_text(json.dumps(catalog.to_json_dict(), indent=1) + "\n")


def load_catalog(path) -> Catalog:
    return Catalog.from_json_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# brute-force classification

def classify_sat(formula: Formula, order_cap: int = 24) -> bool:
    """Satisfiability by exhausting all 2^order assignments."""
    if formula.order > order_cap:
        raise BudgetExceededError(f"order {formula.order} exceeds cap {order_cap}")
    lits = [cl.literals for cl in formula.sorted_clauses()]
    return least_satisfying(lits, formula.order) is not None


def is_muf(formula: Formula, order_cap: int = 24) -> bool:
    """Unsatisfiable, each clause-deleted subformula satisfiable, no unused variables."""
    if formula.order > order_cap:
        raise BudgetExceededError(f"order {formula.order} exceeds cap {order_cap}")
    if len(formula.support) != formula.order:
        return False
    if classify_sat(formula, order_cap):
        return False
    clauses = formula.sorted_clauses()
    for i in range(len(clauses)):
        rest = [cl.literals for cl in clauses[:i] + clauses[i + 1:]]
        if least_satisfying(rest, formula.order) is None:
            return False
    return True


def classify_colorable(graph: Hypergraph, k: int, order_cap: int = 20) -> bool:
    """Weak k-colorability (no monochromatic edge) over all k^order colorings."""
    if graph.order > order_cap:
        raise BudgetExceededError(f"order {graph.order} exceeds cap {order_cap}")
    return least_coloring(list(graph.sorted_edges()), graph.order, k) is not None


def is_min_non_k_colorable(graph: Hypergraph, k: int, order_cap: int = 20) -> bool:
    """Non-colorable, each edge-deleted subhypergraph colorable, no isolated vertices."""
    if graph.order > order_cap:
        raise BudgetExceededError(f"order {graph.order} exceeds cap {order_cap}")
    if len(graph.support) != graph.order:
        return False
    edges = list(graph.sorted_edges())
    if least_coloring(edges, graph.order, k) is not None:
        return False
    for i in range(len(edges)):
        rest = edges[:i] + edges[i + 1:]
        if least_coloring(rest, graph.order, k) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# labeled enumeration per (order, size) cell

def _covering_sets(candidates, units, need_units, e, r):
    """Index tuples of e candidates covering all coverage units.

    ``candidates``: per-index frozenset of units it covers (each candidate
    covers r units, one per member).  ``units``: the initial uncovered
    multiset, as a dict unit -> multiplicity.  A candidate reduces each of
    its still-deficient units by one.  Prunes on the unit deficit versus
    the r*(clauses left) slots remaining, and in the tight case generates
    candidates directly from the deficient units.
    """
    index_of = {cov: i for i, cov in enumerate(candidates)}
    results: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(start: int, deficit: dict, total: int):
        slots = (e - len(chosen)) * r
        if total > slots:
            return
        if len(chosen) == e:
            if total == 0:
                results.append(tuple(chosen))
            return
        if total == slots:
            pool = sorted(deficit)
            for combo in itertools.combinations(pool, r):
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


def _enumerate_cell(kind, r, k, t, e):
    """Distinct isomorphism classes at one (order, size) cell.

    Returns a list of (structure, aut_count, iso_key) with the structure
    labeled canonically and using all t variables/vertices.
    """
    signed = kind == "sat"
    if signed:
        raw = candidate_clauses(t, r)
        rows = [tuple(2 * (abs(l) - 1) + (0 if l > 0 else 1) for l in lits) for lits in raw]
        units = {u: 1 for u in range(2 * t)}
        need_units = lambda u: u // 2  # distinct variables within a clause
    else:
        raw = candidate_edges(t, r)
        rows = [tuple(v - 1 for v in edge) for edge in raw]
        units = {v: k for v in range(t)}
        need_units = lambda u: u
    covers = [frozenset(row) for row in rows]
    group = (2 ** t if signed else 1) * factorial(t)
    packed = [isomorph._pack_row(row) for row in rows]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for ids in _covering_sets(covers, units, need_units, e, r):
        key_row = tuple(sorted(packed[i] for i in ids))
        if key_row in seen:
            continue
        orbit = isomorph._orbit_rows(t, [rows[i] for i in ids], signed)
        seen.update(map(tuple, orbit.tolist()))
        aut = group // len(orbit)
        encoding = isomorph._decode_orbit_row(orbit[0])
        iso_key = isomorph._render("F" if signed else "G", t, 0, encoding)
        classes.append((isomorph._from_encoding(t, encoding, signed), aut, iso_key))
    return classes


def _entry_sort_key(entry: CatalogEntry):
    return (entry.excess, entry.order, entry.size, entry.iso_key)


# ---------------------------------------------------------------------------
# full formulas

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
    bound = floor(r * max_excess / (r - 2))
    t_max = bound if order_cap is None else min(order_cap, bound)
    size_needed = max(
        ((t + max_excess) // (r - 1) for t in range(r, t_max + 1)), default=0
    )
    e_cap = size_needed if size_cap is None else min(size_cap, size_needed)
    complete = t_max == bound and e_cap == size_needed
    entries: list[CatalogEntry] = []
    for t in range(r, t_max + 1):
        e_lo = max(2, -(-2 * t // r))
        e_hi = min((t + max_excess) // (r - 1), e_cap)
        for e in range(e_lo, e_hi + 1):
            excess = (r - 1) * e - t
            if excess < 1 or excess > max_excess:
                continue
            for structure, aut, iso_key in _enumerate_cell("sat", r, None, t, e):
                entries.append(CatalogEntry(
                    kind="sat", structure=structure, order=t, size=e,
                    excess=excess, aut_count=aut, iso_key=iso_key,
                    is_full=True,
                    is_satisfiable=classify_sat(structure),
                    is_muf=is_muf(structure),
                ))
    entries.sort(key=_entry_sort_key)
    if complete:
        entries = _mark_minimal(entries, "is_mff")
    return Catalog(kind="sat", r=r, k=None, max_excess=max_excess,
                   order_cap=t_max, size_cap=e_cap, complete=complete,
                   entries=tuple(entries))


def _mark_minimal(entries: list[CatalogEntry], attr: str) -> list[CatalogEntry]:
    """Set the minimality flag: no smaller-excess entry occurs inside.

    Correct only when the list is complete below each entry's excess; any
    proper substructure of the same kind has strictly smaller excess.
    """
    out = []
    for e in entries:
        smaller = [x for x in out if x.excess < e.excess]
        minimal = not any(any(find_copies(x.structure, e.structure)) for x in smaller)
        rec = {**e.__dict__, attr: minimal}
        out.append(CatalogEntry(**rec))
    return out


def filter_minimal_full(catalog: Catalog) -> Catalog:
    if catalog.kind != "sat":
        raise ValueError("expected a full-formula catalog")
    if not catalog.complete:
        raise ValueError("cannot certify minimality from an incomplete catalog")
    kept = tuple(e for e in catalog.entries if e.is_mff)
    return Catalog(kind=catalog.kind, r=catalog.r, k=catalog.k,
                   max_excess=catalog.max_excess, order_cap=catalog.order_cap,
                   size_cap=catalog.size_cap, complete=catalog.complete, entries=kept)


# ---------------------------------------------------------------------------
# k-dense hypergraphs

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
    denom = (k - 1) * (r - 1) - 1
    bound = floor(r * max_excess / denom)
    t_max = bound if order_cap is None else min(order_cap, bound)
    size_needed = max(
        ((t + max_excess) // (r - 1) for t in range(r, t_max + 1)), default=0
    )
    e_cap = size_needed if size_cap is None else min(size_cap, size_needed)
    complete = t_max == bound and e_cap == size_needed
    entries: list[CatalogEntry] = []
    for t in range(r, t_max + 1):
        e_lo = max(1, -(-k * t // r))
        e_hi = min((t + max_excess) // (r - 1), e_cap)
        for e in range(e_lo, e_hi + 1):
            excess = (r - 1) * e - t
            if excess < 1 or excess > max_excess:
                continue
            for structure, aut, iso_key in _enumerate_cell("hypergraph", r, k, t, e):
                entries.append(CatalogEntry(
                    kind="hypergraph", structure=structure, order=t, size=e,
                    excess=excess, aut_count=aut, iso_key=iso_key,
                    is_k_dense=True,
                    is_k_colorable=classify_colorable(structure, k),
                    is_min_non_k_colorable=is_min_non_k_colorable(structure, k),
                ))
    entries.sort(key=_entry_sort_key)
    if complete:
        entries = _mark_minimal(entries, "is_minimal_k_dense")
    return Catalog(kind="hypergraph", r=r, k=k, max_excess=max_excess,
                   order_cap=t_max, size_cap=e_cap, complete=complete,
                   entries=tuple(entries))


def filter_minimal_k_dense(catalog: Catalog) -> Catalog:
    if catalog.kind != "hypergraph":
        raise ValueError("expected a k-dense catalog")
    if not catalog.complete:
        raise ValueError("cannot certify minimality from an incomplete catalog")
    kept = tuple(e for e in catalog.entries if e.is_minimal_k_dense)
    return Catalog(kind=catalog.kind, r=catalog.r, k=catalog.k,
                   max_excess=catalog.max_excess, order_cap=catalog.order_cap,
                   size_cap=catalog.size_cap, complete=catalog.complete, entries=kept)


# ---------------------------------------------------------------------------

def excess_spectrum(catalog: Catalog, flag: str) -> list[int]:
    """Sorted distinct excess values among entries carrying ``flag``."""
    if flag not in FLAG_ATTRS:
        raise ValueError(f"unknown flag {flag!r}; one of {sorted(FLAG_ATTRS)}")
    if not catalog.complete:
        raise ValueError("spectrum of an incomplete catalog is not certified")
    return sorted({e.excess for e in catalog.with_flag(flag)})
