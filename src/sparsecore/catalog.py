"""Catalogs of small obstructions, enumerated exhaustively up to isomorphism.

One engine serves formulas and hypergraphs.  A full formula is a cover
of degree 2 (every variable occurs once per sign), a k-dense r-uniform
hypergraph one of degree k, and a cover of excess s in which every point
has degree >= d has at most r*s/((d-1)(r-1)-1) points (r*s/(r-2) for
full formulas), so the classes with excess below a bound form a finite,
enumerable catalog.  Enumeration runs per (order, size) cell as a set
search that branches on the least occurrence still owed, over the covers
through item 0 only (every orbit holds some), and deduplicates by orbit:
the first time a labeled structure is seen, the images of it that hold
item 0 enter the seen-set, which also yields the automorphism count and
canonical key for free.  A cell whose group table would pass
``isomorph._TABLE_ENTRY_CAP`` raises BudgetExceededError before any cell
is searched.

Entries are classified by brute force within the solver's budgets
(satisfiability over 2^t assignments, weak colorability over k^t
colorings) and, when the catalog is complete, by minimality: the
structure has a nonempty core and no single-item deletion of it has one
(the failure test of the event the catalog serves, ``predictor.EVENTS``).
Catalogs serialize to JSON so expensive enumerations are computed once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import lru_cache
from math import comb
from pathlib import Path

from . import isomorph
from .predictor import EVENTS
from .sampling import _candidates
from .solver import check_budget, least_coloring, least_satisfying
from .structures import MODELS, Formula, Hypergraph, sign_factor

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
        """The catalog of ``to_json_dict``; a missing field or a malformed
        record raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"catalog is a JSON {type(data).__name__}, not an object")
        if data.get("format_version") != CATALOG_FORMAT_VERSION:
            raise ValueError(f"unsupported catalog format {data.get('format_version')}")
        try:
            kind = data["kind"]
            vocabulary = _kind(kind)
            entries = tuple(_entry(kind, vocabulary, data["r"], rec) for rec in data["entries"])
            return cls(kind=kind, r=data["r"], k=data["k"], max_excess=data["max_excess"],
                       order_cap=data["order_cap"], size_cap=data["size_cap"],
                       complete=data["complete"], entries=entries)
        except KeyError as exc:
            raise ValueError(f"catalog lacks field {exc.args[0]!r}") from None
        except (TypeError, AttributeError) as exc:  # a field of the wrong type
            raise ValueError(f"malformed catalog record ({exc})") from None


def _entry(kind: str, vocabulary: tuple, r: int, rec: dict) -> CatalogEntry:
    """The entry of one JSON record, checked against its own items; its
    ``aut_count`` and ``iso_key`` are taken as stored; a census checks them."""
    items, flags = vocabulary
    structure = MODELS[kind](rec["order"], [tuple(x) for x in rec[items]])
    rows, order, size, excess = structure.rows(), rec["order"], rec["size"], rec["excess"]
    for bad, problem in (
            (len(structure.support) != order, "leaves a point of 1..order unused"),
            (any(len(row) != r for row in rows), f"has an item not of width {r}"),
            (len(rows) != size, f"has an item count of {len(rows)}"),
            (excess != (r - 1) * size - order, f"has excess {excess}, not (r - 1) * size - order"),
            (sorted(rec["flags"]) != sorted(flags), f"has flags other than {', '.join(flags)}")):
        if bad:
            raise ValueError(f"catalog record (order {order}, size {size}) {problem}")
    return CatalogEntry(kind=kind, structure=structure, order=order, size=size, excess=excess,
                        aut_count=rec["aut_count"], iso_key=rec["iso_key"].encode("ascii"),
                        **rec["flags"])


def save_catalog(catalog: Catalog, path) -> None:
    Path(path).write_text(json.dumps(catalog.to_json_dict(), indent=1) + "\n")


def load_catalog(path) -> Catalog:
    return Catalog.from_json_dict(json.loads(Path(path).read_text()))


@lru_cache(maxsize=4)  # a census process meets one catalog
def _class_rows(catalog: Catalog) -> dict:
    """{(order, row): iso key} over each entry's anchored images, which hold any
    copy's ``isomorph._anchored_row``; a stored key or |Aut| must be its items'."""
    index = {}
    for e in catalog.entries:
        t, rows, _, signed = isomorph._parts(e.structure, "index")
        isomorph._check_entries(isomorph._table_entries(t, signed),
                                f"{catalog.kind} cell (order {t}, size {e.size}): group table")
        encoding, aut = isomorph._least_image(images := isomorph._anchored_images(t, rows, signed))
        key = isomorph._render(signed, t, 0, encoding).decode()
        if (key, aut) != (e.iso_key.decode(), e.aut_count):
            raise ValueError(f"catalog record (order {t}, size {e.size}) has iso_key "
                             f"{e.iso_key.decode()} and aut_count {e.aut_count}, not {key}, {aut}")
        index.update(dict.fromkeys(((t, row) for row in map(tuple, images.tolist())), e.iso_key))
    return index


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
    check_budget(formula.order, 1, True)
    return least_satisfying(formula.rows(), formula.order) is not None


def is_muf(formula: Formula) -> bool:
    """Unsatisfiable, each clause-deleted subformula satisfiable, no unused variables."""
    check_budget(formula.order, 1, True)
    return len(formula.support) == formula.order and _minimal_failing(
        formula.rows(), lambda cs: least_satisfying(cs, formula.order) is None)


def classify_colorable(graph: Hypergraph, k: int) -> bool:
    """Weak k-colorability (no monochromatic edge) over all k^order colorings."""
    check_budget(graph.order, k, False)
    return least_coloring(graph.rows(), graph.order, k) is not None


def is_min_non_k_colorable(graph: Hypergraph, k: int) -> bool:
    """Non-colorable, each edge-deleted subhypergraph colorable, no isolated vertices."""
    check_budget(graph.order, k, False)
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


def _covering_sets(candidates, units, e, r):
    """Yield the index tuples of e candidates covering all coverage units
    that hold candidate 0.

    ``candidates``: per-index collection of the units it covers (each
    candidate covers r units, one per member).  ``units``: the initial
    uncovered multiset, as a dict unit -> multiplicity.  A candidate
    reduces each of its still-owed units by one.  One rule branches, the
    column rule of Algorithm X (Knuth, "Dancing Links", arXiv
    cs/0011047): with candidate 0 chosen, each step takes the least unit
    still owed and picks, in index order, each candidate holding it.  A
    branch bars the holders it passed over for the rest of that branch,
    so every set is found once, through the least of its holders.  Once
    nothing is owed the remaining picks are free: unbarred candidates in
    index order.  A branch stops when more is owed than r per pick left.
    """
    holders = {u: [i for i, cov in enumerate(candidates) if u in cov] for u in units}
    free = range(1, len(candidates))
    chosen, barred = [0], [False] * len(candidates)
    barred[0] = True

    def rec(deficit: dict):
        left = e - len(chosen)
        if left == 0:
            yield tuple(chosen)
            return
        need = sum(deficit.values()) - r * (left - 1)  # the least the next pick must pay
        passed = []
        for i in holders[min(deficit)] if deficit else free:
            if barred[i]:
                continue
            barred[i] = True
            passed.append(i)
            # a holder of the least owed unit pays at least 1
            if need <= 1 or sum(map(deficit.__contains__, candidates[i])) >= need:
                chosen.append(i)
                yield from rec(_take(deficit, candidates[i]))
                chosen.pop()
        for i in passed:
            barred[i] = False

    yield from rec(_take(units, candidates[0]))


def _enumerate_cell(kind, r, k, t, e):
    """Distinct isomorphism classes at one (order, size) cell.

    Returns a list of (structure, aut_count, iso_key) with the structure
    labeled canonically and using all t variables/vertices.

    Item 0 (the all-positive clause, or the edge, on 1..r) has the least
    bitmask and the group moves it onto every item, so every orbit holds
    covers through item 0 and the anchored images of a cover
    (``isomorph._anchored_images``) are its orbit rows through item 0:
    only those covers are searched, and only those rows enter the seen-set.
    """
    signed = MODELS[kind].signed
    rows = [isomorph._ids(item, signed) for item in _candidates(t, r, kind).tolist()]
    # a full formula owes each literal once, a k-dense hypergraph each vertex k times
    units = dict.fromkeys(range(2 * t), 1) if signed else dict.fromkeys(range(t), k)
    packed = [isomorph._pack_row(row) for row in rows]
    seen: set[tuple[int, ...]] = set()
    classes = []
    for ids in _covering_sets(rows, units, e, r):
        if tuple(sorted(packed[i] for i in ids)) in seen:
            continue
        images = isomorph._anchored_images(t, [rows[i] for i in ids], signed)
        seen.update(map(tuple, images.tolist()))
        encoding, aut = isomorph._least_image(images)
        iso_key = isomorph._render(signed, t, 0, encoding)
        classes.append((isomorph._from_encoding(t, encoding, signed), aut, iso_key))
    return classes


# ---------------------------------------------------------------------------
# the engine: covers of excess 1..max_excess, one (order, size) cell at a time

def _enumerate(event, r, k, max_excess, order_cap, flags) -> Catalog:
    """Every class of ``event``'s structures of excess 1..max_excess whose
    points all have degree >= 2 (formulas) or k, classified by
    ``flags(structure)``.  An order cap below the order bound truncates the
    search and marks the catalog incomplete; only a complete catalog gets
    the event's minimality flag, a deletion check of its failure test (a
    failing proper substructure holds a full, or k-dense, one of smaller
    excess)."""
    kind, flag, _ = EVENTS[event]
    if max_excess < 0:
        raise ValueError("max_excess must be nonnegative")
    if order_cap is not None and order_cap < r:
        raise ValueError(f"order cap {order_cap} cannot hold any {r}-{_kind(kind)[0][:-1]}")
    signed = MODELS[kind].signed
    degree = 2 if signed else k
    bound = r * max_excess // ((degree - 1) * (r - 1) - 1)
    t_max = bound if order_cap is None else min(order_cap, bound)
    cells = [(t, e) for t in range(r, t_max + 1)  # sizes up to the candidates, each once
             for e in range(-(-degree * t // r), 1 + min((t + max_excess) // (r - 1),
                                                         sign_factor(kind, r) * comb(t, r)))
             if (r - 1) * e > t]
    for t, e in cells:  # refuse up front, before any cell is searched
        isomorph._check_entries(isomorph._table_entries(t, signed),
                                f"{kind} cell (order {t}, size {e}): group table")
    complete = t_max == bound
    entries: list[CatalogEntry] = []
    for t, e in cells:
        for structure, aut, iso_key in _enumerate_cell(kind, r, k, t, e):
            minimal = {FLAG_ATTRS[flag]: _minimal_failing(
                structure.rows(), lambda its: EVENTS[event].fails(its, t, k))} if complete else {}
            entries.append(CatalogEntry(
                kind=kind, structure=structure, order=t, size=e,
                excess=(r - 1) * e - t, aut_count=aut, iso_key=iso_key,
                **flags(structure), **minimal,
            ))
    entries.sort(key=lambda x: (x.excess, x.order, x.size, x.iso_key))
    size_cap = (t_max + max_excess) // (r - 1) if t_max >= r else 0  # largest size searched
    return Catalog(kind=kind, r=r, k=k, max_excess=max_excess, order_cap=t_max,
                   size_cap=size_cap, complete=complete, entries=tuple(entries))


def _filter_minimal(catalog: Catalog, kind: str, attr: str, what: str) -> Catalog:
    if catalog.kind != kind:
        raise ValueError(f"expected a {what} catalog")
    if not catalog.complete:
        raise ValueError("cannot certify minimality from an incomplete catalog")
    return replace(catalog, entries=tuple(e for e in catalog.entries if getattr(e, attr)))


def enumerate_full(r: int, max_excess: int, order_cap: int | None = None) -> Catalog:
    """Every isomorphism class of full formula with excess <= max_excess.

    Bounded by order <= r*max_excess/(r-2); a cap below the bound truncates
    the search and marks the catalog incomplete (minimality flags are then
    left unset).
    """
    if r < 3:
        raise ValueError("full-formula catalogs need r >= 3")
    return _enumerate("pl-fail", r, None, max_excess, order_cap,
                      lambda f: dict(is_full=True, is_satisfiable=classify_sat(f),
                                     is_muf=is_muf(f)))


def filter_minimal_full(catalog: Catalog) -> Catalog:
    return _filter_minimal(catalog, "sat", "is_mff", "full-formula")


def enumerate_k_dense(r: int, k: int, max_excess: int,
                      order_cap: int | None = None) -> Catalog:
    """Every isomorphism class of k-dense r-uniform hypergraph, excess <= max_excess."""
    if r < 2 or k < 2 or r + k <= 4:
        raise ValueError("k-dense catalogs need r, k >= 2 and r + k > 4")
    return _enumerate("kcore", r, k, max_excess, order_cap,
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
