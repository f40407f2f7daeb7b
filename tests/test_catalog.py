import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import time

import pytest

from sparsecore import (
    BudgetExceededError,
    Catalog,
    Formula,
    Hypergraph,
    canonical_key,
    classify_colorable,
    classify_sat,
    enumerate_full,
    enumerate_k_dense,
    excess_formula,
    excess_hypergraph,
    excess_spectrum,
    filter_minimal_full,
    filter_minimal_k_dense,
    is_full,
    is_k_dense,
    is_min_non_k_colorable,
    is_muf,
    load_catalog,
    save_catalog,
)
from sparsecore import catalog as catalog_module, isomorph
from sparsecore.structures import dense_excess_bound, full_excess_bound

from oracle_utils import (
    apply_signed,
    brute_colorable,
    brute_sat,
    candidate_clauses,
    candidate_edges,
    cell_units,
    labeled_covers,
    reference_cell,
    signed_images,
)


def test_excess_one_catalog_is_the_complementary_pair(f_pair):
    cat = enumerate_full(3, 1)
    assert cat.complete
    assert len(cat.entries) == 1
    entry = cat.entries[0]
    assert (entry.order, entry.size, entry.excess, entry.aut_count) == (3, 2, 1, 12)
    assert entry.iso_key == canonical_key(f_pair)
    assert entry.is_full and entry.is_mff and entry.is_satisfiable and not entry.is_muf


def test_excess_zero_catalog_is_empty():
    cat = enumerate_full(3, 0)
    assert cat.complete and cat.entries == ()


def test_enumeration_matches_naive_up_to_order_four(full_catalog_r3):
    # independent route: canonical keys of every full clause subset (k-dense
    # edge subset), cell by cell; formulas up to order four, hypergraphs
    # through their order bound
    cases = (
        (full_catalog_r3, 4, candidate_clauses, Formula, is_full),
        (enumerate_k_dense(2, 3, 3), 6, candidate_edges, Hypergraph,
         lambda g: is_k_dense(g, 3)),
        (enumerate_k_dense(3, 2, 2), 6, candidate_edges, Hypergraph,
         lambda g: is_k_dense(g, 2)),
    )
    for catalog, max_order, candidates, build, keep in cases:
        r = catalog.r
        for t in range(r, max_order + 1):
            for e in range(1, catalog.size_cap + 1):
                if not 1 <= (r - 1) * e - t <= catalog.max_excess:
                    continue
                found = set()
                for subset in itertools.combinations(candidates(t, r), e):
                    structure = build(t, subset)
                    if keep(structure):
                        found.add(canonical_key(structure))
                listed = {x.iso_key for x in catalog.entries if (x.order, x.size) == (t, e)}
                assert listed == found, (catalog.kind, t, e)


def test_order_six_cell_labeled_census(full_catalog_r3):
    # orbit-stabilizer: the class orbits partition the labeled structures;
    # each variable occurs exactly twice (once per sign) in this cell, and
    # two complementary pairs on disjoint triples form the only shape with
    # a repeated variable triple, giving 4960 labeled structures in all
    six = [e for e in full_catalog_r3.entries if e.order == 6]
    assert len(six) == 3
    assert sum((2 ** 6 * 720) // e.aut_count for e in six) == 4960
    assert sorted(e.aut_count for e in six) == [16, 24, 288]
    pair_of_pairs = [e for e in six if e.aut_count == 288][0]
    assert not pair_of_pairs.is_mff  # contains the complementary pair
    assert all(e.is_mff for e in six if e.aut_count != 288)


SMALL_CATALOGS = pytest.mark.parametrize("build, args", [
    (enumerate_full, (3, 2)),
    (enumerate_full, (4, 3)),
    (functools.partial(enumerate_full, order_cap=6), (3, 3)),
    (enumerate_k_dense, (2, 3, 3)),
    (enumerate_k_dense, (3, 2, 2)),
], ids=["full-3-2", "full-4-3", "full-3-3-cap6", "dense-2-3-3", "dense-3-2-2"])


@SMALL_CATALOGS
def test_anchored_engine_matches_the_unanchored_reference(monkeypatch, build, args):
    catalog = build(*args)
    labeled = {}

    def reference(kind, r, k, t, e):
        classes, labeled[t, e] = reference_cell(kind, r, k, t, e)
        return classes

    monkeypatch.setattr(catalog_module, "_enumerate_cell", reference)
    assert build(*args).to_json_dict() == catalog.to_json_dict()
    # orbit-stabilizer, cell by cell: the class orbits partition the labeled covers
    assert labeled
    for (t, e), count in labeled.items():
        group = (2 ** t if catalog.kind == "sat" else 1) * math.factorial(t)
        cell = [x for x in catalog.entries if (x.order, x.size) == (t, e)]
        assert sum(group // x.aut_count for x in cell) == count, (t, e)


@SMALL_CATALOGS
def test_cover_search_finds_each_cover_through_item_0_once(monkeypatch, build, args):
    cells = []
    monkeypatch.setattr(catalog_module, "_enumerate_cell",
                        lambda *cell: cells.append(cell) or [])
    build(*args)
    assert cells
    for kind, r, k, t, e in cells:
        rows, units, need_units = cell_units(kind, r, k, t)
        candidates = [frozenset(row) for row in rows]
        found = list(catalog_module._covering_sets(candidates, units, e, r))
        assert len({frozenset(ids) for ids in found}) == len(found), (t, e)
        assert {tuple(sorted(ids)) for ids in found} == {
            ids for ids in labeled_covers(candidates, units, need_units, e, r) if ids[0] == 0
        }, (t, e)


def test_group_table_guard_raises_before_allocating():
    # the signed support-9 table would hold 185,794,560 x 18 entries
    started = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"sat cell \(order 9, size 6\)"):
        enumerate_full(3, 3)
    with pytest.raises(BudgetExceededError, match="support 9"):
        isomorph._bit_table(9, True)
    assert time.perf_counter() - started < 1.0
    for t, signed in ((7, True), (9, False)):  # in use: stays below the cap
        isomorph._check_entries(isomorph._table_entries(t, signed), f"support {t}")


def test_every_entry_obeys_the_full_excess_bound(full_catalog_r3):
    for entry in full_catalog_r3.entries:
        assert entry.excess >= full_excess_bound(3, entry.order)
        assert is_full(entry.structure)
        assert excess_formula(entry.structure) == entry.excess


def test_classification_flags_reproduce(full_catalog_r3, dense_catalog_k3):
    for entry in full_catalog_r3.entries:
        assert entry.is_satisfiable == classify_sat(entry.structure)
        assert entry.is_muf == is_muf(entry.structure)
        assert entry.is_satisfiable == brute_sat(entry.structure)
    for entry in dense_catalog_k3.entries:
        assert entry.is_k_colorable == classify_colorable(entry.structure, 3)
        assert entry.is_k_colorable == brute_colorable(entry.structure, 3)
        assert entry.is_min_non_k_colorable == is_min_non_k_colorable(entry.structure, 3)


def test_iso_keys_distinct(full_catalog_r3):
    keys = [e.iso_key for e in full_catalog_r3.entries]
    assert len(keys) == len(set(keys))


def test_minimal_filter_and_spectrum(full_catalog_r3):
    mff = filter_minimal_full(full_catalog_r3)
    assert all(e.is_mff for e in mff.entries)
    assert filter_minimal_full(mff).entries == mff.entries
    assert excess_spectrum(full_catalog_r3, "mff") == [1, 2]
    assert excess_spectrum(enumerate_full(3, 1), "mff") == [1]
    assert excess_spectrum(full_catalog_r3, "muf") == []
    with pytest.raises(ValueError):
        excess_spectrum(full_catalog_r3, "bogus")


def test_k_dense_catalog_is_k4(dense_catalog_k3, k4):
    assert dense_catalog_k3.complete
    minimal = filter_minimal_k_dense(dense_catalog_k3)
    assert len(minimal.entries) == 1
    entry = minimal.entries[0]
    assert (entry.order, entry.size, entry.excess, entry.aut_count) == (4, 6, 2, 24)
    assert entry.iso_key == canonical_key(k4)
    assert entry.is_min_non_k_colorable
    assert excess_spectrum(dense_catalog_k3, "minimal_k_dense") == [2]
    assert enumerate_k_dense(2, 3, 1).entries == ()


def test_k_dense_bound_and_parameter_checks(dense_catalog_k3):
    for entry in dense_catalog_k3.entries:
        assert entry.excess >= dense_excess_bound(2, 3, entry.order)
        assert is_k_dense(entry.structure, 3)
        assert excess_hypergraph(entry.structure, 2) == entry.excess
    with pytest.raises(ValueError):
        enumerate_k_dense(2, 2, 2)


def test_caps_truncate_and_are_reported():
    truncated = enumerate_full(3, 2, order_cap=4)
    assert not truncated.complete
    assert truncated.order_cap == 4
    assert all(e.order <= 4 for e in truncated.entries)
    assert all(e.is_mff is None for e in truncated.entries)
    with pytest.raises(ValueError):
        filter_minimal_full(truncated)
    with pytest.raises(ValueError):
        excess_spectrum(truncated, "mff")
    with pytest.raises(ValueError):
        enumerate_full(3, 1, order_cap=2)


def test_classification_examples(f_pair, complete3, k4):
    assert classify_sat(f_pair)
    assert not is_muf(f_pair)
    assert not classify_sat(complete3)
    assert is_muf(complete3)
    # one clause removed: satisfiable, so deletion-minimal
    smaller = Formula(3, list(complete3.clauses)[:-1])
    assert classify_sat(smaller)
    assert not classify_colorable(k4, 3)
    assert classify_colorable(Hypergraph(4, list(k4.sorted_edges())[:-1]), 3)
    assert is_min_non_k_colorable(k4, 3)
    assert not is_min_non_k_colorable(Hypergraph(5, k4.edges), 3)  # isolated vertex
    # unsatisfiable / non-colorable, but one item can go and it still fails
    assert not is_muf(Formula(4, list(complete3.clauses) + [(1, 2, 4)]))
    assert not is_min_non_k_colorable(Hypergraph(5, list(k4.edges) + [(1, 5)]), 3)


def test_muf_requires_every_variable_used(complete3):
    padded = Formula(4, complete3.clauses)
    assert not is_muf(padded)


def test_classifiers_read_the_solver_budgets():
    # SAT_CORE_BUDGET is order 28; COLORING_BUDGET is 300M colorings
    wide = Formula(29, [(1, 2, 3)])
    for classify in (classify_sat, is_muf):
        with pytest.raises(BudgetExceededError, match="core order 29 exceeds budget 28"):
            classify(wide)
    started = time.perf_counter()
    for k, order in ((3, 18), (4, 15)):
        graph = Hypergraph(order, [(1, 2)])
        for classify in (classify_colorable, is_min_non_k_colorable):
            with pytest.raises(BudgetExceededError, match=rf"{k}\^{order} colorings"):
                classify(graph, k)
    assert time.perf_counter() - started < 1.0
    assert classify_sat(Formula(25, [(1, 2, 3)]))
    assert classify_colorable(Hypergraph(21, [(1, 2)]), 2)


@pytest.mark.parametrize("build, args, digest", [
    (enumerate_full, (3, 2), "ebe619f3b41215dc"),
    (enumerate_full, (4, 2), "4359a370a2e6640a"),
    (enumerate_full, (5, 3), "57c8ea10ada1c053"),
    (functools.partial(enumerate_full, order_cap=6), (3, 3), "0294d6fe5803e995"),
    (enumerate_k_dense, (2, 3, 3), "4336ead4b41ca0f4"),
    (enumerate_k_dense, (3, 2, 2), "df0a5132521656a6"),
    (enumerate_k_dense, (3, 2, 3), "0ec833256226304a"),
    (enumerate_k_dense, (2, 3, 4), "b2256838d6b63ff5"),
], ids=["full-3-2", "full-4-2", "full-5-3", "full-3-3-cap6", "dense-2-3-3", "dense-3-2-2",
        "dense-3-2-3", "dense-2-3-4"])
def test_catalog_json_hashes_are_pinned(build, args, digest):
    data = json.dumps(build(*args).to_json_dict()).encode()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


def test_catalog_json_round_trip(tmp_path, full_catalog_r3, dense_catalog_k3):
    for cat in (full_catalog_r3, dense_catalog_k3):
        path = tmp_path / "cat.json"
        save_catalog(cat, path)
        data = json.loads(path.read_text())
        assert data["format_version"] == 1
        assert load_catalog(path) == cat


def test_catalog_codec_rejects_an_unknown_kind(full_catalog_r3):
    data = full_catalog_r3.to_json_dict()
    for entries in ([], data["entries"]):
        with pytest.raises(ValueError, match="'graph'"):
            Catalog.from_json_dict({**data, "kind": "graph", "entries": entries})
    with pytest.raises(ValueError, match="'graph'"):
        dataclasses.replace(full_catalog_r3, kind="graph").to_json_dict()


def test_union_excess_exhaustive_for_minimal_pairs(f_pair):
    # every placement of two distinct complementary-pair copies on at most
    # six shared variables has union excess at least two
    copies = set()
    images = signed_images(Formula(3, f_pair.clauses))
    for vars3 in itertools.combinations(range(1, 7), 3):
        for image in images:
            mapped = frozenset(
                tuple(sorted(((1 if l > 0 else -1) * vars3[abs(l) - 1]
                              for l in clause), key=abs))
                for clause in image
            )
            copies.add(mapped)
    copies = sorted(copies)
    assert len(copies) == 80  # C(6,3) placements x 4 images each
    checked = 0
    for a, b in itertools.combinations(copies, 2):
        union = set(a) | set(b)
        support = {abs(l) for c in union for l in c}
        union_excess = 2 * len(union) - len(support)
        assert union_excess >= 2
        checked += 1
    assert checked == 80 * 79 // 2


def test_union_excess_random_placements_excess_two(full_catalog_r3):
    # the same union property for excess-2 minimal entries, random placements
    rng = random.Random(61)
    mffs = [e.structure for e in full_catalog_r3.entries if e.is_mff]
    for _ in range(10_000):
        a = rng.choice(mffs)
        b = rng.choice(mffs)
        ground = max(a.order, b.order) * 2
        pa = rng.sample(range(1, ground + 1), a.order)
        pb = rng.sample(range(1, ground + 1), b.order)
        fa = {tuple(sorted(((1 if l > 0 else -1) * pa[abs(l) - 1] for l in cl.literals),
                           key=abs)) for cl in a.clauses}
        flips = [rng.random() < 0.5 for _ in range(ground + 1)]
        fb = set()
        for cl in b.clauses:
            lits = []
            for l in cl.literals:
                v = pb[abs(l) - 1]
                sign = (l > 0) ^ flips[v]
                lits.append(v if sign else -v)
            fb.add(tuple(sorted(lits, key=abs)))
        if fa == fb or fa <= fb or fb <= fa:
            continue  # nested or identical placements are out of scope
        union = fa | fb
        support = {abs(l) for c in union for l in c}
        ex_a = 2 * len(fa) - len({abs(l) for c in fa for l in c})
        ex_b = 2 * len(fb) - len({abs(l) for c in fb for l in c})
        assert 2 * len(union) - len(support) >= max(ex_a, ex_b) + 1
