import itertools
import math
import random

import pytest

from sparsecore import (
    BudgetExceededError,
    Formula,
    Hypergraph,
    automorphism_count,
    canonical_key,
)
from sparsecore import isomorph
from sparsecore.structures import dense_relabel

from oracle_utils import (
    apply_perm,
    apply_signed,
    brute_copies,
    canonical_dfs,
    count_copies,
    find_copies,
    items_of,
    random_formula,
    random_hypergraph,
    signed_images,
    vertex_images,
)


def test_key_invariant_under_sign_flip():
    assert canonical_key(Formula(3, [(1, 2, -3)])) == canonical_key(Formula(3, [(1, 2, 3)]))


def test_key_invariant_under_relabeling(f_pair):
    relabeled = apply_signed(f_pair, (3, 1, 2), (False, False, False))
    assert canonical_key(relabeled) == canonical_key(f_pair)


def test_key_separates_different_structures(f_pair):
    assert canonical_key(f_pair) != canonical_key(Formula(3, [(1, 2, 3)]))
    # same support structure, different isolated count
    assert canonical_key(f_pair) != canonical_key(Formula(4, [(1, 2, 3), (-1, -2, -3)]))


def test_canonicalization_soundness_random():
    rng = random.Random(2024)
    for _ in range(1000):
        n = rng.randint(1, 5)
        formula = random_formula(rng, n, min(3, n) if n >= 3 else n, rng.randint(0, 4)) \
            if n >= 3 else Formula(n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        flips = tuple(rng.random() < 0.5 for _ in range(n))
        image = apply_signed(formula, tuple(perm), flips)
        assert canonical_key(image) == canonical_key(formula)


def test_canonicalization_soundness_hypergraphs():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(2, 6)
        graph = random_hypergraph(rng, n, 2, rng.randint(0, min(6, n * (n - 1) // 2)))
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert canonical_key(apply_perm(graph, tuple(perm))) == canonical_key(graph)


def _random_on_full_support(rng, make, t, r, sizes):
    """A random structure whose support is exactly 1..t."""
    while True:
        structure = make(rng, t, r, rng.randint(*sizes))
        if len(structure.support) == t:
            return structure


def _symmetric_cases():
    fano = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]
    cube = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    return [
        Formula(6, [(1, 2, 3), (-1, -2, -3), (4, 5, 6), (-4, -5, -6)]),
        Formula(7, fano + [tuple(-v for v in line) for line in fano]),
        Formula(7, [(1, 2, 3), (-1, -2, -3), (3, 4, 5), (-3, -4, -5), (5, 6, 7), (-5, -6, -7)]),
        Hypergraph(7, fano),
        Hypergraph(8, [(a + 1, b + 1) for a, b in cube]),
        Hypergraph(8, [(a, b) for a in range(1, 5) for b in range(5, 9)]),
        Hypergraph(8, [(v, v % 8 + 1) for v in range(1, 9)]),
    ]


def _orbit_max(signed: bool) -> int:
    """Largest support whose group table fits ``_TABLE_ENTRY_CAP``."""
    t = 1
    while isomorph._table_entries(t + 1, signed) <= isomorph._TABLE_ENTRY_CAP:
        t += 1
    return t


def test_orbit_and_dfs_engines_agree():
    """Encoding and |Aut| of the bitmask orbit kernel equal the least-prefix
    search's at every support size the orbit engine serves: one clause
    width and a group table within the cap."""
    rng = random.Random(97)
    formula_max, graph_max = _orbit_max(True), _orbit_max(False)
    assert (formula_max, graph_max) == (7, 9)
    cases = list(_symmetric_cases())
    for t in range(3, formula_max + 1):
        cases += [_random_on_full_support(rng, random_formula, t, 3, (2, t + 2)) for _ in range(6)]
    for t in range(2, graph_max + 1):
        sizes = (-(-t // 2), min(2 * t, math.comb(t, 2)))
        cases += [_random_on_full_support(rng, random_hypergraph, t, 2, sizes) for _ in range(6)]
    for t in range(3, graph_max + 1):
        sizes = (-(-t // 3), min(t + 2, math.comb(t, 3)))
        cases += [_random_on_full_support(rng, random_hypergraph, t, 3, sizes) for _ in range(6)]
    for structure in cases:
        t, rows, _, signed = isomorph._parts(structure, "test")
        assert t <= (formula_max if signed else graph_max)
        orbit = isomorph._least_image(isomorph._anchored_images(t, rows, signed))
        assert isomorph._support_canonical(t, rows, signed) == orbit
        assert orbit == isomorph._canonical_levels(t, rows, signed), structure


def _random_mixed(rng, cls, t):
    """A random structure on exactly 1..t (t >= 2), with at least two items
    of widths 1-3 (clauses) or 2-3 (edges)."""
    items = set()
    while len({abs(x) for item in items for x in item}) < t or len(items) < 2:
        item = rng.sample(range(1, t + 1), rng.randint(1 if cls is Formula else 2, min(3, t)))
        items.add(tuple(v if cls is Hypergraph or rng.random() < 0.5 else -v for v in item))
    return cls(t, items)


def test_least_prefix_search_matches_the_reference_dfs():
    """Encoding and |Aut| of the least-prefix search equal the reference
    branch-and-bound DFS's on random mixed-width and one-width inputs."""
    rng = random.Random(404)
    cases = [_random_mixed(rng, cls, t) for cls in (Formula, Hypergraph)
             for t in range(2, 8) for _ in range(4)]
    cases += [_random_on_full_support(rng, random_formula, t, 3, (2, t + 2))
              for t in range(3, 7) for _ in range(3)]
    cases += [_random_on_full_support(rng, random_hypergraph, t, 3,
                                      (-(-t // 3), min(t + 2, math.comb(t, 3))))
              for t in range(3, 9) for _ in range(3)]
    for structure in cases:
        t, rows, _, signed = isomorph._parts(structure, "test")
        assert isomorph._canonical_levels(t, rows, signed) == \
            canonical_dfs(t, rows, signed), structure


def _random_image(rng, structure):
    """The structure under a random element of its group."""
    perm = list(range(1, structure.order + 1))
    rng.shuffle(perm)
    if not structure.signed:
        return apply_perm(structure, tuple(perm))
    return apply_signed(structure, tuple(perm), tuple(rng.random() < 0.5 for _ in perm))


def test_keys_past_the_orbit_limit_are_invariant():
    """canonical_key and automorphism_count of 3-CNF on 8-10 variables and
    3-graphs on 10-12 vertices, past the orbit kernel's group table, are
    unchanged by random group elements."""
    rng = random.Random(808)
    cases = [_random_on_full_support(rng, random_formula, t, 3, (-(-t // 3), t + 4))
             for t in (8, 9, 10) for _ in range(4)]
    cases += [_random_on_full_support(rng, random_hypergraph, t, 3, (-(-t // 3), t + 4))
              for t in (10, 11, 12) for _ in range(4)]
    for structure in cases:
        assert isomorph._table_entries(len(structure.support), structure.signed) > \
            isomorph._TABLE_ENTRY_CAP
        key, aut = canonical_key(structure), automorphism_count(structure)
        for _ in range(3):
            image = _random_image(rng, structure)
            assert (canonical_key(image), automorphism_count(image)) == (key, aut), structure


def test_automorphisms_of_disjoint_unions_past_the_orbit_limit():
    """m disjoint copies of a connected H have |Aut(H)|^m * m! automorphisms."""
    pairs = Formula(9, [c for v in (1, 4, 7)
                        for c in ((v, v + 1, v + 2), (-v, -v - 1, -v - 2))])
    assert automorphism_count(pairs) == 12 ** 3 * 6 == 10368
    cycles = Hypergraph(10, [(v + j, (v + 1) % 5 + j) for j in (1, 6) for v in range(5)])
    assert automorphism_count(cycles) == 10 ** 2 * 2 == 200
    rng = random.Random(9)
    assert canonical_key(_random_image(rng, pairs)) == canonical_key(pairs)
    assert canonical_key(_random_image(rng, cycles)) == canonical_key(cycles)


def test_least_prefix_level_is_capped(monkeypatch):
    """A kept level past ``_TABLE_ENTRY_CAP`` labelings x support raises
    as soon as one node's children pass it: three disjoint pairs keep
    10,368 labelings, 93,312 entries at t = 9."""
    pairs = Formula(9, [c for v in (1, 4, 7)
                        for c in ((v, v + 1, v + 2), (-v, -v - 1, -v - 2))])
    monkeypatch.setattr(isomorph, "_TABLE_ENTRY_CAP", 10_000)
    with pytest.raises(BudgetExceededError,
                       match=r"support 9: least-prefix level of 10,\d{3} entries"):
        canonical_key(pairs)


def test_bitmask_order_is_descending_tuple_order():
    for width in (2, 3):
        sets = list(itertools.combinations(range(10), width))
        masks = {s: isomorph._pack_row(s) for s in sets}
        for a, b in itertools.product(sets, repeat=2):
            desc_a, desc_b = tuple(sorted(a, reverse=True)), tuple(sorted(b, reverse=True))
            assert (masks[a] < masks[b]) == (desc_a < desc_b)
        for s in sets:
            assert isomorph._decode_orbit_row([masks[s]]) == (tuple(sorted(s, reverse=True)),)


def test_catalog_keys_and_automorphisms_are_pinned(full_catalog_r3, dense_catalog_k3):
    assert [(e.iso_key, e.aut_count) for e in full_catalog_r3.entries] == [
        (b"F|3|0|4,2,0;5,3,1", 12),
        (b"F|4|0|4,2,0;6,2,1;7,5,3", 2),
        (b"F|6|0|4,2,0;5,3,1;10,8,6;11,9,7", 288),
        (b"F|6|0|4,2,0;6,3,1;10,8,5;11,9,7", 16),
        (b"F|6|0|4,2,0;8,6,1;10,7,3;11,9,5", 24),
    ]
    assert [(e.iso_key, e.aut_count) for e in dense_catalog_k3.entries] == [
        (b"G|4|0|1,0;2,0;2,1;3,0;3,1;3,2", 24),
    ]


def test_automorphism_examples(f_pair, k4):
    assert automorphism_count(f_pair) == 12
    assert automorphism_count(k4) == 24
    assert automorphism_count(Formula(3, [(1, 2, 3)])) == 6


def test_automorphism_divides_group_order():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(3, 5)
        formula = random_formula(rng, n, 3, rng.randint(1, 4))
        aut = automorphism_count(formula)
        assert (2 ** n * math.factorial(n)) % aut == 0


def test_orbit_stabilizer_sanity():
    rng = random.Random(31)
    for _ in range(15):
        formula = random_formula(rng, 4, 3, rng.randint(2, 4))
        if len(formula.support) != 4:
            continue
        images = len(signed_images(formula))
        assert images * automorphism_count(formula) == 2 ** 4 * math.factorial(4)
    for _ in range(15):
        graph = random_hypergraph(rng, 4, 2, rng.randint(2, 5))
        if len(graph.support) != 4:
            continue
        images = len(vertex_images(graph))
        assert images * automorphism_count(graph) == math.factorial(4)


def test_isolated_variables_enter_aut_and_key():
    padded = Formula(5, [(1, 2, 3), (-1, -2, -3)])
    assert automorphism_count(padded) == 12 * (2 ** 2) * 2  # aut(core) * 2^m * m!
    assert canonical_key(padded) == canonical_key(
        Formula(5, [(2, 4, 5), (-2, -4, -5)]))


def test_count_copies_examples(f_pair, complete3):
    assert count_copies(f_pair, f_pair) == 1
    assert count_copies(f_pair, complete3) == 4
    graph = Hypergraph(6, [(1, 2, 3), (2, 4, 5), (1, 4, 6)])
    assert count_copies(Hypergraph(3, [(1, 2, 3)]), graph) == graph.size


def test_count_copies_with_isolated_pattern_variables(f_pair):
    # a pattern with one isolated variable matches any extra host variable
    padded = Formula(4, [(1, 2, 3), (-1, -2, -3)])
    host = Formula(6, [(1, 2, 3), (-1, -2, -3)])
    assert count_copies(padded, host) == 3
    assert count_copies(Formula(2), host) == 15  # bare variable pairs


def _copy_finder_cases():
    """(pattern, host) pairs: random small formula and hypergraph hosts, with
    patterns cut out of them (so copies exist), random patterns, patterns
    with isolated variables and empty patterns.  Pattern orders stay small
    enough for the brute force over the whole group."""
    rng = random.Random(606)
    kinds = [(random_formula, Formula, 3, 5), (random_hypergraph, Hypergraph, 2, 6),
             (random_hypergraph, Hypergraph, 3, 6)]
    for _ in range(14):
        for make, cls, r, max_order in kinds:
            n = rng.randint(r + 1, 7)
            host = make(rng, n, r, rng.randint(1, min(9, math.comb(n, r))))
            items = sorted(items_of(host))
            cut = rng.sample(items, rng.randint(1, min(3, len(items))))
            support, dense = dense_relabel(cut)
            order = len(support) + rng.randint(0, 1)
            if order <= max_order:
                yield cls(order, dense), host
            t = rng.randint(r, max_order)
            yield make(rng, t, r, rng.randint(1, min(3, math.comb(t, r)))), host
            yield cls(rng.randint(0, 3)), host


def test_find_copies_against_brute_force():
    found = 0
    for pattern, host in _copy_finder_cases():
        assert count_copies(pattern, host) == len(brute_copies(pattern, host)), (pattern, host)
        support, dense = dense_relabel(items_of(pattern))
        core = type(pattern)(len(support), dense)
        copies = list(find_copies(pattern, host))
        assert len(copies) == len(set(copies))  # each copy once
        if pattern.order <= host.order:
            assert set(copies) == brute_copies(core, host), (pattern, host)
        else:
            assert copies == []
        found += len(copies)
    assert found > 100


def test_find_copies_refuses_mixed_kinds(f_pair, k4):
    with pytest.raises(TypeError):
        list(find_copies(f_pair, k4))
    with pytest.raises(TypeError):
        list(find_copies(k4, f_pair))
    with pytest.raises(TypeError):
        count_copies(f_pair, k4)
    with pytest.raises(TypeError):
        count_copies((1, 2, 3), f_pair)


def test_order_cap_raises():
    with pytest.raises(BudgetExceededError):
        canonical_key(Formula(20))
    with pytest.raises(BudgetExceededError):
        automorphism_count(Formula(20))
