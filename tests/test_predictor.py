import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sparsecore import (
    AlphaPoly,
    Catalog,
    Formula,
    core_type_distribution,
    enumerate_full,
    enumerate_k_dense,
    expected_copies_exact,
    failure_expansion,
    first_order_containment,
    tail_bound,
    tail_bound_hypergraph,
)
from sparsecore.catalog import FLAG_ATTRS
from sparsecore.predictor import EVENTS, _cover_weight

from oracle_utils import (
    copy_cover_weight,
    copy_minimal_flags,
    labeled_copy_count,
    reference_expansion_terms,
)


def test_expected_copies_examples(f_pair):
    assert float(expected_copies_exact(f_pair, 5, 1)) == pytest.approx(0.064)
    single = Formula(3, [(1, 2, 3)])
    assert expected_copies_exact(single, 3, 9) == 8  # p = 1: every labeled copy present
    assert expected_copies_exact(f_pair, 10, 0) == 0
    for alpha in (1, 0.5):  # n below the order, exact and float
        assert expected_copies_exact(f_pair, 2, alpha) == 0


def test_expected_copies_match_labeled_oracle(f_pair, full_catalog_r3):
    for entry in full_catalog_r3.entries:
        copies = labeled_copy_count(entry.structure, 8)
        for alpha in (Fraction(1, 2), Fraction(1), Fraction(2)):
            p = alpha * Fraction(8) ** (-2)
            expected = copies * p ** entry.size
            got = expected_copies_exact(entry.structure, 8, alpha)
            assert got == expected


def test_first_order_examples(f_pair, k4):
    term = first_order_containment(f_pair)
    assert (term.coefficient, term.alpha_power, term.exponent) == (Fraction(2, 3), 2, 1)
    term4 = first_order_containment(k4, k=3)
    assert (term4.coefficient, term4.alpha_power, term4.exponent) == (Fraction(1, 24), 6, 2)
    assert term.evaluate(30, 0) == 0
    with pytest.raises(ValueError):
        first_order_containment(Formula(3, [(1, 2, 3)]))
    with pytest.raises(ValueError):
        first_order_containment(k4)  # k is required for hypergraphs


def test_first_order_vs_exact_ratio_band(full_catalog_r3):
    for entry in full_catalog_r3.entries:
        t = entry.order
        term = first_order_containment(entry.structure)
        for n in (12, 24, 48):
            exact = expected_copies_exact(entry.structure, n, Fraction(1))
            leading = term.evaluate(n, Fraction(1))
            ratio = exact / leading
            assert Fraction(1) - Fraction(2 * t * t, n) <= ratio <= 1


def test_core_type_distribution_properties(full_catalog_r3):
    entries = [e for e in full_catalog_r3.entries if e.excess == 2 and e.is_mff]
    dist = core_type_distribution(entries, Fraction(4, 5))
    weights = dict(dist.weights)
    assert sum(weights.values()) == 1
    # weights proportional to the first-order coefficients times alpha powers
    raw = {
        e.iso_key: first_order_containment(e.structure).coefficient
        * Fraction(4, 5) ** e.size
        for e in entries
    }
    total = sum(raw.values())
    for key, w in weights.items():
        assert w == raw[key] / total
    single = core_type_distribution(entries[:1], Fraction(1, 2))
    assert single.weights[0][1] == 1
    with pytest.raises(ValueError):
        core_type_distribution([], 1)
    with pytest.raises(ValueError):
        core_type_distribution(entries, 0)
    with pytest.raises(ValueError):
        core_type_distribution(list(full_catalog_r3.entries), 1)  # mixed excess


def test_failure_expansion_first_order(full_catalog_r3):
    exp = failure_expansion(full_catalog_r3, "pl-fail", 1)
    assert exp.terms[1] == AlphaPoly({2: Fraction(2, 3)})
    # Bonferroni first term: sum of leading containment terms at the minimal excess
    assert float(exp.evaluate(30, 0.8)) == pytest.approx((2 / 3) * 0.64 / 30)
    assert float(exp.evaluate(60, 0.8)) * 2 == pytest.approx(float(exp.evaluate(30, 0.8)))


def test_failure_expansion_second_order(full_catalog_r3):
    exp = failure_expansion(full_catalog_r3, "pl-fail", 2)
    assert exp.terms[1] == AlphaPoly({2: Fraction(2, 3)})
    # second order: the falling-factorial correction of the leading class,
    # the excess-2 minimal classes, and the disjoint pair of leading copies
    mff2 = [e for e in full_catalog_r3.entries if e.is_mff and e.excess == 2]
    expected = {2: Fraction(-2), 4: Fraction(-2, 9)}
    for e in mff2:
        expected[e.size] = expected.get(e.size, Fraction(0)) + Fraction(2 ** e.order, e.aut_count)
    assert exp.terms[2] == AlphaPoly(expected)


def test_failure_expansion_kcore(dense_catalog_k3):
    exp = failure_expansion(dense_catalog_k3, "kcore", 2)
    assert exp.terms[1] == AlphaPoly()
    assert exp.terms[2] == AlphaPoly({6: Fraction(1, 24)})
    # independent falling-factorial bookkeeping: expanding
    # (n)_4/n^4 * a^6/24 * n^-2 = a^6/24 * sum_d c_d n^-(2+d) with
    # c_d the x^d coefficient of (1-x)(1-2x)(1-3x); only c_0 = 1 lands
    # at or below n^-2, so p_2 is exactly a^6/24
    coeffs = [Fraction(1)]
    for i in range(4):
        coeffs = coeffs + [Fraction(0)]
        for d in range(len(coeffs) - 1, 0, -1):
            coeffs[d] -= i * coeffs[d - 1]
    assert coeffs[0] == 1 and coeffs[1] == -6


COMPLETE_CATALOGS = pytest.mark.parametrize("make, events", [
    (lambda: enumerate_full(3, 2), ("pl-fail", "unsat")),
    (lambda: enumerate_full(4, 2), ("pl-fail", "unsat")),
    (lambda: enumerate_full(5, 3), ("pl-fail", "unsat")),
    (lambda: enumerate_k_dense(2, 3, 3), ("kcore", "noncolorable")),
    (lambda: enumerate_k_dense(3, 2, 2), ("kcore", "noncolorable")),
], ids=["full-3-2", "full-4-2", "full-5-3", "dense-2-3-3", "dense-3-2-2"])


@COMPLETE_CATALOGS
def test_failure_expansion_matches_configuration_search(make, events):
    """Summing over the catalog gives the terms of the breadth-first search
    over unions of copies, at every certified order."""
    catalog = make()
    for event in events:
        for s_max in range(1, catalog.max_excess + 1):
            got = failure_expansion(catalog, event, s_max).to_json_dict()
            assert (got["event"], got["s_max"]) == (event, s_max)
            assert got["terms"] == reference_expansion_terms(catalog, event, s_max), \
                (event, s_max)


@COMPLETE_CATALOGS
def test_failure_tests_match_copy_search(make, events):
    """Entry by entry, the Moebius weight from the event's failure test is
    the signed count of copy covers, at every certified order, and the
    deletion-check minimality flags are the copy-based ones."""
    catalog = make()
    attr = FLAG_ATTRS[EVENTS[events[0]].flag]
    assert copy_minimal_flags(list(catalog.entries), attr) == list(catalog.entries)
    for event in events:
        flag = EVENTS[event].flag
        for s_max in range(1, catalog.max_excess + 1):
            bases = [e.structure for e in catalog.with_flag(flag) if e.excess <= s_max]
            for w in catalog.entries:
                if w.excess <= s_max:
                    assert (_cover_weight(w.structure, EVENTS[event].fails, catalog.k)
                            == copy_cover_weight(w.structure, bases)), (event, s_max, w.iso_key)


@pytest.mark.parametrize("make, event", [
    (lambda: enumerate_full(3, 2), "pl-fail"),
    (lambda: enumerate_full(4, 2), "pl-fail"),
    (lambda: enumerate_k_dense(2, 3, 2), "kcore"),
    (lambda: enumerate_k_dense(2, 4, 5), "kcore"),
    (lambda: enumerate_k_dense(3, 2, 2), "kcore"),
    (lambda: enumerate_k_dense(2, 3, 2), "noncolorable"),
    (lambda: enumerate_k_dense(2, 4, 5), "noncolorable"),
    # the least unsatisfiable 3-CNF, all eight clauses on three variables,
    # has excess 13: only a catalog capped at order 3 reaches it
    (lambda: enumerate_full(3, 13, order_cap=3), "unsat"),
], ids=["pl-fail-3", "pl-fail-4", "kcore-2-3", "kcore-2-4", "kcore-3-2",
        "noncolorable-2-3", "noncolorable-2-4", "unsat-3"])
def test_least_obstructions_have_cover_weight_one(make, event):
    """The report's ``predicted`` reads the expansion's term at the least
    excess s0 of the event's obstructions as the sum of their class
    weights: each is covered by one copy, itself, and no other entry of
    excess <= s0 is a union of copies."""
    catalog = make()
    flagged = catalog.with_flag(EVENTS[event].flag)
    s0 = min(e.excess for e in flagged)
    for w in catalog.entries:
        if w.excess <= s0:
            assert _cover_weight(w.structure, EVENTS[event].fails, catalog.k) == \
                (w in flagged and w.excess == s0), w.iso_key


def test_failure_expansion_at_excess_3():
    """The excess-3 k-core expansion, pinned to the terms the copy-based
    weights give (the configuration search is too slow at this size)."""
    catalog = enumerate_k_dense(3, 2, 3)
    assert failure_expansion(catalog, "kcore", 3).to_json_dict()["terms"] == {
        "1": [], "2": [[3, "1/6"], [4, "5/48"]],
        "3": [[3, "-1"], [4, "-41/48"], [5, "29/24"], [6, "97/288"]],
    }
    exp = failure_expansion(catalog, "noncolorable", 3)
    assert all(poly.is_zero() for poly in exp.terms.values())


def test_failure_expansion_below_minimal_excess(dense_catalog_k3):
    exp = failure_expansion(dense_catalog_k3, "kcore", 1)
    assert exp.terms[1] == AlphaPoly()


def test_failure_expansion_refusals(full_catalog_r3):
    truncated = Catalog(
        kind="sat", r=3, k=None, max_excess=2, order_cap=4, size_cap=3,
        complete=False, entries=full_catalog_r3.entries,
    )
    with pytest.raises(ValueError):
        failure_expansion(truncated, "pl-fail", 1)
    with pytest.raises(ValueError):
        failure_expansion(full_catalog_r3, "pl-fail", 3)  # beyond certified excess
    with pytest.raises(ValueError):
        failure_expansion(full_catalog_r3, "kcore", 1)  # wrong catalog kind


def test_unsat_expansion_is_zero_at_certified_orders(full_catalog_r3):
    # no minimal unsatisfiable structure exists at excess <= 2, and the
    # catalog certifies that, so the expansion is exactly zero
    exp = failure_expansion(full_catalog_r3, "unsat", 2)
    assert all(poly.is_zero() for poly in exp.terms.values())


def _popcount(arr):
    count = np.zeros_like(arr)
    tmp = arr.copy()
    while tmp.any():
        count += tmp & 1
        tmp >>= 1
    return count


def exact_core_probability(n: int, alpha: Fraction) -> Fraction:
    """P(nonempty 3-core) for the r=2 model, exactly, by enumerating all
    2^C(n,2) graphs with a vectorized peeling pass."""
    edges = list(itertools.combinations(range(n), 2))
    m = len(edges)
    inc = np.zeros(n, dtype=np.int64)
    for ei, (u, v) in enumerate(edges):
        inc[u] |= 1 << ei
        inc[v] |= 1 << ei
    alive = np.arange(1 << m, dtype=np.int64)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            deg = _popcount(alive & inc[v])
            low = (deg > 0) & (deg < 3)
            if low.any():
                alive = np.where(low, alive & ~inc[v], alive)
                changed = True
    fails = alive != 0
    edge_counts = _popcount(np.arange(1 << m, dtype=np.int64))
    p = alpha / n
    total = Fraction(0)
    for e_count in range(m + 1):
        hit = int(np.count_nonzero(fails & (edge_counts == e_count)))
        if hit:
            total += hit * p ** e_count * (1 - p) ** (m - e_count)
    return total


def test_expansion_against_exact_enumeration(dense_catalog_k3):
    """The truncation error of the order-2 expansion shrinks like n^-3."""
    exp = failure_expansion(dense_catalog_k3, "kcore", 2)
    alpha = Fraction(3, 2)
    diffs = {}
    for n in (5, 6, 7):
        exact = exact_core_probability(n, alpha)
        truncated = exp.evaluate(n, alpha)
        diffs[n] = float(exact - truncated)
    for n, d in diffs.items():
        assert abs(d) * n ** 3 < 5.0, (n, d)
    assert abs(diffs[5]) > abs(diffs[6]) > abs(diffs[7])
    assert 1.5 < abs(diffs[5]) / abs(diffs[7]) < 4.5


def test_tail_bound_values():
    import mpmath

    got = tail_bound(3, 1.0, 1000, 10)
    ref = (mpmath.mpf(4) ** Fraction(2, 3) * mpmath.e * (mpmath.mpf(10) / 1000)
           ** Fraction(1, 3)) ** 10
    assert got == pytest.approx(float(ref), rel=1e-9)
    assert got == pytest.approx(48.98, rel=1e-3)


def test_tail_bound_monotonicity():
    values = [tail_bound(3, 1.0, n, 10) for n in (200, 400, 800, 1600)]
    assert all(a > b for a, b in zip(values, values[1:]))
    # once the base drops below one, the bound decreases in t
    small = [tail_bound(3, 0.5, 100_000, t) for t in (1, 2, 3, 4)]
    assert all(a > b for a, b in zip(small, small[1:]))
    with pytest.raises(ValueError):
        tail_bound(3, 1.0, 10, 9)


def test_tail_bound_hypergraph_values():
    val = tail_bound_hypergraph(2, 3, 1.5, 1000, 10)
    expected = (math.e * 1.5 ** (3 / 2) * (10 / 1000) ** (3 - 1 - 1 / 2)) ** 10
    assert val == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        tail_bound_hypergraph(2, 3, 1.5, 10, 11)


def test_alpha_poly_arithmetic():
    p = AlphaPoly({2: Fraction(2, 3)})
    q = AlphaPoly({2: Fraction(1, 3), 0: Fraction(1)})
    assert (p + q).coeffs == {2: Fraction(1), 0: Fraction(1)}
    assert p.scaled(3).coeffs == {2: Fraction(2)}
    assert p(Fraction(1, 2)) == Fraction(1, 6)
    assert p(0.5) == pytest.approx(1 / 6)
    assert AlphaPoly().is_zero()
    assert repr(p) == "2/3*a^2"
