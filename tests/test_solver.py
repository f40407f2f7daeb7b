import hashlib
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from sparsecore import (
    BudgetExceededError,
    Formula,
    Hypergraph,
    classify_colorable,
    classify_sat,
    decide_colorable,
    decide_sat,
    extract_muf,
    is_min_non_k_colorable,
    is_muf,
)
from sparsecore import experiments, solver
from sparsecore.experiments import ExperimentConfig
from sparsecore.solver import (
    count_satisfied,
    least_coloring,
    least_satisfying,
    max_satisfied_assignment,
    proper_coloring,
    satisfies,
)

from oracle_utils import (
    brute_colorable,
    brute_max_sat,
    random_formula,
    random_hypergraph,
    scan_least_satisfying,
    scan_max_satisfied,
)


def test_decide_sat_examples(f_pair, complete3):
    verdict = decide_sat(f_pair)
    assert verdict.status == "SAT"
    assert satisfies(f_pair, verdict.assignment)
    assert verdict.max_satisfied == 2

    verdict = decide_sat(complete3)
    assert verdict.status == "UNSAT"
    assert verdict.max_satisfied == 7
    assert verdict.muf == complete3
    assert verdict.muf_variables == (1, 2, 3)
    assert count_satisfied(complete3, verdict.assignment) == 7


def test_empty_core_lifts_full_assignment():
    formula = Formula(7, [(1, 2, 3), (3, 4, 5), (-5, 6, 7)])
    verdict = decide_sat(formula)
    assert verdict.status == "SAT" and verdict.core_order == 0
    assert satisfies(formula, verdict.assignment)


def test_extract_muf_examples(complete3):
    assert extract_muf(complete3) == complete3
    extra = Formula(6, list(complete3.clauses) + [(4, 5, 6)])
    assert extract_muf(extra) == complete3
    assert extract_muf(extract_muf(extra)) == extract_muf(extra)
    with pytest.raises(ValueError):
        extract_muf(Formula(3, [(1, 2, 3)]))


def test_emitted_mufs_are_minimal():
    rng = random.Random(77)
    found = 0
    while found < 5:
        formula = random_formula(rng, 6, 3, rng.randint(10, 20))
        if brute_max_sat(formula) == formula.size:
            continue
        muf = extract_muf(formula)
        assert is_muf(muf)
        found += 1


def test_decide_sat_matches_brute_force():
    rng = random.Random(55)
    for _ in range(300):
        formula = random_formula(rng, 8, 3, rng.randint(0, 16))
        verdict = decide_sat(formula)
        best = brute_max_sat(formula)
        assert verdict.max_satisfied == best
        assert (verdict.status == "SAT") == (best == formula.size)
        if verdict.status == "UNSAT":
            assert is_muf(verdict.muf)
            mapped = {
                tuple(sorted(((1 if l > 0 else -1) * verdict.muf_variables[abs(l) - 1]
                              for l in cl.literals), key=abs))
                for cl in verdict.muf.clauses
            }
            assert mapped <= {cl.literals for cl in formula.clauses}


def test_extract_muf_agrees_with_decide_sat_past_the_core():
    # both minimize by the same deletion loop: extract_muf over all the
    # clauses, decide_sat over the pure-literal core only
    rng = random.Random(31)
    found = drawn = 0
    while found < 60:
        formula = random_formula(rng, 6, 3, rng.randint(12, 20))
        drawn += 1
        if scan_least_satisfying(formula.rows(), 6) is not None:
            continue
        padded = list(formula.clauses)
        for v in (7, 8, 9):  # pure, so outside the core
            a, b = rng.sample(range(1, 7), 2)
            padded.append((rng.choice((1, -1)) * a, rng.choice((1, -1)) * b, v))
        padded = Formula(9, padded)
        verdict = decide_sat(padded)
        assert verdict.core_size < padded.size
        assert extract_muf(padded) == verdict.muf
        found += 1
    assert drawn == 4963


def test_sat_witness_is_lexicographically_least():
    rng = random.Random(8)
    for _ in range(100):
        formula = random_formula(rng, 6, 3, rng.randint(1, 8))
        verdict = decide_sat(formula)
        if verdict.status != "SAT" or verdict.core_order == 0:
            continue
        # the returned core witness is minimal among satisfying assignments
        # of the core in (variable 1, variable 2, ...) order with False < True;
        # check against brute enumeration on the whole formula restricted to
        # formulas that are already full (core == formula)
        if verdict.core_order != formula.order:
            continue
        for bits in itertools.product((False, True), repeat=formula.order):
            if satisfies(formula, bits):
                assert verdict.assignment == bits
                break


def test_budget_exceeded_is_an_error(complete3):
    with pytest.raises(BudgetExceededError):
        decide_sat(complete3, core_budget=2)
    with pytest.raises(BudgetExceededError):
        extract_muf(complete3, core_budget=2)
    k4full = Hypergraph(4, [(a, b) for a in range(1, 5) for b in range(a + 1, 5)])
    with pytest.raises(BudgetExceededError):
        decide_colorable(k4full, 3, coloring_budget=10)


def test_every_entry_point_reads_the_budget_at_call_time(monkeypatch, complete3, k4):
    monkeypatch.setattr(solver, "SAT_CORE_BUDGET", 2)
    monkeypatch.setattr(solver, "COLORING_BUDGET", 10)
    for entry in (decide_sat, extract_muf, classify_sat, is_muf):
        with pytest.raises(BudgetExceededError, match="core order 3 exceeds budget 2"):
            entry(complete3)
    for entry in (decide_colorable, classify_colorable, is_min_non_k_colorable):
        with pytest.raises(BudgetExceededError, match=r"3\^4 colorings exceed budget 10"):
            entry(k4, 3)


def test_coloring_budget_counts_the_colorings_scanned():
    # k = 20 colors on 7 vertices: the scan visits 7^7 colorings, not 20^7 > COLORING_BUDGET
    complete = Hypergraph(7, list(itertools.combinations(range(1, 8), 4)))
    verdict = decide_colorable(complete, 20)
    assert verdict.colorable and verdict.core_order == 7
    assert verdict.coloring == (1, 1, 1, 2, 2, 2, 3)
    with pytest.raises(BudgetExceededError, match=r"7\^7 colorings exceed budget"):
        decide_colorable(complete, 20, coloring_budget=7 ** 7 - 1)


def test_decide_colorable_examples(k4):
    verdict = decide_colorable(k4, 3)
    assert not verdict.colorable
    assert verdict.obstruction == k4
    assert verdict.obstruction_vertices == (1, 2, 3, 4)

    pendant = Hypergraph(5, list(k4.edges) + [(1, 5)])
    verdict = decide_colorable(pendant, 3)
    assert not verdict.colorable
    assert verdict.obstruction == k4
    assert verdict.obstruction_vertices == (1, 2, 3, 4)

    tree = Hypergraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (2, 6)])
    verdict = decide_colorable(tree, 2)
    assert verdict.colorable
    assert proper_coloring(tree, verdict.coloring)


def test_decide_colorable_matches_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        graph = random_hypergraph(rng, 7, 2, rng.randint(0, 14))
        verdict = decide_colorable(graph, 3)
        assert verdict.colorable == brute_colorable(graph, 3)
        if verdict.colorable:
            assert proper_coloring(graph, verdict.coloring)
        else:
            assert is_min_non_k_colorable(verdict.obstruction, 3)
            mapped = {
                tuple(sorted(verdict.obstruction_vertices[v - 1] for v in e))
                for e in verdict.obstruction.edges
            }
            assert mapped <= set(graph.edges)


def test_three_uniform_weak_coloring():
    rng = random.Random(12)
    for _ in range(60):
        graph = random_hypergraph(rng, 7, 3, rng.randint(1, 10))
        verdict = decide_colorable(graph, 2)
        assert verdict.colorable == brute_colorable(graph, 2)


def _brute_least_coloring(edges, t, k):
    for colors in itertools.product(range(1, k + 1), repeat=t):
        if all(len({colors[v - 1] for v in e}) > 1 for e in edges):
            return colors
    return None


def test_least_coloring_is_lexicographically_least():
    rng = random.Random(31)
    cases = []
    for _ in range(200):
        k, r = rng.choice((2, 3, 4)), rng.choice((2, 3))
        t = rng.randint(r, 7)
        edges = [tuple(sorted(rng.sample(range(1, t + 1), r)))
                 for _ in range(rng.randint(0, 3 * t))]
        cases.append((edges, t, k))
    # The scan runs in chunks of k^low colorings (the largest power of k
    # within 2^16) that share the digits of the t - low high vertices.
    # Renaming colors gives vertex 1 color 1, so with one high vertex (k=3,
    # t=11; k=2, t=17) a colorable answer lies in chunk 0 and a
    # non-colorable instance scans every chunk; with two (k=3, t=12; k=2,
    # t=18) an edge between vertices 1 and 2 puts the answer in chunk 1.
    fano = [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (5, 6, 1), (6, 7, 2), (7, 1, 3)]
    at = (1, 12, 13, 14, 15, 16, 17)
    late = [
        ([(1, 2), (2, 11), (2, 12), (11, 12)], 12, 3),
        ([(1, 2), (2, 18), (17, 18)], 18, 2),
    ]
    cases += late + [
        ([(a, b) for a, b in itertools.combinations((1, 9, 10, 11), 2)], 11, 3),  # K4
        ([(1, 10), (10, 11), (1, 11), (5, 6)], 11, 3),
        ([(1, 16), (16, 17), (1, 17)], 17, 2),  # odd cycle
        ([tuple(sorted(at[v - 1] for v in e)) for e in fano], 17, 2),  # Fano plane
        ([(1, 2, 17), (3, 16, 17)], 17, 2),
    ]
    # non-colorable in one chunk whose last word has pad bits past k^t:
    # the answer must be None, never a pad index
    k4 = list(itertools.combinations(range(1, 5), 2))
    cases += [([(1, 2), (2, 3), (1, 3)], 3, 2),  # 8 colorings in one word
              (k4, 4, 3), (k4, 5, 3)]  # 81 and 243 colorings
    for edges, t, k in cases:
        assert least_coloring(edges, t, k) == _brute_least_coloring(edges, t, k), \
            (edges, t, k)
    for edges, t, k in late:
        assert least_coloring(edges, t, k)[1] == 2


def test_least_coloring_with_more_colors_than_vertices():
    # a least coloring uses no color above t, so k = 10,000 scans what k = t does
    tracemalloc.start()
    try:
        for edges, t in (([(1, 2)], 2), ([(1, 2), (2, 3), (1, 3)], 3), ([(1,)], 1)):
            assert least_coloring(edges, t, 10_000) == _brute_least_coloring(edges, t, 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_row_level_deciders_match_the_structure_entry_points():
    rng = random.Random(14)
    verdicts = set()
    for _ in range(120):
        formula = random_formula(rng, 8, 3, rng.randint(0, 60))
        rows = [cl.literals for cl in formula.clauses]
        rng.shuffle(rows)
        verdict = solver._decide_sat(8, sorted(rows), 28)
        assert verdict == decide_sat(formula)
        verdicts.add(verdict.status)

        graph = random_hypergraph(rng, 7, 2, rng.randint(0, 14))
        edges = list(graph.edges)
        rng.shuffle(edges)
        verdict = solver._decide_colorable(7, sorted(edges), 3, 300_000_000)
        assert verdict == decide_colorable(graph, 3)
        verdicts.add(verdict.colorable)
    assert verdicts == {"SAT", "UNSAT", True, False}


def test_false_bits_table_is_read_only_and_exact():
    """The one demand-row table, read at k = 2 by the SAT scans and at
    k = 3, 4 by the coloring scans."""
    for k in (2, 3, 4):
        for low in range(7):
            table = solver._value_bits(k, low)
            size = k ** low
            assert table.dtype == "uint64" and not table.flags.writeable
            assert table.shape == (k * low + 1, -(-size // 64))
            for row, bits in enumerate(table.tolist()):
                value = sum(word << (64 * w) for w, word in enumerate(bits))
                v, c = row // k + 1, row % k
                for a in range(64 * len(bits)):
                    # pad bits past k^low are set in every row, like the
                    # all-ones last row; variable v is digit low - v of a
                    meets = a >= size or row == k * low or a // k ** (low - v) % k == c
                    assert (value >> a & 1) == meets, (k, low, row, a)
        with pytest.raises(ValueError):
            solver._value_bits(k, 3)[0, 0] = 0
    assert solver._value_bits(2, 16).shape == (33, 1024)


def test_least_coloring_shares_one_read_only_digit_table():
    # t = 11 and t = 12 both scan chunks of 3^10 colorings, so the two
    # calls read the same (k, low) = (3, 10) table
    solver._value_bits.cache_clear()
    k4 = [(a, b) for a, b in itertools.combinations((1, 9, 10, 11), 2)]
    for edges, t in ((k4, 11), ([(1, 2), (2, 11), (2, 12), (11, 12)], 12)):
        assert least_coloring(edges, t, 3) == _brute_least_coloring(edges, t, 3)
    assert solver._value_bits.cache_info().currsize == 1
    table = solver._value_bits(3, 10)
    assert table.dtype == "uint64" and not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1


def _mixed_clauses(rng, t, m):
    """m random clauses of widths 1-3 on variables 1..t."""
    clauses = []
    for _ in range(m):
        variables = sorted(rng.sample(range(1, t + 1), rng.randint(1, min(3, t))))
        clauses.append(tuple(v * rng.choice((1, -1)) for v in variables))
    return clauses


def test_packed_scans_match_the_arange_reference():
    """Both scans against the arange scans they replaced, at every core
    order 0-18: past t = 16 they walk the high prefixes, and below t = 6
    the one word's pad bits must never be chosen."""
    rng = random.Random(19)
    cases = [(_mixed_clauses(rng, t, m), t)
             for t in range(1, 19) for m in (1, t // 2, t, 2 * t, 4 * t)]
    cases.append(([], 0))
    # every clause over t <= 5 variables: unsatisfiable, so a pad bit is
    # the only assignment a scan could wrongly return
    cases += [([tuple(v if (a >> (t - v)) & 1 else -v for v in range(1, t + 1))
                for a in range(2 ** t)], t) for t in range(1, 6)]
    # answers in the last high prefixes, and clauses on high variables only
    cases += [([(1,), (2,), (-3, 17), (18,)], 18), ([(1, 2), (-1,), (-2,)], 18),
              ([(-1, 2), (1,), (-2, 17), (-17, 16)], 17), ([(1, -2), (-1, 2)], 18)]
    statuses = {t: set() for t in range(19)}
    for clauses, t in cases:
        least = least_satisfying(clauses, t)
        assert least == scan_least_satisfying(clauses, t), (clauses, t)
        assert max_satisfied_assignment(clauses, t) == scan_max_satisfied(clauses, t), \
            (clauses, t)
        statuses[t].add(least is None)
    assert statuses.pop(0) == {False}
    assert all(seen == {True, False} for seen in statuses.values())


def test_fixed_seed_verdicts_are_pinned():
    """Every verdict of 200 validate-sat trials at n=15, alpha=4.0, seed 8
    (69 of them UNSAT) digested: status, assignment, MaxSAT, MUF rows and
    MUF variables.  The report digest pins only their aggregate."""
    config = ExperimentConfig(kind="sat", n=15, r=3, alpha=4.0, trials=200, seed=8)
    records = []
    for b, count in experiments._split_batches(config.trials, config.batch_size):
        for items in experiments._per_owner(
                *experiments._batch_items(config, "sat", b, count), np.arange(count)):
            v = solver._decide_sat(config.n, sorted(items), solver.SAT_CORE_BUDGET)
            records.append([v.status, v.assignment, v.max_satisfied,
                            v.muf and v.muf.rows(), v.muf_variables])
    assert sum(r[0] == "UNSAT" for r in records) == 69
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16] == "b830dd34443abcb2"


def test_fixed_seed_coloring_verdicts_are_pinned():
    """Every verdict of 200 validate-coloring trials at n=12, r=2, k=3,
    alpha=3.0, seed 8 (30 of them non-colorable) digested: colorable,
    coloring, obstruction rows and obstruction vertices."""
    config = ExperimentConfig(kind="coloring", n=12, r=2, alpha=3.0, trials=200, seed=8, k=3)
    records = []
    for b, count in experiments._split_batches(config.trials, config.batch_size):
        for items in experiments._per_owner(
                *experiments._batch_items(config, "hypergraph", b, count), np.arange(count)):
            v = solver._decide_colorable(config.n, sorted(items), config.k,
                                         solver.COLORING_BUDGET)
            records.append([v.colorable, v.coloring, v.obstruction and v.obstruction.rows(),
                            v.obstruction_vertices])
    assert sum(r[0] for r in records) == 170
    assert sum(not r[0] for r in records) == 30
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16] == "06d69cb837a1bfed"
