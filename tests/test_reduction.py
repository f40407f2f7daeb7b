import hashlib
import json
import random

import numpy as np
import pytest

from sparsecore import (
    Formula,
    Hypergraph,
    is_full,
    is_k_dense,
    k_core,
    pure_literal_core,
)
from sparsecore.reduction import _k_core_batch, _peel_raw, _pure_literal_batch
from sparsecore.sampling import params_from_alpha, sample_batch, sample_formula, sample_hypergraph
from sparsecore.solver import proper_coloring

from oracle_utils import count_copies, random_formula, random_hypergraph, random_pure_literal_core


def to_original_labels(core, trace):
    return {
        tuple(sorted(((1 if l > 0 else -1) * trace.core_variables[abs(l) - 1]
                      for l in cl.literals), key=abs))
        for cl in core.clauses
    }


def test_full_formula_is_fixpoint(f_pair):
    core, trace = pure_literal_core(f_pair)
    assert core == f_pair
    assert trace.steps == ()
    assert trace.core_variables == (1, 2, 3)


def test_single_clause_reduces_in_one_step():
    core, trace = pure_literal_core(Formula(3, [(1, 2, 3)]))
    assert core.size == 0 and core.order == 0
    assert len(trace.steps) == 1
    assert trace.steps[0].literal == 1
    assert trace.steps[0].removed == ((1, 2, 3),)


def test_pendant_clause_peels_back_to_pair(f_pair):
    formula = Formula(5, [(1, 2, 3), (-1, -2, -3), (1, 4, 5)])
    core, trace = pure_literal_core(formula)
    assert trace.core_variables == (1, 2, 3)
    assert to_original_labels(core, trace) == {cl.literals for cl in f_pair.clauses}


def test_trace_invariants_and_reconstruction():
    rng = random.Random(13)
    for _ in range(60):
        formula = random_formula(rng, 10, 3, rng.randint(0, 14))
        core, trace = pure_literal_core(formula)
        assert core.size == 0 or is_full(core)
        # every removed clause contains its step's literal, and that literal
        # is pure in what remains before the step
        remaining = {cl.literals for cl in formula.clauses}
        for step in trace.steps:
            lits_left = {l for c in remaining for l in c}
            assert -step.literal not in lits_left
            for cl in step.removed:
                assert step.literal in cl
                remaining.remove(cl)
        assert remaining == to_original_labels(core, trace)


def test_core_is_order_independent():
    rng = random.Random(29)
    for _ in range(100):
        formula = random_formula(rng, 10, 3, rng.randint(1, 14))
        core, trace = pure_literal_core(formula)
        expected = to_original_labels(core, trace)
        for _ in range(100):
            assert random_pure_literal_core(formula, rng) == expected


def test_reducing_the_core_is_identity():
    rng = random.Random(3)
    for _ in range(40):
        formula = random_formula(rng, 9, 3, rng.randint(1, 12))
        core, _ = pure_literal_core(formula)
        again, trace2 = pure_literal_core(core)
        assert again == core and trace2.steps == ()


def test_full_substructures_survive_reduction(f_pair, full_catalog_r3):
    rng = random.Random(17)
    patterns = [e.structure for e in full_catalog_r3.entries if e.excess == 1] + [
        e.structure for e in full_catalog_r3.entries if e.order == 4
    ]
    for _ in range(25):
        formula = random_formula(rng, 10, 3, rng.randint(4, 14))
        core, trace = pure_literal_core(formula)
        core_original = Formula(formula.order, to_original_labels(core, trace))
        for pattern in patterns:
            assert count_copies(pattern, formula) == count_copies(pattern, core_original)


def test_assignment_lifting_defaults_and_verifies():
    formula = Formula(5, [(1, 2, 3), (-1, -2, -3), (1, 4, 5)])
    core, trace = pure_literal_core(formula)
    lifted = trace.extend_assignment((True, True, False))
    assert len(lifted) == 5
    assert lifted[3] is True  # eliminated literal set True
    assert lifted[4] is True  # silently dropped variable defaults True
    with pytest.raises(ValueError):
        trace.extend_assignment((True,))


def test_k_core_examples(k4):
    core, trace = k_core(k4, 3)
    assert core == k4 and trace.rounds == ()
    tree = Hypergraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (4, 6)])
    core, _ = k_core(tree, 2)
    assert core.size == 0
    pendant = Hypergraph(5, list(k4.edges) + [(1, 5)])
    core, trace = k_core(pendant, 3)
    assert trace.core_vertices == (1, 2, 3, 4)
    assert core == k4


def test_k_core_matches_sequential_peeling():
    rng = random.Random(41)
    for _ in range(80):
        graph = random_hypergraph(rng, 9, 2, rng.randint(1, 16))
        core, trace = k_core(graph, 3)
        # sequential reference: peel one minimum-degree vertex at a time
        edges = set(graph.edges)
        while True:
            deg = {}
            for e in edges:
                for v in e:
                    deg[v] = deg.get(v, 0) + 1
            weak = sorted(v for v, d in deg.items() if d < 3)
            if not weak:
                break
            v = weak[0]
            edges = {e for e in edges if v not in e}
        mapped = {tuple(sorted(trace.core_vertices[v - 1] for v in e)) for e in core.edges}
        assert mapped == edges
        assert core.size == 0 or is_k_dense(core, 3)


def test_peel_trace_vertex_degrees():
    rng = random.Random(19)
    for _ in range(40):
        graph = random_hypergraph(rng, 8, 2, rng.randint(1, 14))
        _, trace = k_core(graph, 3)
        remaining = set(graph.edges)
        for rnd in trace.rounds:
            for v in rnd.vertices:
                assert sum(1 for e in remaining if v in e) <= 2
            remaining -= set(rnd.edges)


def test_coloring_lift_is_proper():
    rng = random.Random(23)
    for _ in range(60):
        graph = random_hypergraph(rng, 9, 2, rng.randint(1, 12))
        core, trace = k_core(graph, 3)
        if core.size:
            continue  # lifting from a nonempty core is the solver's job
        coloring = trace.extend_coloring(())
        assert proper_coloring(graph, coloring)
        assert all(1 <= c <= 3 for c in coloring)


def _batch_against_raw(kind, n, r, alpha, k=None, trials=400, seed=0):
    """Batched cores equal the per-instance peel's, trial by trial; returns
    the number of nonempty cores."""
    params = params_from_alpha(n, r, alpha, kind)
    trial, rows = sample_batch(params, np.random.default_rng(seed), trials)
    if kind == "sat":
        alive = _pure_literal_batch(rows, trial, n)
    else:
        alive = _k_core_batch(rows, trial, n, k)
    bounds = np.searchsorted(trial, np.arange(trials + 1))
    nonempty = 0
    for a, b in zip(bounds, bounds[1:]):
        items = [tuple(row) for row in rows[a:b].tolist()]
        expected = _peel_raw(n, items, 1 if kind == "sat" else k, kind == "sat")[0]
        assert np.flatnonzero(alive[a:b]).tolist() == expected
        nonempty += bool(expected)
    return nonempty


@pytest.mark.parametrize("n,alpha", [(20, 1.2), (30, 0.8), (30, 1.5)])
def test_batched_pure_literal_matches_per_trial(n, alpha):
    assert _batch_against_raw("sat", n, 3, alpha) > 0


@pytest.mark.parametrize("n,r,k,alpha", [(25, 2, 3, 3.0), (20, 3, 2, 5.0)])
def test_batched_k_core_matches_per_trial(n, r, k, alpha):
    assert _batch_against_raw("hypergraph", n, r, alpha, k) > 0


def test_batched_reducers_on_an_empty_batch():
    empty = np.empty((0, 3), dtype=np.int64)
    owner = np.empty(0, dtype=np.int64)
    assert _pure_literal_batch(empty, owner, 5).shape == (0,)
    assert _k_core_batch(empty, owner, 5, 2).shape == (0,)


@pytest.mark.parametrize("kind,n,r,alpha,k,nonempty,digest", [
    ("sat", 15, 3, 1.2, None, 91, "6f5e843b3b65a946"),
    ("hypergraph", 12, 2, 3.0, 3, 52, "d13f0a3df09ddec2"),
    ("hypergraph", 12, 3, 4.0, 2, 36, "0ae6fc22ae33b247"),
], ids=["sat-n15", "graph-n12-k3", "hypergraph-r3-n12-k2"])
def test_fixed_seed_traces_are_pinned(kind, n, r, alpha, k, nonempty, digest):
    """Every trace of 200 fixed-seed instances (seeds 0..199) digested:
    step literals and removed clauses, or round vertices and edges, then
    the core's original labels and its dense rows."""
    params = params_from_alpha(n, r, alpha, kind)
    records = []
    for seed in range(200):
        if kind == "sat":
            core, trace = pure_literal_core(sample_formula(params, seed))
            steps = [[s.literal, s.removed] for s in trace.steps]
            labels = trace.core_variables
        else:
            core, trace = k_core(sample_hypergraph(params, seed), k)
            steps = [[rnd.vertices, rnd.edges] for rnd in trace.rounds]
            labels = trace.core_vertices
        records.append([steps, labels, core.rows()])
    assert sum(bool(rows) for _, _, rows in records) == nonempty
    assert hashlib.sha256(json.dumps(records).encode()).hexdigest()[:16] == digest
