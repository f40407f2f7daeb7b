"""The traced replay: a part's trials driven through each layer's public
functions, the way the harness drives them, with a span around each call.

The replay draws its own random stream (one ``sample_formula`` /
``sample_hypergraph`` seed per trial), so its counts agree with the
harness's only in distribution; the benchmark checks them against each
other within a binomial bound.  Census parts call the traced reducers
``pure_literal_core`` / ``k_core`` and classify failing cores no larger
than the catalog's largest order with ``canonical_key``, memoized on the
dense core as the harness does.  Validation parts call ``decide_sat`` /
``decide_colorable`` and then the harness's own exhaustive oracle, which
is harness work and so counts as unattributed ``experiments`` time.
"""

from __future__ import annotations

import numpy as np


def replay(sc, experiments, part, seeds, catalog, tracer, memo: dict, records: list | None):
    """Run one round of a part; returns (nonempty cores or verdict mismatches, trials).

    ``memo`` carries first-sight canonical keys across rounds of one
    process.  When ``records`` is a list, (instance, result) pairs are
    appended to it for the checks.
    """
    sat = part.model == "sat"
    params = sc.params_from_alpha(part.n, part.r, part.alpha, part.model)
    sample = sc.sample_formula if sat else sc.sample_hypergraph
    max_order = catalog.max_order() if catalog else 0
    tracer.part = part.name
    hits = 0
    for seed in seeds:
        root = tracer.begin("experiments")
        span = tracer.begin("sampling")
        instance = sample(params, seed)
        tracer.end(span, items=instance.size)
        if part.census:
            span = tracer.begin("reduction")
            if sat:
                core, trace = sc.pure_literal_core(instance)
                steps = len(trace.steps)
            else:
                core, trace = sc.k_core(instance, part.k)
                steps = len(trace.rounds)
            tracer.end(span, steps=steps)
            result = core, trace
            if core.size:
                hits += 1
                if core.order <= max_order:
                    dense = core.sorted_clauses() if sat else core.sorted_edges()
                    if dense not in memo:
                        span = tracer.begin("isomorph")
                        memo[dense] = sc.canonical_key(core)
                        tracer.end(span, key=memo[dense].decode("ascii"))
        else:
            span = tracer.begin("solver")
            if sat:
                result = sc.decide_sat(instance)
                tracer.end(span, witness=result.status == "UNSAT")
                items = [cl.literals for cl in instance.clauses]
                best = experiments._oracle_max_sat(items, part.n)
                ok = (result.status == "SAT") == (best == instance.size) \
                    and result.max_satisfied == best
            else:
                result = sc.decide_colorable(instance, part.k)
                tracer.end(span, witness=not result.colorable)
                ok = result.colorable == experiments._oracle_colorable(
                    list(instance.edges), part.n, part.k)
            hits += not ok
        tracer.end(root)
        if records is not None:
            records.append((instance, result))
    return hits, len(seeds)


class CountingRng:
    """A numpy Generator that counts the random variates it hands out."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.draws = 0

    def random(self, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.random(size)

    def binomial(self, n, p, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.binomial(n, p, size)

    def integers(self, low, high=None, size=None):
        self.draws += 1 if size is None else int(np.prod(size))
        return self._rng.integers(low, high, size=size)


def count_draws(sc, part, seeds) -> tuple[int, int]:
    """(random variates drawn, items kept) by the sampler over the given seeds."""
    params = sc.params_from_alpha(part.n, part.r, part.alpha, part.model)
    draws = kept = 0
    for seed in seeds:
        rng = CountingRng(seed)
        kept += len(sc.sampling.sample_indices(params, rng))
        draws += rng.draws
    return draws, kept
