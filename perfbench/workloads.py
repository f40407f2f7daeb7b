"""The benchmark's workloads: which model points each one runs, and its set-up.

A workload is made of parts, one per model point.  A part's name is also
the prefix of its per-layer metrics (``pl-n30.sampling.us_per_trial``).
Trial counts are per round: a run repeats whole rounds, so every run
attempts the same operations in the same proportions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Part:
    name: str
    kind: str  # ExperimentConfig kind
    n: int
    r: int
    alpha: float
    k: int | None
    trials: int  # harness trials per round
    replay_trials: int  # traced-replay trials per round

    @property
    def census(self) -> bool:
        return self.kind in ("pl-fail", "kcore")

    @property
    def model(self) -> str:
        return "sat" if self.kind in ("pl-fail", "sat") else "hypergraph"


PARTS = {p.name: p for p in (
    # criterion-6/10 protocol ends: dense sampler at n=30, sparse at n=120
    Part("pl-n30", "pl-fail", 30, 3, 0.8, None, 1024, 768),
    Part("pl-n120", "pl-fail", 120, 3, 0.8, None, 512, 384),
    # criterion-7 shape: reduction dominates, classification barely runs
    Part("kc-n40", "kcore", 40, 2, 1.5, 3, 16384, 4096),
    # criterion-8 heaviest points: solver plus exhaustive oracle
    Part("sat-n15", "sat", 15, 3, 1.2, None, 128, 96),
    Part("col-n12", "coloring", 12, 2, 3.0, 3, 32, 24),
)}

WORKLOADS = {
    "plfail-census": ("pl-n30", "pl-n120"),
    "kcore-census": ("kc-n40",),
    "solver-validate": ("sat-n15", "col-n12"),
}

# catalog excess and expansion order s_max of the set-up (criterion 10 uses 2)
EXPANSION_ORDER = 2


def parts_of(workload: str) -> list[Part]:
    return [PARTS[name] for name in WORKLOADS[workload]]


def run_seed(seed: int, child: int, round_index: int, part_index: int) -> int:
    """Seed of one harness call; distinct for every (seed, child, round, part)."""
    return ((seed * 64 + child) * 4096 + round_index) * 8 + part_index


def replay_seeds(seed: int, child: int, round_index: int, part_index: int, count: int):
    """Per-trial seeds of one replay round, disjoint from every other round's."""
    base = run_seed(seed, child, round_index, part_index) << 20
    return range(base, base + count)


def build_catalog(sc, workload: str):
    """The complete catalog through EXPANSION_ORDER of a census workload, else None."""
    part = parts_of(workload)[0]
    if part.kind == "pl-fail":
        return sc.enumerate_full(part.r, EXPANSION_ORDER)
    if part.kind == "kcore":
        return sc.enumerate_k_dense(part.r, part.k, EXPANSION_ORDER)
    return None


def set_up(sc, workload: str, tracer):
    """Catalog, exact expansion and first-order prediction of a census workload.

    Returns (catalog or None, {part name: {"expansion": .., "first_order": ..}}).
    """
    parts = parts_of(workload)
    if not parts[0].census:
        return None, {}
    kind = parts[0].kind
    span = tracer.begin("catalog")
    catalog = build_catalog(sc, workload)
    tracer.end(span, classes=len(catalog.entries))
    span = tracer.begin("predictor")
    expansion = sc.failure_expansion(catalog, kind, EXPANSION_ORDER)
    minimal = catalog.with_flag("mff" if kind == "pl-fail" else "minimal_k_dense")
    low = min(e.excess for e in minimal)
    terms = [sc.first_order_containment(e.structure, parts[0].k)
             for e in minimal if e.excess == low]
    predictions = {
        p.name: {
            "expansion": float(expansion.evaluate(p.n, Fraction(p.alpha))),
            "first_order": sum(float(t.evaluate(p.n, p.alpha)) for t in terms),
        }
        for p in parts
    }
    tracer.end(span)
    return catalog, predictions


def harness_config(sc, part: Part, seed: int, catalog):
    return sc.ExperimentConfig(kind=part.kind, n=part.n, r=part.r, alpha=part.alpha,
                               trials=part.trials, seed=seed, k=part.k, catalog=catalog)


def run_harness(sc, part: Part, config):
    return (sc.run_core_census if part.census else sc.run_solver_validation)(config)
