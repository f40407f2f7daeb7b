"""sparsecore: structure of sparse random CNF formulas and hypergraphs.

Samplers for the independent-clause random models, pure-literal / k-core
reduction, exhaustive catalogs of the minimal obstructions ranked by
excess, exact failure-probability expansions in powers of 1/n, a
reduce-then-exhaust solver with MaxSAT and minimal-witness output, and a
reproducible Monte Carlo harness comparing theory to simulation.
"""

__version__ = "0.1.0"

from .structures import (
    BudgetExceededError,
    Clause,
    Formula,
    Hypergraph,
    excess_formula,
    excess_hypergraph,
    from_dimacs,
    from_edge_list,
    induced_formula,
    induced_hypergraph,
    is_full,
    is_k_dense,
    to_dimacs,
    to_edge_list,
)
from .isomorph import (
    automorphism_count,
    canonical_key,
)
from .sampling import (
    ModelParams,
    ThresholdResult,
    params_from_alpha,
    pure_literal_threshold,
    sample_formula,
    sample_hypergraph,
)
from .reduction import (
    PeelTrace,
    PureLiteralTrace,
    k_core,
    pure_literal_core,
)
from .catalog import (
    Catalog,
    CatalogEntry,
    classify_colorable,
    classify_sat,
    enumerate_full,
    enumerate_k_dense,
    excess_spectrum,
    filter_minimal_full,
    filter_minimal_k_dense,
    is_min_non_k_colorable,
    is_muf,
    load_catalog,
    save_catalog,
)
from .predictor import (
    AlphaPoly,
    CoreTypeDistribution,
    ExpansionPolynomial,
    FirstOrderTerm,
    core_type_distribution,
    expected_copies_exact,
    failure_expansion,
    first_order_containment,
    tail_bound,
    tail_bound_hypergraph,
)
from .solver import (
    ColorVerdict,
    SatVerdict,
    decide_colorable,
    decide_sat,
    extract_muf,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    run_core_census,
    run_failure_probability,
    run_solver_validation,
    wilson_interval,
)

__all__ = [name for name in dir() if not name.startswith("_")]
