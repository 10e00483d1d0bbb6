"""Influence maximization on hierarchically decomposed networks.

The package ships four layers: graph containers and generators, cascade
models with Monte Carlo and exact influence oracles, hierarchical
decompositions with a cost objective, and the seed selection algorithms
built on top of them.  Everything stochastic takes an explicit seed.
"""

from .cascade import (
    CRN,
    INDEPENDENT,
    CascadeModel,
    ExactOracle,
    MonteCarloOracle,
    OracleConfig,
    SigmaEstimate,
    local_influence,
    parse_model,
    sigma_exact,
    sigma_mc,
    simulate_cascade,
)
from .cli import BenchConfig, main, parse_bench_config, run_bench
from .decomposition import (
    HierarchyTree,
    build_bisection,
    build_jaccard,
    build_random_edge,
    build_random_pair,
    dasgupta_cost,
    read_tree,
    tree_from_nested,
    write_tree,
)
from .errors import CapacityError, ConsistencyError, FormatError
from .graph import Graph, gen_gnm, load_edge_list
from .optimize import (
    AllocationTable,
    SeedSet,
    brute_force,
    dpim,
    greedy,
    mpa,
    mpa_init_table,
    mpa_update,
    retrieve_seeds,
)
from .synthgen import WorstCaseInstance, gen_hierarchical, gen_worstcase

__version__ = "0.1.0"

__all__ = [
    "AllocationTable",
    "BenchConfig",
    "CRN",
    "CapacityError",
    "CascadeModel",
    "ConsistencyError",
    "ExactOracle",
    "FormatError",
    "Graph",
    "HierarchyTree",
    "INDEPENDENT",
    "MonteCarloOracle",
    "OracleConfig",
    "SeedSet",
    "SigmaEstimate",
    "WorstCaseInstance",
    "brute_force",
    "build_bisection",
    "build_jaccard",
    "build_random_edge",
    "build_random_pair",
    "dasgupta_cost",
    "dpim",
    "gen_gnm",
    "gen_hierarchical",
    "gen_worstcase",
    "greedy",
    "load_edge_list",
    "local_influence",
    "main",
    "mpa",
    "mpa_init_table",
    "mpa_update",
    "parse_bench_config",
    "parse_model",
    "read_tree",
    "retrieve_seeds",
    "run_bench",
    "sigma_exact",
    "sigma_mc",
    "simulate_cascade",
    "tree_from_nested",
    "write_tree",
    "__version__",
]
