"""Small target sets for threshold-based influence spread in networks.

Given an undirected graph and an integer threshold per vertex, activation
spreads in rounds: a vertex activates once enough of its neighbors are
active.  This package finds small seed sets that activate the whole graph
(a fast elimination solver that is provably optimal on trees, cycles and
cliques), computes exact rational upper bounds on the solver's output,
and ships a greedy baseline, an exhaustive oracle, graph generators, and a
benchmark harness.
"""

from .bench import (
    CSV_HEADER,
    BenchConfig,
    BenchRow,
    derive_seed,
    run_bench,
    run_verify,
    write_csv,
)
from .bounds import BoundReport, bound_new, bound_old, check_bound_dominance
from .diffusion import (
    ActivationTrace,
    format_trace,
    is_target_set,
    run_activation,
)
from .generators import (
    GraphSource,
    clique_graph,
    cycle_graph,
    gnp,
    random_tree,
    star_graph,
)
from .graph import (
    Graph,
    connected_components,
    is_connected,
    load_edge_list,
    write_edge_list,
)
from .reference import ExactResult, clique_optimum, exact_solve
from .solver import Case, SolverReport, greedy_tss, tss_solve
from .thresholds import (
    assign_thresholds,
    check_thresholds,
    constant_capped,
    degree_thresholds,
    load_thresholds,
    random_in_degree,
)

__version__ = "0.1.0"

__all__ = [
    "ActivationTrace",
    "BenchConfig",
    "BenchRow",
    "BoundReport",
    "CSV_HEADER",
    "Case",
    "ExactResult",
    "Graph",
    "GraphSource",
    "SolverReport",
    "assign_thresholds",
    "bound_new",
    "bound_old",
    "check_bound_dominance",
    "check_thresholds",
    "clique_graph",
    "clique_optimum",
    "connected_components",
    "constant_capped",
    "cycle_graph",
    "degree_thresholds",
    "derive_seed",
    "exact_solve",
    "format_trace",
    "gnp",
    "greedy_tss",
    "is_connected",
    "is_target_set",
    "load_edge_list",
    "load_thresholds",
    "random_in_degree",
    "random_tree",
    "run_activation",
    "run_bench",
    "run_verify",
    "star_graph",
    "tss_solve",
    "write_csv",
    "write_edge_list",
]
