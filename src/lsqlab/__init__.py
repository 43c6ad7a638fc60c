"""Local-search query-complexity laboratory.

Builds staircase hard instances over low-congestion path systems and
cluster path arrangements, runs query-counted local-search solvers against
them, and evaluates the variant relational-adversary bound exactly on
small function families.
"""

from .errors import CapabilityError
from .graphs import (
    Graph,
    TableGroup,
    barbell_graph,
    bfs_distances,
    build_graph,
    cayley_graph,
    clique_graph,
    cyclic_group,
    edge_expansion_exact,
    from_edges,
    graph_metrics,
    grid_graph,
    hypercube_graph,
    random_regular_graph,
    ring_graph,
    separation_number_exact,
)
from .pathsystems import (
    PathSystem,
    PathTable,
    cayley_path_system,
    congestion,
    hypercube_path_system,
    min_congestion_oracle,
    shortest_path_system,
)
from .staircase import (
    HiddenBitInstance,
    Staircase,
    build_staircase,
    distinguishing_weights,
    is_good,
    local_minima,
    make_instance,
    relation_congestion,
    sample_hard_instance,
    tail,
    validate_function,
)
from .separation import (
    Arrangement,
    GridArrangement,
    PathArrangement,
    arrangement_parameter_bound,
    arrangement_violations,
    cluster_staircase,
    grid_path_arrangement,
    make_separation_instance,
    relation_separation,
    sample_separation_instance,
)
from .adversary import (
    FunctionFamily,
    aaronson_vmin,
    big_m,
    big_q,
    family_matrix_game,
    family_staircase,
    matrix_game_diagonal_solver,
    variant_bound_exhaustive,
)
from .solvers import (
    QueryOracle,
    SolverResult,
    brute_force_min,
    solve_decision,
    steepest_descent,
    warm_start_descent,
)
from .bench import BenchConfig, BenchReport, SolverSpec, run_bench
from .verify import run_verify

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
