"""Named input errors, each checked by its exact message."""

import pytest

import lsqlab as L
from lsqlab.adversary import FunctionFamily
from lsqlab.bench import SolverSpec
from lsqlab.graphs import CyclicGroup
from lsqlab.separation import check_cluster_sequence
from lsqlab.serialize import instance_from_dict
from lsqlab.staircase import check_milestones, count_good_with_prefix, \
    related


def _family(functions=((0,), (1,)), labels=(0, 1), pairs=((0, 1, 1),)):
    return FunctionFamily("toy", (0,), functions, labels, pairs)


def _arrangement_bench(c, solvers=(SolverSpec("descent"),)):
    return L.BenchConfig("grid", L.grid_graph(3), "bfs", 0, solvers,
                         trials=1, master_seed=0, c=c)


def _ring4_staircase():
    g = L.ring_graph(4)
    return L.build_staircase((1, 2), L.shortest_path_system(g))


ERRORS = {
    "family-table": (lambda: _family(functions=((0,), (1, 1))),
                     "function table does not match the domain"),
    "family-labels-cover": (lambda: _family(labels=(0,)),
                            "labels must cover every function"),
    "family-labels-binary": (lambda: _family(labels=(0, 2)),
                             "labels must be 0 or 1"),
    "family-negative-weight": (lambda: _family(pairs=((0, 1, -1),)),
                               "relation weights must be nonnegative"),
    "matrix-game-k1": (lambda: L.family_matrix_game(1),
                       "matrix game needs k >= 2"),
    "cayley-no-generators": (lambda: L.cayley_graph(CyclicGroup(4), []),
                             "empty generating set"),
    "cayley-identity": (lambda: L.cayley_graph(CyclicGroup(4), [1, 2, 4]),
                        "identity cannot be a generator"),
    "bench-c-too-large": (lambda: _arrangement_bench(2),
                          "c: need 2c + 1 <= side, got c=2"),
    "bench-no-solvers": (lambda: _arrangement_bench(1, solvers=()),
                         "solvers: at least one solver required"),
    "diagonal-solver-all-zero": (
        lambda: L.matrix_game_diagonal_solver(lambda cell: 0, 3),
        "all-zero diagonal: oracle is not a row/column matrix"),
    "staircase-tail-index": (lambda: L.tail(0, _ring4_staircase()),
                             "tail index 0 outside 1..2"),
    "milestones-empty": (lambda: check_milestones((), 4),
                         "milestone sequence is empty"),
    "related-length": (lambda: related((1, 2), 0, (1, 2, 3), 1),
                       "sequences must share their length"),
    "regular-graph-odd": (lambda: L.random_regular_graph(5, 3, 0),
                          "n * d must be even"),
    "cyclic-group-order": (lambda: L.cyclic_group(0),
                           "cyclic group order must be >= 1"),
    "verify-budget": (lambda: L.run_verify("all", budget=-1),
                      "budget: must be >= 0, got -1"),
    "verify-scope": (lambda: L.run_verify("nope"),
                     "unknown scope 'nope'; choose from ['all', 'graph', "
                     "'paths', 'staircase', 'separation', 'adversary', "
                     "'solvers', 'bench']"),
    "path-table-not-simple": (
        lambda: L.PathTable(2, {(1, 1): (1,), (2, 2): (2,), (2, 1): (2, 1),
                                (1, 2): (1, 2, 1, 2)}),
        "path for (1,2) is not simple"),
    "cluster-sequence-even": (lambda: check_cluster_sequence((1, 2), 3),
                              "cluster sequence must have odd length 2c + 1"),
    "cluster-sequence-start": (lambda: check_cluster_sequence((2, 1, 3), 3),
                               "cluster sequence must start at cluster 1"),
    "cluster-sequence-entry": (lambda: check_cluster_sequence((1, 4, 2), 3),
                               "entry 4 outside 1..3"),
    "serialize-empty-list": (
        lambda: instance_from_dict({"graph": "g.json", "paths": "p.json",
                                    "milestones": [], "bit": 0}),
        "milestones must hold at least one integer"),
    "related-start": (lambda: related((2, 3), 0, (1, 3), 1),
                      "sequences must start at 1"),
    "prefix-count-bad-reference": (lambda: count_good_with_prefix((1, 2, 2), 1, 4),
                                   "reference sequence must be good"),
    "prefix-count-length": (lambda: count_good_with_prefix((1, 2, 3), 3, 4),
                            "prefix length 3 outside 1..2"),
    "parameter-bound-degree": (lambda: L.arrangement_parameter_bound(8, 0),
                               "maximum degree must be >= 1"),
    "parameter-bound-separation": (lambda: L.arrangement_parameter_bound(-1, 2),
                                   "separation number must be >= 0"),
}


@pytest.mark.parametrize("case", sorted(ERRORS))
def test_named_input_error(case):
    build, message = ERRORS[case]
    with pytest.raises(ValueError) as excinfo:
        build()
    assert str(excinfo.value) == message
