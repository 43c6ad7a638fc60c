"""Shared fixtures: the three worked examples used across the suite.

fixture 1: a 12-vertex graph with four hand-picked paths and the milestone
sequence (1, 6, 8, 6, 11), whose staircase revisits vertices 6 and 3.
fixture 2: the 4x4 grid with three hand-picked paths and milestones
(1, 6, 11, 16).
fixture 3: a 9-vertex graph of three triangles across three clusters with
a full inter-cluster path arrangement.

connected_graphs is the hypothesis strategy for random connected graphs
that the property tests share, two_cycle_graph the benchmark's graph shape
and direct_product_group a reference for product group tables; test
modules import them from here.
"""

import pytest
from hypothesis import strategies as st

import lsqlab as L
from lsqlab.pathsystems import PathSystem, PathTable, shortest_path_system
from lsqlab.separation import PathArrangement


@st.composite
def connected_graphs(draw, max_n=12, min_n=1):
    """A random connected graph: a random spanning tree plus random edges."""
    n = draw(st.integers(min_n, max_n))
    edges = {(v, draw(st.integers(1, v - 1))) for v in range(2, n + 1)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return L.from_edges(n, edges)


def two_cycle_graph(n, rng):
    """Union of two random Hamiltonian cycles on 1..n, drawn as
    benchmarks/run.py's two_cycle_graph draws it."""
    edges = set()
    for _ in range(2):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        edges |= set(zip(order, order[1:] + order[:1]))
    return L.from_edges(n, edges)


def direct_product_group(t1: tuple, t2: tuple) -> tuple:
    """Multiplication table of the direct product of two groups.

    Element (a, b) maps to index (a - 1) * |G2| + b.
    """
    n1, n2 = len(t1), len(t2)

    def idx(a, b):
        return (a - 1) * n2 + b

    table = []
    for a1 in range(1, n1 + 1):
        for b1 in range(1, n2 + 1):
            row = []
            for a2 in range(1, n1 + 1):
                for b2 in range(1, n2 + 1):
                    row.append(idx(t1[a1 - 1][a2 - 1], t2[b1 - 1][b2 - 1]))
            table.append(tuple(row))
    return tuple(table)


def override_paths(ps: PathSystem, overrides: dict) -> PathTable:
    paths = ps.table()
    paths.update(overrides)
    return PathTable(ps.n, paths)


@pytest.fixture(scope="session")
def twelve_vertex_example():
    g = L.from_edges(12, [
        (1, 3), (3, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 6), (6, 10),
        (10, 3), (3, 11), (1, 2), (2, 4), (11, 12),
    ])
    ps = override_paths(shortest_path_system(g), {
        (1, 6): (1, 3, 5, 6),
        (6, 8): (6, 7, 8),
        (8, 6): (8, 9, 6),
        (6, 11): (6, 10, 3, 11),
    })
    x = (1, 6, 8, 6, 11)
    return g, ps, x


@pytest.fixture(scope="session")
def grid16_example():
    g = L.grid_graph(4)
    ps = override_paths(shortest_path_system(g), {
        (1, 6): (1, 2, 3, 7, 6),
        (6, 11): (6, 10, 11),
        (11, 16): (11, 7, 8, 12, 16),
    })
    x = (1, 6, 11, 16)
    return g, ps, x


@pytest.fixture(scope="session")
def nine_vertex_arrangement():
    # Three clusters {1,2,3}, {4,5,6}, {7,8,9}; path k uses {k, k+3, k+6}.
    g = L.from_edges(9, [
        (1, 2), (2, 3), (4, 5), (5, 6), (7, 8), (8, 9),
        (1, 4), (4, 7), (1, 7), (2, 5), (5, 8), (2, 8), (3, 6), (6, 9), (3, 9),
    ])
    clusters = (frozenset({1, 2, 3}), frozenset({4, 5, 6}), frozenset({7, 8, 9}))
    inter = {}
    for k in (1, 2, 3):
        for i in (1, 2, 3):
            for j in (1, 2, 3):
                if i == j:
                    inter[(k, i, j)] = (k + 3 * (i - 1),)
                else:
                    mid = 6 - i - j
                    inter[(k, i, j)] = (
                        k + 3 * (i - 1), k + 3 * (mid - 1), k + 3 * (j - 1))
    pa = PathArrangement(g, 3, clusters, inter)
    return g, pa
