"""Path arrangements, cluster staircases, and the separation-flavoured
value and relation functions.

A path arrangement with parameter m consists of m disjoint connected
clusters plus, for every ordered cluster pair (i, j), m inter-cluster
paths that collectively visit each outside vertex at most once.  Cluster
sequences x = (x_1 = 1, x_2, ..., x_{2c+1}) read clusters at odd positions
and inter-cluster path indices at even positions; the induced walk stitches
the chosen inter-cluster paths together with shortest paths inside each
visited cluster.

Two representations share the Arrangement interface: PathArrangement
stores every path and finds cluster paths by BFS (hand-made
arrangements); GridArrangement, the grid's, computes both reads in
closed form and stores no path.

The staircase definition references an inter-cluster family once under the
name Q; it is read here as P, the only path family an arrangement carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import graphs
from .graphs import Graph
from .staircase import (
    Staircase,
    HiddenBitInstance,
    chain,
    related,
    sample_sequence,
    shared_prefix_length,
)


@dataclass(frozen=True)
class Arrangement:
    """Clusters N_1..N_m of a graph with inter-cluster paths P_k(i, j).

    clusters is a tuple of m vertex frozensets, and N_1 holds the walk
    entrance, vertex 1.  Each representation supplies the two path reads:
    path(k, i, j) for P_k(i, j) and cluster_path(i, u, v) for the shortest
    path from u to v inside N_i (lowest-id tie-break).
    """

    graph: Graph
    m: int
    clusters: tuple

    def path(self, k: int, i: int, j: int) -> tuple:
        raise NotImplementedError

    def cluster_path(self, i: int, u: int, v: int) -> tuple:
        raise NotImplementedError


@dataclass(frozen=True)
class PathArrangement(Arrangement):
    """An arrangement given by its paths, for hand-made arrangements.

    inter_paths maps (k, i, j) to a vertex tuple for every k, i, j in [m];
    cluster paths come from a BFS confined to the cluster.
    """

    inter_paths: dict = field(repr=False)

    def path(self, k: int, i: int, j: int) -> tuple:
        return self.inter_paths[(k, i, j)]

    def cluster_path(self, i: int, u: int, v: int) -> tuple:
        cluster = self.clusters[i - 1]
        if u not in cluster or v not in cluster:
            raise ValueError(f"endpoints {u},{v} not inside cluster {i}")
        parent, _ = graphs.bfs_tree(self.graph, u, within=cluster)
        if v != u and not parent[v]:
            raise ValueError(f"cluster {i} does not connect {u} and {v}")
        return graphs.tree_path(parent, u, v)


@dataclass(frozen=True)
class GridArrangement(Arrangement):
    """The arrangement grid_path_arrangement(m) builds on an m x m grid,
    with both path reads in closed form over row-major ids.

    P_k(i, j) is the segment of row k from column i to column j.  A
    column induces a path, so the column segment from u to v is the unique
    shortest path inside it.
    """

    def path(self, k: int, i: int, j: int) -> tuple:
        m = self.m
        if not (1 <= k <= m and 1 <= i <= m and 1 <= j <= m):
            raise KeyError((k, i, j))
        row = (k - 1) * m
        step = 1 if j >= i else -1
        return tuple(range(row + i, row + j + step, step))

    def cluster_path(self, i: int, u: int, v: int) -> tuple:
        m = self.m
        if not all(1 <= w <= m * m and (w - 1) % m == i - 1 for w in (u, v)):
            raise ValueError(f"endpoints {u},{v} not inside cluster {i}")
        step = m if v >= u else -m
        return tuple(range(u, v + step, step))


def grid_path_arrangement(side: int,
                          g: Graph | None = None) -> GridArrangement:
    """Columns of a side x side grid as clusters, rows as inter-cluster paths.

    P_k(i, j) runs along row k from column i to column j; P_k(i, i) is the
    single k-th vertex of column i, and vertex 1 opens column 1.  No path
    is stored: both path reads are computed when called.  A caller that
    already holds the grid passes it as g, which must have the edges
    graphs.grid_edges(side) (only its vertex count is checked here);
    otherwise the grid is built.
    """
    if side < 2:
        raise ValueError("grid side must be >= 2")
    if g is None:
        # through the module: a replaced builder is seen
        g = graphs.grid_graph(side)
    elif g.n != side * side:
        raise ValueError(f"graph has {g.n} vertices, not {side * side}")
    clusters = tuple(frozenset(range(c, side * side + 1, side))
                     for c in range(1, side + 1))
    return GridArrangement(g, side, clusters)


def arrangement_violations(pa: Arrangement, g: Graph) -> list:
    """All reasons the arrangement fails its definition (empty if valid)."""
    problems = []
    seen = set()
    for idx, cluster in enumerate(pa.clusters, start=1):
        if not cluster:
            problems.append(f"cluster {idx} is empty")
            continue
        if seen & set(cluster):
            problems.append(f"cluster {idx} overlaps an earlier cluster")
        seen |= set(cluster)
        if not _induced_connected(g, cluster):
            problems.append(f"cluster {idx} is not connected")
    if len(pa.clusters) != pa.m:
        problems.append(f"expected {pa.m} clusters, found {len(pa.clusters)}")
    if not pa.clusters or 1 not in pa.clusters[0]:
        problems.append("vertex 1 is not in cluster 1")

    m = min(pa.m, len(pa.clusters))  # P_k(i, j) needs clusters i and j
    for i in range(1, m + 1):
        for j in range(1, m + 1):
            outside_visits = {}
            inside = pa.clusters[i - 1] | pa.clusters[j - 1]
            for k in range(1, m + 1):
                try:
                    p = pa.path(k, i, j)
                except KeyError:
                    problems.append(f"missing path P_{k}({i},{j})")
                    continue
                tag = f"P_{k}({i},{j})"
                if len(set(p)) != len(p):
                    problems.append(f"{tag} repeats a vertex")
                for a, b in zip(p, p[1:]):
                    if not g.has_edge(a, b):
                        problems.append(f"{tag} uses non-edge ({a},{b})")
                if p[0] not in pa.clusters[i - 1]:
                    problems.append(f"{tag} does not start in cluster {i}")
                if p[-1] not in pa.clusters[j - 1]:
                    problems.append(f"{tag} does not end in cluster {j}")
                for v in p[1:-1]:
                    if v in inside:
                        problems.append(f"{tag} interior vertex {v} inside a cluster")
                for v in p:
                    if v not in inside:
                        outside_visits[v] = outside_visits.get(v, 0) + 1
            for v, c in outside_visits.items():
                if c > 1:
                    problems.append(
                        f"vertex {v} visited {c} times collectively by paths for ({i},{j})"
                    )
    return problems


def _induced_connected(g: Graph, cluster) -> bool:
    _, order = graphs.bfs_tree(g, next(iter(cluster)), within=cluster)
    return len(order) == len(cluster)


def check_cluster_sequence(x, m: int) -> int:
    """Validate shape (odd length, entries in [m], x_1 = 1); return c."""
    if len(x) % 2 != 1:
        raise ValueError("cluster sequence must have odd length 2c + 1")
    if x[0] != 1:
        raise ValueError("cluster sequence must start at cluster 1")
    for e in x:
        if not (1 <= e <= m):
            raise ValueError(f"entry {e} outside 1..{m}")
    return (len(x) - 1) // 2


def cluster_staircase(x, pa: Arrangement) -> Staircase:
    """Walk induced by a cluster sequence.

    Leg l reads the inter-cluster path P_{x_{2l}}(x_{2l-1}, x_{2l+1}) and
    reaches its start by a shortest path inside cluster x_{2l-1}, from
    vertex 1 for l = 1 and from the end of the previous leg's path after.
    c = 0 degenerates to the single-vertex walk (1,).
    """
    c = check_cluster_sequence(x, pa.m)
    segments = []
    at = 1
    for leg in range(c):
        here, k, there = x[2 * leg:2 * leg + 3]
        p = pa.path(k, here, there)
        segments += (pa.cluster_path(here, at, p[0]), p)
        at = p[-1]
    return chain(1, segments)


def make_separation_instance(x, bit: int, pa: Arrangement,
                             g: Graph) -> HiddenBitInstance:
    """The hidden-bit instance of a cluster sequence: off the walk
    dist(1, v), read from g.dist, and on it -(last position of v), counted
    from 1.  The walk is written into the distance table in order, so a
    later visit overwrites an earlier one."""
    s = cluster_staircase(x, pa)
    table = list(g.dist)
    val = 0
    for v in s.walk:
        val -= 1
        table[v] = val
    return HiddenBitInstance(tuple(x), bit, s, table)


# ---------------------------------------------------------------------------
# Separation relation and counting
# ---------------------------------------------------------------------------


def max_odd_shared_prefix(x, y) -> int:
    """Largest odd j with x_{1..j} = y_{1..j} (both start at 1, so >= 1)."""
    j = shared_prefix_length(x, y)
    if j % 2 == 0:
        j -= 1
    return j


def relation_separation(x, b1: int, y, b2: int, m: int) -> int:
    """Separation relation: 0 for equal bits or a bad sequence, else m^j
    for the largest odd shared-prefix index j."""
    return m ** max_odd_shared_prefix(x, y) if related(x, b1, y, b2) else 0


def arrangement_parameter_bound(s: int, delta: int) -> int:
    """Guaranteed path-arrangement parameter max(floor(sqrt(s/2*delta)), 1)."""
    if delta < 1:
        raise ValueError("maximum degree must be >= 1")
    if s < 0:
        raise ValueError("separation number must be >= 0")
    return max(math.isqrt(s // (2 * delta)), 1)


def sample_separation_instance(pa: Arrangement, c: int,
                               seed) -> HiddenBitInstance:
    """Seed-deterministic draw of (cluster sequence, bit) plus the instance.

    The cluster sequence is cluster 1 followed by 2c distinct entries drawn
    uniformly from 2..m, the milestone sampler's hard distribution.
    """
    return make_separation_instance(*sample_sequence(pa.m, 2 * c, seed),
                                    pa, pa.graph)
