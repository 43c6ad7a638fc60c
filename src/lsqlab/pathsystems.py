"""All-pairs path systems and their vertex/edge congestion.

A path system stores one simple path per ordered vertex pair, with the
trivial path (u,) for every pair (u, u).  Congestion counts paths with
multiplicity, which only matters for walks fed through the same counters
elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import graphs
from .errors import check_cap
from .graphs import Graph, bfs_tree, group_inverses, tree_path, validate_group_table

ORACLE_CAP_DEFAULT = 6
ORACLE_PATHS_PER_PAIR_CAP = 512


@dataclass(frozen=True)
class PathSystem:
    """Complete table {(u, v): path} over all ordered pairs of 1..n."""

    n: int
    paths: dict = field(repr=False)

    def __post_init__(self):
        n = self.n
        if len(self.paths) != n * n:
            raise ValueError(
                f"path table has {len(self.paths)} entries, expected {n * n}"
            )
        for (u, v), p in self.paths.items():  # n^2 in-range keys: every pair
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError(f"path key ({u},{v}) outside 1..{n}")
            if p[0] != u or p[-1] != v:
                raise ValueError(f"path for ({u},{v}) runs {p[0]}..{p[-1]}")
            if len(set(p)) != len(p):
                raise ValueError(f"path for ({u},{v}) is not simple")

    def path(self, u: int, v: int) -> tuple:
        return self.paths[(u, v)]

    def check_graph(self, g: Graph) -> None:
        """Raise ValueError unless this is a system of paths in g."""
        if self.n != g.n:
            raise ValueError("path system size does not match the graph")
        for (u, v), p in self.paths.items():
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise ValueError(f"path for ({u},{v}) uses non-edge ({a},{b})")

    def iter_items(self):
        return self.paths.items()


@dataclass(frozen=True)
class CongestionProfile:
    """Per-vertex and per-edge membership counts plus their maxima."""

    per_vertex: dict
    per_edge: dict
    max_vertex: int
    max_edge: int


def shortest_path_system(g: Graph) -> PathSystem:
    """BFS shortest paths for every ordered pair, deterministic tie-break."""
    paths = {}
    for u in g.vertices():
        _, parent = bfs_tree(g, u)
        for v in g.vertices():
            paths[(u, v)] = tree_path(parent, u, v)
    return PathSystem(g.n, paths)


# ---------------------------------------------------------------------------
# Hypercube bit-fixing system
# ---------------------------------------------------------------------------


def bit_fixing_path(u: int, v: int, dim: int) -> tuple:
    """Toggle differing bits MSB-first; vertices are 1 + bit pattern."""
    cur = u - 1
    tgt = v - 1
    path = [u]
    for b in range(dim - 1, -1, -1):
        mask = 1 << b
        if (cur ^ tgt) & mask:
            cur ^= mask
            path.append(cur + 1)
    return tuple(path)


def hypercube_path_system(g: Graph) -> PathSystem:
    """Bit-fixing paths on a hypercube; congestion is exactly N*(1+dim/2).

    g must be graphs.hypercube_graph(dim), or the one-vertex graph (dim 0).
    """
    dim = g.n.bit_length() - 1
    if g.n > 1 and g != graphs.hypercube_graph(dim):
        raise ValueError("graph is not the canonical labelled hypercube")
    paths = {}
    for u in g.vertices():
        for v in g.vertices():
            paths[(u, v)] = bit_fixing_path(u, v, dim)
    return PathSystem(g.n, paths)


# ---------------------------------------------------------------------------
# Cayley translate system
# ---------------------------------------------------------------------------


def cayley_path_system(g: Graph, table) -> PathSystem:
    """Translate a base system of shortest paths from the identity.

    Edges must be graphs.cayley_edges(table, generators), with the
    generators read off as the identity's neighbors; then left translation
    u * P(1, w) maps each edge {x, x*s} to an edge and so paths to paths,
    and every vertex sees identical congestion, at most (diameter + 1) * n.
    """
    n = validate_group_table(table)
    if n != g.n:
        raise ValueError("group order does not match vertex count")
    if n > 1 and graphs.cayley_edges(table, g.neighbors(1)) != g.edges:
        raise ValueError("graph is not the Cayley graph of the supplied group")
    inv = group_inverses(table)
    _, parent = bfs_tree(g, 1)
    base = {w: tree_path(parent, 1, w) for w in g.vertices()}
    paths = {}
    for u in g.vertices():
        row = table[u - 1]
        for v in g.vertices():
            w = table[inv[u] - 1][v - 1]
            paths[(u, v)] = tuple(row[p - 1] for p in base[w])
    return PathSystem(g.n, paths)


# ---------------------------------------------------------------------------
# Congestion
# ---------------------------------------------------------------------------


def congestion(ps: PathSystem) -> CongestionProfile:
    """Exact vertex and edge membership counts, with multiplicity."""
    per_vertex = {v: 0 for v in range(1, ps.n + 1)}
    per_edge = {}
    for _, p in ps.iter_items():
        for v in p:
            per_vertex[v] += 1
        for a, b in zip(p, p[1:]):
            e = (min(a, b), max(a, b))
            per_edge[e] = per_edge.get(e, 0) + 1
    max_vertex = max(per_vertex.values())
    max_edge = max(per_edge.values()) if per_edge else 0
    return CongestionProfile(per_vertex, per_edge, max_vertex, max_edge)


def num_paths_through(ps: PathSystem, v: int) -> dict:
    """For each start vertex u, the number of paths from u that contain v."""
    counts = {u: 0 for u in range(1, ps.n + 1)}
    for (u, _), p in ps.iter_items():
        if v in p:
            counts[u] += 1
    return counts


# ---------------------------------------------------------------------------
# Brute-force minimum-congestion oracle
# ---------------------------------------------------------------------------


def _all_simple_paths(g: Graph, u: int, v: int, limit: int) -> list:
    paths = []
    stack = [(u, (u,), 1 << u)]
    while stack:
        cur, path, seen = stack.pop()
        if cur == v:
            paths.append(path)
            if len(paths) > limit:
                raise ValueError(
                    f"more than {limit} simple paths between {u} and {v}"
                )
            continue
        for w in g.neighbors(cur):
            if not (seen >> w) & 1:
                stack.append((w, path + (w,), seen | (1 << w)))
    return paths


def min_congestion_oracle(g: Graph, cap: int | None = None):
    """Exhaustive branch-and-bound for the graph's true vertex congestion.

    Returns (g_star, PathSystem) where g_star is the minimum achievable
    vertex congestion over all all-pairs systems of simple paths.  Pairs
    are processed fewest-alternatives-first and path choices
    shortest-first, so the all-shortest assignment is reached early and
    prunes aggressively.
    """
    check_cap("min_congestion_oracle", g.n, cap, ORACLE_CAP_DEFAULT)
    n = g.n
    pairs = []
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                options = _all_simple_paths(g, u, v, ORACLE_PATHS_PER_PAIR_CAP)
                options.sort(key=lambda p: (len(p), p))
                pairs.append(((u, v), options))
    pairs.sort(key=lambda item: (len(item[1]), item[0]))

    # Endpoint and trivial-path memberships are forced: 2(n-1) + 1 each.
    base = 2 * n - 1
    counts = [base] * (n + 1)
    counts[0] = 0
    best = [None, None]  # best congestion, chosen interior tuples

    choice = [None] * len(pairs)

    def search(idx: int, cur_max: int) -> None:
        if best[0] is not None and cur_max >= best[0]:
            return
        if idx == len(pairs):
            best[0] = cur_max
            best[1] = list(choice)
            return
        _, options = pairs[idx]
        for p in options:
            interior = p[1:-1]
            new_max = cur_max
            ok = True
            for w in interior:
                counts[w] += 1
                if counts[w] > new_max:
                    new_max = counts[w]
                if best[0] is not None and new_max >= best[0]:
                    ok = False
            if ok:
                choice[idx] = p
                search(idx + 1, new_max)
            for w in interior:
                counts[w] -= 1
        choice[idx] = None

    search(0, base)
    paths = {(u, u): (u,) for u in g.vertices()}
    for ((u, v), _), p in zip(pairs, best[1]):
        paths[(u, v)] = p
    return best[0], PathSystem(n, paths)
