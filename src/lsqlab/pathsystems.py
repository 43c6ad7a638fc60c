"""All-pairs path systems and their vertex/edge congestion.

A path system holds one simple path per ordered vertex pair, with the
trivial path (u,) for every pair (u, u).  Congestion counts paths with
multiplicity, which only matters for walks fed through the same counters
elsewhere in the package.

Three representations share the PathSystem interface:
  PathTable       a table {(u, v): path} over all n^2 pairs: the brute
                  oracle's output, path-system files and hand-made fixtures;
  SourceTrees     the BFS tree of each source (the bfs strategy), built
                  when first read and kept in a bounded cache: path(u, v)
                  is v's path in u's tree;
  TranslateTrees  left translates u * base(u^-1 v) of one tree rooted at
                  the identity 1 in a graphs.Group: the group the graph
                  carries (the cayley strategy), or XOR on v - 1 (the
                  hypercube strategy).
Every representation answers its own counts: vertex_counts() and
edge_counts() (the per-vertex and per-edge memberships, with multiplicity)
and paths_through(v) (per source u, the paths from u that contain v).
Every built-in strategy is prefix-closed from each source, so the number of
paths from u through v is the size of v's subtree in u's tree; the counts
come from subtree sizes, never from walking n^2 paths.  The sizes come from
one reversed walk of an order that lists every vertex after its parent, such
as bfs_tree's visit order; SourceTrees streams them one source at a time.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import add

from .errors import check_cap
from .graphs import Graph, Group, XorGroup, bfs_tree, tree_path

ORACLE_PATHS_PER_PAIR_CAP = 512
# SourceTrees caches at most this many list entries of trees, 2(n + 1) per
# tree: every tree up to n = 1447, 127 trees at n = 2^14 (32 MiB of slots)
TREE_CACHE_ENTRIES = 1 << 22


@dataclass(frozen=True)
class PathSystem:
    """One simple path per ordered pair of 1..n; path(u, v) reads it.

    Each representation supplies path and the counts: vertex_counts()
    {v: paths containing v}, edge_counts() {(a, b): paths using edge
    {a, b}, a < b} and paths_through(v) {u: paths from u containing v}.
    """

    n: int

    def path(self, u: int, v: int) -> tuple:
        raise NotImplementedError

    def table(self) -> dict:
        """A fresh {(u, v): path} dict of all n^2 paths: the one O(n^2)
        read-out, for callers that need every path at once."""
        vs = range(1, self.n + 1)
        return {(u, v): self.path(u, v) for u in vs for v in vs}

    def check_graph(self, g: Graph) -> None:
        """Raise ValueError unless this is a system of paths in g."""
        if self.n != g.n:
            raise ValueError("path system size does not match the graph")
        for (u, v), p in self.table().items():
            for a, b in zip(p, p[1:]):
                if not g.has_edge(a, b):
                    raise ValueError(f"path for ({u},{v}) uses non-edge ({a},{b})")


@dataclass(frozen=True)
class PathTable(PathSystem):
    """Complete table {(u, v): path} over all ordered pairs of 1..n."""

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

    def table(self) -> dict:
        return dict(self.paths)

    def vertex_counts(self) -> dict:
        per_vertex = dict.fromkeys(range(1, self.n + 1), 0)
        for p in self.paths.values():
            for v in p:
                per_vertex[v] += 1
        return per_vertex

    def edge_counts(self) -> dict:
        per_edge = {}
        for p in self.paths.values():
            for a, b in zip(p, p[1:]):
                e = (min(a, b), max(a, b))
                per_edge[e] = per_edge.get(e, 0) + 1
        return per_edge

    def paths_through(self, v: int) -> dict:
        counts = dict.fromkeys(range(1, self.n + 1), 0)
        for (u, _), p in self.paths.items():
            if v in p:
                counts[u] += 1
        return counts


def _subtree_sizes(parent, order) -> list:
    """size[v]: the number of vertices whose tree path from the root runs
    through v, for a tree given by its parent list and an order that lists
    every vertex after its parent, such as bfs_tree's."""
    size = [1] * len(parent)
    for w in reversed(order):
        size[parent[w]] += size[w]  # the root adds itself to unused index 0
    return size


@dataclass(frozen=True)
class SourceTrees(PathSystem):
    """path(u, v) is v's path in bfs_tree(graph, u), each source's tree
    built when first read.

    Trees are cached as (parent, size) pairs, 2(n + 1) list entries each,
    up to TREE_CACHE_ENTRIES entries; every read goes through the cache,
    which drops its oldest tree to make room.  Congestion streams the
    sources one tree at a time, so it needs O(n) memory besides the cache
    and the counts.
    """

    graph: Graph = field(repr=False)
    # source -> its (parent, size), oldest first
    _trees: dict = field(init=False, repr=False, compare=False,
                         default_factory=dict)

    def path(self, u: int, v: int) -> tuple:
        try:
            parent = self._trees[u][0]
        except KeyError:
            parent = self._tree(u)[0]
        return tree_path(parent, u, v)

    def _tree(self, u: int) -> tuple:
        """u's (parent, size), built and cached on a miss."""
        trees = self._trees
        tree = trees.get(u)
        if tree is None:
            parent, order = bfs_tree(self.graph, u)
            trees[u] = tree = parent, _subtree_sizes(parent, order)
            if len(trees) > TREE_CACHE_ENTRIES // (2 * (self.n + 1)):
                del trees[next(iter(trees))]  # the oldest, u if no room
        return tree

    def _sources(self) -> list:
        """Every source, the cached ones first: a stream uses each cached
        tree before a miss can drop it."""
        trees = self._trees
        return [*trees, *(u for u in range(1, self.n + 1) if u not in trees)]

    def vertex_counts(self) -> dict:
        load = [0] * (self.n + 1)
        for u in self._sources():
            load = list(map(add, load, self._tree(u)[1]))
        return {v: load[v] for v in range(1, self.n + 1)}

    def edge_counts(self) -> dict:
        # up[w * (n + 1) + p]: size[w] summed over the trees in which p is
        # w's parent (p = 0 collects index 0 and the roots, unread).  Every
        # edge {a, b} is the tree edge above b in a's tree.
        n1 = self.n + 1
        up = defaultdict(int)
        for u in self._sources():
            parent, size = self._tree(u)
            for k, s in zip(map(add, range(0, n1 * n1, n1), parent), size):
                up[k] += s
        return {(a, b): up[a * n1 + b] + up[b * n1 + a]
                for a, b in self.graph.edges}

    def paths_through(self, v: int) -> dict:
        return dict(sorted((u, self._tree(u)[1][v]) for u in self._sources()))


@dataclass(frozen=True)
class TranslateTrees(PathSystem):
    """path(u, v) = u * base(u^-1 v) in a group on 1..n with identity 1:
    base is a (parent, order) tree rooted at 1, as bfs_tree returns it,
    and the group reads each path from the base paths in one translate
    call."""

    base: tuple = field(repr=False)
    group: Group = field(repr=False)
    # patterns[w]: the base path to w as vertex - 1 per vertex
    patterns: tuple = field(init=False, repr=False, compare=False)
    # size[w]: the base tree's subtree sizes, as _subtree_sizes gives them
    size: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        parent, order = self.base
        patterns = [()] * (self.n + 1)
        for w in order:
            patterns[w] = patterns[parent[w]] + (w - 1,)
        object.__setattr__(self, "patterns", tuple(patterns))
        object.__setattr__(self, "size", _subtree_sizes(parent, order))

    def path(self, u: int, v: int) -> tuple:
        return self.group.translate(u, v, self.patterns)

    def vertex_counts(self) -> dict:
        # Every vertex lies on sum_w size[w] = sum_w (depth(w) + 1) paths.
        return dict.fromkeys(range(1, self.n + 1), sum(self.size[1:]))

    def edge_counts(self) -> dict:
        n, mul, inv = self.n, self.group.mul, self.group.inv
        parent, size = self.base[0], self.size
        # load[s]: subtree sizes summed over base edges (p, c) with p^-1 c = s;
        # edge {x, x*s} carries the translates of those run either way.
        load = {}
        for c in range(2, n + 1):
            s = mul(inv[parent[c]], c)
            load[s] = load.get(s, 0) + size[c]
        per_edge = {}
        for x in range(1, n + 1):
            for s, k in load.items():
                y = mul(x, s)
                if x < y:
                    per_edge[(x, y)] = k + load[inv[s]]
        return per_edge

    def paths_through(self, v: int) -> dict:
        size, mul, inv = self.size, self.group.mul, self.group.inv
        return {u: size[mul(inv[u], v)] for u in range(1, self.n + 1)}


def shortest_path_system(g: Graph) -> SourceTrees:
    """BFS shortest paths for every ordered pair, deterministic tie-break."""
    return SourceTrees(g.n, g)


# ---------------------------------------------------------------------------
# Translate systems: the hypercube's bit-fixing paths and Cayley translates
# ---------------------------------------------------------------------------


def hypercube_path_system(g: Graph) -> TranslateTrees:
    """Bit-fixing paths, translates under XOR of the tree in which w's
    parent clears the lowest set bit of w - 1: every path toggles the most
    significant differing bit first.  Congestion is exactly N*(1+dim/2).

    g must be graphs.hypercube_graph(dim), or the one-vertex graph (dim 0),
    built or read from a file.  It is recognized by its n = 2^dim vertices
    and dim * n / 2 edges, each flipping one bit of v - 1: the hypercube's
    edges are all such pairs, and there are that many of them.
    """
    n = g.n
    dim = n.bit_length() - 1
    if (n != 1 << dim or len(g.edges) != dim * n // 2
            or any(((u - 1) ^ (v - 1)).bit_count() != 1 for u, v in g.edges)):
        raise ValueError("graph is not the canonical labelled hypercube")
    # parent[w] < w, so ascending ids list every vertex after its parent
    parent = [0, 0] + [((w - 1) & (w - 2)) + 1 for w in range(2, n + 1)]
    return TranslateTrees(n, (parent, range(1, n + 1)), XorGroup(n))


def cayley_path_system(g: Graph) -> TranslateTrees:
    """Translate shortest paths from the identity of g.group, the graph's.

    Only graphs.cayley_graph gives a graph its group, so g is that group's
    Cayley graph; then left translation u * P(1, w) maps each edge {x, x*s}
    to an edge and so paths to paths, and every vertex sees identical
    congestion, at most (diameter + 1) * n.
    """
    if g.group is None:
        raise ValueError("graph carries no group: the cayley strategy needs "
                         "--kind ring, --kind hypercube or --kind cayley "
                         "--group FILE")
    return TranslateTrees(g.n, bfs_tree(g, 1), g.group)


# ---------------------------------------------------------------------------
# Congestion
# ---------------------------------------------------------------------------


def congestion(ps: PathSystem) -> int:
    """The vertex congestion g: the most paths that share one vertex."""
    return max(ps.vertex_counts().values())


def vertex_counts_from_edges(n: int, per_edge: dict) -> dict:
    """vertex_counts() of a system on 1..n, read from its edge_counts().

    The edges at v count each simple path through v twice and each of the
    2(n - 1) paths that start or end at v once, so v lies on n + (sum of
    its edges' counts) / 2 paths, the trivial path (v,) included.
    """
    twice = [2 * n] * (n + 1)
    for (a, b), k in per_edge.items():
        twice[a] += k
        twice[b] += k
    return {v: twice[v] // 2 for v in range(1, n + 1)}


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


def min_congestion_oracle(g: Graph):
    """Exhaustive branch-and-bound for the graph's true vertex congestion.

    Returns (g_star, PathTable) where g_star is the minimum achievable
    vertex congestion over all all-pairs systems of simple paths.  Pairs
    are processed fewest-alternatives-first and path choices
    shortest-first, so the all-shortest assignment is reached early and
    prunes aggressively.

    Once a best congestion is known, two bounds prune a branch.  One is
    the running maximum count.  The other is a load sum per vertex set S:
    every completion adds to the total count of S at least need_S[idx],
    the sum over the remaining pairs of the fewest interior vertices in S
    that one of their options has, and some vertex of S carries at least
    the average, so a branch with ceil((load(S) + need_S[idx]) / |S|)
    >= best holds no leaf below the best.  S = all vertices bounds by the
    total load; S = {w} counts the pairs that must pass through a cut
    vertex w.  Only sets with a positive need_S[0] are kept.  Both bounds
    remove only branches without an improving leaf, so the search meets
    the same improving leaves in the same order and returns the same
    system as a search without them.

    ORACLE_PATHS_PER_PAIR_CAP is a limit, not a cap of errors.CAPS: a pair
    with more simple paths than it raises ValueError ("more than 512 simple
    paths between u and v"), and no variable raises it.  Within the default
    6-vertex cap no pair has more than 65 simple paths (K6), so it fires
    only once the cap is raised to 8 or more (K8 has 1957 per pair).
    """
    check_cap("min_congestion_oracle", g.n)
    n = g.n
    pairs = []
    for u in g.vertices():
        for v in g.vertices():
            if u != v:
                options = _all_simple_paths(g, u, v, ORACLE_PATHS_PER_PAIR_CAP)
                options.sort(key=lambda p: (len(p), p))
                pairs.append(((u, v), options))
    pairs.sort(key=lambda item: (len(item[1]), item[0]))

    # Interior vertices of each option as a bitmask, bit w for vertex w.
    interiors = [[sum(1 << w for w in p[1:-1]) for p in options]
                 for _, options in pairs]
    load_bounds = []  # (vertices of S, |S|, need_S) for each useful S
    for s in range(2, 1 << (n + 1), 2):
        need = [0] * (len(pairs) + 1)
        for idx in range(len(pairs) - 1, -1, -1):
            need[idx] = need[idx + 1] + min((m & s).bit_count()
                                            for m in interiors[idx])
        if need[0]:
            members = [w for w in g.vertices() if s >> w & 1]
            load_bounds.append((members, len(members), need))

    # Endpoint and trivial-path memberships are forced: 2(n-1) + 1 each.
    base = 2 * n - 1
    counts = [base] * (n + 1)
    counts[0] = 0
    best = [None, None]  # best congestion, chosen paths

    choice = [None] * len(pairs)

    def pruned(idx: int, cur_max: int) -> bool:
        if best[0] is None:
            return False
        if cur_max >= best[0]:
            return True
        for members, size, need in load_bounds:
            load = sum(counts[w] for w in members) + need[idx]
            if -(-load // size) >= best[0]:  # ceil
                return True
        return False

    def search(idx: int, cur_max: int) -> None:
        if pruned(idx, cur_max):
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
    return best[0], PathTable(n, paths)
