"""Graph construction and exact structural parameters.

Vertices are labelled 1..n throughout; vertex 1 is the distinguished
staircase entrance.  Every tie-break in the package resolves through the
ascending-id neighbor order fixed here.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .errors import check_cap


@dataclass(frozen=True)
class Graph:
    """Connected undirected graph on vertices 1..n.

    edges is a frozenset of (u, v) pairs with u < v; adjacency lists are
    sorted ascending.  dist holds the hop distances from the entrance,
    vertex 1, as bfs_distances gives them: the connectivity check's BFS,
    kept.  group is set only by cayley_graph, so a graph with a group is
    that group's Cayley graph.  Instances are immutable, safe to share.
    """

    n: int
    edges: frozenset
    group: Group | None = field(init=False, default=None, repr=False,
                                compare=False)
    adjacency: tuple = field(init=False, repr=False, compare=False)
    max_degree: int = field(init=False, repr=False, compare=False)
    dist: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        for u, v in self.edges:
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range 1..{self.n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized u < v")
        # n vertices need n - 1 edges to connect; check before allocating
        if len(self.edges) < self.n - 1:
            raise ValueError("graph is not connected")
        adj = [[] for _ in range(self.n + 1)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        object.__setattr__(
            self, "adjacency", tuple(tuple(sorted(nb)) for nb in adj)
        )
        object.__setattr__(self, "max_degree", max(map(len, adj[1:])))
        dist = tuple(bfs_distances(self, 1))
        if -1 in dist[1:]:  # unreached
            raise ValueError("graph is not connected")
        object.__setattr__(self, "dist", dist)

    def neighbors(self, v: int) -> tuple:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges or (v, u) in self.edges

    def vertices(self) -> range:
        return range(1, self.n + 1)


def from_edges(n: int, edges) -> Graph:
    """Build a Graph from any iterable of vertex pairs (normalizing order)."""
    norm = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        norm.add((min(u, v), max(u, v)))
    return Graph(n, frozenset(norm))


# ---------------------------------------------------------------------------
# Finite groups on 1..order with identity 1, for Cayley graphs and translate
# path systems.  TableGroup is the one place a table is validated.
# ---------------------------------------------------------------------------


class Group:
    """A finite group on 1..order with identity 1.  Implementations hold
    order and inv (inv[a] = a^-1, inv[0] unused) and supply mul(a, b);
    translate is read through mul, and a group may override it."""

    def translate(self, u: int, v: int, patterns) -> tuple:
        """The path u * patterns[u^-1 v], where a pattern holds w - 1 for
        each vertex w of a path from the identity."""
        mul = self.mul
        return tuple([mul(u, p + 1) for p in patterns[mul(self.inv[u], v)]])


class TableGroup(Group):
    """The group of a 1-indexed multiplication table (nested tuples with
    element 1 as the identity), validated when built."""

    def __init__(self, table):
        n = len(table)
        if n < 1:
            raise ValueError("empty multiplication table")
        for row in table:
            if len(row) != n:
                raise ValueError("multiplication table is not square")
            for x in row:
                if not (1 <= x <= n):
                    raise ValueError("table entry outside 1..n (not closed)")
        for a in range(1, n + 1):
            if table[0][a - 1] != a or table[a - 1][0] != a:
                raise ValueError("element 1 is not a two-sided identity")
        for a in range(1, n + 1):
            if 1 not in table[a - 1]:
                raise ValueError(f"element {a} has no inverse")
        if not _associative(table):
            raise ValueError("multiplication table is not associative")
        self.table, self.order = table, n
        self.inv = (0, *(row.index(1) + 1 for row in table))

    def mul(self, a: int, b: int) -> int:
        return self.table[a - 1][b - 1]


def _associative(table) -> bool:
    """Light's test on a table with identity 1: (x s) y = x (s y) for all
    x, y and every s of a generating set means the table is associative.

    The elements s for which it holds are closed under products, so it
    suffices that every element is a product of generators.  Generators
    are picked greedily, each the least element not yet reached from 1 by
    right multiplication with those before it.  In a group each one at
    least doubles the subgroup reached, so a table that needs more than
    log2 n of them is no group, and, with its identity and inverses
    present, not associative.  That makes the test O(n^2 log n).
    """
    n = len(table)
    rows = [tuple(x - 1 for x in row) for row in table]  # 0-based
    gens, reached = [], [True] + [False] * (n - 1)
    while not all(reached):
        gens.append(reached.index(False))
        if 1 << len(gens) > n:
            return False
        reached = [False] * n
        reached[0] = True
        stack = [0]
        while stack:
            x = stack.pop()
            for s in gens:
                y = rows[x][s]
                if not reached[y]:
                    reached[y] = True
                    stack.append(y)
    for s in gens:
        col = rows[s]
        for row in rows:
            if rows[row[s]] != tuple(map(row.__getitem__, col)):
                return False
    return True


class XorGroup(Group):
    """Bit strings under XOR, order a power of two: vertex v is v - 1.
    Its translate XORs each pattern with u - 1, with no call per vertex."""

    def __init__(self, order: int):
        self.order, self.inv = order, tuple(range(order + 1))

    def mul(self, a: int, b: int) -> int:
        return ((a - 1) ^ (b - 1)) + 1

    def translate(self, u: int, v: int, patterns) -> tuple:
        x = u - 1
        return tuple([(p ^ x) + 1 for p in patterns[((v - 1) ^ x) + 1]])


class CyclicGroup(Group):
    """Z_order (order >= 1) with no table: vertex v is the residue v - 1."""

    def __init__(self, order: int):
        self.order, self.inv = order, (0, 1, *range(order, 1, -1))

    def mul(self, a: int, b: int) -> int:
        return (a + b - 2) % self.order + 1


def cyclic_group(k: int) -> tuple:
    """Multiplication table of Z_k; element i represents residue i - 1."""
    if k < 1:
        raise ValueError("cyclic group order must be >= 1")
    return tuple(
        tuple(((a + b) % k) + 1 for b in range(k)) for a in range(k)
    )


# ---------------------------------------------------------------------------
# Graph families
# ---------------------------------------------------------------------------


def hypercube_graph(dim: int) -> Graph:
    """Boolean hypercube of the given dimension; vertex v <-> bits of v-1.
    It is the Cayley graph of XOR on dim bits, generated by the one-bit
    strings, and carries that group."""
    if dim < 1:
        raise ValueError("hypercube dimension must be >= 1")
    return cayley_graph(XorGroup(1 << dim), [(1 << b) + 1 for b in range(dim)])


def grid_edges(side: int) -> frozenset:
    """Edge set of the side x side grid with row-major labels 1..side^2."""
    n = side * side
    return frozenset([(v, v + 1) for v in range(1, n + 1) if v % side]
                     + [(v, v + side) for v in range(1, n - side + 1)])


def grid_graph(side: int) -> Graph:
    """side x side grid with row-major labels 1..side^2."""
    if side < 2:
        raise ValueError("grid side must be >= 2")
    return Graph(side * side, grid_edges(side))


def clique_graph(n: int) -> Graph:
    if n < 2:
        raise ValueError("clique needs n >= 2")
    return Graph(
        n, frozenset((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    )


def ring_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("ring needs n >= 3")
    return cayley_graph(CyclicGroup(n), (2, n))  # residues +1 and -1


def barbell_graph(n: int) -> Graph:
    """Two cliques of size n/2 joined by the single edge {n/2, n/2+1}."""
    if n < 4 or n % 2 != 0:
        raise ValueError("barbell needs even n >= 4")
    h = n // 2
    edges = set()
    for u in range(1, h + 1):
        for v in range(u + 1, h + 1):
            edges.add((u, v))
    for u in range(h + 1, n + 1):
        for v in range(u + 1, n + 1):
            edges.add((u, v))
    edges.add((h, h + 1))
    return Graph(n, frozenset(edges))


def cayley_graph(group: Group, generators) -> Graph:
    """Cayley graph of a group, carrying it: the edges {u, u*s} for every
    vertex u and generator s, each taken once, from its lower end.

    The generating set must exclude the identity and be closed under
    inverse so that the graph is undirected.
    """
    n, inv, mul = group.order, group.inv, group.mul
    gens = sorted(set(generators))
    if not gens:
        raise ValueError("empty generating set")
    for s in gens:
        if not (1 <= s <= n):
            raise ValueError(f"generator {s} outside 1..{n}")
        if s == 1:
            raise ValueError("identity cannot be a generator")
        if inv[s] not in gens:
            raise ValueError("generating set is not closed under inverse")
    g = Graph(n, frozenset([(u, v) for u in range(1, n + 1) for s in gens
                            if u < (v := mul(u, s))]))
    object.__setattr__(g, "group", group)
    return g


def random_regular_graph(n: int, d: int, seed: int) -> Graph:
    """d-regular graph via the pairing model, rejecting bad samples.

    The seed fully determines the output, including all rejection retries.
    """
    if d < 1 or d >= n:
        raise ValueError("need 1 <= d < n")
    if (n * d) % 2 != 0:
        raise ValueError("n * d must be even")
    rng = random.Random(seed)
    while True:
        stubs = [v for v in range(1, n + 1) for _ in range(d)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        try:
            return Graph(n, frozenset(edges))
        except ValueError:  # a simple pairing fails only by being disconnected
            continue


# build_graph refuses a family graph with more edges than this before
# building it: it admits hypercube dimension 18 and cliques up to n = 2896.
MAX_FAMILY_EDGES = 1 << 22


def _pairs(k: int) -> int:
    """Edges of a clique on k vertices; 0 when k < 2."""
    return k * (k - 1) // 2 if k >= 2 else 0


# kind -> (required params, edge count, builder).  The count is exact for
# valid parameters and small for invalid ones, which the builder rejects.
# random_regular also reads an optional seed, and cayley's group is a
# (Group, generators) pair.  Builders are looked up by name at call time.
FAMILIES = {
    "hypercube": (("dim",),
                  lambda p: p["dim"] << p["dim"] - 1 if p["dim"] >= 1 else 0,
                  lambda p: hypercube_graph(p["dim"])),
    "grid": (("side",),
             lambda p: 4 * _pairs(p["side"]),
             lambda p: grid_graph(p["side"])),
    "clique": (("n",),
               lambda p: _pairs(p["n"]),
               lambda p: clique_graph(p["n"])),
    "ring": (("n",),
             lambda p: p["n"],
             lambda p: ring_graph(p["n"])),
    "barbell": (("n",),
                lambda p: 2 * _pairs(p["n"] // 2) + 1,
                lambda p: barbell_graph(p["n"])),
    "cayley": (("group",),
               lambda p: p["group"][0].order * len(set(p["group"][1])) // 2,
               lambda p: cayley_graph(*p["group"])),
    "random_regular": (("n", "d"),
                       lambda p: p["n"] * p["d"] // 2 if 0 < p["d"] < p["n"] else 0,
                       lambda p: random_regular_graph(p["n"], p["d"],
                                                      p.get("seed", 0))),
}


def build_graph(kind: str, params: dict) -> Graph:
    """Construct the canonical graph of a family; deterministic per params.
    More than MAX_FAMILY_EDGES edges is refused before building."""
    try:
        required, edge_count, builder = FAMILIES[kind]
    except KeyError:
        raise ValueError(f"unknown graph kind {kind!r}") from None
    if any(name not in params for name in required):
        flags = " and ".join(f"--{name}" for name in required)
        raise ValueError(f"--kind {kind} needs {flags}")
    edges = edge_count(params)
    if edges > MAX_FAMILY_EDGES:
        flags = " ".join(f"--{name} {params[name]}"
                         if isinstance(params[name], int) else f"--{name}"
                         for name in required)
        raise ValueError(f"--kind {kind} {flags} gives {edges} edges, "
                         f"more than the limit of {MAX_FAMILY_EDGES}")
    return builder(params)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def bfs_tree(g: Graph, src: int, within=None) -> tuple:
    """One BFS pass from src: (parent, order), parent indexed by vertex with
    index 0 unused.

    order lists the reached vertices level by level, src first and each
    level ascending, so every vertex comes after its parent.  parent[w] is
    the lowest-id neighbor of w one hop closer to src (0 at src and where
    unreached): a level is scanned in ascending order, so the first vertex
    to reach w is that neighbor.  This is the package's one shortest-path
    tie-break.  When within is given, the traversal stays inside that
    vertex set, which must contain src.
    """
    if not (1 <= src <= g.n):
        raise ValueError(f"source {src} outside 1..{g.n}")
    adj = g.adjacency
    parent = [0] * (g.n + 1)
    parent[src] = src  # marks src reached until the pass ends
    order = [src]
    level = [src]
    while level:
        reached = []
        for u in level:
            for w in adj[u]:
                if not parent[w] and (within is None or w in within):
                    parent[w] = u
                    reached.append(w)
        reached.sort()
        order += reached
        level = reached
    parent[src] = 0
    return parent, order


def tree_path(parent, src: int, v: int) -> tuple:
    """The path src..v read back along a bfs_tree parent list."""
    path = [v]
    while v != src:
        v = parent[v]
        if not v:
            raise ValueError(f"vertex {path[0]} is not reached from {src}")
        path.append(v)
    path.reverse()
    return tuple(path)


def bfs_distances(g: Graph, src: int) -> list:
    """Hop counts from src; index 0 is unused padding, at -1."""
    parent, order = bfs_tree(g, src)
    dist = [-1] * len(parent)
    for w in order:
        dist[w] = dist[parent[w]] + 1  # src's parent is index 0, at -1
    return dist


def graph_metrics(g: Graph) -> dict:
    """Max degree and exact diameter.  A graph that carries a group is its
    Cayley graph, which left multiplication maps onto itself taking 1 to
    any vertex, so the distances from 1 the graph holds give the diameter;
    any other graph also takes a BFS from every other vertex, capped in
    vertices times edges by errors.CAPS."""
    sources = ()
    if g.group is None:
        check_cap("graph_metrics", g.n * len(g.edges))
        sources = range(2, g.n + 1)
    diameter = max([max(g.dist), *(max(bfs_distances(g, v)) for v in sources)])
    return {"max_degree": g.max_degree, "diameter": diameter}


def edge_expansion_exact(g: Graph) -> Fraction:
    """Exact expansion: min over nonempty S, |S| <= n/2, of cut(S)/|S|.

    cut(S) = cut(V - S), so it suffices to range S over the 2^(n-1)
    subsets of vertices 1..n-1 and score S when |S| <= n/2 and otherwise
    its complement, which holds vertex n and has n - |S| <= n/2 vertices;
    every subset of size at most n/2 is some S or the complement of one.
    The vertex count is capped by errors.CAPS.

    The subsets are split meet-in-the-middle: S = A | B with A among the
    2^a subsets of the low vertices 1..a, a = max(0, (n-1)//2 - 1), and B
    among the 2^b subsets of the high vertices a+1..n-1.  Packed integers
    hold one field per A, in mask order: cut(A), the constant 1, side(|A|
    + k) for each high count k, where side(s) is s if s <= n/2 and n - s
    otherwise, and 2 |N(y) & A| for each high vertex y.  A Gray code over
    B keeps every cut(A | B) at once: adding y to B changes cut(A | B) by
    deg(y) - 2 |N(y) & B| - 2 |N(y) & A|, which is one scalar times the
    ones vector minus y's vector.

    The best ratio is an integer pair (best_cut, best_size), started at
    S = {1}, and a candidate replaces it when cut * best_size <
    best_cut * side, i.e. cut/side < best_cut/best_size; one Fraction is
    built at the end.  Both products are at most |E| floor(n/2) <
    2^(W-2) for the byte-aligned field width W, so adding 2^(W-1) - 1 to
    best_cut * side - best_size * cut sets a field's top bit exactly when
    that A | B beats the best, without carry or borrow between fields;
    only then are the fields read out and scanned in order.  The empty S
    has side 0 and cut 0, so it never fires.
    """
    check_cap("edge_expansion_exact", g.n)
    n = g.n
    if n == 1:
        raise ValueError("expansion undefined on a single vertex")
    adj_mask = [0] * n  # 0-based vertex -> bitmask of 0-based neighbors
    for u, v in g.edges:
        adj_mask[u - 1] |= 1 << (v - 1)
        adj_mask[v - 1] |= 1 << (u - 1)
    deg = [g.degree(v) for v in g.vertices()]
    half = n // 2
    a = max(0, (n - 1) // 2 - 1)  # low vertices 0..a-1
    b = n - 1 - a  # high vertices a..n-2
    count = 1 << a
    nbytes = ((len(g.edges) * half).bit_length() + 9) // 8
    width = 8 * nbytes

    def pack(fields) -> int:
        return int.from_bytes(b"".join(x.to_bytes(nbytes, "little")
                                       for x in fields), "little")

    def unpack(x: int) -> list:
        raw = x.to_bytes(nbytes * count, "little")
        return [int.from_bytes(raw[i:i + nbytes], "little")
                for i in range(0, len(raw), nbytes)]

    cut_of = [0] * count  # cut(A), each A built from A minus its least vertex
    for m in range(1, count):
        low = m & -m
        j = low.bit_length() - 1
        # No self-loops, so j's neighbors in m are those in m ^ low.
        cut_of[m] = cut_of[m ^ low] + deg[j] - 2 * (adj_mask[j] & m).bit_count()
    ones = pack([1] * count)
    high_bits = ones << (width - 1)
    fill = ((1 << (width - 1)) - 1) * ones
    sides = [pack([s if s <= half else n - s
                   for s in (m.bit_count() + k for m in range(count))])
             for k in range(b + 1)]
    nb2 = [2 * pack([(adj_mask[y] & m).bit_count() for m in range(count)])
           for y in range(a, n - 1)]

    best_cut, best_size = deg[0], 1  # S = {1}; n >= 2 so it is scored
    limits = [best_cut * s + fill for s in sides]  # by |B|
    cuts = pack(cut_of)  # cut(A | B) for the current B
    members = size = 0  # B as a bitmask over j = y - a, and |B|
    for i in range(1 << b):
        if i:
            j = (i & -i).bit_length() - 1
            y = a + j
            members ^= 1 << j
            change = deg[y] - 2 * (adj_mask[y] >> a & members).bit_count()
            if members >> j & 1:
                cuts += change * ones - nb2[j]
                size += 1
            else:
                cuts -= change * ones - nb2[j]
                size -= 1
        if (limits[size] - best_size * cuts) & high_bits:
            for c, side in zip(unpack(cuts), unpack(sides[size])):
                if c * best_size < best_cut * side:
                    best_cut, best_size = c, side
            limits = [best_cut * s + fill for s in sides]
    return Fraction(best_cut, best_size)


def separation_number_exact(g: Graph) -> int:
    """Exact separation number by a size-ordered subset search.

    s = max over H of min over A subset of H with |H|/4 <= |A| <= 3|H|/4 of
    |delta(A)|, where delta(A) collects the vertices of H outside A that
    are adjacent to A.  Restricting the boundary to H is what makes the
    barbell value n/8: an unrestricted boundary would let two-vertex
    subsets H push the maximum up to nearly the maximum degree.  The size
    window is a real inequality on integer |A|, so subsets H of size < 2
    admit no valid A and are skipped.  The vertex count is capped by
    errors.CAPS.

    Lemma: for |H| >= 2 every A of size floor(3|H|/4) is in the window and
    delta(A) lies in H - A, so inner(H) <= ceil(|H|/4), a bound that never
    decreases with |H|.  H is therefore visited by size from n down to 2,
    each size's masks drawn by itertools.combinations, and the search
    stops at the first size h with ceil(h/4) <= best; within an H, the
    scan of its subsets A stops once the minimum falls to best.  The max
    does not depend on the visiting order.  The vertices adjacent to a
    vertex set m are read from a table built by doubling, one vertex at a
    time (the masks holding vertex k are those without it, or-ed with k's
    neighbors), so |delta(A)| is one AND and one bit count.
    """
    check_cap("separation_number_exact", g.n)
    n = g.n
    adj_mask = [0] * (n + 1)
    for u, v in g.edges:
        adj_mask[u] |= 1 << (v - 1)
        adj_mask[v] |= 1 << (u - 1)
    reach = array("Q", [0])  # vertex mask -> its neighbors' mask
    for adj_k in adj_mask[1:]:
        reach.extend([r | adj_k for r in reach])
    bits = [1 << k for k in range(n)]
    best = 0
    for h_size in range(n, 1, -1):
        lo, hi = -(-h_size // 4), 3 * h_size // 4  # window on |A|
        if lo <= best:
            break  # inner(H) <= ceil(|H|/4) here and below
        for h_mask in map(sum, combinations(bits, h_size)):
            inner = h_size
            a_mask = h_mask
            while a_mask:  # the empty A is below the window
                if lo <= a_mask.bit_count() <= hi:
                    d = (reach[a_mask] & (h_mask ^ a_mask)).bit_count()
                    if d < inner:
                        inner = d
                        if inner <= best:
                            break  # this H cannot improve the max
                a_mask = (a_mask - 1) & h_mask
            if inner > best:
                best = inner
    return best


def relabel(g: Graph, perm: dict) -> Graph:
    """Apply a vertex permutation {old: new}; used by invariance checks."""
    return from_edges(g.n, ((perm[u], perm[v]) for u, v in g.edges))
