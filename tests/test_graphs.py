"""Graph families, metrics, and the exact expansion/separation routines."""

import itertools
import json
import random
import time
from collections import deque
from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from conftest import connected_graphs, direct_product_group, two_cycle_graph
from hypothesis import example, given, reject, settings, strategies as st

import lsqlab as L
from lsqlab import CapabilityError
from lsqlab.graphs import relabel
from lsqlab.pathsystems import _subtree_sizes
from lsqlab.serialize import graph_to_dict


def test_hypercube_dim2_is_4cycle():
    g = L.hypercube_graph(2)
    assert g.n == 4
    assert all(g.degree(v) == 2 for v in g.vertices())


def test_barbell8_edge_count_and_shape():
    g = L.barbell_graph(8)
    assert len(g.edges) == 13
    assert g.has_edge(4, 5)
    m = L.graph_metrics(g)
    assert m["max_degree"] == 4
    assert m["diameter"] == 3


def test_grid4_distance_corner():
    g = L.grid_graph(4)
    assert L.bfs_distances(g, 1)[4] == 3


def test_bfs_examples():
    assert L.bfs_distances(L.clique_graph(4), 1)[1:] == [0, 1, 1, 1]
    assert L.bfs_distances(L.ring_graph(5), 1)[1:] == [0, 1, 2, 2, 1]
    assert L.bfs_distances(L.grid_graph(4), 1)[7] == 3


def test_metrics_examples():
    assert L.graph_metrics(L.clique_graph(4)) == {"max_degree": 3, "diameter": 1}
    assert L.graph_metrics(L.hypercube_graph(3)) == {"max_degree": 3, "diameter": 3}


def test_expansion_examples():
    assert L.edge_expansion_exact(L.clique_graph(4)) == 2
    assert L.edge_expansion_exact(L.ring_graph(6)) == Fraction(2, 3)
    k2 = L.from_edges(2, [(1, 2)])
    assert L.edge_expansion_exact(k2) == 1


def test_expansion_closed_forms_at_the_cap():
    # n = 24 is the default cap: one split sweep per graph
    assert L.edge_expansion_exact(L.ring_graph(24)) == Fraction(1, 6)
    assert L.edge_expansion_exact(L.clique_graph(24)) == 12
    assert L.edge_expansion_exact(L.barbell_graph(24)) == Fraction(1, 12)


def test_expansion_cap(monkeypatch):
    g = L.ring_graph(25)
    with pytest.raises(CapabilityError):
        L.edge_expansion_exact(g)
    # the variable's entry moves the cap both ways
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "edge_expansion_exact=25")
    assert L.edge_expansion_exact(g) == Fraction(1, 6)
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "edge_expansion_exact=11")
    with pytest.raises(CapabilityError):
        L.edge_expansion_exact(L.ring_graph(12))


def test_separation_examples():
    assert L.separation_number_exact(L.clique_graph(4)) == 1
    assert L.separation_number_exact(L.barbell_graph(8)) == 1
    assert _barbell_separation(8) == 1
    assert _barbell_separation(16) == 2


def test_separation_cap():
    with pytest.raises(CapabilityError):
        L.separation_number_exact(L.barbell_graph(16))


def test_separation_relabeling_invariance():
    rng = random.Random(3)
    g = L.barbell_graph(8)
    s = L.separation_number_exact(g)
    for _ in range(5):
        perm = list(g.vertices())
        rng.shuffle(perm)
        g2 = relabel(g, {v: perm[v - 1] for v in g.vertices()})
        assert L.separation_number_exact(g2) == s


def test_build_graph_determinism_and_serialization():
    params = {"n": 12, "d": 3, "seed": 99}
    g1 = L.build_graph("random_regular", params)
    g2 = L.build_graph("random_regular", params)
    assert json.dumps(graph_to_dict(g1)) == json.dumps(graph_to_dict(g2))
    assert all(g1.degree(v) == 3 for v in g1.vertices())


def test_build_graph_cayley_family():
    group = (L.TableGroup(L.cyclic_group(5)), (2, 5))
    g = L.build_graph("cayley", {"group": group})
    assert g.edges == L.cayley_graph(*group).edges
    with pytest.raises(ValueError, match="--kind cayley needs --group"):
        L.build_graph("cayley", {"n": 5})
    with pytest.raises(ValueError, match="unknown graph kind 'petersen'"):
        L.build_graph("petersen", {})


def test_graph_carries_its_group():
    z5 = L.TableGroup(L.cyclic_group(5))
    cayley, ring = L.cayley_graph(z5, {2, 5}), L.ring_graph(5)
    assert cayley.group is z5
    assert type(ring.group) is L.graphs.CyclicGroup and ring.group.order == 5
    assert ring == cayley and hash(ring) == hash(cayley)  # group not compared
    q3 = L.hypercube_graph(3)
    assert type(q3.group) is L.graphs.XorGroup and q3.group.order == 8
    for g in (L.grid_graph(2), L.clique_graph(4),
              L.barbell_graph(4), L.random_regular_graph(6, 3, 0),
              L.from_edges(2, [(1, 2)]), relabel(ring, {1: 1, 2: 3, 3: 2,
                                                        4: 4, 5: 5})):
        assert g.group is None
    # only cayley_graph attaches a group (test_cayley_system_rejects_mismatch
    # covers the constructor and replace): a copy drops it
    with pytest.raises(FrozenInstanceError):
        relabel(ring, {v: v for v in ring.vertices()}).group = z5
    assert replace(cayley, n=5).group is None


def test_ring_is_the_explicit_cycle():
    for n in range(3, 13):
        cycle = {(i, i + 1) for i in range(1, n)} | {(1, n)}
        assert L.ring_graph(n).edges == cycle


def test_hypercube_is_the_one_bit_pairs():
    for dim in range(1, 9):
        one_bit = {(x + 1, (x | 1 << b) + 1)
                   for x in range(1 << dim) for b in range(dim)
                   if not x >> b & 1}
        assert L.hypercube_graph(dim).edges == one_bit


def _all_source_diameter(g):
    return max(max(L.bfs_distances(g, v)) for v in g.vertices())


def test_cayley_diameter_from_one_source_matches_all_sources():
    s3 = _symmetric_group_table(3)  # 2, 3 and 6 are its transpositions
    z2z2 = direct_product_group(L.cyclic_group(2), L.cyclic_group(2))
    cayleys = ([L.ring_graph(n) for n in range(3, 12)]
               + [L.hypercube_graph(d) for d in range(1, 9)]
               + [L.cayley_graph(L.TableGroup(s3), {2, 3, 6}),
                  L.cayley_graph(L.TableGroup(z2z2), {2, 3})])
    for g in cayleys:
        assert g.group is not None
        assert L.graph_metrics(g)["diameter"] == _all_source_diameter(g)


def test_graph_metrics_runs_one_bfs_on_a_cayley_graph(monkeypatch):
    # the one BFS is the graph's own, from vertex 1, run when it was built
    cayleys = (L.ring_graph(9), L.hypercube_graph(4))
    others = (L.grid_graph(3), L.barbell_graph(6),
              relabel(L.ring_graph(9), {v: v for v in range(1, 10)}))
    calls = []
    for name in ("bfs_distances", "bfs_tree"):
        bfs = getattr(L.graphs, name)
        monkeypatch.setattr(L.graphs, name, lambda g, v, name=name, bfs=bfs:
                            calls.append((name, v)) or bfs(g, v))
    for g in cayleys:
        L.graph_metrics(g)
        assert calls == []
    # any other graph adds a BFS from every vertex but 1
    for g in others:
        L.graph_metrics(g)
        assert [v for name, v in calls if name == "bfs_distances"] == list(
            range(2, g.n + 1))
        calls.clear()


def test_graph_rejects_malformed_edge_sets():
    for n, edges, message in [
            (0, [], "graph needs at least one vertex"),
            (3, [(1, 2), (2, 4)], r"edge \(2,4\) out of range 1..3"),
            (3, [(1, 2), (2, 3), (3, 3)], "self-loop at vertex 3"),
            (3, [(1, 2), (3, 2)], r"edge \(3,2\) not normalized u < v")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            L.Graph(n, frozenset(edges))


def test_family_edge_counts_match_the_graphs_built():
    z6 = L.TableGroup(L.cyclic_group(6))
    specs = ([("hypercube", {"dim": d}) for d in range(1, 6)]
             + [("grid", {"side": k}) for k in range(2, 6)]
             + [(kind, {"n": n}) for kind in ("clique", "ring", "barbell")
                for n in range(4, 11, 2)]
             + [("cayley", {"group": (z6, gens)})
                for gens in ([2, 6], [3, 4, 5], [2, 4, 6], [2, 3, 5, 6])]
             + [("random_regular", {"n": n, "d": d, "seed": 1})
                for n, d in ((8, 3), (12, 4), (10, 5))])
    for kind, params in specs:
        _, edge_count, _ = L.graphs.FAMILIES[kind]
        g = L.build_graph(kind, params)
        assert edge_count(params) == len(g.edges), (kind, params)
    # as many edges as a clique on n = 2896, the largest one within the
    # limit; the count is read, the graph is never built
    assert L.graphs.FAMILIES["clique"][1]({"n": 2896}) \
        <= L.graphs.MAX_FAMILY_EDGES \
        < L.graphs.FAMILIES["clique"][1]({"n": 2897})


def test_invalid_family_sizes_keep_their_own_errors():
    for kind, params, message in [
            ("hypercube", {"dim": -40}, "dimension must be >= 1"),
            ("grid", {"side": -5000}, "grid side must be >= 2"),
            ("clique", {"n": -100000}, "clique needs n >= 2"),
            ("ring", {"n": -10**9}, "ring needs n >= 3"),
            ("barbell", {"n": -100001}, "barbell needs even n >= 4"),
            ("random_regular", {"n": 10, "d": 10**9}, "need 1 <= d < n")]:
        with pytest.raises(ValueError, match=message):
            L.build_graph(kind, params)
    with pytest.raises(ValueError, match=r"^--kind random_regular --n 8000 "
                       r"--d 2000 gives 8000000 edges, more than the limit"):
        L.build_graph("random_regular", {"n": 8000, "d": 2000})


def test_random_regular_parity_error():
    with pytest.raises(ValueError):
        L.random_regular_graph(5, 3, seed=0)


def test_disconnected_family_errors():
    with pytest.raises(ValueError):
        L.ring_graph(2)
    with pytest.raises(ValueError):
        L.from_edges(4, [(1, 2), (3, 4)])


def test_group_table_validation():
    z5 = L.TableGroup(L.cyclic_group(5))
    assert z5.order == 5 and z5.inv == (0, 1, 5, 4, 3, 2)
    bad = tuple(tuple(2 for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError):
        L.TableGroup(bad)
    # generators not closed under inverse
    with pytest.raises(ValueError):
        L.cayley_graph(z5, {2})


def _table_group_reference(table):
    """TableGroup's validation as it was with the O(n^3) associativity
    loop: the error text of the first failed check, or None."""
    n = len(table)
    if n < 1:
        return "empty multiplication table"
    for row in table:
        if len(row) != n:
            return "multiplication table is not square"
        for x in row:
            if not (1 <= x <= n):
                return "table entry outside 1..n (not closed)"
    for a in range(1, n + 1):
        if table[0][a - 1] != a or table[a - 1][0] != a:
            return "element 1 is not a two-sided identity"
    for a in range(1, n + 1):
        if 1 not in table[a - 1]:
            return f"element {a} has no inverse"
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            ab = table[a - 1][b - 1]
            for c in range(1, n + 1):
                if table[ab - 1][c - 1] != table[a - 1][table[b - 1][c - 1] - 1]:
                    return "multiplication table is not associative"
    return None


def _symmetric_group_table(k):
    """Multiplication table of S_k, identity first."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i + 1 for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[i]] for i in range(k))] for q in perms)
                 for p in perms)


SMALL_GROUPS = ([L.cyclic_group(k) for k in range(1, 9)]
                + [direct_product_group(L.cyclic_group(2), L.cyclic_group(k))
                   for k in (2, 4)]
                + [direct_product_group(L.cyclic_group(2), direct_product_group(
                    L.cyclic_group(2), L.cyclic_group(2))),
                   _symmetric_group_table(3),
                   direct_product_group(L.cyclic_group(2), _symmetric_group_table(3))])


@st.composite
def perturbed_group_tables(draw):
    """A small group's table relabelled by a permutation fixing 1, with up
    to three entries outside the identity's row and column overwritten."""
    base = draw(st.sampled_from(SMALL_GROUPS))
    n = len(base)
    label = [0, 1] + draw(st.permutations(range(2, n + 1)))
    table = [[0] * n for _ in range(n)]
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            table[label[a] - 1][label[b] - 1] = label[base[a - 1][b - 1]]
    if n > 1:
        for _ in range(draw(st.integers(0, 3))):
            a, b = draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1))
            table[a][b] = draw(st.integers(1, n))
    return tuple(map(tuple, table))


@st.composite
def latin_square_tables(draw):
    """A Latin square on 1..n whose first row and column are 1..n: the
    table of a loop, which may or may not be associative."""
    n = draw(st.integers(1, 6))
    table = [list(range(1, n + 1))] + [[a] + [0] * (n - 1) for a in range(2, n + 1)]
    for a in range(1, n):
        for b in range(1, n):
            free = (set(range(1, n + 1)) - set(table[a])
                    - {table[i][b] for i in range(a)})
            if not free:
                reject()
            table[a][b] = draw(st.sampled_from(sorted(free)))
    return tuple(map(tuple, table))


def _table_group_error(table):
    try:
        L.TableGroup(table)
    except ValueError as e:
        return str(e)
    return None


@settings(deadline=None, max_examples=300)
@given(st.one_of(perturbed_group_tables(), latin_square_tables()))
# 2 generates {1, 2, 3} and associates with everything; 4 does not
@example(((1, 2, 3, 4, 5, 6), (2, 3, 1, 6, 4, 5), (3, 1, 2, 5, 6, 4),
          (4, 6, 5, 2, 3, 1), (5, 4, 6, 3, 1, 2), (6, 5, 4, 1, 2, 3)))
def test_table_group_rejects_exactly_what_the_cubic_check_rejects(table):
    assert _table_group_error(table) == _table_group_reference(table)


def test_table_group_accepts_every_small_group():
    for table in SMALL_GROUPS:
        assert _table_group_error(table) is None


def test_table_group_validates_order_400_quickly():
    # All n^3 triples take seconds at this order; Light's test needs one
    # generator.
    table = L.cyclic_group(400)
    start = time.perf_counter()
    assert L.TableGroup(table).order == 400
    assert time.perf_counter() - start < 1.0


def test_cayley_ring():
    g = L.cayley_graph(L.TableGroup(L.cyclic_group(5)), {2, 5})
    assert all(g.degree(v) == 2 for v in g.vertices())
    assert g.n == 5


def _naive_expansion_by_size(g):
    """{|S|: min cut(S)/|S| over the subsets of that size}, |S| <= n/2."""
    from itertools import combinations

    best = {}
    verts = list(g.vertices())
    for size in range(1, g.n // 2 + 1):
        for s in combinations(verts, size):
            s_set = set(s)
            cut = sum(1 for u, v in g.edges if (u in s_set) != (v in s_set))
            ratio = Fraction(cut, size)
            if size not in best or ratio < best[size]:
                best[size] = ratio
    return best


def _naive_separation(g):
    from itertools import combinations

    verts = list(g.vertices())
    best = 0
    for h_size in range(2, g.n + 1):
        for h in combinations(verts, h_size):
            h_set = set(h)
            inner = None
            for a_size in range(1, h_size + 1):
                if 4 * a_size < h_size or 4 * a_size > 3 * h_size:
                    continue
                for a in combinations(h, a_size):
                    a_set = set(a)
                    delta = {
                        v for v in h_set - a_set
                        if any(g.has_edge(v, u) for u in a_set)
                    }
                    if inner is None or len(delta) < inner:
                        inner = len(delta)
            if inner is not None and inner > best:
                best = inner
    return best


def _random_connected_graph(n, rng):
    """A random spanning tree on 1..n plus up to n random extra edges."""
    edges = {(v, rng.randint(1, v - 1)) for v in range(2, n + 1)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(1, n + 1), 2)
        edges.add((u, v))
    return L.from_edges(n, edges)


def test_expansion_matches_naive_enumeration():
    rng = random.Random(5)
    graphs_under_test = [L.grid_graph(2), L.barbell_graph(6),
                         L.random_regular_graph(8, 3, seed=1)]
    graphs_under_test += [_random_connected_graph(rng.randint(6, 10), rng)
                          for _ in range(30)]
    tied = 0
    for g in graphs_under_test:
        by_size = _naive_expansion_by_size(g)
        best = min(by_size.values())
        assert L.edge_expansion_exact(g) == best
        tied += list(by_size.values()).count(best) > 1
    # the integer comparison must also meet equal ratios of unequal sizes
    assert tied >= 3


def _naive_minimizers(g):
    """The subsets S with |S| <= n/2 of least cut(S)/|S|."""
    from itertools import combinations

    ratios = {}
    for size in range(1, g.n // 2 + 1):
        for s in combinations(g.vertices(), size):
            cut = sum(1 for u, v in g.edges if (u in s) != (v in s))
            ratios[s] = Fraction(cut, size)
    best = min(ratios.values())
    return {s for s, ratio in ratios.items() if ratio == best}


def _assert_expansion_matches_naive(g):
    assert L.edge_expansion_exact(g) == min(_naive_expansion_by_size(g).values())


def test_expansion_small_and_odd_vertex_counts():
    # the sweep covers subsets of 1..n-1 only, so the smallest n and odd
    # n, where no subset is its complement's size, are the edge cases
    rng = random.Random(12)
    cases = [L.from_edges(2, [(1, 2)]), L.from_edges(3, [(1, 2), (2, 3)]),
             L.from_edges(3, [(1, 3), (2, 3)]), L.clique_graph(3),
             L.ring_graph(5), L.ring_graph(7)]
    cases += [_random_connected_graph(n, rng)
              for n in (3, 5, 7, 9, 11) for _ in range(6)]
    for g in cases:
        _assert_expansion_matches_naive(g)
    assert L.edge_expansion_exact(L.from_edges(3, [(1, 2), (2, 3)])) == 1


def _clique_with_tail(n, tail):
    """K_{n-tail} on 1..n-tail with a path of tail more vertices, ending
    at vertex n, hung from vertex n-tail."""
    edges = [(u, v) for u in range(1, n - tail + 1)
             for v in range(u + 1, n - tail + 1)]
    edges += [(v, v + 1) for v in range(n - tail, n)]
    return L.from_edges(n, edges)


def test_expansion_only_minimizer_holds_the_last_vertex():
    # every subset the sweep visits misses vertex n, so these minima are
    # only reached through the complement of a visited subset
    for n in (6, 7, 8, 9):
        for tail, minimizer in ((1, (n,)), (2, (n - 1, n))):
            g = _clique_with_tail(n, tail)
            assert _naive_minimizers(g) == {minimizer}
            _assert_expansion_matches_naive(g)
            assert L.edge_expansion_exact(g) == Fraction(1, tail)


def test_expansion_minimizer_among_the_first_vertices():
    # the tail mirrored onto vertices 1..tail: these minima lie within the
    # low vertices of the split sweep, so only its empty high subset meets
    # them
    for n, tail in ((7, 2), (8, 2), (9, 2), (12, 2), (12, 3)):
        g = _clique_with_tail(n, tail)
        g = relabel(g, {v: n + 1 - v for v in g.vertices()})
        assert _naive_minimizers(g) == {tuple(range(1, tail + 1))}
        assert L.edge_expansion_exact(g) == Fraction(1, tail)


def test_expansion_minimizer_of_half_size():
    # an arc of a ring and a clique of a barbell minimize at |S| = n/2
    for g in (L.ring_graph(6), L.ring_graph(8), L.ring_graph(10),
              L.barbell_graph(4), L.barbell_graph(8), L.barbell_graph(10)):
        assert {len(s) for s in _naive_minimizers(g)} == {g.n // 2}
        _assert_expansion_matches_naive(g)
    assert L.edge_expansion_exact(L.barbell_graph(10)) == Fraction(1, 5)


def _gray_code_expansion(g):
    """The one-sweep Gray-code expansion, kept as the split sweep's
    reference: every subset S of vertices 1..n-1 in turn, the cut kept
    incrementally, S or its complement scored by integer cross products."""
    n = g.n
    if n == 1:
        raise ValueError("expansion undefined on a single vertex")
    adj_mask = [0] * n  # 0-based vertex -> bitmask of 0-based neighbors
    for u, v in g.edges:
        adj_mask[u - 1] |= 1 << (v - 1)
        adj_mask[v - 1] |= 1 << (u - 1)
    deg = [g.degree(v) for v in g.vertices()]
    best_cut, best_size = 1, 0  # 1/0 is +infinity: any candidate beats it
    half = n // 2
    members = 0
    size = 0
    cut = 0
    for i in range(1, 1 << (n - 1)):
        j = (i & -i).bit_length() - 1  # toggled vertex, 0-based
        bit = 1 << j
        # No self-loops, so the neighbors in S are the same either side
        # of the toggle.
        members ^= bit
        change = deg[j] - 2 * (adj_mask[j] & members).bit_count()
        if members & bit:
            cut += change
            size += 1
        else:
            cut -= change
            size -= 1
        side = size if size <= half else n - size
        if cut * best_size < best_cut * side:
            best_cut, best_size = cut, side
    return Fraction(best_cut, best_size)


@pytest.mark.parametrize("n", range(2, 19))
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_expansion_split_sweep_matches_gray_code_reference(n, data):
    # n = 2..18 meets each split point a = max(0, (n-1)//2 - 1) of the sweep
    g = data.draw(connected_graphs(min_n=n, max_n=n))
    assert L.edge_expansion_exact(g) == _gray_code_expansion(g)


def test_expansion_split_sweep_on_cliques():
    # a clique has the widest fields for its n
    for n in range(2, 17):
        k = L.clique_graph(n)
        assert L.edge_expansion_exact(k) == _gray_code_expansion(k) == n - n // 2


def _delta_size_separation(g):
    """Separation number with delta(A) gathered vertex by vertex: the
    reference for the reach table."""
    def delta_size(adj_mask, members_a, members_h):
        reach = 0
        m = members_a
        while m:
            low = m & -m
            reach |= adj_mask[low.bit_length()]
            m ^= low
        return (reach & members_h & ~members_a).bit_count()

    n = g.n
    adj_mask = [0] * (n + 1)
    for u, v in g.edges:
        adj_mask[u] |= 1 << (v - 1)
        adj_mask[v] |= 1 << (u - 1)
    best = 0
    for h_mask in range(1, 1 << n):
        h_size = h_mask.bit_count()
        if h_size < 2:
            continue
        inner = None
        a_mask = h_mask
        while True:
            a_size = a_mask.bit_count()
            if 4 * a_size >= h_size and 4 * a_size <= 3 * h_size:
                d = delta_size(adj_mask, a_mask, h_mask)
                if inner is None or d < inner:
                    inner = d
                    if inner <= best:
                        break  # this H cannot improve the max
            if a_mask == 0:
                break
            a_mask = (a_mask - 1) & h_mask
        if inner is not None and inner > best:
            best = inner
    return best


@settings(deadline=None, max_examples=40)
@given(connected_graphs(max_n=14))
@example(L.from_edges(1, []))
@example(L.from_edges(2, [(1, 2)]))
def test_separation_reach_table_matches_reference(g):
    assert L.separation_number_exact(g) == _delta_size_separation(g)


def test_separation_matches_naive_enumeration():
    for g in (L.clique_graph(4), L.ring_graph(5), L.grid_graph(2),
              L.barbell_graph(6), L.random_regular_graph(6, 3, seed=2)):
        assert L.separation_number_exact(g) == _naive_separation(g)


def _barbell_separation(n):
    """Separation number of the barbell graph, exhaustive up to symmetry:
    the reference for barbells.

    Subsets are invariant under permuting the non-bridge vertices within
    each clique, so H and A are enumerated by the counts (non-bridge picks,
    bridge flag) per side.
    """
    h = n // 2  # clique size; bridge endpoints are vertex h and h+1

    def delta(a1, i1, a2, i2, b1, j1, b2, j2):
        # a/i: A's non-bridge count and bridge flag per side; b/j: H's.
        # Boundary is restricted to H, mirroring separation_number_exact.
        out = 0
        if a1 + i1 > 0:
            out += b1 - a1  # H's non-bridge clique-1 vertices outside A
        if j1 == 1 and i1 == 0 and (a1 > 0 or i2 == 1):
            out += 1  # bridge vertex h
        if a2 + i2 > 0:
            out += b2 - a2
        if j2 == 1 and i2 == 0 and (a2 > 0 or i1 == 1):
            out += 1  # bridge vertex h+1
        return out

    best = 0
    for b1 in range(h):  # non-bridge count of H on side 1
        for j1 in (0, 1):
            for b2 in range(h):
                for j2 in (0, 1):
                    h_size = b1 + j1 + b2 + j2
                    if h_size < 2:
                        continue
                    inner = None
                    for a1 in range(b1 + 1):
                        for i1 in range(j1 + 1):
                            for a2 in range(b2 + 1):
                                for i2 in range(j2 + 1):
                                    a_size = a1 + i1 + a2 + i2
                                    if 4 * a_size < h_size or 4 * a_size > 3 * h_size:
                                        continue
                                    d = delta(a1, i1, a2, i2, b1, j1, b2, j2)
                                    if inner is None or d < inner:
                                        inner = d
                    if inner is not None and inner > best:
                        best = inner
    return best


def test_barbell_symmetric_matches_generic(monkeypatch):
    # barbell 16 is above the default cap of 14
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "separation_number_exact=16")
    for n in range(4, 17, 2):
        assert _barbell_separation(n) == L.separation_number_exact(
            L.barbell_graph(n))


def test_separation_matches_reference_above_the_cap(monkeypatch):
    # at the cap and two sizes above it, against a reference that sweeps
    # every mask in ascending order and gathers delta(A) vertex by vertex;
    # the star with its center last is the slowest value-1 case
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "separation_number_exact=16")
    graphs = [L.from_edges(14, [(v, 14) for v in range(1, 14)]),
              L.ring_graph(15), L.clique_graph(15),
              two_cycle_graph(15, random.Random(1)),
              two_cycle_graph(15, random.Random(2)),
              L.ring_graph(16), L.barbell_graph(16), L.hypercube_graph(4),
              L.grid_graph(4), L.clique_graph(16),
              two_cycle_graph(16, random.Random(1)),
              two_cycle_graph(16, random.Random(2))]
    for g in graphs:
        assert L.separation_number_exact(g) == _delta_size_separation(g)


def test_separation_inner_minimum_at_most_a_quarter_of_h():
    # every H with |H| >= 2 has min over its window of |delta(A)| at most
    # ceil(|H|/4): the bound that stops the size-ordered search
    graphs = ([L.ring_graph(n) for n in range(3, 9)]
              + [L.clique_graph(n) for n in range(2, 9)]
              + [L.barbell_graph(n) for n in (4, 6, 8)] + [L.grid_graph(3)])
    for g in graphs:
        for h_size in range(2, g.n + 1):
            for h in itertools.combinations(g.vertices(), h_size):
                inner = min(
                    sum(1 for v in set(h) - set(a)
                        if any(g.has_edge(u, v) for u in a))
                    for a_size in range(1, h_size + 1)
                    if h_size <= 4 * a_size <= 3 * h_size
                    for a in itertools.combinations(h, a_size))
                assert inner <= -(-h_size // 4), (g, h)


def test_bfs_edge_lipschitz():
    for g in (L.grid_graph(3), L.barbell_graph(8), L.hypercube_graph(3)):
        for src in g.vertices():
            dist = L.bfs_distances(g, src)
            assert dist[src] == 0
            for u, v in g.edges:
                assert abs(dist[u] - dist[v]) <= 1


@st.composite
def graph_source_within(draw):
    """A random connected graph, a source, and None or a connected vertex
    set holding the source (grown one random frontier vertex at a time)."""
    n = draw(st.integers(1, 12))
    labels = draw(st.permutations(range(1, n + 1)))
    edges = {(labels[v], labels[draw(st.integers(0, v - 1))]) for v in range(1, n)}
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    g = L.from_edges(n, edges)
    src = draw(st.integers(1, n))
    if not draw(st.booleans()):
        return g, src, None
    within = {src}
    for _ in range(draw(st.integers(0, n - 1))):
        frontier = sorted({w for u in within for w in g.neighbors(u)} - within)
        if not frontier:
            break
        within.add(draw(st.sampled_from(frontier)))
    return g, src, frozenset(within)


@settings(deadline=None)
@given(graph_source_within())
# 5 is reached before 4, and 6's lowest-id parent is 4
@example((L.from_edges(6, [(1, 2), (1, 3), (2, 5), (3, 4), (4, 6), (5, 6)]), 1, None))
def test_bfs_tree_matches_reference(case):
    g, src, within = case
    inside = set(g.vertices()) if within is None else within
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w in inside and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    parent = {w: min(u for u in g.neighbors(w) if dist.get(u) == dist[w] - 1)
              for w in dist if w != src}

    got_parent, order = L.graphs.bfs_tree(g, src, within)
    assert sorted(order) == sorted(dist)
    got_dist = L.bfs_distances(g, src) if within is None else None
    for v in g.vertices():
        assert got_parent[v] == parent.get(v, 0)
        if got_dist:
            assert got_dist[v] == dist[v]
        if v in dist:
            path = L.graphs.tree_path(got_parent, src, v)
            assert path[0] == src and path[-1] == v
            assert len(path) == dist[v] + 1
            assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        else:
            with pytest.raises(ValueError, match="not reached"):
                L.graphs.tree_path(got_parent, src, v)


@settings(deadline=None)
@given(graph_source_within())
def test_bfs_order_lists_parents_first_and_gives_subtree_sizes(case):
    g, src, within = case
    parent, order = L.graphs.bfs_tree(g, src, within)
    assert order[0] == src and len(set(order)) == len(order)
    seen = set()
    for w in reversed(order):  # every vertex before its parent
        assert w not in seen and parent[w] not in seen
        seen.add(w)
    size = _subtree_sizes(parent, order)
    for v in order:
        assert size[v] == sum(v in L.graphs.tree_path(parent, src, w)
                              for w in order)
