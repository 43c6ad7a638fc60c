"""Staircases, value functions, the relation and its refinements, validity,
and the hard-instance sampler."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import lsqlab as L
from lsqlab.staircase import (
    all_sequences,
    chain,
    count_good_with_prefix,
    good_sequences,
    make_instance,
    sample_milestones,
    shared_prefix_length,
    tail_count_bound,
)

from conftest import connected_graphs, override_paths


def test_staircase_walk_12_vertices(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    s = L.build_staircase(x, ps)
    assert s.walk == (1, 3, 5, 6, 7, 8, 9, 6, 10, 3, 11)


def test_staircase_walk_grid(grid16_example):
    g, ps, x = grid16_example
    s = L.build_staircase(x, ps)
    assert s.walk == (1, 2, 3, 7, 6, 10, 11, 7, 8, 12, 16)


def test_chain_rejects_segments_that_do_not_meet():
    assert chain(1, [(1, 2), (2, 3)]) == L.Staircase((1, 2, 3), (0, 1))
    with pytest.raises(ValueError, match="segment at 4 does not chain to 2"):
        chain(1, [(1, 2), (4, 3)])
    with pytest.raises(ValueError, match="segment at 2 does not chain to 1"):
        chain(1, [(2, 3)])


def test_make_instance_reads_each_path_once(grid16_example, monkeypatch):
    g, ps, x = grid16_example
    reads = []
    path = type(ps).path
    monkeypatch.setattr(type(ps), "path",
                        lambda self, u, v: reads.append((u, v)) or path(self, u, v))
    make_instance(x, 1, ps, g)
    assert reads == list(zip(x, x[1:]))


def test_degenerate_staircase():
    ps = L.shortest_path_system(L.clique_graph(3))
    assert L.build_staircase((1, 1, 1), ps).walk == (1,)


def test_value_function_grid_values(grid16_example):
    g, ps, x = grid16_example
    vals = make_instance(x, 0, ps, g).table
    assert vals[4] == 3
    assert vals[7] == -3 * 16 - 2 == -50
    assert vals[16] == -3 * 16 - 5 == -53
    assert L.local_minima(g, vals) == {16}


def test_value_function_off_walk_entrance_neighbor(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    vals = make_instance(x, 0, ps, g).table
    assert vals[2] == 1  # adjacent to the entrance, not on the walk
    assert L.local_minima(g, vals) == {11}


def test_hide_bit_flags(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    one = make_instance(x, 1, ps, g)
    assert one.flag(11) == 1
    assert all(one.flag(v) == -1 for v in g.vertices() if v != 11)
    zero = make_instance(x, 0, ps, g)
    assert zero.flag(11) == 0
    diff = [v for v in g.vertices() if one.oracle(v) != zero.oracle(v)]
    assert diff == [11]
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        make_instance(x, 2, ps, g)
    pa = L.grid_path_arrangement(3)
    with pytest.raises(ValueError, match="bit must be 0 or 1"):
        L.make_separation_instance((1,), -1, pa, pa.graph)


def test_is_good():
    assert L.is_good((1, 2, 3, 4))
    assert not L.is_good((1, 3, 5, 3))
    assert L.is_good((1,))


def test_tail_examples(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    s = L.build_staircase(x, ps)
    assert L.tail(5, s) == ()
    assert L.tail(4, s) == (10, 3, 11)
    assert L.tail(1, s) == s.walk[1:]
    with pytest.raises(ValueError):
        L.tail(6, s)


def test_relation_examples():
    n = 6
    assert L.relation_congestion((1, 2, 3, 4), 0, (1, 2, 5, 4), 1, n) == n ** 2
    assert L.relation_congestion((1, 2, 3, 4), 0, (1, 2, 5, 4), 0, n) == 0
    assert L.relation_congestion((1, 2, 3, 4), 0, (1, 3, 5, 3), 1, n) == 0
    # full agreement hits the top exponent
    assert L.relation_congestion((1, 2, 3, 4), 0, (1, 2, 3, 4), 1, n) == n ** 4
    with pytest.raises(ValueError):
        L.relation_congestion((1, 2), 0, (1, 2, 3), 1, n)


def test_distinguishing_weights_k4():
    g = L.clique_graph(4)
    ps = L.shortest_path_system(g)
    f1 = make_instance((1, 2), 0, ps, g)
    f2 = make_instance((1, 3), 1, ps, g)
    assert L.distinguishing_weights(3, f1, f2) == (4, 4, 4)
    # equal functions: all zero
    assert L.distinguishing_weights(3, f1, f1) == (0, 0, 0)
    # vertex 4 is off both staircases and not a minimum: values agree
    r, r_v, r_tv = L.distinguishing_weights(4, f1, f2)
    assert r > 0 and r_v == 0 and r_tv == 0


def test_validate_function_walk_figure():
    # walk (a..i) = (1..9) revisiting c=3; extra vertex x=10 hangs off h=8
    edges = [(1, 2), (2, 3), (3, 4), (3, 8), (3, 9), (4, 5), (5, 6), (6, 7),
             (7, 8), (8, 10)]
    g = L.from_edges(10, edges)
    walk = (1, 2, 3, 4, 5, 6, 7, 8, 3, 9)
    values = {1: 0, 2: -1, 4: -2, 5: -3, 6: -4, 7: -5, 8: -6, 3: -7, 9: -8,
              10: 4}
    assert L.validate_function(values, walk, g)
    assert values[5] > values[3]  # e after c in last-occurrence order
    assert values[10] == 4
    broken = dict(values)
    broken[10] = 5  # off-walk value must equal the distance exactly
    assert not L.validate_function(broken, walk, g)
    reordered = dict(values)
    reordered[4], reordered[7] = reordered[7], reordered[4]
    assert not L.validate_function(reordered, walk, g)


def test_generated_functions_are_valid(grid16_example, twelve_vertex_example):
    for g, ps, x in (grid16_example, twelve_vertex_example):
        inst = make_instance(x, 0, ps, g)
        assert L.validate_function(inst.table, inst.staircase.walk, g)


@st.composite
def shortest_path_instances(draw):
    """(graph, instance): a random milestone sequence over a random
    connected graph's BFS path system; milestones may repeat, return to
    vertex 1 or stay put, so the sequence need not be good."""
    g = draw(connected_graphs())
    x = (1, *draw(st.lists(st.integers(1, g.n), max_size=5)))
    inst = make_instance(x, draw(st.integers(0, 1)),
                         L.shortest_path_system(g), g)
    return g, inst


@settings(deadline=None, max_examples=300)
@given(shortest_path_instances())
def test_instances_are_valid_with_a_unique_minimum(case):
    g, inst = case
    assert L.validate_function(inst.table, inst.staircase.walk, g)
    assert L.local_minima(g, inst.table) == {inst.minimum}


def test_local_minima_constant_function():
    g = L.ring_graph(5)
    assert L.local_minima(g, {v: 7 for v in g.vertices()}) == set(g.vertices())


def test_sampler_shape_and_determinism():
    g = L.clique_graph(4)
    ps = L.shortest_path_system(g)
    a = L.sample_hard_instance(g, ps, 3, seed=11)
    b = L.sample_hard_instance(g, ps, 3, seed=11)
    assert a.milestones == b.milestones and a.bit == b.bit
    assert a.milestones[0] == 1
    assert len(set(a.milestones)) == 4
    with pytest.raises(ValueError):
        L.sample_hard_instance(g, ps, 4, seed=0)


def test_sampler_rejects_negative_L():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="L: must be >= 0, got -1"):
        sample_milestones(5, -1, rng)
    assert sample_milestones(5, 0, rng) == (1,)
    with pytest.raises(ValueError, match="need L \\+ 1 <= n, got L=5, n=5"):
        sample_milestones(5, 5, rng)


def test_sampler_position_marginal():
    rng = random.Random(0)
    n, trials = 10, 10000
    counts = {}
    for _ in range(trials):
        x = sample_milestones(n, 2, rng)
        counts[x[1]] = counts.get(x[1], 0) + 1
    p = 1 / (n - 1)
    sigma = (trials * p * (1 - p)) ** 0.5
    assert set(counts) == set(range(2, n + 1))
    for c in counts.values():
        assert abs(c - trials * p) <= 3 * sigma


def test_sequence_enumeration_order():
    assert list(all_sequences(3, 2)) == [
        (1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        (1, 3, 1), (1, 3, 2), (1, 3, 3)]
    assert list(good_sequences(4, 2)) == [
        (1, 2, 3), (1, 2, 4), (1, 3, 2), (1, 3, 4), (1, 4, 2), (1, 4, 3)]
    assert list(all_sequences(5, 0)) == list(good_sequences(5, 0)) == [(1,)]
    assert list(good_sequences(3, 3)) == []


def test_count_good_with_prefix_matches_enumeration():
    n, length = 5, 3  # L = 2
    import itertools

    x = (1, 2, 3)
    for j in (1, 2):
        actual = sum(
            1
            for rest in itertools.product(range(1, n + 1), repeat=length - 1)
            if L.is_good((1, *rest))
            and shared_prefix_length(x, (1, *rest)) == j
        )
        assert actual == count_good_with_prefix(x, j, n)


def test_tail_count_bound_is_rational_at_the_edge():
    b = tail_count_bound(2, 7, 4, 1, 1)
    assert b == 2 + 7 / 4


def _eager_distances(g, src):
    dist = {src: 0}
    queue = [src]
    for u in queue:
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def _milestone_draws(rng):
    g = L.hypercube_graph(5)
    ps = L.hypercube_path_system(g)
    for _ in range(15):
        inst = L.sample_hard_instance(g, ps, rng.randrange(1, 8), rng.getrandbits(64))
        values = _eager_distances(g, 1)
        x = inst.milestones
        for i, (a, b) in enumerate(zip(x, x[1:]), start=1):
            for pos, v in enumerate(ps.path(a, b), start=1):
                values[v] = -(i * g.n + pos)
        yield g, inst, values


def _cluster_draws(rng):
    pa = L.grid_path_arrangement(7)
    for _ in range(15):
        inst = L.sample_separation_instance(pa, rng.randrange(1, 4), rng.getrandbits(64))
        values = _eager_distances(pa.graph, 1)
        for pos, v in enumerate(inst.staircase.walk, start=1):
            values[v] = -pos
        yield pa.graph, inst, values


@pytest.mark.parametrize("draws", [_milestone_draws, _cluster_draws])
def test_walk_only_oracle_matches_eager_construction(draws):
    for g, inst, values in draws(random.Random(5)):
        walk = inst.staircase.walk
        flags = {v: -1 for v in g.vertices()}
        flags[walk[-1]] = inst.bit
        for v in g.vertices():
            assert inst.oracle(v) == (values[v], flags[v])
        assert dict(enumerate(inst.table[1:], start=1)) == values
        assert {v: inst.flag(v) for v in g.vertices()} == flags


def test_instances_on_one_graph_share_one_entrance_bfs(monkeypatch):
    # the graph's own BFS from vertex 1, run when it was built, is the only one
    g = L.hypercube_graph(4)
    ps = L.hypercube_path_system(g)
    pa = L.grid_path_arrangement(5)
    calls = []
    for module, name in ((L.graphs, "bfs_distances"), (L.graphs, "bfs_tree"),
                         (L.staircase, "bfs_distances")):
        bfs = getattr(module, name)
        monkeypatch.setattr(module, name, lambda g, src, *rest, bfs=bfs:
                            calls.append(src) or bfs(g, src, *rest))
    for seed in range(6):
        L.sample_hard_instance(g, ps, 3, seed)
    assert calls == []
    for seed in range(6):
        L.sample_separation_instance(pa, 2, seed)
    assert calls == []


# The construction the dense value table replaced, kept as the reference:
# walk values in a dict, every other vertex read from the distance tuple
# of the walk's start.
def _dict_instance(s, bit, walk_values, g):
    dist = L.bfs_distances(g, s.walk[0])

    def oracle(v):
        return walk_values.get(v, dist[v]), bit if v == s.end else -1

    values = {v: dist[v] for v in range(1, len(dist))}
    values.update(walk_values)
    flags = dict.fromkeys(range(1, len(dist)), -1)
    flags[s.end] = bit
    return s, walk_values, oracle, values, flags


def _dict_milestone_instance(x, bit, ps, g):
    n = g.n
    walk_values = {}
    paths = []
    for i, (a, b) in enumerate(zip(x, x[1:]), start=1):
        p = ps.path(a, b)
        paths.append(p)
        walk_values.update(zip(p, range(-i * n - 1, -i * n - len(p) - 1, -1)))
    return _dict_instance(chain(x[0], paths), bit, walk_values, g)


def _dict_cluster_instance(x, bit, pa):
    s = L.cluster_staircase(x, pa)
    walk_values = dict(zip(s.walk, range(-1, -len(s.walk) - 1, -1)))
    return _dict_instance(s, bit, walk_values, pa.graph)


def _assert_same_instance(inst, reference, g):
    s, walk_values, oracle, values, flags = reference
    assert inst.staircase == s
    assert inst.minimum == s.end
    assert [(v, inst.table[v]) for v in walk_values] \
        == list(walk_values.items())
    assert list(enumerate(inst.table[1:], start=1)) == list(values.items())
    assert [(v, inst.flag(v)) for v in g.vertices()] == list(flags.items())
    answers = [oracle(v) for v in g.vertices()]
    assert [inst.oracle(v) for v in g.vertices()] == answers
    assert [inst.value(v) for v in g.vertices()] == [a for a, _ in answers]
    assert [inst.flag(v) for v in g.vertices()] == [f for _, f in answers]


def _tree_path(g, a, b, order):
    """The path from a to b in the search tree that grows from a taking
    neighbors by their rank in order: a random simple path."""
    parent = {a: a}
    stack = [a]
    while stack:
        u = stack.pop()
        for w in sorted(g.neighbors(u), key=order.__getitem__):
            if w not in parent:
                parent[w] = u
                stack.append(w)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


@st.composite
def path_system_instances(draw):
    """(graph, path system, milestones, bit): a random connected graph's
    BFS system with some used paths replaced by random simple paths, so
    walks cross themselves; or a hypercube's bit-fixing system."""
    if draw(st.booleans()):
        g = L.hypercube_graph(draw(st.integers(1, 4)))
        ps = L.hypercube_path_system(g)
    else:
        g = draw(connected_graphs())
        ps = L.shortest_path_system(g)
    x = (1, *draw(st.lists(st.integers(1, g.n), max_size=6)))
    overrides = {}
    for a, b in zip(x, x[1:]):
        if g.n > 2 and draw(st.booleans()):
            order = draw(st.permutations(range(g.n + 1)))
            overrides[(a, b)] = _tree_path(g, a, b, order)
    if overrides:
        ps = override_paths(ps, overrides)
    return g, ps, x, draw(st.integers(0, 1))


@settings(deadline=None, max_examples=300)
@given(path_system_instances())
def test_value_table_matches_dict_construction(case):
    g, ps, x, bit = case
    _assert_same_instance(make_instance(x, bit, ps, g),
                          _dict_milestone_instance(x, bit, ps, g), g)


@settings(deadline=None, max_examples=200)
@given(st.integers(2, 8).flatmap(lambda side: st.tuples(
    st.just(side),
    st.integers(0, 3).flatmap(lambda c: st.lists(
        st.integers(1, side), min_size=2 * c, max_size=2 * c)),
    st.integers(0, 1))))
def test_separation_value_table_matches_dict_construction(case):
    side, rest, bit = case
    pa = L.grid_path_arrangement(side)
    x = (1, *rest)
    _assert_same_instance(L.make_separation_instance(x, bit, pa, pa.graph),
                          _dict_cluster_instance(x, bit, pa), pa.graph)


def test_separation_value_table_on_a_path_arrangement(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    for c in (0, 1, 2):
        for rest in itertools.product((1, 2, 3), repeat=2 * c):
            for bit in (0, 1):
                x = (1, *rest)
                _assert_same_instance(L.make_separation_instance(x, bit, pa, g),
                                      _dict_cluster_instance(x, bit, pa), g)
