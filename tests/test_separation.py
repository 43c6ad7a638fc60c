"""Path arrangements, cluster staircases, and separation-side quantities."""

import itertools
import json
import resource
import subprocess
import sys
from collections import deque

import pytest

import lsqlab as L
from lsqlab.separation import (
    arrangement_violations,
    cluster_staircase,
    make_separation_instance,
)
from lsqlab.staircase import count_good_with_prefix, shared_prefix_length


def test_nine_vertex_arrangement_verifies(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    assert not arrangement_violations(pa, g)


def test_duplicate_interior_vertex_fails(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    bad = dict(pa.inter_paths)
    bad[(2, 1, 3)] = bad[(1, 1, 3)]  # reuse path 1's interior vertex
    broken = L.PathArrangement(g, pa.m, pa.clusters, bad)
    problems = arrangement_violations(broken, g)
    assert problems


def _clusters(text):
    """Clusters written as "|"-separated digit strings, e.g. "12|345"."""
    return tuple(frozenset(map(int, c)) for c in text.split("|"))


def _broken(pa, m=None, clusters=None, paths=(), drop=()):
    """pa with some fields replaced, paths overridden and keys dropped."""
    inter = {**pa.inter_paths, **dict(paths)}
    for key in drop:
        del inter[key]
    return L.PathArrangement(pa.graph, m or pa.m, clusters or pa.clusters,
                             inter)


@pytest.mark.parametrize("change, message", [
    ({"clusters": _clusters("123|456|789|")}, "cluster 4 is empty"),
    ({"clusters": _clusters("123|4563|789")},
     "cluster 2 overlaps an earlier cluster"),
    ({"clusters": _clusters("123|456|79")}, "cluster 3 is not connected"),
    ({"m": 2}, "expected 2 clusters, found 3"),
    ({"clusters": _clusters("456|123|789")}, "vertex 1 is not in cluster 1"),
    ({"drop": [(2, 1, 3)]}, "missing path P_2(1,3)"),
    ({"paths": {(1, 1, 1): (1, 2, 1)}}, "P_1(1,1) repeats a vertex"),
    ({"paths": {(1, 1, 2): (1, 5)}}, "P_1(1,2) uses non-edge (1,5)"),
    ({"paths": {(1, 1, 2): (7, 4)}}, "P_1(1,2) does not start in cluster 1"),
    ({"paths": {(1, 1, 2): (1, 7)}}, "P_1(1,2) does not end in cluster 2"),
    ({"paths": {(1, 1, 3): (1, 4, 7, 8)}},
     "P_1(1,3) interior vertex 7 inside a cluster"),
    ({"m": 4}, "expected 4 clusters, found 3"),
])
def test_arrangement_violation_kinds(nine_vertex_arrangement, change, message):
    g, pa = nine_vertex_arrangement
    assert message in arrangement_violations(_broken(pa, **change), g)


def test_grid_arrangements_verify():
    for side in (2, 3, 4):
        pa = L.grid_path_arrangement(side)
        assert pa.m == side
        assert not arrangement_violations(pa, pa.graph)
    pa3 = L.grid_path_arrangement(3)
    assert pa3.clusters[0] == frozenset({1, 4, 7})


def test_cluster_staircase_nine_vertex_walk(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    s = cluster_staircase((1, 3, 3, 1, 2), pa)
    assert s.walk == (1, 2, 3, 6, 9, 8, 7, 1, 4)


def test_cluster_staircase_degenerate(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    assert cluster_staircase((1,), pa).walk == (1,)


def test_cluster_staircase_grid_edge_consecutive():
    pa = L.grid_path_arrangement(3)
    for rest in itertools.product(range(1, 4), repeat=4):
        x = (1, *rest)
        s = cluster_staircase(x, pa)
        assert s.walk[0] == 1
        for a, b in zip(s.walk, s.walk[1:]):
            assert pa.graph.has_edge(a, b)


def test_separation_values_nine_vertex(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    x = (1, 3, 3, 1, 2)
    vals = make_separation_instance(x, 0, pa, g).table
    assert vals[1] == -8   # first walk vertex, revisited at position 8
    assert vals[4] == -9   # walk end
    assert vals[5] == 2    # off-walk distance
    assert L.local_minima(g, vals) == {4}


def test_separation_validity_exhaustive_side3():
    pa = L.grid_path_arrangement(3)
    g = pa.graph
    for rest in itertools.product(range(1, 4), repeat=2):
        x = (1, *rest)
        inst = make_separation_instance(x, 0, pa, g)
        assert L.validate_function(inst.table, inst.staircase.walk, g)
        assert L.local_minima(g, inst.table) == {inst.minimum}


def test_separation_walk_single_vertex_values():
    pa = L.grid_path_arrangement(3)
    g = pa.graph
    vals = make_separation_instance((1,), 0, pa, g).table
    assert vals[1] == -1
    assert all(v == 1 or vals[v] > 0 for v in g.vertices())


def test_intra_cluster_path_stays_inside(nine_vertex_arrangement):
    g, pa = nine_vertex_arrangement
    p = pa.cluster_path(1, 1, 3)
    assert p == (1, 2, 3)
    with pytest.raises(ValueError):
        pa.cluster_path(1, 1, 5)


def test_relation_separation_examples():
    m, c = 4, 1
    assert L.relation_separation((1, 2, 3), 0, (1, 2, 3), 1, m) == m ** 3
    assert L.relation_separation((1, 2, 3), 0, (1, 2, 3), 0, m) == 0
    assert L.relation_separation((1, 2, 3), 0, (1, 4, 3), 1, m) == 4
    # bad sequence zeroes the relation
    assert L.relation_separation((1, 2, 2), 0, (1, 2, 3), 1, m) == 0
    with pytest.raises(ValueError):
        L.relation_separation((1, 2, 3), 0, (1, 2, 3, 4, 5), 1, m)


def test_relation_separation_even_agreement_rounds_down():
    # prefixes agree through index 2 only; the exponent must stay odd
    m = 5
    assert L.relation_separation((1, 2, 3), 0, (1, 2, 4), 1, m) == 5


def test_count_formula_exhaustive_small():
    for m, c in ((4, 1), (5, 1), (5, 2), (6, 2)):
        if 2 * c + 1 > m:
            continue
        x = tuple(range(1, 2 * c + 2))
        for j in range(1, 2 * c + 1):
            actual = sum(
                1
                for rest in itertools.product(range(1, m + 1), repeat=2 * c)
                if L.is_good((1, *rest))
                and shared_prefix_length(x, (1, *rest)) == j
            )
            assert actual == count_good_with_prefix(x, j, m)


def test_sample_separation_instance():
    pa = L.grid_path_arrangement(4)
    a = L.sample_separation_instance(pa, 1, seed=9)
    b = L.sample_separation_instance(pa, 1, seed=9)
    assert a.milestones == b.milestones and a.bit == b.bit
    assert a.milestones[0] == 1 and len(set(a.milestones)) == 3
    assert L.local_minima(pa.graph, a.table) == {a.minimum}
    with pytest.raises(ValueError):
        L.sample_separation_instance(pa, 2, seed=0)  # needs 2c+1 <= m


def test_parameter_bound_examples():
    assert L.arrangement_parameter_bound(162, 1) == 9
    assert L.arrangement_parameter_bound(0, 5) == 1
    assert L.arrangement_parameter_bound(8, 1) == 2
    with pytest.raises(ValueError):
        L.arrangement_parameter_bound(8, 0)


def test_separation_instance_builds_its_walk_once(monkeypatch):
    import lsqlab.separation as sep

    calls = []
    build = sep.cluster_staircase
    monkeypatch.setattr(sep, "cluster_staircase",
                        lambda x, pa: calls.append(x) or build(x, pa))
    pa = L.grid_path_arrangement(5)
    inst = make_separation_instance((1, 3, 2), 1, pa, pa.graph)
    assert calls == [(1, 3, 2)]
    assert inst.staircase == build((1, 3, 2), pa)


def _intra_cluster_path_reference(pa, i, u, v):
    """The cluster-local BFS and walk-back that cluster paths were found by
    before they read graphs.bfs_tree."""
    cluster = pa.clusters[i - 1]
    if u == v:
        return (u,)
    g = pa.graph
    dist = {u: 0}
    queue = deque([u])
    while queue:
        a = queue.popleft()
        for w in g.neighbors(a):
            if w in cluster and w not in dist:
                dist[w] = dist[a] + 1
                queue.append(w)
    path = [v]
    while path[-1] != u:
        cur = path[-1]
        for w in g.neighbors(cur):
            if w in cluster and dist.get(w, -1) == dist[cur] - 1:
                path.append(w)
                break
    path.reverse()
    return tuple(path)


def _stored_grid_arrangement(side):
    """The grid arrangement as grid_path_arrangement built it when it
    stored all side^3 row paths."""
    g = L.grid_graph(side)

    def cell(row, col):  # 1-based row/col -> row-major vertex id
        return (row - 1) * side + col

    clusters = tuple(
        frozenset(cell(r, c) for r in range(1, side + 1))
        for c in range(1, side + 1)
    )
    inter = {}
    for k in range(1, side + 1):
        for i in range(1, side + 1):
            for j in range(1, side + 1):
                if i == j:
                    inter[(k, i, j)] = (cell(k, i),)
                else:
                    step = 1 if j > i else -1
                    inter[(k, i, j)] = tuple(
                        cell(k, c) for c in range(i, j + step, step)
                    )
    return L.PathArrangement(g, side, clusters, inter)


def _cluster_paths_match_reference(pa):
    for i, cluster in enumerate(pa.clusters, start=1):
        for u, v in itertools.product(sorted(cluster), repeat=2):
            assert (pa.cluster_path(i, u, v)
                    == _intra_cluster_path_reference(pa, i, u, v))


def test_intra_cluster_path_matches_reference(nine_vertex_arrangement):
    for side in range(2, 7):
        _cluster_paths_match_reference(_stored_grid_arrangement(side))
    _cluster_paths_match_reference(nine_vertex_arrangement[1])
    g = nine_vertex_arrangement[0]
    split = L.PathArrangement(g, 1, (frozenset({1, 3}),), {})
    with pytest.raises(ValueError, match="does not connect 1 and 3"):
        split.cluster_path(1, 1, 3)


def test_grid_arrangement_matches_stored_paths():
    for side in range(2, 7):
        pa = L.grid_path_arrangement(side)
        stored = _stored_grid_arrangement(side)
        assert isinstance(pa, L.GridArrangement)
        assert (pa.graph, pa.m, pa.clusters) == (
            stored.graph, stored.m, stored.clusters)
        for key in itertools.product(range(1, side + 1), repeat=3):
            assert pa.path(*key) == stored.path(*key)
        _cluster_paths_match_reference(pa)
        for key in ((0, 1, 1), (1, side + 1, 1), (1, 1, 0)):
            with pytest.raises(KeyError):
                pa.path(*key)
        for i, u, v in ((1, 1, 2), (2, 1, 2), (1, 1, side * side + 1),
                        (side + 1, side, side)):
            with pytest.raises(ValueError, match="not inside cluster"):
                pa.cluster_path(i, u, v)


def _cluster_staircase_reference(x, pa):
    """The three-branch construction cluster_staircase ran before it
    chained one intra-cluster path and one inter-cluster path per leg."""
    c = (len(x) - 1) // 2
    if c == 0:
        return L.Staircase((1,), ())
    segments = []
    for i in range(1, 2 * c + 1):
        if i == 1:
            nxt = pa.path(x[1], 1, x[2])
            segments.append(
                _intra_cluster_path_reference(pa, 1, 1, nxt[0]))
        elif i % 2 == 0:
            segments.append(pa.path(x[i - 1], x[i - 2], x[i]))
        else:
            prev = pa.path(x[i - 2], x[i - 3], x[i - 1])
            nxt = pa.path(x[i], x[i - 1], x[i + 1])
            segments.append(
                _intra_cluster_path_reference(pa, x[i - 1], prev[-1], nxt[0]))
    walk = list(segments[0])
    starts = [0]
    for seg in segments[1:]:
        assert seg[0] == walk[-1]
        starts.append(len(walk) - 1)
        walk.extend(seg[1:])
    return L.Staircase(tuple(walk), tuple(starts))


def test_cluster_staircase_matches_reference(nine_vertex_arrangement,
                                             monkeypatch):
    arrangements = [L.grid_path_arrangement(side) for side in range(2, 6)]
    arrangements.append(nine_vertex_arrangement[1])
    reads = []
    for pa in arrangements:
        path = type(pa).path
        for c in (0, 1, 2):
            for rest in itertools.product(range(1, pa.m + 1), repeat=2 * c):
                x = (1, *rest)
                want = _cluster_staircase_reference(x, pa)
                with monkeypatch.context() as m:
                    m.setattr(type(pa), "path",
                              lambda self, *key: reads.append(key)
                              or path(self, *key))
                    assert cluster_staircase(x, pa) == want
                # one inter-cluster path read per leg
                assert reads == [(x[2 * leg + 1], x[2 * leg], x[2 * leg + 2])
                                 for leg in range(c)]
                reads.clear()


SCALE_SCRIPT = """
import json
import lsqlab as L
pa = L.grid_path_arrangement(256)
print(json.dumps([[inst.milestones, inst.staircase.walk]
                  for inst in (L.sample_separation_instance(pa, 64, seed)
                               for seed in (1, 2, 3))]))
"""


def test_grid_side256_needs_no_path_table():
    # 256^3 stored row paths would blow the 1 GiB address-space limit or
    # the time limit instead of hanging the suite; the run takes about a
    # second.
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    r = subprocess.run([sys.executable, "-c", SCALE_SCRIPT], capture_output=True,
                       text=True, timeout=60, preexec_fn=limit_memory)
    assert r.returncode == 0, r.stderr
    side = 256
    for x, walk in json.loads(r.stdout):
        assert len(x) == 129 and x[0] == 1 and len(set(x)) == 129
        assert walk[0] == 1 and all(1 <= v <= side * side for v in walk)
        for a, b in zip(walk, walk[1:]):
            lo, hi = min(a, b), max(a, b)
            assert hi - lo == side or (hi - lo == 1 and lo % side), (a, b)
