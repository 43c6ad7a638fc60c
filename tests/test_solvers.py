"""Query-counted solvers: traces, accounting, decision reduction."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import lsqlab as L
from lsqlab.solvers import QueryOracle
from lsqlab.staircase import make_instance

from conftest import connected_graphs


def path3_with(values):
    g = L.from_edges(3, [(1, 2), (2, 3)])
    return g, QueryOracle(values.__getitem__)


def test_descent_path_graph_trace():
    g, oracle = path3_with({1: 3, 2: 2, 3: 1})
    res = L.steepest_descent(g, oracle, 1)
    assert res.answer == 3
    assert res.queries == 3
    assert res.trace == (1, 2, 3)


def test_descent_start_at_minimum():
    g = L.clique_graph(5)
    oracle = QueryOracle({v: v for v in g.vertices()}.__getitem__)
    res = L.steepest_descent(g, oracle, 1)
    assert res.answer == 1
    assert res.queries == 1 + g.degree(1)


def test_descent_example_instance(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    inst = make_instance(x, 1, ps, g)
    oracle = QueryOracle(inst.value)
    res = L.steepest_descent(g, oracle, 1)
    assert res.answer == 11
    vals = [inst.table[v] for v in res.trace]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_oracle_memoization_and_raw_calls():
    g, oracle = path3_with({1: 1, 2: 2, 3: 3})
    oracle.query(2)
    oracle.query(2)
    assert oracle.count == 1
    assert oracle.raw_calls == 2
    assert oracle.transcript == [(2, 2)]


def test_warm_start_exhaustive_budget():
    g = L.clique_graph(6)
    target = {v: v for v in g.vertices()}
    oracle = QueryOracle(target.__getitem__)
    res = L.warm_start_descent(g, oracle, t=500, seed=4)
    assert res.answer == 1
    assert res.queries <= g.n


def test_warm_start_t1_matches_descent_from_sampled_vertex():
    g = L.grid_graph(3)
    ps = L.shortest_path_system(g)
    inst = make_instance((1, 7, 4), 0, ps, g)
    seed = 1234
    first = random.Random(seed).randrange(1, g.n + 1)
    o1 = QueryOracle(inst.value)
    warm = L.warm_start_descent(g, o1, t=1, seed=seed)
    o2 = QueryOracle(inst.value)
    direct = L.steepest_descent(g, o2, first)
    assert warm.answer == direct.answer
    assert warm.queries == direct.queries


def test_warm_start_golden_replay():
    # frozen from a recorded run; guards the seed-to-transcript contract
    g = L.hypercube_graph(4)
    ps = L.hypercube_path_system(g)
    inst = L.sample_hard_instance(g, ps, 3, seed=77)
    oracle = QueryOracle(inst.value)
    res = L.warm_start_descent(g, oracle, t="auto", seed=101)
    assert inst.milestones == (1, 14, 6, 7)
    assert (res.answer, res.queries) == (7, 9)
    assert [v for v, _ in oracle.transcript[:5]] == [7, 12, 15, 2, 8]


def test_warm_start_determinism():
    g = L.hypercube_graph(3)
    ps = L.hypercube_path_system(g)
    inst = L.sample_hard_instance(g, ps, 2, seed=5)
    runs = []
    for _ in range(2):
        oracle = QueryOracle(inst.value)
        res = L.warm_start_descent(g, oracle, t=4, seed=99)
        runs.append((res, tuple(oracle.transcript)))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 31, 32, 33, 1023, 1024,
                               1025, 3000, 4097])
def test_uniform_vertices_are_randrange_draw_for_draw(n):
    for seed in range(60):
        rng = random.Random(seed)
        expected = [rng.randrange(1, n + 1) for _ in range(50)]
        assert L.solvers.uniform_vertices(n, 50, seed) == expected
    big = 2 ** 64 + 12345
    rng = random.Random(big)
    assert L.solvers.uniform_vertices(n, 500, big) == [
        rng.randrange(1, n + 1) for _ in range(500)]


def test_solve_decision_bits(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    for bit in (0, 1):
        inst = make_instance(x, bit, ps, g)
        oracle = QueryOracle(inst.value)
        res = L.solve_decision(g, oracle,
                               lambda gg, oo: L.steepest_descent(gg, oo, 1),
                               inst.flag)
        assert res.answer == bit


def test_solve_decision_no_extra_query(twelve_vertex_example):
    g, ps, x = twelve_vertex_example
    inst = make_instance(x, 1, ps, g)
    o1 = QueryOracle(inst.value)
    search = L.steepest_descent(g, o1, 1)
    o2 = QueryOracle(inst.value)
    decision = L.solve_decision(g, o2,
                                lambda gg, oo: L.steepest_descent(gg, oo, 1),
                                inst.flag)
    # the inner solver already queried the minimum: memo hit, same count
    assert decision.queries == search.queries


def test_solve_decision_rejects_non_minimum():
    g = L.clique_graph(4)
    ps = L.shortest_path_system(g)
    inst = make_instance((1, 3), 1, ps, g)
    oracle = QueryOracle(inst.value)

    def lazy(gg, oo):
        oo.query(2)
        return L.SolverResult(2, oo.count)

    with pytest.raises(ValueError, match="not the minimum"):
        L.solve_decision(g, oracle, lazy, inst.flag)


def test_brute_force_examples(grid16_example):
    g, ps, x = grid16_example
    inst = make_instance(x, 0, ps, g)
    assert L.brute_force_min(g, inst.value) == {16}
    ring = L.ring_graph(5)
    zero = dict.fromkeys(ring.vertices(), 0)
    assert L.brute_force_min(ring, zero.__getitem__) == set(ring.vertices())


def test_query_accounting_bounds():
    rng = random.Random(8)
    g = L.hypercube_graph(5)
    ps = L.hypercube_path_system(g)
    delta = L.graph_metrics(g)["max_degree"]
    for _ in range(25):
        inst = L.sample_hard_instance(g, ps, 4, rng.getrandbits(64))
        oracle = QueryOracle(inst.value)
        res = L.steepest_descent(g, oracle, 1)
        assert res.answer == inst.minimum
        assert res.queries <= g.n
        assert res.queries <= 1 + len(res.trace) * delta


def test_oracle_memoizes_falsy_answers():
    calls = []

    def target(v):
        calls.append(v)
        return 0

    oracle = QueryOracle(target)
    assert oracle.query(1) == 0
    assert oracle.best([1, 2]) == (1, 0)
    assert oracle.query(2) == 0
    assert calls == [1, 2]
    assert (oracle.count, oracle.raw_calls) == (2, 4)


def test_oracle_batch_edge_cases():
    calls = []

    def target(v):
        calls.append(v)
        return {1: 3, 2: 1, 3: 1}[v]

    oracle = QueryOracle(target)
    assert oracle.best([]) == (None, None)
    assert (oracle.count, oracle.raw_calls) == (0, 0)
    assert oracle.best([3, 2, 3, 2]) == (2, 1)  # tie: least vertex id
    assert calls == [3, 2]
    assert (oracle.count, oracle.raw_calls) == (2, 4)
    assert oracle.transcript == [(3, 1), (2, 1)]


def test_oracle_dict_target():
    oracle = QueryOracle({1: 5, 2: 0, 3: 5}.__getitem__)
    assert oracle.best([3, 1]) == (1, 5)
    assert oracle.query(2) == 0
    assert oracle.transcript == [(3, 5), (1, 5), (2, 0)]
    assert (oracle.count, oracle.raw_calls) == (3, 3)
    with pytest.raises(KeyError):
        oracle.query(4)


# ---------------------------------------------------------------------------
# Differential check against the per-vertex solver loops
# ---------------------------------------------------------------------------


class _ReferenceOracle:
    """QueryOracle as it was before batched reads."""

    def __init__(self, target):
        self._fn = target
        self.memo = {}
        self.raw_calls = 0

    @property
    def count(self) -> int:
        return len(self.memo)

    @property
    def transcript(self) -> list:
        return list(self.memo.items())

    def query(self, v: int):
        self.raw_calls += 1
        if v in self.memo:
            return self.memo[v]
        ans = self._fn(v)
        self.memo[v] = ans
        return ans

    def value(self, v: int):
        ans = self.query(v)
        return ans[0] if isinstance(ans, tuple) else ans


def _reference_descent(g, oracle, start):
    if not (1 <= start <= g.n):
        raise ValueError(f"start vertex {start} outside 1..{g.n}")
    cur = start
    cur_val = oracle.value(cur)
    moves = [cur]
    while True:
        best_v = None
        best_val = None
        for u in g.neighbors(cur):  # ascending: strict < keeps lowest id
            val = oracle.value(u)
            if best_val is None or val < best_val:
                best_v, best_val = u, val
        if best_val is not None and best_val < cur_val:
            cur, cur_val = best_v, best_val
            moves.append(cur)
        else:
            return L.SolverResult(cur, oracle.count, tuple(moves))


def _reference_warm_start(g, oracle, t="auto", seed=0):
    if t == "auto":
        t = L.solvers.auto_warm_start_size(g)
    if t < 1:
        raise ValueError("warm start needs t >= 1")
    rng = random.Random(seed)
    best_v = None
    best_val = None
    for _ in range(t):
        v = rng.randrange(1, g.n + 1)
        val = oracle.value(v)
        if best_val is None or val < best_val or (val == best_val and v < best_v):
            best_v, best_val = v, val
    return _reference_descent(g, oracle, best_v)


@st.composite
def solver_cases(draw):
    """(graph, target, start, t, seed): small integer values, so ties are
    common, or a hidden-bit instance over the graph's BFS path system."""
    g = draw(connected_graphs())
    if g.n >= 2 and draw(st.booleans()):
        x = (1, *draw(st.lists(st.integers(2, g.n), min_size=1, max_size=4)))
        target = make_instance(x, draw(st.integers(0, 1)),
                               L.shortest_path_system(g), g).value
    else:
        values = draw(st.lists(st.integers(0, 3), min_size=g.n, max_size=g.n))
        target = dict(zip(g.vertices(), values)).__getitem__
    t = draw(st.one_of(st.just("auto"), st.integers(1, 3 * g.n)))
    return (g, target, draw(st.integers(1, g.n)), t,
            draw(st.integers(0, 2 ** 32)))


def _run_both(solve, reference, target):
    new, ref = QueryOracle(target), _ReferenceOracle(target)
    assert solve(new) == reference(ref)
    assert new.transcript == ref.transcript
    assert new.raw_calls == ref.raw_calls


@settings(deadline=None, max_examples=300)
@given(solver_cases())
def test_batched_solvers_match_per_vertex_loops(case):
    g, target, start, t, seed = case
    _run_both(lambda o: L.steepest_descent(g, o, start),
              lambda o: _reference_descent(g, o, start), target)
    _run_both(lambda o: L.warm_start_descent(g, o, t=t, seed=seed),
              lambda o: _reference_warm_start(g, o, t=t, seed=seed), target)
