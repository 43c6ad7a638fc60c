"""Invariant verification suites for every module, runnable by scope.

Each check is registered once, by @check(scope, name, ...), which appends
it to SUITES in definition order.  A check raises Violation with a
counterexample description on failure, and returns None or a detail when
it passes; the registered function returns a CheckResult either way, and
run_verify aggregates them.  Sampled checks draw from seeded generators,
so a given budget always examines the same cases.  A check whose cases are
all sampled is skipped, neither passed nor failed, when the budget is 0.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import adversary, bench, graphs, pathsystems, separation, solvers, \
    staircase
from .serialize import (
    graph_from_dict,
    graph_to_dict,
    path_system_from_dict,
    path_system_to_dict,
)


@dataclass(frozen=True)
class CheckResult:
    scope: str
    name: str
    passed: bool
    detail: str = ""
    skipped: bool = False


class Violation(Exception):
    """A counterexample found by a check; its text is the check's detail."""


SUITES: dict = {}  # scope -> registered checks, in definition order


def check(scope: str, name: str, samples: int | None = None,
          sampled: bool = False):
    """Register a check as scope/name.

    A check with a default samples budget is called as body(samples, seed),
    one without as body().  sampled=True skips the check at budget 0, where
    it would examine no case.  The registered function keeps the
    (samples=None, seed=0) call form, None meaning the default budget, and
    returns a CheckResult.  Only Violation is caught.
    """
    default = samples

    def register(body):
        def run(samples=None, seed=0):
            budget = default if samples is None else samples
            if sampled and not budget:
                return CheckResult(scope, name, False, "no case examined",
                                   skipped=True)
            args = () if default is None else (budget, seed)
            try:
                detail = body(*args)
            except Violation as v:
                return CheckResult(scope, name, False, str(v))
            return CheckResult(scope, name, True, detail or "")

        run.__name__, run.__qualname__, run.__doc__ = \
            body.__name__, body.__qualname__, body.__doc__
        SUITES.setdefault(scope, []).append(run)
        return run
    return register


def _small_graph_zoo():
    zoo = [("K3", graphs.clique_graph(3)), ("K4", graphs.clique_graph(4)),
           ("K5", graphs.clique_graph(5)), ("C4", graphs.ring_graph(4)),
           ("C5", graphs.ring_graph(5)), ("grid2", graphs.grid_graph(2)),
           ("hypercube3", graphs.hypercube_graph(3)),
           ("barbell8", graphs.barbell_graph(8))]
    return zoo


# ---------------------------------------------------------------------------
# graph scope
# ---------------------------------------------------------------------------


@check("graph", "build_determinism")
def check_graph_determinism():
    specs = [
        ("hypercube", {"dim": 3}),
        ("grid", {"side": 3}),
        ("barbell", {"n": 8}),
        ("random_regular", {"n": 10, "d": 3, "seed": 7}),
    ]
    for spec in specs:
        g1, g2 = graphs.build_graph(*spec), graphs.build_graph(*spec)
        s1 = json.dumps(graph_to_dict(g1), sort_keys=True)
        s2 = json.dumps(graph_to_dict(g2), sort_keys=True)
        if s1 != s2:
            raise Violation(f"{spec[0]} differs")


@check("graph", "bfs_triangle")
def check_bfs_metric_properties():
    for name, g in _small_graph_zoo():
        dists = {v: graphs.bfs_distances(g, v) for v in g.vertices()}
        for u in g.vertices():
            for v in g.vertices():
                for x in g.vertices():
                    if dists[u][v] > dists[u][x] + dists[x][v]:
                        raise Violation(
                            f"{name}: d({u},{v}) > d({u},{x})+d({x},{v})")
        for u, v in g.edges:
            for x in g.vertices():
                if abs(dists[u][x] - dists[v][x]) > 1:
                    raise Violation(f"{name}: edge ({u},{v}) jumps at {x}")


@check("graph", "expansion_positive", samples=20)
def check_expansion_invariance(samples, seed):
    rng = random.Random(seed)
    for name, g in [("K4", graphs.clique_graph(4)), ("C6", graphs.ring_graph(6)),
                    ("grid3", graphs.grid_graph(3))]:
        beta = graphs.edge_expansion_exact(g)
        if beta <= 0:
            raise Violation(f"{name}: beta={beta}")
        for _ in range(max(2, samples // 10)):
            perm = list(g.vertices())
            rng.shuffle(perm)
            relabeled = graphs.relabel(g, {v: perm[v - 1] for v in g.vertices()})
            if graphs.edge_expansion_exact(relabeled) != beta:
                raise Violation(f"{name}: changed under relabeling")


@check("graph", "separation_invariance", samples=20)
def check_separation_invariance(samples, seed):
    rng = random.Random(seed)
    for name, g in [("barbell8", graphs.barbell_graph(8)),
                    ("grid3", graphs.grid_graph(3))]:
        s = graphs.separation_number_exact(g)
        for _ in range(max(2, samples // 10)):
            perm = list(g.vertices())
            rng.shuffle(perm)
            relabeled = graphs.relabel(g, {v: perm[v - 1] for v in g.vertices()})
            if graphs.separation_number_exact(relabeled) != s:
                raise Violation(f"{name}: changed under relabeling")


# ---------------------------------------------------------------------------
# paths scope
# ---------------------------------------------------------------------------


@check("paths", "congestion_range")
def check_congestion_range():
    for name, g in _small_graph_zoo():
        if g.n > 8:
            continue
        ps = pathsystems.shortest_path_system(g)
        g_cong = pathsystems.congestion(ps)
        if not (g.n <= g_cong <= g.n * g.n):
            raise Violation(f"{name}: g={g_cong} outside [n, n^2]")


@check("paths", "oracle_lower_bound")
def check_oracle_lower_bounds():
    for name, g in [("path3", graphs.from_edges(3, [(1, 2), (2, 3)])),
                    ("K4", graphs.clique_graph(4)), ("C4", graphs.ring_graph(4))]:
        g_star, opt_ps = pathsystems.min_congestion_oracle(g)
        lex = pathsystems.congestion(pathsystems.shortest_path_system(g))
        if pathsystems.congestion(opt_ps) != g_star:
            raise Violation(f"{name}: oracle system does not attain g*")
        if lex < g_star:
            raise Violation(f"{name}: shortest system beats the oracle")


@check("paths", "cayley_uniform")
def check_cayley_uniform():
    cases = [
        ("C5", graphs.TableGroup(graphs.cyclic_group(5)), {2, 5}),
        ("C6", graphs.TableGroup(graphs.cyclic_group(6)), {2, 6}),
        ("Z2xZ2", graphs.XorGroup(4), {2, 3}),
    ]
    for name, group, gen_set in cases:
        g = graphs.cayley_graph(group, gen_set)
        ps = pathsystems.cayley_path_system(g)
        per = set(ps.vertex_counts().values())
        if len(per) != 1:
            raise Violation(f"{name}: non-uniform {per}")
        diam = graphs.graph_metrics(g)["diameter"]
        if max(per) > (diam + 1) * g.n:
            raise Violation(f"{name}: {max(per)} > (d+1)n")


@check("paths", "hypercube_congestion")
def check_hypercube_congestion():
    for b in (1, 2, 3, 4):
        g = graphs.hypercube_graph(b)
        ps = pathsystems.hypercube_path_system(g)
        expected = Fraction(g.n) * (1 + Fraction(b, 2))
        got = pathsystems.congestion(ps)
        if got != expected:
            raise Violation(f"dim {b}: {got} != {expected}")


@check("paths", "roundtrip")
def check_pathsystem_roundtrip():
    for name, g in [("C5", graphs.ring_graph(5)), ("K4", graphs.clique_graph(4))]:
        ps = pathsystems.shortest_path_system(g)
        back = path_system_from_dict(path_system_to_dict(ps))
        if back.table() != ps.table():
            raise Violation(f"{name}: path table changed")
        g2 = graph_from_dict(graph_to_dict(g))
        if g2.edges != g.edges or g2.n != g.n:
            raise Violation(f"{name}: graph changed")


@check("paths", "psi_identity")
def check_psi_identity():
    for name, g in [("path3", graphs.from_edges(3, [(1, 2), (2, 3)])),
                    ("K4", graphs.clique_graph(4)), ("grid2", graphs.grid_graph(2))]:
        ps = pathsystems.shortest_path_system(g)
        per_vertex = ps.vertex_counts()
        for v in g.vertices():
            if sum(ps.paths_through(v).values()) != per_vertex[v]:
                raise Violation(f"{name}: vertex {v}")


# ---------------------------------------------------------------------------
# staircase scope
# ---------------------------------------------------------------------------


def unique_minimum_violation(g, values, expected_end):
    """Counterexample text if values, a vertex-indexed read, has minima
    other than expected_end."""
    minima = staircase.local_minima(g, values)
    if minima != {expected_end}:
        return f"minima {sorted(minima)} != {{{expected_end}}}"
    return None


def _check_instances(cases):
    """For each (label, graph, instance) case: the instance's walk runs
    along edges of the graph from vertex 1, its values are valid for that
    walk, and the walk's end is its only local minimum."""
    for label, g, inst in cases:
        walk = inst.staircase.walk
        where = f"{label} x={inst.milestones}"
        if walk[0] != 1:
            raise Violation(f"{where}: wrong start")
        for a, b in zip(walk, walk[1:]):
            if not g.has_edge(a, b):
                raise Violation(f"{where}: non-edge ({a},{b})")
        if not staircase.validate_function(inst.table, walk, g):
            raise Violation(f"{where}: function not valid")
        bad = unique_minimum_violation(g, inst.table, inst.minimum)
        if bad:
            raise Violation(f"{where}: {bad}")


@check("staircase", "unique_local_minimum", samples=200)
def check_unique_local_minimum(samples, seed):
    def cases():
        zoo = []
        for n in (3, 4, 5):
            zoo += [(f"K{n}", graphs.clique_graph(n)), (f"C{n}", graphs.ring_graph(n))]
        zoo.append(("grid2", graphs.grid_graph(2)))
        for name, g in zoo:
            ps = pathsystems.shortest_path_system(g)
            for L in (1, 2, 3):
                for x in staircase.all_sequences(g.n, L):
                    yield name, g, staircase.make_instance(x, 0, ps, g)
        rng = random.Random(seed)
        for dim in (4, 6, 8):
            g = graphs.hypercube_graph(dim)
            ps = pathsystems.hypercube_path_system(g)
            L = max(1, int(g.n ** 0.5) - 1)
            for _ in range(max(1, samples // 3)):
                inst = staircase.sample_hard_instance(g, ps, L, rng.getrandbits(64))
                yield f"hypercube{dim}", g, inst
    _check_instances(cases())


@functools.cache
def _pair_weights(n, L):
    """(size, r_v, r~_v) for the good instances of K_n at L, built once per
    run_verify call (which clears the cache) and only read.  Each table is
    dense: table[v][i][j] is what the pair {i, j} adds to the double sum
    of the weight over ordered member pairs at v once i and j are both
    members, r(i, j) + r(j, i).  An instance is never paired with itself,
    so table[v][i][i] is 0."""
    g = graphs.clique_graph(n)
    ps = pathsystems.shortest_path_system(g)
    insts = [staircase.make_instance(x, b, ps, g)
             for x in staircase.good_sequences(n, L) for b in (0, 1)]
    size = len(insts)
    r_v = [[[0] * size for _ in range(size)] for _ in range(n + 1)]
    r_tilde_v = [[[0] * size for _ in range(size)] for _ in range(n + 1)]
    for i, j in itertools.permutations(range(size), 2):
        for v in range(1, n + 1):
            _, rv, rtv = staircase.distinguishing_weights(
                v, insts[i], insts[j])
            r_v[v][i][j] += rv
            r_v[v][j][i] += rv
            r_tilde_v[v][i][j] += rtv
            r_tilde_v[v][j][i] += rtv
    return size, r_v, r_tilde_v


def _member_sum(table, members):
    """The double sum over ordered pairs of members (ascending) that a
    dense pair table stands for: each unordered pair's entry, once."""
    total = 0
    for k, i in enumerate(members):
        row = table[i]
        for j in members[k + 1:]:
            total += row[j]
    return total


def _sweep_rv_twice_rtilde(n, L, size, r_v, r_tilde_v):
    """sum r_v <= 2 sum r~_v for every nonempty subset Z, in Gray-code
    order: each step toggles one instance t, so each vertex's two double
    sums move by t's row of the pair tables against the members."""
    lhs = [0] * (n + 1)
    rhs = [0] * (n + 1)
    members = set()
    for step in range(1, 1 << size):
        t = (step & -step).bit_length() - 1
        adding = t not in members
        members.add(t)
        sign = 1 if adding else -1
        for v in range(1, n + 1):
            row_l, row_r = r_v[v][t], r_tilde_v[v][t]
            lhs[v] += sign * sum(row_l[j] for j in members)
            rhs[v] += sign * sum(row_r[j] for j in members)
        if not adding:
            members.remove(t)
        for v in range(1, n + 1):
            if lhs[v] > 2 * rhs[v]:
                raise Violation(f"n={n} L={L} v={v} Z={sorted(members)}: "
                                f"{lhs[v]} > 2*{rhs[v]}")


@check("staircase", "rv_twice_rtilde", samples=1000)
def check_rv_twice_rtilde(samples, seed):
    """sum r_v <= 2 sum r~_v over subsets of good functions: every subset
    of the (4, 1), (4, 2) and (5, 1) instances, sampled ones at (5, 2)."""
    for n, L, exhaustive in ((4, 1, True), (4, 2, True), (5, 1, True), (5, 2, False)):
        size, r_v, r_tilde_v = _pair_weights(n, L)
        if exhaustive:
            _sweep_rv_twice_rtilde(n, L, size, r_v, r_tilde_v)
            continue
        rng = random.Random(seed)
        for _ in range(samples):
            mask = rng.getrandbits(size)
            members = [i for i in range(size) if (mask >> i) & 1]
            for v in range(1, n + 1):
                lhs = _member_sum(r_v[v], members)
                rhs = _member_sum(r_tilde_v[v], members)
                if lhs > 2 * rhs:
                    raise Violation(
                        f"n={n} L={L} v={v} Z={members}: {lhs} > 2*{rhs}")


def _check_m_large(relation, cases):
    """M({F}) summed over all sequences y against the (1/2e) lower bound,
    and the exact value where one is given, for every good x of each
    (label, n, L, lower, exact) case; returns the good sequences checked.
    A bad y adds 0 (a related pair needs both sequences good), so each
    sum runs over the case's good sequences, listed once."""
    checked = 0
    for label, n, L, lower, exact in cases:
        good = list(staircase.good_sequences(n, L))
        for x in good:
            total = sum(relation(x, 0, y, 1, n) for y in good)
            if total < lower:
                raise Violation(f"{label} x={x}: M={total} < {lower}")
            if exact is not None and total != exact:
                raise Violation(f"{label} x={x}: M={total} != {exact}")
            checked += 1
    return checked


@check("staircase", "m_large")
def check_m_large():
    _check_m_large(staircase.relation_congestion, [
        (f"n={n} L={L}", n, L, staircase.ONE_OVER_2E_UPPER * (L + 1) * n ** (L + 1),
         24 if (n, L) == (4, 1) else None)
        for n in (4, 5) for L in (1, 2)])


def _check_prefix_counts(cases):
    """count_good_with_prefix against enumeration for every good x and
    prefix length j of each (label, n, L) case.  The good sequences are
    filtered from all n^L once per case, and each x takes the histogram
    of its shared prefix lengths with them in one pass."""
    for label, n, L in cases:
        goods = [y for y in staircase.all_sequences(n, L)
                 if staircase.is_good(y)]
        for x in staircase.good_sequences(n, L):
            by_length = Counter(staircase.shared_prefix_length(x, y)
                                for y in goods)
            for j in range(1, L + 1):
                actual = by_length[j]
                expected = staircase.count_good_with_prefix(x, j, n)
                if actual != expected:
                    raise Violation(f"{label} x={x} j={j}: "
                                    f"{actual} != {expected}")


@check("staircase", "count_denominator")
def check_count_denominator():
    _check_prefix_counts([(f"n={n} L={L}", n, L) for n in (4, 5, 6)
                          for L in (1, 2, 3) if L + 1 <= n])


@check("staircase", "tail_count_bound")
def check_tail_count_bound():
    for n in (4, 5):
        gset = [graphs.clique_graph(n), graphs.ring_graph(n)]
        for g in gset:
            ps = pathsystems.shortest_path_system(g)
            g_cong = pathsystems.congestion(ps)
            for L in (1, 2):
                staircases = {y: staircase.build_staircase(y, ps)
                              for y in staircase.all_sequences(n, L)}
                for x in staircase.all_sequences(n, L):
                    for j in range(1, L + 1):
                        for v in g.vertices():
                            actual = sum(
                                1 for y, s in staircases.items()
                                if staircase.shared_prefix_length(x, y) == j
                                and v in staircase.tail(j, s)
                            )
                            psi = ps.paths_through(v)[x[j - 1]]
                            bound = staircase.tail_count_bound(psi, g_cong, n, L, j)
                            if actual > bound:
                                raise Violation(f"n={n} L={L} x={x} j={j} v={v}: "
                                                f"{actual} > {bound}")


@check("staircase", "qz_bound", samples=300, sampled=True)
def check_qz_bound(samples, seed):
    """q(Z) <= |Z| * 6 * g * n^L on good-only subsets."""
    rng = random.Random(seed)
    for n, L in ((4, 1), (4, 2), (5, 1), (5, 2)):
        g_cong = pathsystems.congestion(pathsystems.shortest_path_system(
            graphs.clique_graph(n)))
        size, r_v, _ = _pair_weights(n, L)
        for _ in range(samples):
            mask = rng.getrandbits(size)
            members = [i for i in range(size) if (mask >> i) & 1]
            if not members:
                continue
            q = max(_member_sum(r_v[v], members) for v in range(1, n + 1))
            cap = len(members) * 6 * g_cong * n ** L
            if q > cap:
                raise Violation(f"n={n} L={L} Z={members}: q={q} > {cap}")


@check("staircase", "sampler_marginals", samples=10000, sampled=True)
def check_sampler_marginals(samples, seed):
    """Position-2 milestone marginal is uniform over 2..n (3-sigma test)."""
    n, L = 10, 3
    rng = random.Random(seed)
    counts = {v: 0 for v in range(2, n + 1)}
    for _ in range(samples):
        x = staircase.sample_milestones(n, L, rng)
        counts[x[1]] += 1
    p = 1 / (n - 1)
    sigma = (samples * p * (1 - p)) ** 0.5
    for v, c in counts.items():
        if abs(c - samples * p) > 3 * sigma:
            raise Violation(f"vertex {v}: count {c} vs mean {samples * p:.1f}")


# ---------------------------------------------------------------------------
# separation scope
# ---------------------------------------------------------------------------


@check("separation", "grid_arrangements")
def check_grid_arrangements():
    for side in (2, 3, 4):
        pa = separation.grid_path_arrangement(side)
        problems = separation.arrangement_violations(pa, pa.graph)
        if problems:
            raise Violation(f"side {side}: {problems[0]}")


@check("separation", "validity", samples=50)
def check_separation_validity(samples, seed):
    def cases():
        pa3 = separation.grid_path_arrangement(3)
        for x in itertools.product(range(1, 4), repeat=2):
            inst = separation.make_separation_instance((1, *x), 0, pa3, pa3.graph)
            yield "side 3", pa3.graph, inst
        rng = random.Random(seed)
        pa4 = separation.grid_path_arrangement(4)
        for _ in range(samples):
            c = rng.choice((1, 2))
            seq = (1, *(rng.randrange(1, 5) for _ in range(2 * c)))
            inst = separation.make_separation_instance(seq, rng.randrange(2),
                                                       pa4, pa4.graph)
            yield "side 4", pa4.graph, inst
    _check_instances(cases())


@check("separation", "m_large")
def check_separation_m_large():
    checked = _check_m_large(separation.relation_separation, [
        (f"m={m} c={c}", m, 2 * c,
         staircase.ONE_OVER_2E_UPPER * (c + 1) * m ** (2 * c + 1), None)
        for m in (4, 5, 6) for c in (1, 2) if 2 * c + 1 <= m])  # else no good x
    return f"{checked} good sequences"


@check("separation", "count_formula")
def check_separation_count():
    _check_prefix_counts([(f"m={m} c={c}", m, 2 * c) for m in (4, 5, 6)
                          for c in (1, 2) if 2 * c + 1 <= m])


@check("separation", "parameter_bound")
def check_parameter_bound():
    hand = [((162, 1), 9), ((0, 5), 1), ((8, 1), 2), ((7, 1), 1), ((200, 2), 7)]
    for (s, d), want in hand:
        got = separation.arrangement_parameter_bound(s, d)
        if got != want:
            raise Violation(f"({s},{d}): {got} != {want}")


# ---------------------------------------------------------------------------
# adversary scope
# ---------------------------------------------------------------------------


@check("adversary", "matrix_game", samples=50)
def check_matrix_game_laws(samples, seed):
    rng = random.Random(seed)
    for k in (2, 3, 4):
        fam = adversary.family_matrix_game(k)
        closed_form = Fraction(k * k, 2 * k - 1)
        vb = adversary.variant_bound_exhaustive(fam)
        if vb.min_ratio != closed_form:
            raise Violation(f"k={k}: min M/q {vb.min_ratio} != {closed_form}")
        for _ in range(samples):
            mask = rng.getrandbits(fam.size)
            z = [i for i in range(fam.size) if (mask >> i) & 1]
            m = adversary.big_m(fam, z)
            if m != len(z) * k:
                raise Violation(f"k={k} Z={z}: M={m} != |Z|*k")
            if adversary.big_q(fam, z) > m:
                raise Violation(f"k={k} Z={z}: q > M")
        ab = adversary.aaronson_vmin(fam)
        if ab.v_min != 1 or ab.bound != Fraction(1, 5):
            raise Violation(f"k={k}: aaronson {ab} != (1, 1/5)")


@check("adversary", "proposition_stronger")
def check_proposition_stronger():
    """min M(Z)/q(Z) >= 1/(2 v_min) on the matrix game and the small
    staircase family."""
    cases = [(f"matrix k={k}", adversary.family_matrix_game(k))
             for k in (2, 3, 4)]
    g = graphs.clique_graph(4)
    ps = pathsystems.shortest_path_system(g)
    fam, _ = adversary.family_staircase(g, ps, 1)
    cases.append(("staircase n=4 L=1", fam))
    for name, fam in cases:
        vb = adversary.variant_bound_exhaustive(fam)
        ab = adversary.aaronson_vmin(fam)
        if vb.min_ratio < 1 / (2 * ab.v_min):
            raise Violation(f"{name}: {vb.min_ratio} < 1/(2*{ab.v_min})")


@check("adversary", "diagonal_solver")
def check_diagonal_solver():
    for k in range(2, 17):
        fam = adversary.family_matrix_game(k)
        cell_index = {cell: idx for idx, cell in enumerate(fam.domain)}
        for fi in range(fam.size):
            oracle = lambda cell: fam.functions[fi][cell_index[cell]]
            label, queries = adversary.matrix_game_diagonal_solver(oracle, k)
            if label != fam.labels[fi] or queries > k:
                raise Violation(f"k={k} F{fi}: label {label}, {queries} queries")


@check("adversary", "staircase_family")
def check_staircase_family():
    g = graphs.clique_graph(4)
    ps = pathsystems.shortest_path_system(g)
    fam, insts = adversary.family_staircase(g, ps, 1)
    if fam.size != 8:
        raise Violation(f"size {fam.size} != 8")
    for i, inst in enumerate(insts):
        if staircase.is_good(inst.milestones):
            m = adversary.big_m(fam, [i])
            if m != 24:
                raise Violation(f"good F{i}: M={m} != 24")
    vb = adversary.variant_bound_exhaustive(fam)
    if vb.bound <= 0:
        raise Violation("bound not positive")


# ---------------------------------------------------------------------------
# solvers scope
# ---------------------------------------------------------------------------


@check("solvers", "correctness", samples=100)
def check_solver_correctness(samples, seed):
    rng = random.Random(seed)
    cases = [("K6", graphs.clique_graph(6), "bfs"),
             ("grid3", graphs.grid_graph(3), "bfs"),
             ("hypercube4", graphs.hypercube_graph(4), "hypercube")]
    for name, g, strat in cases:
        ps = bench.build_path_system(g, strat)
        delta = g.max_degree
        for _ in range(max(1, samples // 3)):
            L = rng.randrange(1, min(4, g.n))
            inst = staircase.sample_hard_instance(g, ps, L, rng.getrandbits(64))
            truth = solvers.brute_force_min(g, inst.value)
            if truth != {inst.minimum}:
                raise Violation(f"{name}: brute force minima {truth}")

            oracle = solvers.QueryOracle(inst.value)
            res = solvers.steepest_descent(g, oracle, 1)
            if res.answer != inst.minimum or res.queries > g.n:
                raise Violation(f"{name} descent: {res.answer} q={res.queries}")
            moves = res.trace
            vals = [inst.table[v] for v in moves]
            if any(a <= b for a, b in zip(vals, vals[1:])):
                raise Violation(f"{name}: descent values not decreasing")
            if res.queries > 1 + len(moves) * delta:
                raise Violation(f"{name}: query accounting broken")

            oracle2 = solvers.QueryOracle(inst.value)
            res2 = solvers.warm_start_descent(g, oracle2, t="auto",
                                              seed=rng.getrandbits(64))
            if res2.answer != inst.minimum or res2.queries > g.n:
                raise Violation(f"{name} warm-start: {res2.answer}")

            oracle3 = solvers.QueryOracle(inst.value)
            dec = solvers.solve_decision(
                g, oracle3, lambda gg, oo: solvers.steepest_descent(gg, oo, 1),
                inst.flag)
            if dec.answer != inst.bit:
                raise Violation(f"{name} decision: bit {dec.answer} != {inst.bit}")


@check("solvers", "determinism", samples=20, sampled=True)
def check_solver_determinism(samples, seed):
    g = graphs.hypercube_graph(4)
    ps = pathsystems.hypercube_path_system(g)
    rng = random.Random(seed)
    for _ in range(samples):
        inst_seed = rng.getrandbits(64)
        s_seed = rng.getrandbits(64)
        inst = staircase.sample_hard_instance(g, ps, 3, inst_seed)
        o1, o2 = solvers.QueryOracle(inst.value), solvers.QueryOracle(inst.value)
        r1 = solvers.warm_start_descent(g, o1, t=5, seed=s_seed)
        r2 = solvers.warm_start_descent(g, o2, t=5, seed=s_seed)
        if o1.transcript != o2.transcript or r1 != r2:
            raise Violation(f"seed {s_seed} diverged")


# ---------------------------------------------------------------------------
# bench scope
# ---------------------------------------------------------------------------


@check("bench", "determinism")
def check_bench_determinism():
    g = graphs.hypercube_graph(4)
    specs = (bench.SolverSpec("descent"), bench.SolverSpec("warm-start"))
    reports = []
    for workers in (1, 1, 4):
        cfg = bench.BenchConfig("hypercube", g, "hypercube", 3, specs,
                                trials=20, master_seed=1234, workers=workers)
        reports.append(bench.report_to_csv(bench.run_bench(cfg)))
    if reports[0] != reports[1]:
        raise Violation("re-run differs")
    if reports[0] != reports[2]:
        raise Violation("worker count changes output")
    if not all(row.endswith(",true") for row in reports[0].splitlines()[1:]):
        raise Violation("incorrect solver row present")


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def run_verify(scope: str = "all", budget: int | None = None, seed: int = 0):
    """Run a scope's checks (or all); returns the list of CheckResults.
    A budget of None runs each check at its registered default."""
    if budget is not None and budget < 0:
        raise ValueError(f"budget: must be >= 0, got {budget}")
    if scope == "all":
        scopes = list(SUITES)
    elif scope in SUITES:
        scopes = [scope]
    else:
        raise ValueError(f"unknown scope {scope!r}; choose from "
                         f"{['all', *SUITES]}")
    # a run reads tables built from the staircase functions it runs with
    _pair_weights.cache_clear()
    return [fn(samples=budget, seed=seed)
            for sc in scopes for fn in SUITES[sc]]
