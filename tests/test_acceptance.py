"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; every tolerance and budget is pinned here, not configurable.
"""

import math
import time

import lsqlab as L
from lsqlab import verify
from lsqlab.adversary import family_matrix_game
from lsqlab.bench import BenchConfig, SolverSpec, report_to_csv, run_bench


def _report(num, label, started, limit):
    elapsed = time.monotonic() - started
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"ACCEPTANCE {num} PASS ({elapsed:.1f}s): {label}")


def test_criterion_1_unique_local_minimum():
    started = time.monotonic()
    # exhaustive on K3-5, C3-5 and grid2 for L <= 3, then 334 draws at each
    # hypercube dim 4, 6, 8; every function validated against its walk
    res = verify.check_unique_local_minimum(samples=1002, seed=2024)
    assert res.passed, res.detail
    _report(1, "unique local minimum, exhaustive small + 1002 hypercube draws",
            started, 30)


def test_criterion_2_figure_reproduction(twelve_vertex_example,
                                         grid16_example,
                                         nine_vertex_arrangement):
    started = time.monotonic()
    g, ps, x = twelve_vertex_example
    assert L.build_staircase(x, ps).walk == (1, 3, 5, 6, 7, 8, 9, 6, 10, 3, 11)

    g2, ps2, x2 = grid16_example
    vals = L.make_instance(x2, 0, ps2, g2).table
    assert vals[4] == 3 and vals[7] == -50

    g9, pa = nine_vertex_arrangement
    walk = L.cluster_staircase((1, 3, 3, 1, 2), pa).walk
    assert walk == (1, 2, 3, 6, 9, 8, 7, 1, 4)  # (v0 v1 v2 v5 v8 v7 v6 v0 v3)
    _report(2, "both staircase figures and the separation walk reproduced",
            started, 1)


def test_criterion_3_matrix_game():
    started = time.monotonic()
    # diagonal solver: right label within k queries, every function, k <= 16
    res = verify.check_diagonal_solver()
    assert res.passed, res.detail
    # min M/q = k^2/(2k-1) and (v_min, bound) = (1, 1/5) for k <= 4
    res = verify.check_matrix_game_laws()
    assert res.passed, res.detail
    for k in (2, 3, 4):
        fam = family_matrix_game(k)
        vb = L.variant_bound_exhaustive(fam)
        ab = L.aaronson_vmin(fam)
        assert vb.min_ratio > 1 / ab.v_min  # variant strictly stronger
    _report(3, "diagonal solver k<=16; min M/q = k^2/(2k-1); v_min = 1",
            started, 5)


def test_criterion_4_congestion_formulas():
    started = time.monotonic()
    # hypercube N(1+b/2) for b <= 4; Cayley uniform <= (d+1)n on C5, C6,
    # Z2xZ2; the oracle attains g* and no shortest-path system beats it
    for check in (verify.check_hypercube_congestion, verify.check_cayley_uniform,
                  verify.check_oracle_lower_bounds):
        res = check()
        assert res.passed, res.detail
    for g in (L.clique_graph(4), L.from_edges(3, [(1, 2), (2, 3)])):
        g_star, _ = L.min_congestion_oracle(g)
        assert g_star == L.congestion(L.shortest_path_system(g)) == 7
    _report(4, "hypercube N(1+b/2); Cayley uniform <= (d+1)n; oracle ties",
            started, 10)


def test_criterion_5_congestion_lemma_suite():
    started = time.monotonic()
    # M({F}) lower bound for every good F, exact value 24 at n=4, L=1
    res = verify.check_m_large()
    assert res.passed, res.detail
    # sum r_v <= 2 sum r~_v: exhaustive n=4 (both L), 1000 samples at n=5
    res = verify.check_rv_twice_rtilde(samples=1000, seed=7)
    assert res.passed, res.detail
    # prefix-count formula, exhaustive n <= 6, L <= 3
    res = verify.check_count_denominator()
    assert res.passed, res.detail
    # tail-count bound, exhaustive n <= 5, L <= 2
    res = verify.check_tail_count_bound()
    assert res.passed, res.detail
    # q(Z) <= |Z| * 6 g n^L on sampled good-only subsets
    res = verify.check_qz_bound(samples=1000, seed=7)
    assert res.passed, res.detail
    _report(5, "M_large, rv<=2*rv~, prefix counts, tail counts, q(Z) cap",
            started, 60)


def test_criterion_6_separation_suite():
    started = time.monotonic()
    # grid arrangements of side 2-4 verify; the parameter bound's hand cases
    # include (162, 1) -> 9, (0, 5) -> 1 and (8, 1) -> 2
    for res in (verify.check_grid_arrangements(),
                verify.check_separation_validity(samples=100, seed=3),
                verify.check_separation_m_large(),
                verify.check_separation_count(),
                verify.check_parameter_bound()):
        assert res.passed, res.detail
    _report(6, "arrangements verify; separation validity, M_large, counts",
            started, 60)


def test_criterion_7_separation_number(monkeypatch):
    started = time.monotonic()
    assert L.separation_number_exact(L.barbell_graph(8)) == 1  # n/8
    # barbell 16 is above the default cap of 14
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "separation_number_exact=16")
    assert L.separation_number_exact(L.barbell_graph(16)) == 2  # n/8
    # 20 relabelings each of barbell 8 and grid 3, drawn from Random(11)
    res = verify.check_separation_invariance(samples=200, seed=11)
    assert res.passed, res.detail
    _report(7, "s(barbell n) = n/8 for n in {8,16}; relabeling invariant",
            started, 60)


def test_criterion_8_solver_scaling():
    started = time.monotonic()
    means = {}
    for dim in (6, 8, 10):
        g = L.hypercube_graph(dim)
        bigl = int(math.isqrt(g.n)) - 1
        cfg = BenchConfig("hypercube", g, "hypercube", bigl,
                          (SolverSpec("descent"),
                           SolverSpec("warm-start", t="auto")),
                          trials=200, master_seed=777)
        report = run_bench(cfg)
        assert all(r["correct"] for r in report.rows)
        means[dim] = {name: agg["mean"]
                      for name, agg in report.aggregates.items()}
        budget = 5 * math.sqrt(g.n * dim)
        assert means[dim]["warm-start"] <= budget, \
            f"dim {dim}: {means[dim]['warm-start']:.1f} > {budget:.1f}"
        # descent from the entrance must never be more than 2x better
        assert means[dim]["warm-start"] <= 2 * means[dim]["descent"]
    for lo, hi in ((6, 8), (8, 10)):
        ratio = means[hi]["warm-start"] / means[lo]["warm-start"]
        assert ratio <= 3, f"dims {lo}->{hi}: growth {ratio:.2f}"
    _report(8, "warm-start means within 5*sqrt(N*delta), growth <= 3 per +2 dims",
            started, 300)


def test_criterion_9_bench_determinism():
    started = time.monotonic()
    res = verify.check_bench_determinism()
    assert res.passed, res.detail
    g = L.hypercube_graph(4)
    cfg = lambda workers: BenchConfig(
        "hypercube", g, "hypercube", 3,
        (SolverSpec("warm-start", t=6),), trials=25, master_seed=31,
        workers=workers)
    outs = {report_to_csv(run_bench(cfg(w))) for w in (1, 2, 8)}
    assert len(outs) == 1
    _report(9, "byte-identical CSV across reruns and worker counts",
            started, 60)
