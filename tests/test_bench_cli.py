"""Bench harness determinism and the CLI surface end to end."""

import argparse
import hashlib
import importlib.util
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import lsqlab as L
from lsqlab import bench, cli
from lsqlab.bench import (
    BenchConfig,
    SolverSpec,
    report_to_csv,
    report_to_json,
    run_bench,
    splitmix64,
    trial_seed,
)
from lsqlab.cli import main as cli_main
from lsqlab.verify import unique_minimum_violation


def small_config(workers=1, trials=12):
    g = L.hypercube_graph(3)
    return BenchConfig("hypercube", g, "hypercube", 2,
                       (SolverSpec("descent"), SolverSpec("warm-start", t=4)),
                       trials=trials, master_seed=2024, workers=workers)


def test_bench_rows_and_csv_shape():
    report = run_bench(small_config())
    csv = report_to_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "graph_kind,n,delta,g,L,solver,trial,seed,queries,correct"
    assert len(lines) == 1 + 2 * 12
    assert all(line.endswith(",true") for line in lines[1:])
    data = json.loads(report_to_json(report))
    assert set(data["aggregates"]) == {"descent", "warm-start"}
    for agg in data["aggregates"].values():
        assert set(agg) == {"mean", "median", "p90"}


def test_bench_byte_identical_across_runs_and_workers():
    base = report_to_csv(run_bench(small_config()))
    again = report_to_csv(run_bench(small_config()))
    threaded = report_to_csv(run_bench(small_config(workers=5)))
    assert base == again == threaded


def test_bench_config_validation_messages():
    g = L.hypercube_graph(3)
    with pytest.raises(ValueError, match="trials"):
        BenchConfig("h", g, "hypercube", 2, (SolverSpec("descent"),),
                    trials=0, master_seed=1)
    with pytest.raises(ValueError, match="L"):
        BenchConfig("h", g, "hypercube", 9, (SolverSpec("descent"),),
                    trials=1, master_seed=1)
    with pytest.raises(ValueError, match="solver"):
        BenchConfig("h", g, "hypercube", 2, (), trials=1, master_seed=1)


def test_bench_k4_both_solvers_correct():
    g = L.clique_graph(4)
    cfg = BenchConfig("clique", g, "bfs", 1,
                      (SolverSpec("descent"), SolverSpec("warm-start", t=2)),
                      trials=10, master_seed=5)
    report = run_bench(cfg)
    assert all(r["correct"] for r in report.rows)


def test_bench_arrangement_mode():
    g = L.grid_graph(4)
    cfg = BenchConfig("grid", g, "bfs", 0,
                      (SolverSpec("descent"),), trials=8, master_seed=17, c=1)
    report = run_bench(cfg)
    assert all(r["correct"] for r in report.rows)
    assert all(r["L"] == 1 and r["g"] == 0 for r in report.rows)
    assert report.meta["strategy"] == "arrangement"
    with pytest.raises(ValueError, match="exactly one"):
        BenchConfig("grid", g, "bfs", 2, (SolverSpec("descent"),),
                    trials=1, master_seed=0, c=1)
    with pytest.raises(ValueError, match="square grid"):
        BenchConfig("ring", L.ring_graph(5), "bfs", 0,
                    (SolverSpec("descent"),), trials=1, master_seed=0, c=1)


def test_bench_arrangement_mode_builds_no_second_grid(monkeypatch):
    g = L.grid_graph(5)
    cfg = BenchConfig("grid", g, "bfs", 0, (SolverSpec("descent"),),
                      trials=4, master_seed=3, c=1)
    expected = report_to_csv(run_bench(cfg))
    built = []
    grid_graph = L.graphs.grid_graph
    monkeypatch.setattr(L.graphs, "grid_graph",
                        lambda side: built.append(side) or grid_graph(side))
    assert report_to_csv(run_bench(cfg)) == expected
    assert built == []
    assert L.grid_path_arrangement(5, g).graph is g
    assert L.grid_path_arrangement(5) == L.grid_path_arrangement(5, g)
    assert built == [5]
    with pytest.raises(ValueError, match="16 vertices, not 25"):
        L.grid_path_arrangement(5, L.grid_graph(4))


def test_bench_arrangement_mode_needs_the_grid_graph(tmp_path):
    grid = L.grid_graph(4)
    swapped = L.graphs.relabel(grid, {v: {1: 2, 2: 1}.get(v, v)
                                      for v in grid.vertices()})
    relabeled = tmp_path / "relabeled.json"
    relabeled.write_text(json.dumps(
        {"n": 16, "edges": sorted(map(list, swapped.edges))}))
    for g in (L.hypercube_graph(4), L.clique_graph(16), swapped):
        with pytest.raises(ValueError, match="square grid"):
            BenchConfig("file", g, "bfs", 0, (SolverSpec("descent"),),
                        trials=1, master_seed=0, c=1)
    args = ("--c", "1", "--solver", "descent", "--solver", "warm-start",
            "--trials", "5", "--seed", "3")
    for graph in (("--kind", "hypercube", "--dim", "4"),
                  ("--kind", "clique", "--n", "16"),
                  ("--graph", str(relabeled))):
        r = run_cli("bench", *graph, *args)
        assert r.returncode == 1 and r.stdout == ""
        assert "square grid" in r.stderr and "Traceback" not in r.stderr
    gfile = tmp_path / "grid.json"
    assert run_cli("gen", "--kind", "grid", "--side", "4",
                   "--out", str(gfile)).returncode == 0
    built = run_cli("bench", "--kind", "grid", "--side", "4", *args)
    loaded = run_cli("bench", "--graph", str(gfile), *args)
    assert built.returncode == 0 and loaded.returncode == 0
    assert len(built.stdout.splitlines()) == 11
    assert built.stdout == loaded.stdout.replace("\nfile,", "\ngrid,")


def test_run_verify_all_scopes_small_budget():
    from lsqlab.verify import run_verify

    results = run_verify("all", budget=10, seed=3)
    assert results and all(r.passed for r in results)


def test_seed_mixing_is_stable():
    # pinned values keep the stream spec honest across refactors
    assert splitmix64(0) == 16294208416658607535
    assert trial_seed(42, 0) != trial_seed(42, 1)
    assert trial_seed(42, 7) == trial_seed(42, 7)


def test_verify_helper_catches_injected_fault(grid16_example):
    g, ps, x = grid16_example
    inst = L.make_instance(x, 0, ps, g)
    assert unique_minimum_violation(g, inst.table, inst.minimum) is None
    corrupted = list(inst.table)
    corrupted[6] = -abs(corrupted[6]) * 100  # break the on-walk ordering
    detail = unique_minimum_violation(g, corrupted, inst.minimum)
    assert detail is not None and "minima" in detail


# ---------------------------------------------------------------------------
# CLI end-to-end
# ---------------------------------------------------------------------------


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lsqlab.cli", *args],
        capture_output=True, text=True,
    )


def test_cli_pipeline(tmp_path):
    gfile = tmp_path / "g.json"
    pfile = tmp_path / "p.json"
    ifile = tmp_path / "i.json"

    r = run_cli("gen", "--kind", "hypercube", "--dim", "3", "--out", str(gfile))
    assert r.returncode == 0, r.stderr
    data = json.loads(gfile.read_text())
    assert data["n"] == 8 and len(data["edges"]) == 12

    r = run_cli("metrics", "--graph", str(gfile), "--expansion")
    assert r.returncode == 0
    m = json.loads(r.stdout)
    assert m["max_degree"] == 3 and m["diameter"] == 3
    assert m["edge_expansion"] == "1"

    r = run_cli("paths", "--graph", str(gfile), "--strategy", "hypercube",
                "--out", str(pfile))
    assert r.returncode == 0
    assert len(json.loads(pfile.read_text())["paths"]) == 64

    r = run_cli("congestion", "--graph", str(gfile), "--paths", str(pfile))
    assert r.returncode == 0
    assert json.loads(r.stdout)["max_vertex"] == 20

    r = run_cli("instance", "--graph", str(gfile), "--paths", str(pfile),
                "--L", "2", "--seed", "7", "--materialize", "--out", str(ifile))
    assert r.returncode == 0
    inst = json.loads(ifile.read_text())
    assert inst["milestones"][0] == 1 and len(inst["values"]) == 8

    r = run_cli("solve", "--instance", str(ifile), "--solver", "descent")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["correct"] is True

    r = run_cli("solve", "--instance", str(ifile), "--solver", "warm-start",
                "--t", "3", "--seed", "5",
                "--transcript", str(tmp_path / "t.json"))
    assert r.returncode == 0
    transcript = json.loads((tmp_path / "t.json").read_text())
    assert all(len(row) == 3 for row in transcript["queries"])


def test_cli_bench_deterministic(tmp_path):
    args = ("bench", "--kind", "hypercube", "--dim", "3", "--strategy",
            "hypercube", "--L", "2", "--solver", "descent",
            "--solver", "warm-start", "--trials", "6", "--seed", "99")
    a = run_cli(*args)
    b = run_cli(*args, "--workers", "3")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_cli_adversary_report():
    r = run_cli("adversary", "--family", "matrix", "--k", "3")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["min_ratio"] == "9/5"
    assert report["variant_bound"] == "9/500"
    assert report["vmin"] == "1/1"
    assert report["aaronson_bound"] == "1/5"
    assert report["size"] == 6


def test_cli_verify_scope():
    r = run_cli("verify", "--scope", "adversary", "--budget", "10")
    assert r.returncode == 0
    report = json.loads(r.stdout)
    assert report["failed"] == 0


def test_verify_rejects_negative_budget():
    from lsqlab.verify import run_verify

    with pytest.raises(ValueError, match="budget"):
        run_verify("staircase", budget=-1)
    r = run_cli("verify", "--budget", "-5")
    assert r.returncode == 1
    assert "budget" in r.stderr and "Traceback" not in r.stderr


def test_cli_rejects_negative_L(tmp_path):
    gfile = tmp_path / "g.json"
    pfile = tmp_path / "p.json"
    assert run_cli("gen", "--kind", "hypercube", "--dim", "3",
                   "--out", str(gfile)).returncode == 0
    assert run_cli("paths", "--graph", str(gfile), "--strategy", "hypercube",
                   "--out", str(pfile)).returncode == 0
    for args in (("adversary", "--family", "staircase", "--kind", "ring",
                  "--n", "5", "--L", "-1"),
                 ("instance", "--graph", str(gfile), "--paths", str(pfile),
                  "--L", "-2")):
        r = run_cli(*args)
        assert r.returncode == 1 and r.stdout == ""
        assert "L: must be >= 0" in r.stderr and "Traceback" not in r.stderr
    r = run_cli("adversary", "--family", "staircase", "--kind", "ring",
                "--n", "5", "--L", "0")
    assert r.returncode == 0
    assert json.loads(r.stdout)["family"] == "staircase_n5_L0"
    r = run_cli("instance", "--graph", str(gfile), "--paths", str(pfile),
                "--L", "0")
    assert r.returncode == 0 and json.loads(r.stdout)["milestones"] == [1]


def test_cli_validation_failures_exit_nonzero(tmp_path):
    r = run_cli("gen", "--kind", "grid")
    assert r.returncode != 0
    assert "side" in r.stderr
    r = run_cli("metrics", "--kind", "barbell", "--n", "7")
    assert r.returncode != 0


def test_cli_env_cap_override(tmp_path):
    import os

    gfile = tmp_path / "g.json"
    run_cli("gen", "--kind", "ring", "--n", "6", "--out", str(gfile))
    r = run_cli("metrics", "--graph", str(gfile), "--expansion")
    assert r.returncode == 0  # inside the default cap
    env = dict(os.environ,
               LSQLAB_MAX_EXHAUSTIVE=" edge_expansion_exact = 5 ")
    r2 = subprocess.run(
        [sys.executable, "-m", "lsqlab.cli", "metrics", "--graph", str(gfile),
         "--expansion"],
        capture_output=True, text=True, env=env,
    )
    assert r2.returncode == 1 and "Traceback" not in r2.stderr
    assert ("edge_expansion_exact: size 6 exceeds exhaustive cap 5 (raise it "
            "with LSQLAB_MAX_EXHAUSTIVE=edge_expansion_exact=N)") in r2.stderr


def test_cap_defaults():
    assert L.errors.CAPS == {
        "edge_expansion_exact": 24,
        "separation_number_exact": 14,
        "min_congestion_oracle": 6,
        "variant_bound_exhaustive": 64,
        "family_staircase": 10_000,
        "graph_metrics": 1 << 24,
    }


def test_one_cap_entry_leaves_the_others_at_their_defaults(monkeypatch, capsys):
    # Each cap is in its routine's own unit: lowering the expansion cap to
    # 5 vertices must not lower the other four below what these need.
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "edge_expansion_exact=5")
    ring6 = ["--kind", "ring", "--n", "6"]
    assert cli_main(["metrics", *ring6, "--expansion"]) == 1
    assert "edge_expansion_exact: size 6 exceeds exhaustive cap 5" \
        in capsys.readouterr().err
    assert cli_main(["metrics", *ring6, "--separation"]) == 0
    assert cli_main(["paths", *ring6, "--strategy", "brute"]) == 0
    assert cli_main(["adversary", "--family", "matrix", "--k", "4"]) == 0
    capsys.readouterr()
    g = L.clique_graph(4)
    fam, _ = L.family_staircase(g, L.shortest_path_system(g), 2)
    assert fam.size == 32


@pytest.mark.parametrize("value", [
    "abc", "-1", "", "16", "edge_expansion_exact", "expansion=30",
    "edge_expansion_exact=-1", "edge_expansion_exact=2.5",
    "edge_expansion_exact=30,", "edge_expansion_exact=30,edge_expansion_exact=30",
])
def test_cli_rejects_malformed_cap_variable(value, monkeypatch):
    from lsqlab.errors import CAPS, check_cap

    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", value)
    with pytest.raises(ValueError, match="LSQLAB_MAX_EXHAUSTIVE"):
        check_cap("separation_number_exact", 1)
    r = run_cli("metrics", "--kind", "ring", "--n", "5", "--expansion")
    assert r.returncode == 1 and "Traceback" not in r.stderr
    assert f"LSQLAB_MAX_EXHAUSTIVE={value!r}: " in r.stderr
    assert "routines " + ", ".join(CAPS) in r.stderr


def test_verify_budget_zero_skips_checks_without_cases():
    from lsqlab.verify import run_verify

    skipped = {(r.scope, r.name) for r in run_verify("all", budget=0)
               if r.skipped}
    assert skipped == {("staircase", "qz_bound"),
                       ("staircase", "sampler_marginals"),
                       ("solvers", "determinism")}
    r = run_cli("verify", "--scope", "staircase", "--budget", "0")
    assert r.returncode == 0
    assert "[SKIP] staircase/sampler_marginals" in r.stderr
    assert "[PASS] staircase/sampler_marginals" not in r.stderr
    report = json.loads(r.stdout)
    marked = {c["name"] for c in report["checks"] if c.get("skipped")}
    assert marked == {"qz_bound", "sampler_marginals"}
    assert all("skipped" not in c for c in report["checks"]
               if c["name"] not in marked)
    assert (report["passed"], report["failed"]) == (len(report["checks"]) - 2, 0)
    r = run_cli("verify", "--scope", "solvers", "--budget", "1")
    assert "skipped" not in r.stdout and "[SKIP]" not in r.stderr


def test_cli_rejects_path_system_with_non_edge(tmp_path):
    gfile = tmp_path / "c4.json"
    pfile = tmp_path / "p.json"
    ifile = tmp_path / "i.json"
    assert run_cli("gen", "--kind", "ring", "--n", "4",
                   "--out", str(gfile)).returncode == 0
    assert run_cli("paths", "--graph", str(gfile), "--out",
                   str(pfile)).returncode == 0
    data = json.loads(pfile.read_text())
    for row in data["paths"]:
        if (row["u"], row["v"]) == (1, 3):
            row["p"] = [1, 3]  # 1-3 is not an edge of the 4-cycle
    pfile.write_text(json.dumps(data))
    ifile.write_text(json.dumps({"graph": str(gfile), "paths": str(pfile),
                                 "milestones": [1, 3], "bit": 1}))
    for args in (("congestion", "--graph", str(gfile), "--paths", str(pfile)),
                 ("instance", "--graph", str(gfile), "--paths", str(pfile),
                  "--L", "1"),
                 ("solve", "--instance", str(ifile))):
        r = run_cli(*args)
        assert r.returncode != 0
        assert "non-edge (1,3)" in r.stderr and "Traceback" not in r.stderr


def test_run_bench_runs_at_most_one_bfs(monkeypatch):
    calls = []
    bfs = L.graphs.bfs_distances
    monkeypatch.setattr(L.graphs, "bfs_distances",
                        lambda g, src: calls.append(src) or bfs(g, src))
    solvers = (SolverSpec("descent"), SolverSpec("warm-start"))
    for cfg in (BenchConfig("grid", L.grid_graph(5), "bfs", 0, solvers,
                            trials=4, master_seed=3, c=1),
                BenchConfig("hypercube", L.hypercube_graph(4), "hypercube", 3,
                            solvers, trials=4, master_seed=3)):
        calls.clear()
        assert all(r["correct"] for r in run_bench(cfg).rows)
        assert len(calls) <= 1


@pytest.mark.parametrize("text, field", [
    ('{"n": 3, "edges": [1, 2]}', "edges[0]"),
    ('[[1, 2], [2, 3]]', "JSON object"),
    ('{"n": 3}', "has no 'edges' field"),
    ('{"n": 3.9, "edges": [[1, 2.7], [2, 3]]}', "n must be an integer, got 3.9"),
    ('{"n": 3, "edges": [[1, 2.7], [2, 3]]}',
     "edges[0] must be an integer, got 2.7"),
    ('{"n": "3", "edges": [[true, 2], [2, "3"]]}',
     "n must be an integer, got '3'"),
    ('{"n": 3, "edges": [[true, 2], [2, 3]]}',
     "edges[0] must be an integer, got True"),
    ('{"n": 3, "edges": [[1, 2], [2, "3"]]}',
     "edges[1] must be an integer, got '3'"),
])
def test_cli_rejects_malformed_graph_json(tmp_path, text, field):
    gfile = tmp_path / "g.json"
    gfile.write_text(text)
    r = run_cli("metrics", "--graph", str(gfile))
    assert r.returncode != 0
    assert field in r.stderr and "Traceback" not in r.stderr


def test_cli_rejects_a_huge_sparse_graph_before_allocating(tmp_path):
    # one edge cannot connect 10^9 vertices; the address-space limit turns
    # an adjacency allocated first into a MemoryError, not a swapping host
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    gfile = tmp_path / "g.json"
    gfile.write_text('{"n": 1000000000, "edges": [[1, 2]]}')
    r = subprocess.run(
        [sys.executable, "-m", "lsqlab.cli", "metrics", "--graph", str(gfile)],
        capture_output=True, text=True, preexec_fn=limit)
    assert r.returncode == 1
    assert "graph is not connected" in r.stderr
    assert "Traceback" not in r.stderr
    assert L.Graph(1, frozenset()).n == 1  # one vertex, no edges, connected


@pytest.mark.parametrize("argv, flags, edges", [
    (("gen", "--kind", "hypercube", "--dim", "40"), "--dim 40", 40 << 39),
    (("gen", "--kind", "ring", "--n", "1000000000"), "--n 1000000000", 10**9),
    (("metrics", "--kind", "clique", "--n", "100000"), "--n 100000",
     100000 * 99999 // 2),
])
def test_cli_refuses_huge_family_sizes_before_allocating(argv, flags, edges):
    # under the address-space limit, building the graph first would end in
    # a MemoryError traceback
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    r = subprocess.run([sys.executable, "-m", "lsqlab.cli", *argv],
                       capture_output=True, text=True, preexec_fn=limit)
    assert r.returncode == 1
    assert r.stderr == (f"lsqlab {argv[0]}: --kind {argv[2]} {flags} gives "
                        f"{edges} edges, more than the limit of 4194304\n")


@pytest.mark.parametrize("argv, size", [
    (("--family", "matrix", "--k", "2000"), "4000"),
    (("--family", "staircase", "--kind", "ring", "--n", "8",
      "--L", "100000000", "--strategy", "bfs"), "2*8^100000000"),
])
def test_cli_refuses_oversize_adversary_families_before_building(argv, size):
    # the matrix family would hold a 4-million-cell domain, and 2 * 8^L
    # has too many digits to print: both are refused by the variant
    # bound's cap before either is built
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (600 << 20, 600 << 20))

    r = subprocess.run([sys.executable, "-m", "lsqlab.cli", "adversary", *argv],
                       capture_output=True, text=True, preexec_fn=limit)
    assert (r.returncode, r.stdout) == (1, "")
    assert r.stderr == (
        f"lsqlab adversary: variant_bound_exhaustive: size {size} exceeds "
        "exhaustive cap 64 (raise it with "
        "LSQLAB_MAX_EXHAUSTIVE=variant_bound_exhaustive=N)\n")


def test_metrics_caps_the_per_source_diameter_pass(monkeypatch, capsys):
    # a graph with no group takes a BFS from every vertex, capped in
    # vertices times edges; the refusal comes right after the build
    assert cli_main(["metrics", "--kind", "grid", "--side", "300"]) == 1
    assert capsys.readouterr().err == (
        "lsqlab metrics: graph_metrics: size 16146000000 exceeds exhaustive "
        "cap 16777216 (raise it with LSQLAB_MAX_EXHAUSTIVE=graph_metrics=N)\n")
    # a Cayley graph reads its diameter from one BFS and is never refused
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "graph_metrics=0")
    for argv in (["--kind", "ring", "--n", "9"],
                 ["--kind", "hypercube", "--dim", "4"]):
        assert cli_main(["metrics", *argv]) == 0
    assert cli_main(["metrics", "--kind", "barbell", "--n", "6"]) == 1
    assert "graph_metrics: size 42 exceeds exhaustive cap 0" \
        in capsys.readouterr().err


@pytest.mark.parametrize("command, text, field", [
    (("solve", "--instance"), '[1]', "instance must be a JSON object"),
    (("solve", "--instance"),
     '{"graph": 5, "paths": "p.json", "milestones": [1, 2], "bit": 0}',
     "graph must be a string"),
    (("solve", "--instance"),
     '{"graph": "g.json", "paths": "p.json", "milestones": 3, "bit": 0}',
     "milestones must be a list"),
    (("gen", "--kind", "cayley", "--group"), '[1]', "group must be a JSON object"),
    (("gen", "--kind", "cayley", "--group"), '{"table": 5, "generators": [2]}',
     "table must be a list"),
    (("gen", "--kind", "cayley", "--group"),
     '{"table": [[1, 2], [2, 1]], "generators": 2}', "generators must be a list"),
    (("gen", "--kind", "cayley", "--group"),
     '{"table": [[1, 2], [2, 1]], "generators": [9]}', "generator 9 outside 1..2"),
    (("solve", "--instance"),
     '{"graph": "g.json", "paths": "p.json", "milestones": [1, 2.5], "bit": 0}',
     "milestones must be an integer, got 2.5"),
    (("solve", "--instance"),
     '{"graph": "g.json", "paths": "p.json", "milestones": [1, 2], "bit": 0.9}',
     "bit must be an integer, got 0.9"),
    (("solve", "--instance"),
     '{"graph": "g.json", "paths": "p.json", "milestones": [1, 2], '
     '"bit": false}', "bit must be an integer, got False"),
    (("gen", "--kind", "cayley", "--group"),
     '{"table": [[1, 2], [2, 1.0]], "generators": [2]}',
     "table[1] must be an integer, got 1.0"),
    (("gen", "--kind", "cayley", "--group"),
     '{"table": [[1, 2], [2, 1]], "generators": ["2"]}',
     "generators must be an integer, got '2'"),
    (("gen", "--kind", "cayley", "--group"), '{"table": [[1, 2], [2, 1]]}',
     "group has no 'generators' field"),
])
def test_cli_rejects_malformed_instance_and_group_json(tmp_path, command, text,
                                                       field):
    f = tmp_path / "f.json"
    f.write_text(text)
    r = run_cli(*command, str(f))
    assert r.returncode != 0
    assert field in r.stderr and "Traceback" not in r.stderr


def test_cli_rejects_path_key_outside_range(tmp_path):
    gfile = tmp_path / "g.json"
    pfile = tmp_path / "p.json"
    gfile.write_text(json.dumps({"n": 2, "edges": [[1, 2]]}))
    pfile.write_text(json.dumps({"n": 2, "paths": [
        {"u": 1, "v": 1, "p": [1]}, {"u": 1, "v": 2, "p": [1, 2]},
        {"u": 2, "v": 1, "p": [2, 1]}, {"u": 3, "v": 3, "p": [3]}]}))
    for command in ("congestion", "paths"):
        r = run_cli(command, "--graph", str(gfile), "--paths", str(pfile))
        assert r.returncode != 0
        assert "path key (3,3) outside 1..2" in r.stderr


def test_cli_solves_instance_from_a_sibling_directory(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(L.__file__)))

    def cli(cwd, *args):
        return subprocess.run([sys.executable, "-m", "lsqlab.cli", *args],
                              capture_output=True, text=True, cwd=cwd, env=env)

    for d in ("a", "b", "c"):
        (tmp_path / d).mkdir()
    assert cli(tmp_path, "gen", "--kind", "hypercube", "--dim", "3",
               "--out", "a/g.json").returncode == 0
    assert cli(tmp_path, "paths", "--graph", "a/g.json", "--strategy",
               "hypercube", "--out", "a/p.json").returncode == 0
    assert cli(tmp_path, "instance", "--graph", "a/g.json", "--paths",
               "a/p.json", "--L", "2", "--out", "c/i.json").returncode == 0
    r = cli(tmp_path / "b", "solve", "--instance", "../c/i.json")
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["correct"] is True


BOTH_SOLVERS = (SolverSpec("descent"), SolverSpec("warm-start"))


@pytest.mark.parametrize("cfg, digest", [
    (BenchConfig("hypercube", L.hypercube_graph(8), "hypercube", 15,
                 BOTH_SOLVERS, trials=200, master_seed=1),
     "b1d0274759108054fb01af159ef134632fe3e660865e2344966b85534120750b"),
    (BenchConfig("regular", L.random_regular_graph(128, 3, 5), "bfs", 6,
                 BOTH_SOLVERS, trials=200, master_seed=1),
     "b52306700e2626cb63880d296c7dd9f8905e730341afc50ddb698a6d40acd146"),
    (BenchConfig("grid", L.grid_graph(12), "bfs", 0, BOTH_SOLVERS,
                 trials=200, master_seed=1, c=3),
     "c9a7d25e8f29eb9b3ee0d0ac37d190c1cd17d8ad06f7a5a4d3a587e1fb5293d5"),
    (BenchConfig("hypercube", L.hypercube_graph(6), "hypercube", 9,
                 (SolverSpec("warm-start", t=7),), trials=200, master_seed=3),
     "6c3ee8cc043b20b6720437c6815a4762873f3583c4f236d46e7502c9146fac1b"),
], ids=["hypercube-d8", "regular-3", "grid-12", "warm-start-t7"])
def test_bench_csv_digests_pinned(cfg, digest):
    # query counts are the paper's metric: a speed-up must keep these bytes
    csv = report_to_csv(run_bench(cfg))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


@pytest.mark.parametrize("cfg", [
    BenchConfig("hypercube", L.hypercube_graph(6), "hypercube", 7,
                BOTH_SOLVERS, trials=40, master_seed=2),
    BenchConfig("grid", L.grid_graph(9), "bfs", 0, BOTH_SOLVERS,
                trials=40, master_seed=2, c=2),
], ids=["milestones", "arrangement"])
def test_bench_oracle_targets_are_callables(cfg, monkeypatch):
    # a tracer wraps each oracle's target in a plain function: the target
    # handed to bench.QueryOracle must be a callable answering values
    expected = report_to_csv(run_bench(cfg))
    query_oracle = bench.QueryOracle
    monkeypatch.setattr(bench, "QueryOracle",
                        lambda target: query_oracle(lambda v: target(v)))
    assert report_to_csv(run_bench(cfg)) == expected


def test_bench_rejects_bad_warm_start_t_before_any_work(monkeypatch, capsys):
    for t in (0, -3, 2.5, "many", None):
        with pytest.raises(ValueError, match="warm start needs t >= 1"):
            SolverSpec("warm-start", t=t)
    monkeypatch.setattr(bench, "build_path_system",
                        lambda *a, **k: pytest.fail("path system built"))
    for t in ("0", "-2"):
        assert cli_main(["bench", "--kind", "hypercube", "--dim", "3",
                         "--strategy", "hypercube", "--L", "2",
                         "--solver", "warm-start", "--t", t]) == 1
        assert "warm start needs t >= 1" in capsys.readouterr().err


def test_bench_rejects_unknown_solver_before_any_work(monkeypatch):
    monkeypatch.setattr(bench, "build_path_system",
                        lambda *a, **k: pytest.fail("path system built"))
    with pytest.raises(ValueError, match="unknown solver 'bogus'"):
        run_bench(BenchConfig("ring", L.ring_graph(5), "bfs", 1,
                              (SolverSpec("bogus"),), trials=1, master_seed=0))


def test_python_dash_m_lsqlab(tmp_path):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(L.__file__)))
    args = ("bench", "--kind", "hypercube", "--dim", "3", "--strategy",
            "hypercube", "--L", "2", "--solver", "descent", "--trials", "3")

    def lsqlab(*extra):
        return subprocess.run([sys.executable, "-m", "lsqlab", *args, *extra],
                              capture_output=True, text=True, cwd=tmp_path,
                              env=env)

    r = lsqlab()
    assert r.returncode == 0, r.stderr
    assert r.stdout == run_cli(*args).stdout
    assert len(r.stdout.splitlines()) == 4
    bad = lsqlab("--solver", "warm-start", "--t", "0")
    assert bad.returncode == 1 and "Traceback" not in bad.stderr


@pytest.mark.parametrize("command", [
    ("solve", "--instance", "missing.json", "--solver", "warm-start"),
    ("bench", "--kind", "hypercube", "--dim", "3", "--strategy", "hypercube",
     "--L", "2", "--solver", "warm-start"),
])
@pytest.mark.parametrize("t", ["abc", "2.5"])
def test_cli_rejects_non_integer_t(command, t, capsys):
    with pytest.raises(SystemExit) as exc:
        cli_main([*command, "--t", t])
    assert exc.value.code != 0
    err = capsys.readouterr().err
    assert f"argument --t: must be 'auto' or an integer, got {t!r}" in err
    assert "Traceback" not in err


def test_cli_kind_choices_are_the_family_registry(capsys):
    for kind in L.graphs.FAMILIES:
        assert cli_main(["gen", "--kind", kind]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"lsqlab gen: --kind {kind} needs --")
    with pytest.raises(SystemExit):
        cli_main(["gen", "--kind", "petersen"])
    assert "invalid choice: 'petersen'" in capsys.readouterr().err


def test_cli_family_flags_are_the_family_parameters(monkeypatch, capsys):
    parser = argparse.ArgumentParser()
    cli._add_graph_args(parser)
    flags = set(vars(parser.parse_args([]))) - {"graph", "kind", "group"}
    params = {name for required, _, _ in L.graphs.FAMILIES.values()
              for name in required} - {"group"}
    assert flags == params == {"dim", "side", "n", "d"}
    # a family added to the registry gets its flag with no CLI edit
    monkeypatch.setitem(L.graphs.FAMILIES, "ring2", (
        ("p",), lambda p: p["p"], lambda p: L.ring_graph(p["p"])))
    assert cli_main(["gen", "--kind", "ring2", "--p", "5"]) == 0
    ring2 = capsys.readouterr().out
    assert cli_main(["gen", "--kind", "ring", "--n", "5"]) == 0
    assert ring2 == capsys.readouterr().out


def test_cli_strategy_choices_are_the_strategy_registry(capsys):
    assert list(bench.STRATEGIES) == ["bfs", "hypercube", "cayley", "brute"]
    for strategy in bench.STRATEGIES:  # each parses, then needs a graph
        assert cli_main(["paths", "--strategy", strategy]) == 1
        assert "provide --graph FILE or --kind KIND" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        cli_main(["paths", "--kind", "ring", "--n", "4", "--strategy", "dfs"])
    assert "invalid choice: 'dfs'" in capsys.readouterr().err
    g = L.clique_graph(4)
    with pytest.raises(ValueError, match="unknown path-system strategy 'dfs'"):
        bench.build_path_system(g, "dfs")
    with pytest.raises(ValueError, match="graph carries no group"):
        bench.build_path_system(g, "cayley")


# sha256 of `solve` stdout and of its --transcript file (rows [vertex,
# value, flag]) for each solver on a dimension-5 hypercube instance
# (L = 5, instance seed 3).
SOLVE_SHA256 = {
    ("descent",): (
        "0da0e7a6b1d549d9fa9bfdcb4248f905d03d0a67698593d7af1cd724aa74a0c5",
        "70490d9f63080117d4a8099de36468e242a7884cd5aeb844553225dad70c32dc"),
    ("warm-start", "--seed", "9"): (
        "629c3ecd5e869f24bd3c19b6210fef1251a69de01505c5fd7ff4b5576f0fb761",
        "491ca74b5fae9cf8851c91a80dbd38067ce72e445bdd950542436b6bd1a2cbff"),
}


def test_solve_bytes_pinned(tmp_path, capsys):
    g, p, i = (str(tmp_path / f) for f in ("g.json", "p.json", "i.json"))
    for argv in (["gen", "--kind", "hypercube", "--dim", "5", "--out", g],
                 ["paths", "--graph", g, "--strategy", "hypercube", "--out", p],
                 ["instance", "--graph", g, "--paths", p, "--L", "5",
                  "--seed", "3", "--out", i]):
        assert cli_main(argv) == 0
    capsys.readouterr()
    for solver, (out_sha, transcript_sha) in SOLVE_SHA256.items():
        transcript = tmp_path / "t.json"
        assert cli_main(["solve", "--instance", i, "--solver", *solver,
                         "--transcript", str(transcript)]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == out_sha
        assert hashlib.sha256(transcript.read_bytes()).hexdigest() \
            == transcript_sha


def test_solve_runs_through_the_solver_spec(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in (["gen", "--kind", "hypercube", "--dim", "4", "--out", "g.json"],
                 ["paths", "--graph", "g.json", "--strategy", "hypercube",
                  "--out", "p.json"],
                 ["instance", "--graph", "g.json", "--paths", "p.json",
                  "--L", "3", "--seed", "2", "--out", "i.json"]):
        assert cli_main(argv) == 0
    g, inst = cli._load_instance("i.json")
    oracle = L.QueryOracle(inst.value)
    expected = L.steepest_descent(g, oracle, 3)
    run, calls = SolverSpec.run, []
    monkeypatch.setattr(SolverSpec, "run",
                        lambda self, *a: calls.append(self) or run(self, *a))
    capsys.readouterr()
    assert cli_main(["solve", "--instance", "i.json", "--solver", "descent",
                     "--start", "3"]) == 0
    assert calls == [SolverSpec("descent", start=3)]
    assert json.loads(capsys.readouterr().out) == {
        "answer": expected.answer, "queries": expected.queries,
        "raw_calls": oracle.raw_calls, "correct": True}


# sha256 of `instance --materialize` on a dimension-4 hypercube (L = 3,
# seed 0), on stdout and as an --out file one directory down, which names
# the graph and path files relative to itself.
INSTANCE_SHA256 = (
    "594934ce7301f9a02eac7505dee32794b35b4e8fc372870e2e9619276c5838dd",
    "0c9f4fdc4ea2bd205ff5797f47f368a07da8f91efd544568f85656e1b5735499")


def test_instance_materialize_bytes_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["gen", "--kind", "hypercube", "--dim", "4",
                     "--out", "g.json"]) == 0
    assert cli_main(["paths", "--graph", "g.json", "--strategy", "hypercube",
                     "--out", "p.json"]) == 0
    argv = ["instance", "--graph", "g.json", "--paths", "p.json", "--L", "3",
            "--materialize"]
    capsys.readouterr()
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    (tmp_path / "sub").mkdir()
    assert cli_main([*argv, "--out", "sub/i.json"]) == 0
    written = (tmp_path / "sub" / "i.json").read_bytes()
    assert (hashlib.sha256(out.encode()).hexdigest(),
            hashlib.sha256(written).hexdigest()) == INSTANCE_SHA256


# sha256 of the `adversary --out` report of each family.
ADVERSARY_SHA256 = {
    ("--family", "matrix", "--k", "8"):
        "4fb178a6c71f130a6fcb48044c80ab1514a779789a5bec5fab98672bfbe6fd40",
    ("--family", "staircase", "--kind", "ring", "--n", "8", "--L", "1",
     "--strategy", "bfs"):
        "63fe9a38ac4b001cce3dd64ca7ef4040b71d5a95cf6c01368533e6f4cfb0bf92",
    ("--family", "staircase", "--kind", "ring", "--n", "8", "--L", "1",
     "--strategy", "cayley"):
        "63fe9a38ac4b001cce3dd64ca7ef4040b71d5a95cf6c01368533e6f4cfb0bf92",
    ("--family", "staircase", "--kind", "clique", "--n", "5", "--L", "2"):
        "d821d95d92e8d155024dc5b7fde584bbf6d9a9b0175cc58a3c3083c5f07c500d",
    ("--family", "staircase", "--kind", "hypercube", "--dim", "3", "--L", "1",
     "--strategy", "hypercube"):
        "63fe9a38ac4b001cce3dd64ca7ef4040b71d5a95cf6c01368533e6f4cfb0bf92",
}


@pytest.mark.parametrize("args, digest", list(ADVERSARY_SHA256.items()),
                         ids=["matrix-k8", "ring8-bfs", "ring8-cayley",
                              "clique5-L2", "q3-hypercube"])
def test_adversary_report_bytes_pinned(tmp_path, args, digest):
    out = tmp_path / "a.json"
    assert cli_main(["adversary", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `congestion` stdout, one case per path-system representation;
# TWO_CYCLE and PATHS_FILE stand for files the test writes.
TWO_CYCLE, PATHS_FILE = "two_cycle.json", "p.json"
CONGESTION_SHA256 = {
    ("--kind", "ring", "--n", "9", "--strategy", "bfs"):
        "6cd6094784805a68eb07d97260035d2d71e2f3f2290c05ae3f26fcbf888750e6",
    ("--graph", TWO_CYCLE, "--strategy", "bfs"):
        "725c26be48473ef1698bd3d1ee5b726ffc4bd343d2bce82a7496737c73053a53",
    ("--kind", "ring", "--n", "8", "--strategy", "cayley"):
        "ca76349f14d9867b3ff44b7b07e8c2e201573a2000bba40e0ac8b77557b24b6c",
    ("--kind", "hypercube", "--dim", "3", "--strategy", "hypercube"):
        "3dc2cf014329ee39146d3ffc56df989fb666f6eaeab74f2207c243a79a04cd1e",
    ("--kind", "hypercube", "--dim", "3", "--strategy", "cayley"):
        "3dc2cf014329ee39146d3ffc56df989fb666f6eaeab74f2207c243a79a04cd1e",
    ("--kind", "ring", "--n", "5", "--strategy", "brute"):
        "49f1a2e2d40fb88353a4901903c6a0b283a61e9bfdd3b220b98c66cd2913f796",
    # the bfs system of TWO_CYCLE, read back from a paths file
    ("--graph", TWO_CYCLE, "--paths", PATHS_FILE):
        "725c26be48473ef1698bd3d1ee5b726ffc4bd343d2bce82a7496737c73053a53",
}


@pytest.mark.parametrize("args, digest", list(CONGESTION_SHA256.items()),
                         ids=["ring9-bfs", "two-cycle-bfs", "ring8-cayley",
                              "q3-hypercube", "q3-cayley", "ring5-brute",
                              "paths-file"])
def test_congestion_stdout_pinned(tmp_path, monkeypatch, capsys, args, digest):
    monkeypatch.chdir(tmp_path)
    Path(TWO_CYCLE).write_text(json.dumps({"n": 6, "edges": [
        [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [1, 4], [2, 5]]}))
    assert cli_main(["paths", "--graph", TWO_CYCLE, "--strategy", "bfs",
                     "--out", PATHS_FILE]) == 0
    capsys.readouterr()
    assert cli_main(["congestion", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cli_solve_rejects_instance_bit_outside_0_1(tmp_path):
    g, p = tmp_path / "g.json", tmp_path / "p.json"
    assert cli_main(["gen", "--kind", "hypercube", "--dim", "2",
                     "--out", str(g)]) == 0
    assert cli_main(["paths", "--graph", str(g), "--strategy", "hypercube",
                     "--out", str(p)]) == 0
    i = tmp_path / "i.json"
    i.write_text(json.dumps({"graph": "g.json", "paths": "p.json",
                             "milestones": [1, 4], "bit": 2}))
    r = run_cli("solve", "--instance", str(i))
    assert r.returncode == 1
    assert "bit must be 0 or 1" in r.stderr and "Traceback" not in r.stderr


def _cyclic_group_file(tmp_path, n):
    f = tmp_path / f"z{n}.json"
    f.write_text(json.dumps({"table": L.cyclic_group(n), "generators": [2, n]}))
    return str(f)


def test_ring_builds_no_cyclic_table(monkeypatch, capsys, tmp_path):
    ring = ["--kind", "ring", "--n", "8"]
    table = ["--kind", "cayley", "--group", _cyclic_group_file(tmp_path, 8)]
    trials = ["--L", "3", "--solver", "descent", "--solver", "warm-start",
              "--trials", "6"]
    cayley = ["--strategy", "cayley"]
    assert cli_main(["bench", *table, *cayley, *trials]) == 0
    table_bench = capsys.readouterr().out
    assert cli_main(["paths", *table, *cayley]) == 0
    table_paths = capsys.readouterr().out

    def refuse(k):
        raise AssertionError("cyclic table built")

    monkeypatch.setattr(L.graphs, "cyclic_group", refuse)
    for argv in (["gen", *ring], ["metrics", *ring],
                 ["bench", *ring, "--strategy", "bfs", *trials],
                 ["adversary", "--family", "staircase", *ring],
                 ["adversary", "--family", "staircase", *ring, *cayley]):
        assert cli_main(argv) == 0
    capsys.readouterr()
    # the implicit cyclic group gives the table's paths, counts and trials
    assert cli_main(["bench", *ring, *cayley, *trials]) == 0
    assert (capsys.readouterr().out
            == table_bench.replace("\ncayley,", "\nring,"))
    assert cli_main(["paths", *ring, *cayley]) == 0
    assert capsys.readouterr().out == table_paths


def test_cayley_bench_validates_its_group_table_once(monkeypatch, tmp_path):
    init, built = L.graphs.TableGroup.__init__, []

    def counted(self, table):
        built.append(table)
        init(self, table)

    monkeypatch.setattr(L.graphs.TableGroup, "__init__", counted)
    assert cli_main(["bench", "--kind", "cayley", "--group",
                     _cyclic_group_file(tmp_path, 6), "--strategy", "cayley",
                     "--L", "2", "--solver", "descent", "--trials", "2",
                     "--out", str(tmp_path / "b.csv")]) == 0
    assert built == [L.cyclic_group(6)]


def test_cli_group_file_is_read_only_by_kind_cayley(monkeypatch, capsys,
                                                    tmp_path):
    group = _cyclic_group_file(tmp_path, 8)
    graph = str(tmp_path / "g.json")
    assert cli_main(["gen", "--kind", "cayley", "--group", group,
                     "--out", graph]) == 0
    init, built = L.graphs.Graph.__post_init__, []
    monkeypatch.setattr(L.graphs.Graph, "__post_init__",
                        lambda self: built.append(self.n) or init(self))
    assert cli_main(["paths", "--kind", "cayley", "--group", group,
                     "--strategy", "cayley"]) == 0
    assert built == [8]  # the Cayley graph already carries the file's group
    capsys.readouterr()
    # the same graph from a file carries no group, and --group is refused
    # beside it rather than attached to it
    assert cli_main(["paths", "--graph", graph, "--group", group,
                     "--strategy", "cayley"]) == 1
    assert capsys.readouterr().err == ("lsqlab paths: --graph FILE does not "
                                       "read --group\n")
    # the hypercube is XOR's Cayley graph and carries that group
    assert cli_main(["paths", "--kind", "hypercube", "--dim", "3",
                     "--strategy", "cayley"]) == 0
    assert capsys.readouterr().err == ""


def test_cli_metrics_refuses_a_group_beside_a_graph(capsys, tmp_path):
    # a star carrying Z4 would let a diameter that trusts the group read
    # the center's eccentricity 1; the group is refused instead
    star = tmp_path / "star.json"
    star.write_text(json.dumps(L.serialize.graph_to_dict(L.from_edges(
        4, [(1, 2), (1, 3), (1, 4)]))))
    assert cli_main(["metrics", "--graph", str(star), "--group",
                     _cyclic_group_file(tmp_path, 4)]) == 1
    assert capsys.readouterr().err == ("lsqlab metrics: --graph FILE does "
                                       "not read --group\n")
    assert cli_main(["metrics", "--graph", str(star)]) == 0
    assert json.loads(capsys.readouterr().out)["diameter"] == 2


@pytest.mark.parametrize("argv, error", [
    (("gen", "--kind", "hypercube", "--dim", "2", "--n", "7", "--side", "9"),
     "gen: --kind hypercube does not read --side, --n"),
    (("gen", "--graph", "r.json", "--n", "40", "--dim", "3"),
     "gen: --graph FILE does not read --dim, --n"),
    (("gen", "--graph", "r.json", "--kind", "ring"),
     "gen: --graph FILE does not read --kind"),
    (("paths", "--graph", "r.json", "--group", "z8.json",
      "--strategy", "cayley"), "paths: --graph FILE does not read --group"),
    (("metrics", "--kind", "ring", "--n", "8", "--group", "z8.json"),
     "metrics: --kind ring does not read --group"),
    (("bench", "--kind", "cayley", "--group", "z8.json", "--n", "8",
      "--L", "2", "--solver", "descent"),
     "bench: --kind cayley does not read --n"),
    (("adversary", "--family", "matrix", "--kind", "ring", "--n", "8"),
     "adversary: --family matrix does not read --kind, --n"),
    (("gen", "--kind", "cayley", "--group", "nogen.json"),
     "gen: group has no 'generators' field"),
])
def test_cli_refuses_graph_flags_it_does_not_read(argv, error, monkeypatch,
                                                  capsys, tmp_path):
    monkeypatch.chdir(tmp_path)
    assert cli_main(["gen", "--kind", "ring", "--n", "3",
                     "--out", "r.json"]) == 0
    _cyclic_group_file(tmp_path, 8)
    (tmp_path / "nogen.json").write_text('{"table": [[1, 2], [2, 1]]}')
    assert cli_main(list(argv)) == 1  # a traceback would raise here instead
    assert capsys.readouterr() == ("", f"lsqlab {error}\n")


def test_bench_config_carries_the_ring_group(capsys):
    trials = ("--L", "3", "--solver", "descent", "--solver", "warm-start",
              "--trials", "6", "--seed", "5")
    assert cli_main(["bench", "--kind", "ring", "--n", "8",
                     "--strategy", "cayley", *trials]) == 0
    cfg = BenchConfig("ring", L.ring_graph(8), "cayley", 3,
                      (SolverSpec("descent"), SolverSpec("warm-start")),
                      trials=6, master_seed=5)
    assert report_to_csv(run_bench(cfg)) == capsys.readouterr().out


def test_oracle_path_limit_fires_once_its_cap_is_raised(monkeypatch, capsys):
    monkeypatch.setenv("LSQLAB_MAX_EXHAUSTIVE", "min_congestion_oracle=8")
    assert cli_main(["paths", "--kind", "clique", "--n", "8",
                     "--strategy", "brute"]) == 1
    assert capsys.readouterr().err == ("lsqlab paths: more than 512 simple "
                                       "paths between 1 and 2\n")


def _count_calls(monkeypatch, module, attr, counts):
    fn = getattr(module, attr)

    def counted(*args, **kwargs):
        counts[attr] = counts.get(attr, 0) + 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_benchmark_call_sites(tmp_path, monkeypatch, capsys):
    # benchmarks/run.py marks each trial's start by wrapping the per-trial
    # sampler, and each exact routine's entry by wrapping it, through these
    # module attributes: the CLI must still call through them, once per
    # trial or once per command, or setup and trial time fold together.
    from lsqlab import adversary, graphs, separation

    counts = {}
    for module, attr in ((bench, "sample_hard_instance"),
                         (separation, "sample_separation_instance"),
                         (bench, "min_congestion_oracle"),
                         (adversary, "variant_bound_exhaustive"),
                         (graphs, "edge_expansion_exact"),
                         (graphs, "separation_number_exact")):
        _count_calls(monkeypatch, module, attr, counts)
    two_cycle = tmp_path / "two_cycle.json"
    two_cycle.write_text(json.dumps({"n": 6, "edges": [
        [1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [1, 6], [1, 4], [2, 5]]}))
    solvers = ["--solver", "descent", "--solver", "warm-start", "--trials", "5",
               "--seed", "1", "--workers", "1"]
    cases = [
        (["bench", "--kind", "hypercube", "--dim", "4", "--strategy",
          "hypercube", "--L", "3", *solvers], "sample_hard_instance", 5),
        (["bench", "--graph", str(two_cycle), "--strategy", "bfs", "--L", "2",
          *solvers], "sample_hard_instance", 5),
        (["bench", "--kind", "grid", "--side", "4", "--c", "1", *solvers],
         "sample_separation_instance", 5),
        (["adversary", "--family", "matrix", "--k", "3"],
         "variant_bound_exhaustive", 1),
        (["adversary", "--family", "staircase", "--kind", "ring", "--n", "5",
          "--strategy", "bfs", "--L", "1"], "variant_bound_exhaustive", 1),
        (["metrics", "--graph", str(two_cycle), "--expansion"],
         "edge_expansion_exact", 1),
        (["metrics", "--graph", str(two_cycle), "--separation"],
         "separation_number_exact", 1),
        (["paths", "--graph", str(two_cycle), "--strategy", "brute"],
         "min_congestion_oracle", 1),
    ]
    for argv, attr, expected in cases:
        counts.clear()
        assert cli_main(argv) == 0
        assert counts == {attr: expected}, argv
    capsys.readouterr()


class _HookRecorder:
    """A stand-in tracer that records each patch or replace target and
    checks that the attribute exists, without setting it."""

    def __init__(self):
        self.targets = []

    def replace(self, module, attr, new):
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        self.targets.append((module.__name__, attr))

    def patch(self, module, attr, name, after=None):
        self.replace(module, attr, None)


def test_benchmark_trace_hooks_exist(tmp_path, monkeypatch):
    # benchmarks/run.py --trace 1 wraps lsqlab's functions at these module
    # attributes, and every run marks routine entries through mark_points:
    # a renamed attribute must fail here, not as an AttributeError there.
    here = Path(__file__).resolve().parents[1] / "benchmarks"
    monkeypatch.syspath_prepend(str(here))
    spec = importlib.util.spec_from_file_location("benchmark_run",
                                                  here / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # for its dataclasses
    spec.loader.exec_module(run)
    for name, cls in run.WORKLOADS.items():
        wl = cls(L, run.DEFAULT_SEED, tmp_path, run.default_pins(name))
        marks = _HookRecorder()
        wl.install_marks(marks)
        assert len(marks.targets) == len(wl.mark_points())
        hooks = _HookRecorder()
        run.install_trace(wl, hooks)
        assert ("lsqlab.bench", "build_path_system") in hooks.targets
