#!/usr/bin/env python3
"""Walkthrough: query-counted solvers on sampled hard instances.

Shows the memoizing oracle, the decision wrapper, and a small scaling
benchmark across hypercube dimensions (pass --big to add dimension 10).
"""

import math
import sys

import lsqlab as L
from lsqlab.bench import BenchConfig, SolverSpec, report_to_csv, run_bench
from lsqlab.solvers import QueryOracle

print("Single instance, hypercube dim 5")
print("-" * 70)
g = L.hypercube_graph(5)
ps = L.hypercube_path_system(g)
inst = L.sample_hard_instance(g, ps, 4, seed=42)
print("milestones:", inst.milestones, "hidden bit:", inst.bit)

oracle = QueryOracle(inst.value)
res = L.steepest_descent(g, oracle, 1)
print(f"steepest descent from the entrance: vertex {res.answer} "
      f"in {res.queries} distinct queries ({oracle.raw_calls} raw calls)")

oracle = QueryOracle(inst.value)
res = L.warm_start_descent(g, oracle, t="auto", seed=7)
print(f"warm-start descent: vertex {res.answer} in {res.queries} queries")

oracle = QueryOracle(inst.value)
dec = L.solve_decision(g, oracle,
                       lambda gg, oo: L.steepest_descent(gg, oo, 1), inst.flag)
print(f"decision wrapper recovers the bit: {dec.answer} "
      f"(true bit {inst.bit}) in {dec.queries} queries")
print()

print("Scaling benchmark (100 seeded trials per dimension)")
print("-" * 70)
dims = [4, 6, 8] + ([10] if "--big" in sys.argv else [])
print(f"{'dim':>4} {'n':>6} {'L':>4} {'descent mean':>14} "
      f"{'warm mean':>11} {'5*sqrt(n*d)':>12}")
for dim in dims:
    g = L.hypercube_graph(dim)
    bigl = int(math.isqrt(g.n)) - 1
    cfg = BenchConfig("hypercube", g, "hypercube", bigl,
                      (SolverSpec("descent"), SolverSpec("warm-start")),
                      trials=100, master_seed=2718)
    rep = run_bench(cfg)
    budget = 5 * math.sqrt(g.n * dim)
    print(f"{dim:>4} {g.n:>6} {bigl:>4} "
          f"{rep.aggregates['descent']['mean']:>14.1f} "
          f"{rep.aggregates['warm-start']['mean']:>11.1f} {budget:>12.1f}")
print()

print("CSV rows are byte-stable under the master seed; first lines:")
g = L.hypercube_graph(3)
cfg = BenchConfig("hypercube", g, "hypercube", 2,
                  (SolverSpec("warm-start", t=4),), trials=3, master_seed=1)
print("\n".join(report_to_csv(run_bench(cfg)).splitlines()[:4]))
