"""Deterministic benchmark harness for solvers on sampled hard instances.

Each trial draws a staircase instance and runs every configured solver on
a fresh oracle over the instance's values alone (inst.value); a row is
correct when the answer is the instance's minimum, so no flag is read.
Trial seeds derive from the master seed by a fixed splitmix64 counter mix,
so runs are byte-identical across repeat invocations; rows are sorted by
(solver, trial) before writing.  Trials run one after another in the
calling thread; the worker count is accepted and validated but changes
neither the output nor how it is computed.

Seed derivation (64-bit, documented so other implementations can match):
  trial_seed(t)        = splitmix64(master_seed + (t + 1) * GOLDEN)
  solver_seed(t, s)    = splitmix64(trial_seed(t) + (s + 1) * GOLDEN)
with GOLDEN = 0x9E3779B97F4A7C15 and splitmix64 the standard finalizer.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, field

from . import graphs
# graph_metrics is unused here; benchmarks/run.py wraps bench.graph_metrics
from .graphs import Graph, graph_metrics  # noqa: F401
from .pathsystems import (
    PathSystem,
    cayley_path_system,
    congestion,
    hypercube_path_system,
    min_congestion_oracle,
    shortest_path_system,
)
from .solvers import QueryOracle, steepest_descent, warm_start_descent
from .staircase import sample_hard_instance

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1

CSV_COLUMNS = ("graph_kind", "n", "delta", "g", "L",
               "solver", "trial", "seed", "queries", "correct")


def splitmix64(x: int) -> int:
    """Standard splitmix64 finalizer on a 64-bit state."""
    z = (x + GOLDEN) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_seed(master_seed: int, trial: int) -> int:
    return splitmix64((master_seed + (trial + 1) * GOLDEN) & MASK64)


def solver_seed(tseed: int, solver_index: int) -> int:
    return splitmix64((tseed + (solver_index + 1) * GOLDEN) & MASK64)


SOLVERS = ("descent", "warm-start")


@dataclass(frozen=True)
class SolverSpec:
    """A named solver configuration: descent (from vertex start) or warm-start."""

    name: str
    t: object = "auto"  # warm-start sample budget
    start: int = 1  # descent's start vertex

    def __post_init__(self):
        if self.name not in SOLVERS:
            raise ValueError(f"unknown solver {self.name!r}")
        if self.name == "warm-start" and self.t != "auto" and not (
                isinstance(self.t, int) and self.t >= 1):
            raise ValueError("warm start needs t >= 1")

    def run(self, g: Graph, oracle: QueryOracle, seed: int):
        if self.name == "descent":
            return steepest_descent(g, oracle, self.start)
        return warm_start_descent(g, oracle, t=self.t, seed=seed)


@dataclass(frozen=True)
class BenchConfig:
    """Benchmark setup: either milestone staircases (L >= 1, over the chosen
    path-system strategy) or cluster staircases (c >= 1, over the grid path
    arrangement; the graph must have the edges graphs.grid_edges of its side)."""

    graph_kind: str
    graph: Graph
    strategy: str
    L: int
    solvers: tuple
    trials: int
    master_seed: int
    workers: int = 1
    c: int = 0

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials: must be >= 1")
        if (self.L >= 1) == (self.c >= 1):
            raise ValueError("exactly one of L and c must be >= 1")
        if self.L >= 1 and self.L + 1 > self.graph.n:
            raise ValueError(f"L: need 1 <= L <= n - 1, got {self.L}")
        if self.c >= 1:
            side = math.isqrt(self.graph.n)
            if (side < 2 or self.graph.n != side * side
                    or self.graph.edges != graphs.grid_edges(side)):
                raise ValueError("c: arrangement mode needs a square grid graph")
            if 2 * self.c + 1 > side:
                raise ValueError(f"c: need 2c + 1 <= side, got c={self.c}")
        if not self.solvers:
            raise ValueError("solvers: at least one solver required")
        if not (0 <= self.master_seed <= MASK64):
            raise ValueError("master_seed: must fit in 64 bits")
        if self.workers < 1:
            raise ValueError("workers: must be >= 1")


@dataclass(frozen=True)
class BenchReport:
    rows: tuple          # dicts keyed by CSV_COLUMNS
    aggregates: dict     # solver -> {mean, median, p90}
    meta: dict = field(default_factory=dict)


# strategy -> builder(g), reading this module's globals per call
STRATEGIES = {
    "bfs": lambda g: shortest_path_system(g),
    "hypercube": lambda g: hypercube_path_system(g),
    "cayley": lambda g: cayley_path_system(g),
    "brute": lambda g: min_congestion_oracle(g)[1],
}


def build_path_system(g: Graph, strategy: str) -> PathSystem:
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown path-system strategy {strategy!r}")
    return STRATEGIES[strategy](g)


def _run_trial(cfg: BenchConfig, sampler, delta: int, g_cong: int,
               trial: int) -> list:
    tseed = trial_seed(cfg.master_seed, trial)
    inst = sampler(tseed)
    rows = []
    for s_idx, spec in enumerate(cfg.solvers):
        oracle = QueryOracle(inst.value)
        result = spec.run(cfg.graph, oracle, solver_seed(tseed, s_idx))
        rows.append({
            "graph_kind": cfg.graph_kind,
            "n": cfg.graph.n,
            "delta": delta,
            "g": g_cong,
            "L": cfg.L if cfg.L >= 1 else cfg.c,
            "solver": spec.name,
            "trial": trial,
            "seed": tseed,
            "queries": result.queries,
            "correct": result.answer == inst.minimum,
        })
    return rows


def _percentile_90(sorted_vals: list) -> int:
    idx = (9 * len(sorted_vals) + 9) // 10 - 1  # ceil(0.9 * k) - 1
    return sorted_vals[idx]


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Run all trials and aggregate; deterministic under the master seed.

    In arrangement mode (c >= 1) instances are cluster staircases over the
    grid path arrangement and the g column is 0 (no path system is built).
    """
    delta = cfg.graph.max_degree
    if cfg.c >= 1:
        # imported per call, so a replaced module attribute is the one used
        from .separation import grid_path_arrangement, sample_separation_instance

        # BenchConfig checked that cfg.graph is this grid: do not build another
        pa = grid_path_arrangement(math.isqrt(cfg.graph.n), cfg.graph)
        g_cong = 0
        sampler = lambda seed: sample_separation_instance(pa, cfg.c, seed)
    else:
        ps = build_path_system(cfg.graph, cfg.strategy)
        g_cong = congestion(ps)
        sampler = lambda seed: sample_hard_instance(cfg.graph, ps, cfg.L, seed)
    rows = [row for t in range(cfg.trials)
            for row in _run_trial(cfg, sampler, delta, g_cong, t)]
    rows.sort(key=lambda r: (r["solver"], r["trial"]))

    aggregates = {}
    for spec in cfg.solvers:
        qs = sorted(r["queries"] for r in rows if r["solver"] == spec.name)
        k = len(qs)
        mid = (qs[(k - 1) // 2] + qs[k // 2]) / 2
        aggregates[spec.name] = {
            "mean": sum(qs) / k,
            "median": mid,
            "p90": _percentile_90(qs),
        }
    meta = {
        "graph_kind": cfg.graph_kind,
        "n": cfg.graph.n,
        "strategy": cfg.strategy if cfg.c < 1 else "arrangement",
        "L": cfg.L,
        "c": cfg.c,
        "trials": cfg.trials,
        "master_seed": cfg.master_seed,
    }
    return BenchReport(tuple(rows), aggregates, meta)


def report_to_csv(report: BenchReport) -> str:
    out = io.StringIO()
    out.write(",".join(CSV_COLUMNS) + "\n")
    for r in report.rows:
        vals = [str(r[c]).lower() if c == "correct" else str(r[c])
                for c in CSV_COLUMNS]
        out.write(",".join(vals) + "\n")
    return out.getvalue()


def report_to_json(report: BenchReport) -> str:
    data = {
        "meta": report.meta,
        "rows": [dict(r) for r in report.rows],
        "aggregates": report.aggregates,
    }
    return json.dumps(data, indent=1, sort_keys=True) + "\n"
