#!/usr/bin/env python3
"""Benchmark of lsqlab: end-to-end metrics per workload, or a traced run
with per-layer metrics.

    python3 benchmarks/run.py --workload hypercube-d10 --seed 1 --seconds 12 --trace 0

A run is one fresh interpreter that imports lsqlab from src/ of the
checkout and drives lsqlab.cli.main in-process, one command at a time,
with --workers 1 (a closed loop with one caller).  A unit is one bench
command, or one round of five exact-routine commands for exact-bounds.
Units repeat until --seconds have passed, and at least three run, so
set-up is measured at least three times.  Every unit's output is checked.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same units
with wrappers around the program's public functions, prints the per-layer
metrics and writes the spans to benchmarks/out/; it then runs one unit
untraced, to report the tracing overhead.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import random
import resource
import shutil
import signal
import statistics
import sys
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from spans import Patches, Tracer, clock

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "benchmarks" / "out"
DEFAULT_SEED = 1
MIN_UNITS = 3
SOLVERS = ("descent", "warm-start")

# sha256 of each bench workload's CSV at DEFAULT_SEED, as lsqlab wrote it
# when this benchmark was added; a direct `lsqlab bench` with the same
# arguments writes the same bytes.  Query counts are the paper's metric: a speed-up must keep them.
PINNED_CSV_SHA256 = {
    "hypercube-d10":
        "393dd87b515d7c23cd28402fe93e58f2cf95063b6f6f446c46345ad428c5030c",
    "regular-trials":
        "d749e98688ba684dbd581963881463590e3a0a38e9898dd2f56ae8ea35b97faa",
    "grid-separation":
        "0c5d1e55b22db37d4f1c976e081cd360f4cde273f9d2cc685afdef27571d715c",
}

# Exact results of the exact-bounds commands; they hold for every seed,
# because the seed only relabels the expansion graph.
PINNED_EXACT = {
    "adversary-matrix": {"min_ratio": "64/15", "vmin": "1/1"},
    "adversary-staircase": {"min_ratio": "7/4", "vmin": "1/1"},
    "expansion": {"edge_expansion": "2/3"},
    "separation": {"separation_number": 3},
    "brute-paths": {"max_vertex_congestion": 13},
}

# Graphs of the exact-bounds workload: unions of two Hamiltonian cycles
# drawn with this fixed seed.  The branch-and-bound routines prune by
# vertex label, so relabeling them would time the labeling, not the code.
EXACT_GRAPH_SEED = 1

END_TO_END = {  # name -> unit
    "run_s": "s", "setup_s": "s", "trials_per_s": "1/s",
    "trial_ms_p50": "ms", "trial_ms_p99": "ms", "peak_rss_mib": "MiB",
}
SPAN_METRICS = {  # per-layer metric -> span whose self time it sums
    "graphs.build_s": "graphs.build",
    "graphs.metrics_s": "graphs.metrics",
    "graphs.expansion_s": "graphs.expansion",
    "graphs.separation_s": "graphs.separation",
    "pathsystems.build_s": "pathsystems.build",
    "pathsystems.congestion_s": "pathsystems.congestion",
    "pathsystems.oracle_s": "pathsystems.oracle",
    "staircase.sample_s": "staircase.sample",
    "separation.arrangement_s": "separation.arrangement",
    "separation.sample_s": "separation.sample",
    "solvers.solve_s": "solvers.solve",
    "solvers.oracle_s": "solvers.oracle",
    "bench.self_s": "bench.run",
    "bench.report_s": "bench.report",
    "serialize.load_s": "serialize.load",
    "adversary.family_s": "adversary.family",
    "adversary.variant_s": "adversary.variant",
    "adversary.vmin_s": "adversary.vmin",
}
PER_LAYER = {  # name -> unit
    **{name: "s" for name in SPAN_METRICS},
    "pathsystems.build_peak_mib": "MiB",
    "staircase.samples": "count",
    "staircase.walk_len_mean": "vertices",
    "separation.walk_len_mean": "vertices",
    "solvers.queries": "count",
    "solvers.raw_calls": "count",
    "solvers.memo_hit_ratio": "ratio",
    "trace.overhead_s": "s",
}


def load_lsqlab():
    """Import lsqlab from src/ of this checkout, and from nowhere else."""
    src = ROOT / "src"
    if not (src / "lsqlab" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no lsqlab source under {src}")
    sys.path.insert(0, str(src))
    import lsqlab
    import lsqlab.cli
    if Path(lsqlab.__file__).resolve().parent != src / "lsqlab":
        raise SystemExit(f"benchmark: imported lsqlab from {lsqlab.__file__}")
    return lsqlab


def maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def two_cycle_graph(n: int, rng: random.Random) -> dict:
    """Union of two random Hamiltonian cycles on 1..n, as graph JSON:
    connected by construction, maximum degree at most 4."""
    edges = set()
    for _ in range(2):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            edges.add((min(a, b), max(a, b)))
    return {"n": n, "edges": [list(e) for e in sorted(edges)]}


def relabeled(graph: dict, rng: random.Random) -> dict:
    n = graph["n"]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    edges = sorted(tuple(sorted((perm[u - 1], perm[v - 1])))
                   for u, v in graph["edges"])
    return {"n": n, "edges": [list(e) for e in edges]}


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def nearest_rank(sorted_vals: list, q: float) -> float:
    return sorted_vals[max(math.ceil(q * len(sorted_vals)) - 1, 0)]


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

# The host's CPU speed drifts by up to about 1.8x within seconds to tens of
# seconds (other tenants share the machine), which swamps any code change.
# So a fixed pure-Python reference work (BFS over a 24x24 grid, the kind of
# dict, tuple and deque traffic lsqlab does) is timed before and after every
# unit and, from a SIGALRM interval timer, every SAMPLE_PERIOD_S in between,
# inside whatever lsqlab is running.  Measured intervals are converted to
# seconds on a host that runs the reference in REFERENCE_NOMINAL_S, as an
# undisturbed 2-vCPU Intel Xeon virtual machine does; the samples' own run
# time is left out.
REFERENCE_NOMINAL_S = 0.0025
SAMPLE_PERIOD_S = 0.1
_REF_SIDE = 24
_REF_ADJ = {
    v: tuple(w for w, ok in ((v - 1, v % _REF_SIDE > 0),
                             (v + 1, v % _REF_SIDE < _REF_SIDE - 1),
                             (v - _REF_SIDE, v >= _REF_SIDE),
                             (v + _REF_SIDE, v < _REF_SIDE * (_REF_SIDE - 1)))
             if ok)
    for v in range(_REF_SIDE * _REF_SIDE)
}


def _reference_work() -> float:
    t0 = clock()
    for src in range(0, len(_REF_ADJ), 37):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for w in _REF_ADJ[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return clock() - t0


def reference_seconds() -> float:
    """Median time of five rounds of the reference work."""
    return statistics.median(_reference_work() for _ in range(5))


class HostClock:
    """Reference samples taken through a run; converts measured intervals
    into seconds at nominal host speed."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.refs: list[float] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm that lands inside a sample is dropped
            return
        self._busy = True
        try:
            start = clock()
            ref = reference_seconds()
            self.starts.append(start)
            self.ends.append(clock())
            self.refs.append(ref)
        finally:
            self._busy = False

    def __enter__(self):
        """Sample every SAMPLE_PERIOD_S until exit."""
        self._previous = signal.signal(signal.SIGALRM,
                                       lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def seconds(self, a: float, b: float, nominal: bool = True) -> float:
        """Length of [a, b] without the samples' own run time.  At nominal
        speed, each stretch between two samples is scaled by the mean of
        their reference times; [a, b] must end before the last sample."""
        total = 0.0
        k = max(bisect.bisect_right(self.ends, a) - 1, 0)
        while k + 1 < len(self.starts) and self.ends[k] < b:
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                scale = (2 * REFERENCE_NOMINAL_S
                         / (self.refs[k] + self.refs[k + 1]) if nominal else 1)
                total += (hi - lo) * scale
            k += 1
        return total


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def check_bench_csv(text: str, trials: int, check: Check) -> dict:
    """Every expected solver run must be present with correct=true.
    Returns the mean queries per solver."""
    rows = list(csv.DictReader(io.StringIO(text)))
    queries = {name: [] for name in SOLVERS}
    ok_runs = set()
    for r in rows:
        key = (r.get("solver"), r.get("trial"))
        if (r.get("correct") == "true" and r.get("solver") in queries
                and (r.get("queries") or "").isdigit()):
            ok_runs.add(key)
            queries[r["solver"]].append(int(r["queries"]))
    for name in SOLVERS:
        for t in range(trials):
            check.add((name, str(t)) in ok_runs, f"{name} trial {t} wrong or missing")
    return {name: sum(q) / len(q) if q else float("nan")
            for name, q in queries.items()}


def path_system_congestion(paths: dict, graph: dict):
    """Max vertex congestion of a path-system JSON, or None if it is not a
    system of simple paths along the graph's edges for every ordered pair."""
    n = graph["n"]
    edges = {frozenset(e) for e in graph["edges"]}
    seen = set()
    load = [0] * (n + 1)
    for row in paths.get("paths", []):
        u, v, p = row["u"], row["v"], row["p"]
        if (u, v) in seen or not (1 <= u <= n and 1 <= v <= n) \
                or p[0] != u or p[-1] != v or len(set(p)) != len(p):
            return None
        if any(frozenset(e) not in edges for e in zip(p, p[1:])):
            return None
        seen.add((u, v))
        for w in p:
            load[w] += 1
    if len(seen) != n * n or paths.get("n") != n:
        return None
    return max(load)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class Unit:
    """Timestamps of one unit, and its times once converted."""

    start: float
    end: float
    setup_spans: list     # (start, end) before each first hook call
    trial_spans: list     # (start, end) of each timed trial
    trials: int
    wall: float = 0.0     # the times below are at nominal host speed
    setup: float = 0.0
    latencies: list = field(default_factory=list)
    raw_wall: float = 0.0
    raw_setup: float = 0.0

    def convert(self, host: HostClock) -> None:
        self.wall = host.seconds(self.start, self.end)
        self.setup = sum(host.seconds(a, b) for a, b in self.setup_spans)
        self.latencies = [host.seconds(a, b) for a, b in self.trial_spans]
        self.raw_wall = host.seconds(self.start, self.end, nominal=False)
        self.raw_setup = sum(host.seconds(a, b, nominal=False)
                             for a, b in self.setup_spans)

    @property
    def scale(self) -> float:
        return self.wall / self.raw_wall


class Workload:
    """One named workload: its inputs, its unit of work and its hooks."""

    def __init__(self, lsqlab, seed: int, work: Path, pins: dict):
        self.lsq = lsqlab
        self.seed = seed
        self.work = work
        self.pins = pins
        self.marks: list[float] = []  # one timestamp per hook call
        self.host = HostClock()
        self.tracer: Tracer | None = None
        self.check = Check()
        self.report_start = None
        self.reference = None  # CSV digest every unit must reproduce
        self.first_unit_rss = None
        self.info: list[str] = []

    # hooks (module, attribute) that mark a trial start or a routine entry
    def mark_points(self) -> list:
        raise NotImplementedError

    def install_marks(self, patches: Patches) -> None:
        tracer = self.tracer
        marks = self.marks

        def marked(fn):
            def hook(*args, **kwargs):
                marks.append(clock())
                if tracer is not None:
                    tracer.current_trial += 1
                return fn(*args, **kwargs)
            return hook

        for module, attr in self.mark_points():
            patches.replace(module, attr, marked(getattr(module, attr)))

    def command(self, argv: list) -> tuple:
        """Run one CLI command; returns (exit code, start, end)."""
        tr = self.tracer
        self.report_start = None
        idx = tr.open("cli.command") if tr is not None else None
        t0 = clock()
        try:
            rc = self.lsq.cli.main(argv)
        finally:
            t1 = clock()
            if tr is not None:
                if self.report_start is not None:
                    tr.record("bench.report", self.report_start, t1)
                tr.close(idx)
        return rc, t0, t1


class BenchWorkload(Workload):
    trials = 0
    sampler = None  # (module name, attribute) of the per-trial sampler

    def bench_args(self) -> list:
        raise NotImplementedError

    def mark_points(self) -> list:
        module, attr = self.sampler
        return [(getattr(self.lsq, module), attr)]

    def unit(self) -> Unit:
        out = self.work / "bench.csv"
        out.unlink(missing_ok=True)
        self.marks.clear()
        argv = ["bench", *self.bench_args(), "--solver", "descent",
                "--solver", "warm-start", "--trials", str(self.trials),
                "--seed", str(self.seed), "--workers", "1", "--out", str(out)]
        rc, t0, t1 = self.command(argv)
        text = out.read_text() if out.exists() else ""
        means = check_bench_csv(text, self.trials, self.check)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.reference is None:
            pinned = self.pins["csv_sha256"] if self.seed == DEFAULT_SEED else ""
            self.reference = pinned or digest
            self.info.append(f"csv sha256 = {digest} (seed {self.seed})")
            self.info.append("mean queries: " + ", ".join(
                f"{name} = {q:.4f}" for name, q in means.items()))
        self.check.add(digest == self.reference,
                       f"csv sha256 {digest} != {self.reference}")
        self.check.add(rc == 0, f"bench exited with {rc}")
        marks = self.marks
        return Unit(t0, t1, setup_spans=[(t0, marks[0] if marks else t1)],
                    trial_spans=list(zip(marks, marks[1:])), trials=len(marks))


class HypercubeD10(BenchWorkload):
    trials = 4000
    sampler = ("bench", "sample_hard_instance")

    def bench_args(self):
        return ["--kind", "hypercube", "--dim", "10", "--strategy", "hypercube",
                "--L", "31"]


class RegularTrials(BenchWorkload):
    trials = 1000
    sampler = ("bench", "sample_hard_instance")

    def __init__(self, *args):
        super().__init__(*args)
        graph = two_cycle_graph(512, random.Random(self.seed))
        self.graph_file = write_json(self.work / "regular512.json", graph)

    def bench_args(self):
        return ["--graph", str(self.graph_file), "--strategy", "bfs", "--L", "63"]


class GridSeparation(BenchWorkload):
    trials = 1000
    sampler = ("separation", "sample_separation_instance")

    def bench_args(self):
        return ["--kind", "grid", "--side", "32", "--c", "15"]


class ExactBounds(Workload):
    """One round: each exact routine once, at its cap, through the CLI."""

    def __init__(self, *args):
        super().__init__(*args)
        def fixed(n):
            return two_cycle_graph(n, random.Random(EXACT_GRAPH_SEED))

        self.graphs = {
            "expansion": relabeled(fixed(20), random.Random(self.seed)),
            "separation": fixed(14),
            "brute-paths": fixed(6),
        }
        self.files = {name: write_json(self.work / f"{name}.json", g)
                      for name, g in self.graphs.items()}

    def mark_points(self):
        lsq = self.lsq
        return [(lsq.adversary, "variant_bound_exhaustive"),
                (lsq.graphs, "edge_expansion_exact"),
                (lsq.graphs, "separation_number_exact"),
                (lsq.bench, "min_congestion_oracle")]

    def commands(self) -> dict:
        f = self.files
        return {
            "adversary-matrix": ["adversary", "--family", "matrix", "--k", "8"],
            "adversary-staircase": ["adversary", "--family", "staircase",
                                    "--kind", "ring", "--n", "8",
                                    "--strategy", "bfs", "--L", "1"],
            "expansion": ["metrics", "--graph", str(f["expansion"]),
                          "--expansion"],
            "separation": ["metrics", "--graph", str(f["separation"]),
                           "--separation"],
            "brute-paths": ["paths", "--graph", str(f["brute-paths"]),
                            "--strategy", "brute"],
        }

    def result_of(self, name: str, out: Path):
        """The checked fields of a command's output, or None if unreadable."""
        try:
            data = json.loads(out.read_text())
            if name == "brute-paths":
                cong = path_system_congestion(data, self.graphs[name])
                return {"max_vertex_congestion": cong}
            return {key: data.get(key) for key in self.pins[name]}
        except (OSError, ValueError, KeyError, TypeError, IndexError):
            return None

    def unit(self) -> Unit:
        setup_spans, trial_spans = [], []
        t_start = clock()
        for name, argv in self.commands().items():
            out = self.work / f"{name}.out.json"
            out.unlink(missing_ok=True)
            self.marks.clear()
            rc, t0, t1 = self.command([*argv, "--out", str(out)])
            entry = self.marks[0] if self.marks else t1
            setup_spans.append((t0, entry))
            trial_spans.append((entry, t1))
            got = self.result_of(name, out) if rc == 0 else None
            self.check.add(got == self.pins[name],
                           f"{name}: {got} != pinned {self.pins[name]}")
            if len(self.info) < len(PINNED_EXACT):
                self.info.append(f"{name}: {got}")
        return Unit(t_start, clock(), setup_spans, trial_spans,
                    trials=len(trial_spans))


WORKLOADS = {
    "hypercube-d10": HypercubeD10,
    "regular-trials": RegularTrials,
    "grid-separation": GridSeparation,
    "exact-bounds": ExactBounds,
}


def default_pins(workload: str) -> dict:
    if workload == "exact-bounds":
        return dict(PINNED_EXACT)
    return {"csv_sha256": PINNED_CSV_SHA256[workload]}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def measure(wl: Workload, seconds: float, min_units: int, count=None,
            periodic: bool = True) -> list:
    """Units until `seconds` have passed and at least `min_units` ran, or
    exactly `count` units.  The host speed is sampled before and after
    every unit, and with `periodic` also during it; the unit's times are
    converted with these samples."""
    units = []
    start = clock()
    host, tracer = wl.host, wl.tracer
    while (len(units) < count if count is not None
           else len(units) < min_units or clock() - start < seconds):
        gc.collect()
        if tracer is not None:
            tracer.current_unit = len(units)
            tracer.current_trial = -1
        host.sample()
        with host if periodic else contextlib.nullcontext():
            unit = wl.unit()
        host.sample()
        unit.convert(host)
        units.append(unit)
        if wl.first_unit_rss is None:
            # ru_maxrss after the first unit, so that it does not grow with
            # the number of units that fit in the time
            wl.first_unit_rss = maxrss_mib()
    return units


def end_to_end(units: list, rss_mib: float) -> dict:
    """Times at nominal host speed, as medians over units.  Every unit
    repeats the same trials, so each trial's latency is its median over the
    units, which drops a stall that hit one repetition; the percentiles are
    taken over those per-trial medians."""
    def median_of(fn):
        return statistics.median(fn(u) for u in units)

    latencies = sorted(statistics.median(repeats)
                       for repeats in zip(*(u.latencies for u in units)))
    return {
        "run_s": median_of(lambda u: u.wall),
        "setup_s": median_of(lambda u: u.setup),
        "trials_per_s": median_of(lambda u: u.trials / (u.wall - u.setup)),
        "trial_ms_p50": nearest_rank(latencies, 0.50) * 1e3,
        "trial_ms_p99": nearest_rank(latencies, 0.99) * 1e3,
        "peak_rss_mib": rss_mib,
    }


def raw_summary(units: list) -> str:
    """The unscaled figures, printed beside the metrics."""
    return (f"raw (unscaled) medians: run_s = "
            f"{statistics.median(u.raw_wall for u in units):.6g} s, setup_s = "
            f"{statistics.median(u.raw_setup for u in units):.6g} s; host speed "
            f"scale median {statistics.median(u.scale for u in units):.4g} "
            f"(min {min(u.scale for u in units):.4g}, "
            f"max {max(u.scale for u in units):.4g})")


def install_trace(wl: Workload, tr: Tracer) -> None:
    """Wrap the program's public functions at their module attributes."""
    lsq = wl.lsq
    bench = lsq.bench
    for module, attr, name in [
        (lsq.graphs, "hypercube_graph", "graphs.build"),
        (lsq.graphs, "grid_graph", "graphs.build"),
        (lsq.graphs, "ring_graph", "graphs.build"),
        (lsq.graphs, "graph_metrics", "graphs.metrics"),
        (bench, "graph_metrics", "graphs.metrics"),
        (lsq.graphs, "edge_expansion_exact", "graphs.expansion"),
        (lsq.graphs, "separation_number_exact", "graphs.separation"),
        (bench, "congestion", "pathsystems.congestion"),
        (bench, "min_congestion_oracle", "pathsystems.oracle"),
        (lsq.separation, "grid_path_arrangement", "separation.arrangement"),
        (bench, "run_bench", "bench.run"),
        (lsq.serialize, "load_graph", "serialize.load"),
        (lsq.adversary, "family_matrix_game", "adversary.family"),
        (lsq.adversary, "family_staircase", "adversary.family"),
        (lsq.adversary, "variant_bound_exhaustive", "adversary.variant"),
        (lsq.adversary, "aaronson_vmin", "adversary.vmin"),
    ]:
        tr.patch(module, attr, name)

    build = bench.build_path_system

    def build_measuring_rss(*args, **kwargs):
        before = maxrss_mib()
        ps = build(*args, **kwargs)
        tr.count("pathsystems.build_peak_mib", maxrss_mib() - before)
        return ps

    tr.replace(bench, "build_path_system", build_measuring_rss)
    tr.patch(bench, "build_path_system", "pathsystems.build")

    def walk_counter(layer):
        def after(args, inst):
            tr.count(f"{layer}.samples")
            tr.count(f"{layer}.walk_len", len(inst.staircase.walk))
        return after

    tr.patch(bench, "sample_hard_instance", "staircase.sample",
             walk_counter("staircase"))
    tr.patch(lsq.separation, "sample_separation_instance", "separation.sample",
             walk_counter("separation"))

    def solver_counter(args, result):
        tr.count("solvers.queries", result.queries)
        tr.count("solvers.raw_calls", args[1].raw_calls)

    tr.patch(bench, "steepest_descent", "solvers.solve", solver_counter)
    tr.patch(bench, "warm_start_descent", "solvers.solve", solver_counter)
    query_oracle = bench.QueryOracle
    tr.replace(bench, "QueryOracle",
               lambda target: query_oracle(tr.wrap("solvers.oracle", target)))

    report = bench.report_to_csv

    def report_marked(*args, **kwargs):
        wl.report_start = clock()
        return report(*args, **kwargs)

    tr.replace(bench, "report_to_csv", report_marked)


def per_layer(tr: Tracer, scales: list, overhead_s: float) -> dict:
    """Per-unit medians; span self times are scaled like the unit's times."""
    selfs = tr.self_times()
    units = range(len(scales))

    def per_unit(fn):
        return statistics.median(fn(u) for u in units)

    def count(u, key):
        return tr.counts.get((u, key), 0.0)

    def ratio(num, den):
        return lambda u: count(u, num) / count(u, den) if count(u, den) else 0.0

    metrics = {name: per_unit(
                   lambda u, span=span: selfs[u].get(span, 0.0) * scales[u])
               for name, span in SPAN_METRICS.items()}
    metrics.update({
        # RSS growth across the first build in this fresh interpreter
        "pathsystems.build_peak_mib": count(0, "pathsystems.build_peak_mib"),
        "staircase.samples": per_unit(lambda u: count(u, "staircase.samples")),
        "staircase.walk_len_mean": per_unit(
            ratio("staircase.walk_len", "staircase.samples")),
        "separation.walk_len_mean": per_unit(
            ratio("separation.walk_len", "separation.samples")),
        "solvers.queries": per_unit(lambda u: count(u, "solvers.queries")),
        "solvers.raw_calls": per_unit(lambda u: count(u, "solvers.raw_calls")),
        "solvers.memo_hit_ratio": per_unit(
            lambda u: 1 - ratio("solvers.queries", "solvers.raw_calls")(u)
            if count(u, "solvers.raw_calls") else 0.0),
        "trace.overhead_s": overhead_s,
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_units: int = MIN_UNITS, pins: dict | None = None) -> tuple:
    """Returns (result object, human-readable lines)."""
    lsq = load_lsqlab()
    work = OUT / f"work-{name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    hooks = Patches()
    try:
        wl = WORKLOADS[name](lsq, seed, work, pins or default_pins(name))
        lines = [f"workload {name}, seed {seed}, trace {int(trace)}"]
        if not trace:
            wl.install_marks(hooks)
            units = measure(wl, seconds, min_units)
            metrics = end_to_end(units, wl.first_unit_rss)
            lines.append(raw_summary(units))
        else:
            tracer = wl.tracer = Tracer()
            install_trace(wl, tracer)
            # No samples inside units: a signal handler could interleave
            # with span recording.  One untraced unit gives the overhead.
            wl.install_marks(hooks)
            units = measure(wl, seconds, min_units, periodic=False)
            hooks.restore()
            tracer.restore()
            wl.tracer = None
            wl.install_marks(hooks)
            untraced = measure(wl, seconds, min_units, count=1, periodic=False)
            overhead = (statistics.median(u.wall for u in units)
                        - statistics.median(u.wall for u in untraced))
            metrics = per_layer(tracer, [u.scale for u in units], overhead)
            path = OUT / f"spans-{name}-seed{seed}.csv.gz"
            tracer.write(path)
            lines.append(f"spans: {len(tracer.start)} written to "
                         f"{path.relative_to(ROOT)}")
    finally:
        hooks.restore()
        shutil.rmtree(work, ignore_errors=True)
    check = wl.check
    unit_of = PER_LAYER if trace else END_TO_END
    lines += wl.info
    lines.append(f"units: {len(units)}; trial latency percentiles over "
                 f"{min(len(u.latencies) for u in units)} per-trial medians "
                 f"of {len(units)} repetitions")
    lines += [f"{k} = {v:.6g} {unit_of[k]}" for k, v in metrics.items()]
    lines.append(f"wrong_frac = {check.failed}/{check.attempted} = "
                 f"{check.failed / check.attempted:.6g}")
    lines += [f"FAILED: {note}" for note in check.notes[:20]]
    result = {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": unit_of[k]}
                    for k, v in metrics.items()},
    }
    return result, lines


def main(argv=None, min_units: int = MIN_UNITS) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=12)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    result, lines = run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), min_units=min_units)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
