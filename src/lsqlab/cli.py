"""Command-line harness: gen, metrics, paths, congestion, instance, solve,
bench, adversary, verify.

Every command reads and writes the JSON formats owned by the library
modules and exits nonzero on any validation or invariant failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import adversary, bench, graphs, pathsystems, serialize, solvers, \
    staircase, verify
from .errors import CapabilityError, check_cap


def _family_params() -> tuple:
    """Each required parameter of graphs.FAMILIES once, in registry order,
    except group, which is read from --group FILE."""
    return tuple(dict.fromkeys(
        name for required, _, _ in graphs.FAMILIES.values()
        for name in required if name != "group"))


def _refuse_unread(args, read, reader: str) -> None:
    """Refuse, naming each, the graph flags given that reader does not read."""
    unread = [f"--{name}" for name in ("graph", "kind", *_family_params(), "group")
              if name not in read and getattr(args, name) is not None]
    if unread:
        raise ValueError(f"{reader} does not read {', '.join(unread)}")


def _load_or_build_graph(args) -> tuple:
    """(kind, Graph) from --graph FILE, or from --kind K with K's parameters
    and --seed; any other graph flag given is refused by name."""
    if args.graph:
        _refuse_unread(args, ("graph",), "--graph FILE")
        return "file", serialize.load_graph(args.graph)
    if args.kind is None:
        raise ValueError("provide --graph FILE or --kind KIND")
    required = graphs.FAMILIES[args.kind][0]
    _refuse_unread(args, ("kind", *required), f"--kind {args.kind}")
    params = {name: getattr(args, name) for name in (*required, "seed")
              if getattr(args, name) is not None}
    if "group" in params:
        params["group"] = serialize.load_group(params["group"])
    return args.kind, graphs.build_graph(args.kind, params)


def _emit(args, data) -> None:
    text = json.dumps(data, indent=1, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_gen(args):
    _, g = _load_or_build_graph(args)
    _emit(args, serialize.graph_to_dict(g))
    return 0


def cmd_metrics(args):
    _, g = _load_or_build_graph(args)
    data = {"n": g.n}
    data.update(graphs.graph_metrics(g))
    if args.expansion:
        data["edge_expansion"] = str(graphs.edge_expansion_exact(g))
    if args.separation:
        data["separation_number"] = graphs.separation_number_exact(g)
    _emit(args, data)
    return 0


def _load_paths(path, g):
    """A path-system file, checked to be a system of paths in g."""
    ps = serialize.load_path_system(path)
    ps.check_graph(g)
    return ps


def _build_paths(args):
    kind, g = _load_or_build_graph(args)
    if getattr(args, "paths", None):
        return kind, g, _load_paths(args.paths, g)
    return kind, g, bench.build_path_system(g, args.strategy)


def cmd_paths(args):
    _, _, ps = _build_paths(args)
    _emit(args, serialize.path_system_to_dict(ps))
    return 0


def cmd_congestion(args):
    _, _, ps = _build_paths(args)
    per_edge = ps.edge_counts()
    per_vertex = pathsystems.vertex_counts_from_edges(ps.n, per_edge)
    _emit(args, {
        "max_vertex": max(per_vertex.values()),
        "max_edge": max(per_edge.values(), default=0),
        "per_vertex": {str(v): c for v, c in sorted(per_vertex.items())},
        "per_edge": {f"{u}-{v}": c for (u, v), c in sorted(per_edge.items())},
    })
    return 0


def cmd_instance(args):
    g = serialize.load_graph(args.graph)
    ps = _load_paths(args.paths, g)
    inst = staircase.sample_hard_instance(g, ps, args.L, args.seed)
    values = flags = None
    if args.materialize:
        values = inst.table[1:]
        flags = [inst.flag(v) for v in g.vertices()]
    graph_path, paths_path = args.graph, args.paths
    if args.out:  # instance files name their inputs relative to themselves
        base = os.path.dirname(args.out) or "."
        graph_path = os.path.relpath(graph_path, base)
        paths_path = os.path.relpath(paths_path, base)
    _emit(args, serialize.instance_to_dict(graph_path, paths_path,
                                           inst.milestones, inst.bit,
                                           values, flags))
    return 0


def _load_instance(path):
    graph, paths, milestones, bit = serialize.instance_from_dict(
        serialize.load_json(path))
    base = Path(path).parent
    g = serialize.load_graph(base / graph)
    ps = _load_paths(base / paths, g)
    return g, staircase.make_instance(milestones, bit, ps, g)


def cmd_solve(args):
    g, inst = _load_instance(args.instance)
    oracle = solvers.QueryOracle(inst.value)
    spec = bench.SolverSpec(args.solver, t=args.t, start=args.start)
    result = spec.run(g, oracle, args.seed)
    out = {
        "answer": result.answer,
        "queries": result.queries,
        "raw_calls": oracle.raw_calls,
        "correct": result.answer == inst.minimum,
    }
    if args.transcript:
        rows = [[v, value, inst.flag(v)] for v, value in oracle.transcript]
        Path(args.transcript).write_text(
            json.dumps({"queries": rows}, indent=1) + "\n")
    _emit(args, out)
    return 0 if out["correct"] else 1


def cmd_bench(args):
    kind, g = _load_or_build_graph(args)
    specs = tuple(bench.SolverSpec(name, t=args.t) for name in args.solver)
    cfg = bench.BenchConfig(kind, g, args.strategy, args.L or 0, specs,
                            trials=args.trials, master_seed=args.seed,
                            workers=args.workers, c=args.c or 0)
    report = bench.run_bench(cfg)
    text = (bench.report_to_csv(report) if args.format == "csv"
            else bench.report_to_json(report))
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if not all(r["correct"] for r in report.rows):
        sys.stderr.write("bench: some solver runs returned a wrong answer\n")
        return 1
    return 0


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def cmd_adversary(args):
    # the variant bound's cap is read before the family is built
    if args.family == "matrix":
        _refuse_unread(args, (), "--family matrix")
        check_cap("variant_bound_exhaustive", 2 * args.k)
        fam = adversary.family_matrix_game(args.k)
    else:
        _, g = _load_or_build_graph(args)
        adversary.check_staircase_cap("variant_bound_exhaustive", g.n, args.L)
        ps = bench.build_path_system(g, args.strategy)
        fam, _ = adversary.family_staircase(g, ps, args.L)
    vb = adversary.variant_bound_exhaustive(fam)
    ab = adversary.aaronson_vmin(fam)
    _emit(args, {
        "family": fam.name,
        "size": fam.size,
        "min_ratio": _frac(vb.min_ratio),
        "variant_bound": _frac(vb.bound),
        "vmin": _frac(ab.v_min),
        "aaronson_bound": _frac(ab.bound),
        "argmin_subset": list(vb.argmin),
    })
    return 0


def cmd_verify(args):
    results = verify.run_verify(args.scope, budget=args.budget, seed=args.seed)
    failed = [r for r in results if not (r.passed or r.skipped)]
    report = {
        "checks": [
            {"scope": r.scope, "name": r.name, "passed": r.passed,
             "detail": r.detail, **({"skipped": True} if r.skipped else {})}
            for r in results
        ],
        "passed": sum(r.passed for r in results),
        "failed": len(failed),
    }
    _emit(args, report)
    for r in results:
        status = "SKIP" if r.skipped else "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.scope}/{r.name}"
        if r.detail:
            line += f": {r.detail}"
        sys.stderr.write(line + "\n")
    return 1 if failed else 0


def _warm_start_t(text: str):
    """--t: "auto" or an integer; the solver checks that it is >= 1."""
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be 'auto' or an integer, got {text!r}") from None


def _add_graph_args(p, with_strategy=False):
    p.add_argument("--graph", help="graph JSON file")
    p.add_argument("--kind", choices=list(graphs.FAMILIES))
    for name in _family_params():
        p.add_argument(f"--{name}", type=int)
    p.add_argument("--group", help="group JSON file: {table, generators}")
    if with_strategy:
        p.add_argument("--strategy", default="bfs",
                       choices=list(bench.STRATEGIES))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lsqlab",
        description="local-search query-complexity laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a family graph as JSON")
    _add_graph_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("metrics", help="max degree, diameter, exact metrics")
    _add_graph_args(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--expansion", action="store_true")
    p.add_argument("--separation", action="store_true")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("paths", help="build an all-pairs path system")
    _add_graph_args(p, with_strategy=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", help="existing path-system JSON to re-emit")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_paths)

    p = sub.add_parser("congestion", help="congestion profile of a system")
    _add_graph_args(p, with_strategy=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--paths", help="path-system JSON file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_congestion)

    p = sub.add_parser("instance", help="sample a hard staircase instance")
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--materialize", action="store_true",
                   help="inline values and flags")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_instance)

    p = sub.add_parser("solve", help="run a solver on an instance file")
    p.add_argument("--instance", required=True)
    p.add_argument("--solver", default="descent", choices=bench.SOLVERS)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--t", default="auto", type=_warm_start_t)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--transcript", help="dump the query transcript here")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("bench", help="batch benchmark over sampled instances")
    _add_graph_args(p, with_strategy=True)
    p.add_argument("--L", type=int, help="milestone staircase quasi-segments")
    p.add_argument("--c", type=int,
                   help="cluster staircase legs (grid arrangement mode)")
    p.add_argument("--solver", action="append", required=True,
                   choices=bench.SOLVERS)
    p.add_argument("--t", default="auto", type=_warm_start_t)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", default="csv", choices=["csv", "json"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("adversary", help="exact adversary bound report")
    _add_graph_args(p, with_strategy=True)
    p.add_argument("--family", default="matrix",
                   choices=["matrix", "staircase"])
    p.add_argument("--k", type=int, default=4, help="matrix game size")
    p.add_argument("--L", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_adversary)

    p = sub.add_parser("verify", help="run the invariant suites")
    p.add_argument("--scope", default="all",
                   choices=["all", *verify.SUITES])
    p.add_argument("--budget", type=int, default=None,
                   help="sample count for randomized checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, CapabilityError) as exc:
        sys.stderr.write(f"lsqlab {args.command}: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
