"""Command-line front end: solve, bench, verify, bound, gen."""

from __future__ import annotations

import argparse
import sys

from .bench import BenchConfig, run_bench, run_verify, write_csv
from .bounds import check_bound_dominance
from .diffusion import format_trace, run_activation
from .generators import GraphSource
from .graph import Graph, write_edge_list
from .reference import ALGORITHMS, EXACT, EXACT_CAP, TSS, solve
from .thresholds import assign_thresholds

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUG = 3


def _add_graph_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--edges", metavar="FILE", help="edge-list file to load")
    group.add_argument(
        "--gen",
        metavar="SPEC",
        help="generator spec: gnp:N:P | tree:N | cycle:N | clique:N | star:N",
    )


def _add_threshold_args(p: argparse.ArgumentParser):
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--policy",
        default="random",
        help="threshold policy: const:T | random | degree | file:PATH (default random)",
    )
    group.add_argument(
        "--thresholds", metavar="LIST", help="explicit comma-separated thresholds"
    )


def _build_graph(args) -> Graph:
    edges = getattr(args, "edges", None)
    spec = args.gen if edges is None else f"edges:{edges}"
    return GraphSource.parse(spec).with_seed(args.seed).build()


def _build_thresholds(args, g: Graph) -> list[int]:
    if args.thresholds is None:
        return assign_thresholds(g, args.policy, args.seed)
    t = []
    for tok in args.thresholds.split(","):
        try:
            t.append(int(tok))
        except ValueError:
            raise ValueError(f"--thresholds needs comma-separated ints, got {tok!r}") from None
    return t


def _cmd_solve(args) -> int:
    g = _build_graph(args)
    t = _build_thresholds(args, g)
    result, solution, seconds = solve(g, t, args.alg, args.exact_cap)
    if args.alg == EXACT:
        details = [f"subsets_examined {result.subsets_examined}"]
    else:
        details = [
            "case_counts " + ",".join(str(c) for c in result.case_counts),
            f"elapsed_ms {seconds * 1000.0:.3f}",
        ]
    print(f"algorithm {args.alg}")
    print(f"n {g.n}")
    print(f"m {g.m}")
    print(f"size {len(solution)}")
    print("\n".join(details))
    print("target_set " + " ".join(str(x) for x in sorted(g.original_ids(solution))))
    if args.trace:
        print("activation trace:")
        print(format_trace(run_activation(g, t, solution), g))
    return EXIT_OK


def _cmd_bench(args) -> int:
    sources = tuple(GraphSource.parse(spec) for spec in args.gen)
    sweep = None
    if args.sweep is not None:
        lo, dots, hi = args.sweep.partition("..")
        try:
            sweep = tuple(range(int(lo), int(hi) + 1) if dots else map(int, args.sweep.split(",")))
        except ValueError:
            raise ValueError(f"bad sweep {args.sweep!r}") from None
    cfg = BenchConfig(
        sources=sources,
        policy=args.policy,
        sweep=sweep,
        algorithms=tuple(args.alg.split(",")),
        seed=args.seed if args.seed is not None else 0,
        repetitions=args.reps,
        timings=args.timings,
        exact_cap=args.exact_cap,
    )
    rows = run_bench(cfg)
    if args.out == "-":
        write_csv(rows, sys.stdout)
    else:
        with open(args.out, "w") as fh:
            write_csv(rows, fh)
    failures = [row for row in rows if row.error]
    for row in failures:
        print(f"note: {row.graph_name} t={row.t_param} {row.algorithm}: {row.error}", file=sys.stderr)
    return EXIT_OK


def _cmd_verify(args) -> int:
    mismatches = run_verify(
        args.klass, args.n_max, args.instances, args.seed if args.seed is not None else 0
    )
    for line in mismatches:
        print(f"MISMATCH {line}")
    status = f"{len(mismatches)} mismatches" if mismatches else "ok"
    print(f"{args.klass}: {args.instances} instances, {status}")
    return 1 if mismatches else EXIT_OK


def _cmd_bound(args) -> int:
    g = _build_graph(args)
    t = _build_thresholds(args, g)
    report = check_bound_dominance(g, t)
    print(f"n {g.n}")
    print(f"m {g.m}")
    print(f"applicable {str(report.applicable).lower()}")
    print(f"v2_size {report.v2_size}")
    print(f"bound_new {report.bound_new} ({float(report.bound_new):g})")
    print(f"bound_old {report.bound_old} ({float(report.bound_old):g})")
    print(f"tss_size {report.tss_size}")
    return EXIT_OK


def _cmd_gen(args) -> int:
    g = _build_graph(args)
    if args.out == "-":
        write_edge_list(g, sys.stdout)
    else:
        write_edge_list(g, args.out)
        print(f"wrote {g.n} vertices, {g.m} edges to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="targetset",
        description="Find small target sets under threshold activation.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed for all randomness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one instance and print the report")
    _add_graph_args(p)
    _add_threshold_args(p)
    p.add_argument("--alg", choices=ALGORITHMS, default=TSS)
    p.add_argument("--trace", action="store_true", help="print the activation trace")
    p.add_argument("--exact-cap", type=int, default=EXACT_CAP, help="vertex cap for --alg exact")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bench", help="threshold sweep over sources, CSV out")
    p.add_argument("--gen", metavar="SPEC", action="append", required=True,
                   help="graph source (repeatable): gnp:N:P | tree:N | ... | edges:PATH")
    p.add_argument("--policy", default="const",
                   help="const | random | degree | file:PATH (default const, swept)")
    p.add_argument("--sweep", help="const sweep values, e.g. 1..10 or 1,2,5 (default 1..10)")
    p.add_argument("--alg", default=TSS, help="comma list from " + ",".join(ALGORITHMS))
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--timings", action="store_true",
                   help="fill elapsed_ms (off by default to keep CSV bytes reproducible)")
    p.add_argument("--exact-cap", type=int, default=EXACT_CAP)
    p.add_argument("--out", default="-", help="CSV path, - for stdout")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="cross-check the solver against the oracle")
    p.add_argument("--class", dest="klass", choices=("tree", "cycle", "clique"), required=True)
    p.add_argument("--n-max", type=int, default=12)
    p.add_argument("--instances", type=int, default=100)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bound", help="print both size bounds for an instance")
    _add_graph_args(p)
    _add_threshold_args(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gen", help="write a generated graph as an edge list")
    p.add_argument("--gen", metavar="SPEC", required=True)
    p.add_argument("--out", required=True, help="output path, - for stdout")
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except AssertionError as exc:
        print(f"BUG: {exc}", file=sys.stderr)
        return EXIT_BUG


if __name__ == "__main__":
    sys.exit(main())
