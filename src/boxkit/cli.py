"""Command-line surface.

Subcommands: bound, exact, gen, construct, spectrum, experiment.
Exit codes: 0 success, 2 input error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import sys

from .edgelist import read_edge_list, write_edge_list
from .errors import BudgetExceededError
from .families import (
    MODELS,
    RandomModelSpec,
    bipartite_tight_family,
    cobipartite_tight_family,
    sample,
)
from .graphs import BipartiteGraph
from .harness import (
    ALL_BOUNDS,
    emit,
    format_summary,
    parse_config,
    parse_fraction,
    rows_from_reports,
    run_bounds,
    run_experiment,
    write_text,
)
from .intervals import boxicity_exact, verify_box_certificate
from .spectral import adjacency_spectrum

FAMILIES = {"cobipartite": cobipartite_tight_family, "bipartite": bipartite_tight_family}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boxkit",
        description="certified lower bounds on graph boxicity")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bound = sub.add_parser("bound", help="evaluate lower bounds on a graph")
    p_bound.add_argument("--input", required=True, help="edge-list file")
    p_bound.add_argument("--methods", default="all",
                         help="comma list of bounds, or 'all' "
                              f"(choices: {', '.join(ALL_BOUNDS)})")
    p_bound.add_argument("--t-max", type=int, default=2,
                         help="largest expansion parameter to try")
    p_bound.add_argument("--format", choices=("csv", "json"), default="csv")

    p_exact = sub.add_parser("exact", help="exact boxicity of a small graph")
    p_exact.add_argument("--input", required=True, help="edge-list file")
    p_exact.add_argument("--max-k", type=int, default=None,
                         help="stop searching above this dimension")

    p_gen = sub.add_parser("gen", help="sample a seeded random graph")
    p_gen.add_argument("--model", required=True, choices=MODELS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", default=None,
                       help="edge probability, exact rational like 1/2")
    p_gen.add_argument("--m", type=int, default=None, help="edge count")
    p_gen.add_argument("--k", type=int, default=None, help="degree")
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True, help="edge-list file to write")

    p_con = sub.add_parser("construct",
                           help="build a tight family member with certificates")
    p_con.add_argument("--family", required=True, choices=FAMILIES)
    p_con.add_argument("--k", type=int, required=True, help="block size")
    p_con.add_argument("--l", type=int, required=True, help="block count")
    p_con.add_argument("--verify", action="store_true",
                       help="re-check the interval representations exactly")
    p_con.add_argument("--out", default=None, help="edge-list file to write")

    p_spec = sub.add_parser("spectrum", help="adjacency spectrum of a graph")
    p_spec.add_argument("--input", required=True, help="edge-list file")

    p_exp = sub.add_parser("experiment", help="run a configured sweep")
    p_exp.add_argument("--config", required=True, help="key=value config file")
    p_exp.add_argument("--out", default=None,
                       help="result file (overrides the config's out)")
    return parser


def _cmd_bound(args) -> int:
    g = read_edge_list(args.input)
    methods = [tok.strip() for tok in args.methods.split(",")]
    reports = run_bounds(g, methods, t_max=args.t_max)
    rows = rows_from_reports(reports, seed=0, model="input", n=g.n,
                             m=g.edge_count, param="")
    sys.stdout.write(emit(rows, args.format))
    return 0


def _cmd_exact(args) -> int:
    g = read_edge_list(args.input)
    result = boxicity_exact(g, max_k=args.max_k)
    ok = verify_box_certificate(g, result.certificate)
    print(f"n={g.n}")
    print(f"m={g.edge_count}")
    print(f"boxicity={result.value}")
    print(f"certificate_verified={int(ok)}")
    if not ok:
        raise ValueError("the boxicity certificate failed verification")
    return 0


def _cmd_gen(args) -> int:
    p = None if args.p is None else parse_fraction(args.p)
    spec = RandomModelSpec(model=args.model, n=args.n, seed=args.seed,
                           p=p, m=args.m, k=args.k)
    drawn = sample(spec)
    g = drawn.to_graph() if isinstance(drawn, BipartiteGraph) else drawn
    write_edge_list(g, args.out)
    return 0


def _cmd_construct(args) -> int:
    cert = FAMILIES[args.family](args.k, args.l)
    g = cert.graph
    line = (f"family={args.family} k={args.k} l={args.l} n={g.n} "
            f"m={g.edge_count} claimed_lower={cert.claimed_lower} "
            f"claimed_upper={cert.claimed_upper}")
    if args.verify:
        if not cert.verify():
            print(line + " verified=0")
            raise ValueError("interval representations failed verification")
        line += " verified=1"
    print(line)
    if args.out:
        write_edge_list(g, args.out)
    return 0


def _cmd_spectrum(args) -> int:
    g = read_edge_list(args.input)
    summary = adjacency_spectrum(g)
    print(f"n={g.n}")
    print(f"m={g.edge_count}")
    print("eigenvalues=" + ",".join(repr(x) for x in summary.eigenvalues))
    print(f"residual={summary.residual!r}")
    if summary.second_largest_abs is not None:
        print(f"degree={summary.degree}")
        print(f"second_largest_abs={summary.second_largest_abs!r}")
    return 0


def _cmd_experiment(args) -> int:
    with open(args.config, encoding="ascii") as fh:
        config = parse_config(fh.read())
    out_path = args.out or config.out
    if out_path is None:
        raise ValueError("no output path: pass --out or set out= in the config")
    result = run_experiment(config)
    write_text(out_path, emit(result.rows, config.fmt))
    sys.stdout.write(format_summary(result.cells))
    return 0


_COMMANDS = {
    "bound": _cmd_bound,
    "exact": _cmd_exact,
    "gen": _cmd_gen,
    "construct": _cmd_construct,
    "spectrum": _cmd_spectrum,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
