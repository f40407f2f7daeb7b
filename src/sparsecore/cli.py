"""Command-line interface.

Subcommands: sample, threshold, core, catalog, predict, solve, mc.
Each exits 0 on success.  On invalid input (bad parameters, or an
unreadable or malformed file) it prints one line ``<command>: <reason>``
and exits 2; on a budget, ``<command>: budget exceeded (<reason>)`` and
exits 30.  `solve` exits 10 (satisfiable / colorable) or 20
(unsatisfiable / non-colorable), and prints ``s BUDGET EXCEEDED`` (30).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .catalog import (
    enumerate_full,
    enumerate_k_dense,
    load_catalog,
    save_catalog,
)
from .experiments import (
    RATE_KINDS,
    VALIDATE_KINDS,
    ExperimentConfig,
    run_core_census,
    run_failure_probability,
    run_solver_validation,
)
from .predictor import failure_expansion
from .reduction import k_core, pure_literal_core
from .sampling import (
    params_from_alpha,
    pure_literal_threshold,
    sample_formula,
    sample_hypergraph,
)
from .solver import COLORING_BUDGET, SAT_CORE_BUDGET, decide_colorable, decide_sat
from .structures import (
    MODELS,
    BudgetExceededError,
    excess_formula,
    excess_hypergraph,
    from_dimacs,
    from_edge_list,
    to_dimacs,
    to_edge_list,
)


def _write_out(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _k(args) -> int:
    if args.k is None:
        raise ValueError("--kind hypergraph needs --k")
    return args.k


def _cmd_sample(args) -> int:
    params = params_from_alpha(args.n, args.r, args.alpha, args.kind)
    if args.kind == "sat":
        text = to_dimacs(sample_formula(params, args.seed))
    else:
        text = to_edge_list(sample_hypergraph(params, args.seed), args.r)
    _write_out(text, args.out)
    return 0


def _cmd_threshold(args) -> int:
    res = pure_literal_threshold(args.r)
    print(f"alpha_star = {res.alpha_star:.10f}")
    print(f"y_star     = {res.y_star:.10f}")
    return 0


def _cmd_core(args) -> int:
    text = Path(args.infile).read_text()
    if args.kind == "sat":
        core, _ = pure_literal_core(from_dimacs(text))
        excess, body = excess_formula(core), to_dimacs(core)
    else:
        graph, r = from_edge_list(text)
        core, _ = k_core(graph, _k(args))
        excess, body = excess_hypergraph(core, r), to_edge_list(core, r)
    print(f"core order = {core.order}")
    print(f"core size  = {core.size}")
    print(f"core excess = {excess}")
    sys.stdout.write(body)
    return 0


def _cmd_catalog(args) -> int:
    if args.kind == "sat":
        cat = enumerate_full(args.r, args.max_excess, args.order_cap, args.size_cap)
    else:
        cat = enumerate_k_dense(args.r, _k(args), args.max_excess, args.order_cap,
                                args.size_cap)
    save_catalog(cat, args.out)
    print(f"catalog: {len(cat.entries)} classes, complete={cat.complete}, "
          f"written to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    expansion = failure_expansion(load_catalog(args.catalog), args.event, args.smax)
    for s in range(1, args.smax + 1):
        print(f"p_{s}(a) = {expansion.terms[s]!r}")
    if args.n is not None and args.alpha is not None:
        value = expansion.evaluate(args.n, Fraction(args.alpha))
        print(f"evaluated at n={args.n}, alpha={args.alpha}: {float(value):.6e}")
    if args.json:
        Path(args.json).write_text(json.dumps(expansion.to_json_dict(), indent=1) + "\n")
    return 0


def _cmd_solve(args) -> int:
    text = Path(args.infile).read_text()
    try:
        if args.kind == "sat":
            formula = from_dimacs(text)
            verdict = decide_sat(formula, SAT_CORE_BUDGET if args.budget is None else args.budget)
            if verdict.status == "SAT":
                print("s SATISFIABLE")
                lits = [v if val else -v for v, val in enumerate(verdict.assignment, start=1)]
                print("v " + " ".join(map(str, lits)) + " 0")
                return 10
            print("s UNSATISFIABLE")
            print(f"c max_satisfied {verdict.max_satisfied} of {formula.size}")
            if args.emit_muf:
                print("c minimal unsatisfiable subformula "
                      f"(original variables {' '.join(map(str, verdict.muf_variables))})")
                sys.stdout.write(to_dimacs(verdict.muf))
            return 20
        graph, _ = from_edge_list(text)
        verdict = decide_colorable(
            graph, _k(args), COLORING_BUDGET if args.budget is None else args.budget)
        if verdict.colorable:
            print("s COLORABLE")
            for v, c in enumerate(verdict.coloring, start=1):
                print(f"v {v} {c}")
            return 10
        print("s NOT COLORABLE")
        if args.emit_muf:
            print("c minimal non-colorable subhypergraph "
                  f"(original vertices {' '.join(map(str, verdict.obstruction_vertices))})")
            sys.stdout.write(to_edge_list(verdict.obstruction))
        return 20
    except BudgetExceededError as exc:
        print(f"s BUDGET EXCEEDED ({exc})")
        return 30


def _cmd_mc(args) -> int:
    catalog = load_catalog(args.catalog) if args.catalog else None
    config = ExperimentConfig(
        kind=args.kind, n=args.n, r=args.r, alpha=args.alpha, trials=args.trials,
        seed=args.seed, k=args.k, workers=args.workers, catalog=catalog,
        exclude_below_excess=args.exclude_below_excess,
    )
    report = {"rate": run_failure_probability, "census": run_core_census,
              "validate": run_solver_validation}[args.mode](config)
    if args.mode == "census" and report.predicted is not None:
        print(f"expected failures at first order: {report.predicted * config.trials:.1f}")
    for key, value in report.to_json_dict().items():
        if key in ("config", "census", "predicted_census"):
            continue
        print(f"{key} = {value}")
    if report.census is not None:
        print("census:")
        for k, v in report.census.items():
            print(f"  {k}  {v}")
        print(f"  (other: {report.other_count}, large: {report.large_core_count})")
    if args.json:
        Path(args.json).write_text(json.dumps(report.to_json_dict(), indent=1) + "\n")
    if args.csv:
        Path(args.csv).write_text(report.to_csv())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecore",
        description="Cores, minimal obstructions and failure-rate predictions "
                    "for sparse random formulas and hypergraphs.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="draw one random instance")
    p.add_argument("--kind", choices=list(MODELS), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("threshold", help="pure literal threshold alpha* and minimizer y*")
    p.add_argument("--r", type=int, required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("core", help="reduce an instance to its core")
    p.add_argument("--kind", choices=list(MODELS), required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--in", dest="infile", required=True)
    p.set_defaults(func=_cmd_core)

    p = sub.add_parser("catalog", help="enumerate small obstructions up to isomorphism")
    p.add_argument("--kind", choices=list(MODELS), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--max-excess", type=int, required=True)
    p.add_argument("--order-cap", type=int)
    p.add_argument("--size-cap", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("predict", help="exact 1/n expansion of a failure probability")
    p.add_argument("--catalog", required=True)
    p.add_argument("--event", choices=RATE_KINDS, required=True)
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--json")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("solve", help="decide satisfiability / colorability")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--kind", choices=list(MODELS), default="sat")
    p.add_argument("--k", type=int)
    p.add_argument("--budget", type=int,
                   help="max core order (sat) / max number of colorings (hypergraph)")
    p.add_argument("--emit-muf", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("mc", help="Monte Carlo experiments")
    p.add_argument("mode", choices=["rate", "census", "validate"])
    p.add_argument("--kind", required=True, choices=RATE_KINDS + tuple(VALIDATE_KINDS))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--catalog")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--exclude-below-excess", type=int)
    p.add_argument("--json")
    p.add_argument("--csv")
    p.set_defaults(func=_cmd_mc)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"{args.command}: budget exceeded ({exc})")
        return 30
    except (ValueError, OSError) as exc:  # OSError: an unreadable --in or --catalog file
        print(f"{args.command}: {exc}")
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
