"""Command-line entry points.

Subcommands:

- ``solve <problem.json>``: both solution routes plus diagnostics and an
  optional JSON report.
- ``primal <problem.json> --grid R``: the grid primal only.
- ``dual <problem.json> [--tol T] [--max-iters K]``: the exchange dual only.
- ``slater <problem.json>``: strict-feasibility diagnostics only.
- ``option-bound``: build and solve a payoff-bound problem from a forward
  and optional call quotes, without a problem file.
- ``validate <problem.json>``: parse and validate, reporting diagnostics.

The flags are laid over the file's ``solver`` block, the problem kind's
config (``SolverConfig`` or ``DensityConfig``), which the file's defaults
fill.  On a density file only ``--grid`` applies, as ``x_resolution``; a
flag that the kind has no setting for exits 4 before any solve, as does an
out-of-range value.

On a density file, ``primal`` and ``dual`` run the same collocation solve
as ``solve`` without its refinement and Slater check, and print its primal
value or its dual value, which is read from the primal's row duals.

Exit codes: 0 solved/converged/valid; 2 gap remains, not converged, or the
solver stopped on a numerical failure; 3 infeasible or unbounded, or a
Slater margin below ``-FEAS_TOL``; 4 invalid input.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from functools import partial
from typing import Sequence

from .density import DensityConfig, check_lp_slater, collocation_report
from .fileio import density_report_document, load_problem, moment_report_document, write_report
from .moment import (
    ExchangeError,
    ReportStatus,
    SolverConfig,
    WeakDualityError,
    _exchange_options,
    check_dual_slater,
    check_primal_slater,
    duality_report,
    exchange_solve,
    solve_grid_primal,
)
from .options import solve_option_bound
from .simplex import FEAS_TOL, LPStatus, NumericalFailure

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_INFEASIBLE = 3
EXIT_INPUT = 4

_STATUS_EXIT = {
    ReportStatus.STRONG_DUALITY: EXIT_OK,
    ReportStatus.GAP_REMAINS: EXIT_NOT_CONVERGED,
    ReportStatus.NOT_CONVERGED: EXIT_NOT_CONVERGED,
    ReportStatus.PRIMAL_INFEASIBLE: EXIT_INFEASIBLE,
    ReportStatus.PRIMAL_UNBOUNDED: EXIT_INFEASIBLE,
}

_LP_EXIT = {
    LPStatus.OPTIMAL: EXIT_OK,
    LPStatus.INFEASIBLE: EXIT_INFEASIBLE,
    LPStatus.UNBOUNDED: EXIT_INFEASIBLE,
}

_EXCHANGE_EXIT = {"converged": EXIT_OK, "dual_unbounded": EXIT_INFEASIBLE}  # else not converged


def _fmt(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.9g}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="measurelp",
        description="Primal/dual bounds for linear programs over measures and densities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve both routes and report the gap")
    solve.add_argument("problem", help="problem JSON file")
    solve.add_argument("--grid", type=int, help="grid resolution per axis")
    solve.add_argument("--tol", type=float, help="dual feasibility tolerance")
    solve.add_argument("--max-iters", type=int, help="exchange iteration limit")
    solve.add_argument("--report", help="write a JSON report here")

    primal = sub.add_parser("primal", help="solve the grid/collocation primal only")
    primal.add_argument("problem")
    primal.add_argument("--grid", type=int, required=True)

    dual = sub.add_parser("dual", help="solve the exchange/collocation dual only")
    dual.add_argument("problem")
    dual.add_argument("--tol", type=float)
    dual.add_argument("--max-iters", type=int)

    slater = sub.add_parser("slater", help="strict-feasibility diagnostics")
    slater.add_argument("problem")

    option = sub.add_parser("option-bound", help="payoff bound from forward and quotes")
    option.add_argument("--domain", nargs=2, type=float, required=True, metavar=("LO", "HI"))
    option.add_argument("--forward", type=float, required=True)
    option.add_argument(
        "--quote", nargs=2, type=float, action="append", default=[],
        metavar=("STRIKE", "PRICE"),
    )
    option.add_argument("--payoff", required=True, help="payoff expression in x1")
    option.add_argument("--direction", choices=("sup", "inf"), required=True)
    option.add_argument("--grid", type=int)
    option.add_argument("--tol", type=float)
    option.add_argument("--max-iters", type=int)
    option.add_argument("--report", help="write a JSON report here")

    validate = sub.add_parser("validate", help="check a problem file and exit")
    validate.add_argument("problem")
    return parser


# the config field that each command-line flag sets, per problem kind
_FLAG_FIELDS = {
    SolverConfig: {"grid": "grid_resolution", "tol": "tol", "max_iters": "max_iters"},
    DensityConfig: {"grid": "x_resolution"},
}


def _config(config: SolverConfig | DensityConfig, args: argparse.Namespace):
    """``config`` with the command-line flags laid over it.

    A flag for which ``config`` has no field raises ValueError naming the
    flag, and an out-of-range value the config's own ValueError, so either
    exits 4 before any solve.
    """
    fields = _FLAG_FIELDS[type(config)]
    given = {flag: getattr(args, flag, None) for flag in ("grid", "tol", "max_iters")}
    for flag, value in given.items():
        if value is not None and flag not in fields:
            option = "--" + flag.replace("_", "-")
            raise ValueError(f"{option} has no lp_density setting (only --grid applies)")
    return replace(config, **{fields[f]: v for f, v in given.items() if v is not None})


def _cmd_solve(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    started = time.perf_counter()
    config = _config(loaded.config, args)
    if loaded.kind == "moment":
        report = duality_report(loaded.problem, config)
        timings = {"total_seconds": time.perf_counter() - started}
        print(f"problem: {loaded.name or args.problem} (moment)")
        print(f"primal value (grid {config.grid_resolution}): {_fmt(report.primal_value)}")
        print(
            f"dual value (exchange, tol {config.tol:g}): {_fmt(report.dual_value)}"
            f" [{report.iterations} iteration(s)]"
        )
        print(f"gap (dual - primal): {_fmt(report.gap)}")
        print(f"max dual violation (verification): {_fmt(report.max_dual_violation)}")
        document = partial(moment_report_document, report, loaded.name, config, timings)
    else:
        report = collocation_report(loaded.problem, **config.report_options())
        slater = check_lp_slater(loaded.problem, **config.slater_options())
        timings = {"total_seconds": time.perf_counter() - started}
        print(f"problem: {loaded.name or args.problem} (lp_density, p={loaded.problem.p:g})")
        print(f"primal value (collocation {report.x_resolution}): {_fmt(report.primal_value)}")
        print(f"dual value (collocation): {_fmt(report.dual_value)}")
        print(f"gap (dual - primal): {_fmt(report.gap)}")
        document = partial(
            density_report_document, report, loaded.name, loaded.problem.p, slater, timings
        )
    for note in report.notes:
        print(f"note: {note}")
    print(f"status: {report.status.value}")
    if args.report:
        write_report(document(), args.report)
    return _STATUS_EXIT[report.status]


def _density_side(loaded, args: argparse.Namespace, side: str) -> int:
    """The ``side`` value of the unrefined collocation report, as ``solve`` would find it."""
    options = _config(loaded.config, args).report_options()
    report = collocation_report(loaded.problem, refine=False, **options)
    print(f"collocation {side} ({report.x_resolution} per axis): {report.status.value}")
    value = report.primal_value if side == "primal" else report.dual_value
    if value is not None:
        print(f"value: {_fmt(value)}")
    return _STATUS_EXIT[report.status]


def _cmd_primal(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    if loaded.kind == "moment":
        config = _config(loaded.config, args)
        solve = solve_grid_primal(loaded.problem, config.grid_resolution)
        print(f"grid primal ({args.grid} per axis): {solve.status.value}")
        if solve.value is not None:
            print(f"value: {_fmt(solve.value)}")
            atoms = solve.measure
            for p, w in zip(atoms.points, atoms.weights):
                print(f"atom: weight {w:.9g} at {tuple(round(float(v), 12) for v in p)}")
        return _LP_EXIT[solve.status]
    return _density_side(loaded, args, "primal")


def _cmd_dual(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    if loaded.kind == "moment":
        config = _config(loaded.config, args)
        result = exchange_solve(loaded.problem, **_exchange_options(config))
        print(f"exchange dual: {result.status} after {result.iterations} iteration(s)")
        if result.value is not None:
            print(f"value: {_fmt(result.value)}")
        if result.final_slack is not None:
            print(f"final separation slack: {result.final_slack:.3g}")
        return _EXCHANGE_EXIT.get(result.status, EXIT_NOT_CONVERGED)
    return _density_side(loaded, args, "dual")


def _cmd_slater(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    config = loaded.config
    if loaded.kind == "moment":
        primal = check_primal_slater(loaded.problem, config.slater_resolution)
        dual = check_dual_slater(loaded.problem, **_exchange_options(config))
        print(f"primal margin: {_fmt(primal.margin)} (feasible: {primal.feasible})")
        print(f"equality rank: {primal.equality_rank} of {primal.n_equalities}")
        if primal.rank_deficient:
            print("note: equality constraints are rank deficient")
        print(
            f"dual margin: {_fmt(dual.margin)} (converged: {dual.converged}, "
            f"capped: {dual.capped})"
        )
        if primal.margin < -FEAS_TOL:
            print("note: no measure on the Slater grid meets the constraints")
            return EXIT_INFEASIBLE
        if not dual.converged:
            return EXIT_NOT_CONVERGED
        return EXIT_OK
    rep = check_lp_slater(loaded.problem, **config.slater_options())
    print(f"margin: {_fmt(rep.margin if rep.feasible else None)} (feasible: {rep.feasible})")
    print(f"equality rank: {rep.equality_rank} of {rep.n_equality_rows}")
    if rep.rank_deficient:
        print("note: equality rows are rank deficient")
    if rep.margin < -FEAS_TOL:
        print("note: no collocated density meets the constraints")
        return EXIT_INFEASIBLE
    return EXIT_OK


def _cmd_option_bound(args: argparse.Namespace) -> int:
    config = _config(SolverConfig(), args)
    started = time.perf_counter()
    result = solve_option_bound(
        spot_domain=args.domain,
        forward=args.forward,
        vanilla_quotes=[(k, p) for k, p in args.quote],
        payoff=args.payoff,
        direction=args.direction,
        config=config,
    )
    elapsed = time.perf_counter() - started
    report = result.report
    word = "upper" if args.direction == "sup" else "lower"
    print(f"direction: {args.direction} ({word} bound)")
    print(f"certified bound: {_fmt(result.bound)}")
    print(f"attained by atomic distribution: {_fmt(result.attained)}")
    print(f"status: {report.status.value}")
    if args.report:
        doc = moment_report_document(
            report, result.problem.name, config, {"total_seconds": elapsed}
        )
        write_report(doc, args.report)
    return _STATUS_EXIT[report.status]


def _cmd_validate(args: argparse.Namespace) -> int:
    loaded = load_problem(args.problem)
    problem = loaded.problem
    if loaded.kind == "moment":
        print(
            f"valid moment problem: {loaded.name or args.problem} "
            f"({len(problem.domain.boxes)} box(es), dimension {problem.domain.dim}, "
            f"{problem.n_ineq} inequality(ies), {problem.n_eq} equality(ies))"
        )
    else:
        families = []
        if problem.has_inequalities:
            families.append("inequality kernel")
        if problem.has_equalities:
            families.append("equality kernel")
        print(
            f"valid lp_density problem: {loaded.name or args.problem} "
            f"(dimension {problem.domain.dim}, p={problem.p:g}, {', '.join(families)})"
        )
    return EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "primal": _cmd_primal,
    "dual": _cmd_dual,
    "slater": _cmd_slater,
    "option-bound": _cmd_option_bound,
    "validate": _cmd_validate,
}


_PARSER: argparse.ArgumentParser | None = None  # built on the first run_cli call


def run_cli(argv: Sequence[str] | None = None) -> int:
    """Parse arguments, dispatch, and map every outcome to an exit code."""
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as e:  # ProblemFormatError and ExpressionError included
        print(f"input error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ExchangeError as e:
        print(f"solver stopped: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NumericalFailure, WeakDualityError) as e:
        print(f"solver stopped: {e}", file=sys.stderr)
        return EXIT_NOT_CONVERGED


def main() -> None:
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
