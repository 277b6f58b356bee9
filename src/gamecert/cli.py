"""Command-line frontend.

Subcommands: certify, project, efg2poly, export-sdpa, gauge.  Every
command prints a JSON report embedding the effective configuration and
tool version; identical inputs produce byte-identical reports.  Exit
codes: 0 certified / success, 1 error, 2 inconclusive, 3 infeasible.

GAMECERT_THREADS caps the linear-algebra thread pools (must be decided
before numpy loads, hence the lazy imports below; default 1 for
reproducible runs).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    pass


def _configure_threads() -> None:
    threads = os.environ.get("GAMECERT_THREADS", "1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, threads)


def _sanitize(obj):
    """Make reports strict JSON: drop NaN/inf floats to null/strings."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "+inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    return obj


def _emit(report: dict, out_path: str | None) -> None:
    from .jsonio import dumps

    text = dumps(_sanitize(report))
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)


def _report(command: str, config: dict, **fields) -> dict:
    """A command's report: its name, the tool version, the effective
    configuration and the command's own ``fields``."""
    from . import __version__

    return {"command": command, "version": __version__, "config": config, **fields}


def _solver_options(args):
    from .sdp import SolveOptions

    return SolveOptions(tol=args.sdp_tol, max_iterations=args.sdp_max_iter)


def _load_game(args):
    from .games import add_ball_constraint
    from .jsonio import load_game

    game = load_game(args.game)
    if getattr(args, "add_ball", None):
        domain = add_ball_constraint(game.domain, args.add_ball)
        from .games import PolynomialGame

        game = PolynomialGame(game.block_sizes, game.payoffs, domain)
    return game


def _result_json(result) -> dict:
    out = {
        "kind": result.kind,
        "level": result.level,
        "lambda": result.lam,
        "status": result.status.value,
        "residual": result.certificate.identity_residual if result.certificate else None,
    }
    if result.per_player is not None:
        out["per_player"] = [{"player": i, "lambda": lam} for i, lam in result.per_player]
    if result.solver is not None:
        out["solver"] = {
            "status": result.solver.status,
            "iterations": result.solver.iterations,
            "primal_residual": result.solver.primal_residual,
            "dual_residual": result.solver.dual_residual,
            "relative_gap": result.solver.relative_gap,
        }
    if result.diagnostic:
        out["diagnostic"] = result.diagnostic
    return out


def _parse_levels(args) -> list[int]:
    if args.levels:
        lo, dots, hi = args.levels.partition("..")
        try:
            levels = list(range(int(lo), int(hi if dots else lo) + 1))
        except ValueError:
            raise CliError(f"bad --levels range {args.levels!r}")
        if not levels:
            raise CliError(f"empty --levels range {args.levels!r}")
        return levels
    if args.level is None:
        raise CliError("--level or --levels is required")
    return [args.level]


def cmd_certify(args) -> int:
    from .certify import CertStatus, run_hierarchy

    levels = _parse_levels(args)
    game = _load_game(args)
    results = run_hierarchy(game, levels, kind=args.kind, options=_solver_options(args))
    config = {
        "game": args.game,
        "kind": args.kind,
        "levels": levels,
        "add_ball": args.add_ball,
        "sdp_tol": args.sdp_tol,
        "sdp_max_iter": args.sdp_max_iter,
        "verify": args.verify,
        "seed": args.seed,
    }
    report = _report("certify", config, results=[_result_json(r) for r in results])
    if args.verify:
        from .oracles import sample_max_eigenvalue

        sample = sample_max_eigenvalue(game, kind=args.kind, n_samples=args.verify, seed=args.seed)
        report["verify"] = {
            "samples": sample.samples,
            "max_eigenvalue": sample.max_value,
            "acceptance_rate": sample.acceptance_rate,
        }
    _emit(report, args.out)
    statuses = {r.status for r in results}
    if statuses & {CertStatus.STRICTLY_CERTIFIED, CertStatus.CERTIFIED}:
        return EXIT_OK
    if CertStatus.INCONCLUSIVE in statuses:
        return EXIT_INCONCLUSIVE
    return EXIT_INFEASIBLE


def cmd_project(args) -> int:
    from .jsonio import save_game
    from .project import ProjectionInfeasible, ProjectionSpec, project

    game = _load_game(args)
    spec = ProjectionSpec(
        game=game,
        level=args.level,
        kind=args.kind,
        zero_sum=args.zero_sum,
        preserve_support=args.preserve_support,
    )
    config = {
        "game": args.game,
        "kind": args.kind,
        "level": args.level,
        "add_ball": args.add_ball,
        "zero_sum": args.zero_sum,
        "preserve_support": args.preserve_support,
        "sdp_tol": args.sdp_tol,
        "sdp_max_iter": args.sdp_max_iter,
        "out": args.out,
    }
    try:
        result = project(spec, _solver_options(args))
    except ProjectionInfeasible as exc:
        _emit(_report("project", config, status="infeasible", message=str(exc)), args.report)
        return EXIT_INFEASIBLE
    if args.out:
        save_game(result.game, args.out)
    report = _report(
        "project",
        config,
        status="ok",
        distance=result.distance,
        epigraph_value=result.epigraph_value,
        payoff_deltas=result.payoff_deltas,
        certificate_residual=result.certificate.identity_residual,
        iterations=result.solver_iterations,
    )
    _emit(report, args.report)
    return EXIT_OK


def cmd_efg2poly(args) -> int:
    from .efg import efg_to_game
    from .jsonio import load_efg, save_game

    tree = load_efg(args.tree)
    game, vmap = efg_to_game(tree)
    if args.out:
        save_game(game, args.out)
    report = _report(
        "efg2poly",
        {"tree": args.tree, "out": args.out},
        players=game.n_players,
        blocks=list(game.block_sizes),
        variables={
            infoset: {
                "player": player,
                "actions": n_actions,
                "vars": list(var_idx),
            }
            for infoset, (player, n_actions, var_idx) in vmap.entries.items()
        },
        payoff_degrees=[u.degree for u in game.payoffs],
    )
    _emit(report, args.report)
    return EXIT_OK


def cmd_export_sdpa(args) -> int:
    from .certify import bound_program, target
    from .sdp import export_sdpa
    from .sos import compile_program

    game = _load_game(args)
    problem, _ = compile_program(bound_program(*target(game), args.level))
    export_sdpa(problem, args.out)
    config = {
        "game": args.game,
        "kind": args.kind,
        "level": args.level,
        "add_ball": args.add_ball,
        "out": args.out,
    }
    report = _report(
        "export-sdpa",
        config,
        blocks=list(problem.block_dims),
        free_variables=problem.n_free,
        constraints=problem.n_constraints,
    )
    _emit(report, args.report)
    return EXIT_OK


def cmd_gauge(args) -> int:
    from .project import GaugeInfeasible, gauge

    game = _load_game(args)
    config = {
        "game": args.game,
        "level": args.level,
        "add_ball": args.add_ball,
        "sdp_tol": args.sdp_tol,
        "sdp_max_iter": args.sdp_max_iter,
    }
    try:
        value = gauge(game, args.level, _solver_options(args))
    except GaugeInfeasible as exc:
        _emit(_report("gauge", config, status="infeasible", message=str(exc)), args.out)
        return EXIT_INFEASIBLE
    _emit(_report("gauge", config, status="ok", gauge=value), args.out)
    return EXIT_OK


def _add_ball_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--add-ball", type=float, default=None, metavar="R",
                   help="append the ball constraint R^2 - sum x_i^2 >= 0 to the domain")


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sdp-tol", type=_tolerance, default=1e-8, help="solver feasibility/gap tolerance")
    p.add_argument("--sdp-max-iter", type=_iterations, default=200, help="solver iteration cap")
    _add_ball_flag(p)


def _int_at_least(text: str, low: int) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _count(text: str) -> int:
    return _int_at_least(text, 0)


def _iterations(text: str) -> int:
    return _int_at_least(text, 1)


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gamecert",
        description="certify monotonicity/concavity of polynomial games, project onto "
        "certified classes, and convert game trees to polynomial games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify", help="run the certification hierarchy on a game file")
    p.add_argument("game")
    p.add_argument("--kind", choices=("monotone", "concave"), default="monotone")
    level = p.add_mutually_exclusive_group()
    level.add_argument("--level", type=int, default=None)
    level.add_argument("--levels", default=None, metavar="A..B", help="levels A to B, or one level N")
    p.add_argument("--verify", type=_count, default=0, metavar="N",
                   help="also sample N domain points and report the eigenvalue bound")
    p.add_argument("--seed", type=int, default=0x5EED)
    p.add_argument("--out", default=None, help="also write the report to this path")
    _add_solver_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("project", help="closest certified game under the coefficient norm")
    p.add_argument("game")
    p.add_argument("--kind", choices=("monotone", "concave"), default="monotone")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--zero-sum", action="store_true")
    p.add_argument("--preserve-support", action="store_true")
    p.add_argument("--out", default=None, help="write the projected game here")
    p.add_argument("--report", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("efg2poly", help="convert a game tree to a polynomial game")
    p.add_argument("tree")
    p.add_argument("--out", default=None, help="write the converted game here")
    p.add_argument("--report", default=None)
    p.set_defaults(func=cmd_efg2poly)

    p = sub.add_parser("export-sdpa", help="compile a certification SDP and write SDPA sparse text")
    p.add_argument("game")
    p.add_argument("--kind", choices=("monotone",), default="monotone")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--report", default=None)
    _add_ball_flag(p)  # it solves nothing, so it takes no solver flags
    p.set_defaults(func=cmd_export_sdpa)

    p = sub.add_parser("gauge", help="smallest quadratic-game shift making the game certified")
    p.add_argument("game")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--out", default=None)
    _add_solver_flags(p)
    p.set_defaults(func=cmd_gauge)

    return parser


def main(argv: list[str] | None = None) -> int:
    _configure_threads()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; remap so 2 stays "inconclusive"
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
