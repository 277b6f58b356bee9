"""Monotonicity and concavity certification hierarchies.

At level l the monotonicity query minimizes lam subject to

    lam - y^T Js(x) y  in  Q_l(X x B)

over the joint strategy set X crossed with the unit sphere B in the
pseudogradient dimension; Js is the symmetrized Jacobian.  Concavity runs
one query per player with the own-block payoff Hessian and a sphere of
that player's block dimension, and reports the worst player bound.

An optimal value below -STRICT_TOL certifies strict monotonicity (resp.
concavity); a value within +/-CERT_TOL certifies the non-strict property;
anything larger is inconclusive (the hierarchy only gives upper bounds on
the true maximal eigenvalue).

:func:`target` and :func:`solve_audited` are the one path from a game to an
audited certificate; ``project``, ``gauge`` and ``export-sdpa`` use them too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .games import (
    PolynomialGame,
    SemialgebraicSet,
    player_hessian,
    quadratic_form,
    symmetrized_jacobian,
)
from .polynomials import Polynomial
from .sdp import SdpSolution, SdpStatus, SolveOptions
from .sos import (
    Certificate,
    CertificateRejected,
    SosProgram,
    compile_program,
    extract_certificate,
    membership_problem,
    round_onto_rows,
    solve_split,
)

STRICT_TOL = 1e-6
CERT_TOL = 1e-6
# a feasible iterate whose duality gap floors out above the solver's tol
# still proves the bound it attains; accept it when the gap is below this
ACCEPT_STALLED_GAP = 1e-4


class CertStatus(str, Enum):
    STRICTLY_CERTIFIED = "StrictlyCertified"
    CERTIFIED = "Certified"
    INCONCLUSIVE = "Inconclusive"
    INFEASIBLE = "Infeasible"


def usable_solution(sol, options: SolveOptions | None = None) -> bool:
    """An SDP outcome we can read a certified bound from: fully converged,
    or feasible to solver tolerance with only the gap stalled.

    The residuals are the solver's scaled ones: ``max|b - A(X, u)|`` over
    the reduced, row-normalized program divided by ``1 + max|b|``, so they
    are relative to the size of the target coefficients.  The absolute
    identity residual is checked afterwards by ``sos.extract_certificate``.
    """
    if sol.status == SdpStatus.OPTIMAL:
        return True
    tol = (options or SolveOptions()).tol
    return (
        sol.status == SdpStatus.ITERATION_LIMIT
        and sol.primal_residual <= 10 * tol
        and sol.dual_residual <= 10 * tol
        and sol.relative_gap <= ACCEPT_STALLED_GAP
    )


@dataclass
class SolverStats:
    status: str
    iterations: int
    primal_residual: float
    dual_residual: float
    relative_gap: float


@dataclass
class CertResult:
    kind: str
    level: int
    lam: float
    status: CertStatus
    certificate: Certificate | None = None
    per_player: list[tuple[int, float]] | None = None
    solver: SolverStats | None = None
    diagnostic: str = ""


def extended_domain(domain: SemialgebraicSet, sphere_dim: int) -> SemialgebraicSet:
    """X x B: lift X's constraints into the (x, y) space and adjoin the
    sphere equality 1 - y^T y = 0 as the first equality."""
    n_ext = domain.n_vars + sphere_dim
    sphere = Polynomial.squares(n_ext, range(domain.n_vars, n_ext), -1.0, 1.0)
    return SemialgebraicSet(
        n_ext,
        tuple(g.lift(n_ext) for g in domain.inequalities),
        (sphere,) + tuple(h.lift(n_ext) for h in domain.equalities),
    )


def monotone_target(game: PolynomialGame) -> Polynomial:
    """-y^T Js(x) y over the extended (x, y) space."""
    return -quadratic_form(symmetrized_jacobian(game), game.n_vars)


def concave_target(game: PolynomialGame, player: int) -> Polynomial:
    """-y^T H_i(x) y with y of the player's own block dimension."""
    return -quadratic_form(player_hessian(game, player), game.n_vars)


def target_polynomial(game: PolynomialGame, player: int | None = None) -> Polynomial:
    """The polynomial a bound certifies: the monotone target for ``player``
    None, else that player's concave target.  Both are linear in the
    payoffs, so the targets of unit games give the directions of a
    coefficient search."""
    return monotone_target(game) if player is None else concave_target(game, player)


def target(game: PolynomialGame, player: int | None = None) -> tuple[Polynomial, SemialgebraicSet]:
    """The polynomial a bound certifies and the set it lives on: X x B^n
    for ``player`` None, else X x B^(m_i)."""
    sphere_dim = game.n_vars if player is None else game.block_sizes[player]
    return target_polynomial(game, player), extended_domain(game.domain, sphere_dim)


def _classify(lam: float) -> CertStatus:
    if lam < -STRICT_TOL:
        return CertStatus.STRICTLY_CERTIFIED
    if lam <= CERT_TOL:
        return CertStatus.CERTIFIED
    return CertStatus.INCONCLUSIVE


def bound_program(base: Polynomial, domain: SemialgebraicSet, level: int) -> SosProgram:
    """min lam subject to lam + base in Q_level(domain): the program of one
    bound, for ``base`` the negated quadratic form of a target."""
    return membership_problem(
        base=base,
        domain=domain,
        level=level,
        param_polys=[("lam", Polynomial.constant(domain.n_vars, 1.0))],
        objective=[("lam", 1.0)],
    )


@dataclass
class Solved:
    """One solve and audit: the solver's outcome, with the audited
    certificate, or with the audit's verdict when it refused one."""

    solution: SdpSolution
    certificate: Certificate | None = None
    rejected: CertificateRejected | None = None


def solve_audited(program: SosProgram, options: SolveOptions | None = None) -> Solved:
    """Compile ``program``, solve it through its sign-symmetry split and,
    when the solution is usable, round it onto the coefficient rows and
    audit the decomposition.  Every certificate of certify, project and
    gauge comes from here."""
    problem, comp = compile_program(program)
    sol = solve_split(problem, comp, options)
    if not usable_solution(sol, options):
        return Solved(sol)
    try:
        return Solved(sol, extract_certificate(comp, round_onto_rows(comp, sol)))
    except CertificateRejected as exc:
        return Solved(sol, rejected=exc)


def _certify(game: PolynomialGame, level: int, player: int | None, options: SolveOptions | None) -> CertResult:
    """The level-``level`` bound of one target (see :func:`target`)."""
    base, domain = target(game, player)
    if level < base.degree:
        who = "" if player is None else f"player {player} "
        raise ValueError(f"level {level} below {who}target degree {base.degree}")
    run = solve_audited(bound_program(base, domain, level), options)
    sol, cert = run.solution, run.certificate
    lam, diagnostic = math.nan, ""  # a nan bound classifies as Inconclusive
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        lam, diagnostic = math.inf, "no decomposition at any bound"
    elif run.rejected is not None:
        diagnostic = f"certificate rejected: {run.rejected}"
    elif cert is None:
        diagnostic = f"solver stopped: {sol.status.value} ({sol.message})"
    else:
        lam = cert.params["lam"]
    return CertResult(
        kind="monotone" if player is None else "concave",
        level=level,
        lam=lam,
        status=CertStatus.INFEASIBLE if lam == math.inf else _classify(lam),
        certificate=cert,
        solver=SolverStats(sol.status.value, sol.iterations, sol.primal_residual, sol.dual_residual, sol.relative_gap),
        diagnostic=diagnostic,
    )


def certify_monotone(game: PolynomialGame, level: int, options: SolveOptions | None = None) -> CertResult:
    """Optimal level-``level`` upper bound on max_x lambda_max(Js(x)) with a
    validated decomposition certificate."""
    return _certify(game, level, None, options)


def certify_concave(game: PolynomialGame, level: int, options: SolveOptions | None = None) -> CertResult:
    """Per-player Hessian bounds; the reported value is the worst player's."""
    per_player: list[tuple[int, float]] = []
    results: list[tuple[int, CertResult]] = []
    for i in range(game.n_players):
        if game.block_sizes[i] == 0:
            per_player.append((i, -math.inf))
            continue
        result = _certify(game, level, i, options)
        per_player.append((i, result.lam))
        results.append((i, result))
    # a player without a bound makes the worst one nan, and its solver
    # statistics (and no certificate) are the ones reported
    worst, chosen = -math.inf, None
    for _, result in results:
        if math.isnan(result.lam):
            worst, chosen = math.nan, result
            break
        if result.lam > worst:
            worst, chosen = result.lam, result
    infeasible = any(result.status == CertStatus.INFEASIBLE for _, result in results)
    return CertResult(
        kind="concave",
        level=level,
        lam=worst,
        status=CertStatus.INFEASIBLE if infeasible else _classify(worst),
        certificate=chosen.certificate if chosen else None,
        per_player=per_player,
        solver=chosen.solver if chosen else None,
        diagnostic="; ".join(f"player {i}: {r.diagnostic}" for i, r in results if r.diagnostic),
    )


def run_hierarchy(
    game: PolynomialGame,
    levels,
    kind: str = "monotone",
    options: SolveOptions | None = None,
) -> list[CertResult]:
    """Run certification across levels; per-level failures are recorded and
    iteration continues.  An unknown ``kind`` raises before any level runs."""
    if kind not in ("monotone", "concave"):
        raise ValueError(f"unknown kind {kind!r}")
    certify = certify_monotone if kind == "monotone" else certify_concave
    results = []
    for level in levels:
        try:
            result = certify(game, level, options)
        except Exception as exc:  # record and keep going
            result = CertResult(
                kind=kind,
                level=level,
                lam=math.nan,
                status=CertStatus.INCONCLUSIVE,
                diagnostic=f"level failed: {exc}",
            )
        results.append(result)
    return results
