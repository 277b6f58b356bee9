"""Monotonicity and concavity certification hierarchies.

At level l the monotonicity query minimizes lam subject to

    lam - y^T Js(x) y  in  Q_l(X x B)

over the joint strategy set X crossed with the unit sphere B in the
pseudogradient dimension; Js is the symmetrized Jacobian.  Concavity runs
one query per player with the own-block payoff Hessian and a sphere of
that player's block dimension, and reports the worst player bound.

An optimal value below -strict_tol certifies strict monotonicity (resp.
concavity); a value within +/-cert_tol certifies the non-strict property;
anything larger is inconclusive (the hierarchy only gives upper bounds on
the true maximal eigenvalue).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from .games import (
    PolynomialGame,
    SemialgebraicSet,
    player_hessian,
    quadratic_form,
    symmetrized_jacobian,
)
from .polynomials import Polynomial
from .sdp import SdpStatus, SolveOptions
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


class CertStatus(str, Enum):
    STRICTLY_CERTIFIED = "StrictlyCertified"
    CERTIFIED = "Certified"
    INCONCLUSIVE = "Inconclusive"
    INFEASIBLE = "Infeasible"


@dataclass
class CertifyOptions:
    strict_tol: float = STRICT_TOL
    cert_tol: float = CERT_TOL
    validate_certificate: bool = True
    residual_tol: float = 1e-6
    psd_slack: float = 1e-7
    # a feasible iterate whose duality gap floors out above tol_gap still
    # proves the bound it attains; accept it when the gap is below this
    accept_stalled_gap: float = 1e-4
    solver: SolveOptions = field(default_factory=SolveOptions)


def usable_solution(sol, opts: "CertifyOptions") -> bool:
    """An SDP outcome we can read a certified bound from: fully converged,
    or feasible to solver tolerance with only the gap stalled.

    The residuals are the solver's scaled ones: ``max|b - A(X, u)|`` over
    the reduced, row-normalized program divided by ``1 + max|b|``, so they
    are relative to the size of the target coefficients.  The absolute
    identity residual is checked afterwards by ``sos.extract_certificate``.
    """
    if sol.status == SdpStatus.OPTIMAL:
        return True
    return (
        sol.status == SdpStatus.ITERATION_LIMIT
        and sol.primal_residual <= 10 * opts.solver.tol_feasibility
        and sol.dual_residual <= 10 * opts.solver.tol_feasibility
        and sol.relative_gap <= opts.accept_stalled_gap
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
    n = domain.n_vars
    n_ext = n + sphere_dim
    terms = {(0,) * n_ext: 1.0}
    for k in range(sphere_dim):
        e = [0] * n_ext
        e[n + k] = 2
        terms[tuple(e)] = -1.0
    sphere = Polynomial(n_ext, terms)
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


def min_admissible_level(game: PolynomialGame, kind: str = "monotone") -> int:
    """Smallest level the target degree admits (also bounded below by the
    constraint degrees)."""
    if kind == "monotone":
        deg = monotone_target(game).degree
    else:
        deg = max(
            (concave_target(game, i).degree for i in range(game.n_players)),
            default=0,
        )
    return max(deg, 2, game.domain.max_constraint_degree())


def _classify(lam: float, opts: CertifyOptions) -> CertStatus:
    if lam < -opts.strict_tol:
        return CertStatus.STRICTLY_CERTIFIED
    if lam <= opts.cert_tol:
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


def _solve_membership(base, domain, level, opts):
    problem, comp = compile_program(bound_program(base, domain, level))
    sol = solve_split(problem, comp, opts.solver)
    stats = SolverStats(
        status=sol.status.value,
        iterations=sol.iterations,
        primal_residual=sol.primal_residual,
        dual_residual=sol.dual_residual,
        relative_gap=sol.relative_gap,
    )
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        return math.inf, CertStatus.INFEASIBLE, None, stats, "no decomposition at any bound"
    if not usable_solution(sol, opts):
        return math.nan, CertStatus.INCONCLUSIVE, None, stats, f"solver stopped: {sol.status.value} ({sol.message})"
    lam = float(sol.free_values[comp.param_index("lam")])
    cert = None
    diagnostic = ""
    if opts.validate_certificate:
        try:
            cert = extract_certificate(
                comp,
                round_onto_rows(comp, sol),
                residual_tol=opts.residual_tol,
                psd_slack=opts.psd_slack,
            )
        except CertificateRejected as exc:
            return math.nan, CertStatus.INCONCLUSIVE, None, stats, f"certificate rejected: {exc}"
    return lam, None, cert, stats, diagnostic


def certify_monotone(
    game: PolynomialGame, level: int, options: CertifyOptions | None = None
) -> CertResult:
    """Optimal level-``level`` upper bound on max_x lambda_max(Js(x)) with a
    validated decomposition certificate."""
    opts = options or CertifyOptions()
    base = monotone_target(game)
    needed = base.degree
    if level < needed:
        raise ValueError(f"level {level} below target degree {needed}")
    domain = extended_domain(game.domain, game.n_vars)
    lam, status, cert, stats, diag = _solve_membership(base, domain, level, opts)
    if status is None:
        status = _classify(lam, opts)
    return CertResult(
        kind="monotone",
        level=level,
        lam=lam,
        status=status,
        certificate=cert,
        solver=stats,
        diagnostic=diag,
    )


def certify_concave(
    game: PolynomialGame, level: int, options: CertifyOptions | None = None
) -> CertResult:
    """Per-player Hessian bounds; the reported value is the worst player's."""
    opts = options or CertifyOptions()
    per_player: list[tuple[int, float]] = []
    worst = -math.inf
    worst_cert = None
    worst_stats = None
    diagnostics = []
    status = None
    for i in range(game.n_players):
        if game.block_sizes[i] == 0:
            per_player.append((i, -math.inf))
            continue
        base = concave_target(game, i)
        if level < base.degree:
            raise ValueError(
                f"level {level} below player {i} target degree {base.degree}"
            )
        domain = extended_domain(game.domain, game.block_sizes[i])
        lam, st, cert, stats, diag = _solve_membership(base, domain, level, opts)
        per_player.append((i, lam))
        if diag:
            diagnostics.append(f"player {i}: {diag}")
        if st == CertStatus.INFEASIBLE:
            status = CertStatus.INFEASIBLE
        if st == CertStatus.INCONCLUSIVE and status != CertStatus.INFEASIBLE:
            status = CertStatus.INCONCLUSIVE
        if math.isnan(lam):
            worst = math.nan
        elif worst is not math.nan and lam > worst:
            worst = lam
            worst_cert = cert
            worst_stats = stats
    if status is None:
        status = _classify(worst, opts)
    return CertResult(
        kind="concave",
        level=level,
        lam=worst,
        status=status,
        certificate=worst_cert,
        per_player=per_player,
        solver=worst_stats,
        diagnostic="; ".join(diagnostics),
    )


def run_hierarchy(
    game: PolynomialGame,
    levels,
    kind: str = "monotone",
    options: CertifyOptions | None = None,
    stop_on_strict: bool = False,
) -> list[CertResult]:
    """Run certification across levels; per-level failures are recorded and
    iteration continues."""
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
        if stop_on_strict and result.status == CertStatus.STRICTLY_CERTIFIED:
            break
    return results
