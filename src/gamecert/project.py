"""Closest certified game under the max-coefficient game norm, and the
gauge deviation measure.

The projection searches over candidate payoff coefficient vectors (one per
player, over the reference game's monomial support or the full bounded-
degree basis) for the game of minimal distance

    max_i || coeffs(u_i) - coeffs(u*_i) ||_inf

whose monotonicity (or per-player concavity) quadratic form admits a
level-l decomposition.  Because the symmetrized Jacobian and the Hessians
are linear in the payoff coefficients, the decomposition constraint is
affine in them, and the whole search is a single SOS program: the distance
t enters through degree-0 memberships t -+ (c - c*) >= 0, one pair per
coefficient that is not frozen.  Each candidate coefficient is a constant
plus a sign times a parameter, so a frozen coefficient and the zero-sum
tie of player 1's coefficient to player 0's need no constraint at all.

The gauge of a game is the smallest eps >= 0 such that adding eps times
the quadratic game with payoffs -||x_i||^2 makes the game certified at
level l.  That addition shifts the symmetrized Jacobian by -2*eps*I, so the
target gains 2*eps*||y||^2 = 2*eps - 2*eps*h on the sphere h = 1 - y^T y,
and the free multiplier of h absorbs the -2*eps*h at every level: the gauge
is max(0, lam/2) for lam the certify bound at the same level.
"""

from __future__ import annotations

from dataclasses import dataclass

from .certify import Solved, bound_program, solve_audited, target, target_polynomial
from .games import PolynomialGame, SemialgebraicSet
from .polynomials import Monomial, Polynomial, grevlex_key, monomials_upto
from .sdp import SdpStatus, SolveOptions
from .sos import Certificate, SosMembership, SosProgram


class ProjectionInfeasible(Exception):
    """No candidate game satisfies the membership and side constraints at
    the requested level."""


class ProjectionFailed(Exception):
    """The SDP solver stopped without an optimal solution."""


@dataclass(frozen=True)
class ProjectionSpec:
    game: PolynomialGame
    level: int
    kind: str = "monotone"  # or "concave"
    zero_sum: bool = False
    preserve_support: bool = False
    frozen: tuple[tuple[int, Monomial], ...] = ()

    def __post_init__(self):
        if self.kind not in ("monotone", "concave"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.zero_sum and self.game.n_players != 2:
            raise ValueError("zero_sum projection requires exactly 2 players")
        object.__setattr__(
            self,
            "frozen",
            tuple((int(i), tuple(m)) for i, m in self.frozen),
        )


@dataclass
class ProjectionResult:
    game: PolynomialGame
    distance: float
    level: int
    kind: str
    certificate: Certificate
    epigraph_value: float
    payoff_deltas: list[float]
    solver_iterations: int


def _param_name(player: int, mono: Monomial) -> str:
    return f"u{player}[" + ",".join(str(e) for e in mono) + "]"


def _candidate_supports(spec: ProjectionSpec) -> list[list[Monomial]]:
    game = spec.game
    if spec.preserve_support:
        supports = [
            sorted(u.terms.keys(), key=grevlex_key) for u in game.payoffs
        ]
    else:
        basis = monomials_upto(game.n_vars, game.degree)
        supports = [list(basis) for _ in game.payoffs]
    if spec.zero_sum:
        # coefficients outside a player's support are pinned at zero, so the
        # counterpart coefficient must be present to be forced to zero too
        union = sorted(set(supports[0]) | set(supports[1]), key=grevlex_key)
        supports = [list(union), list(union)]
    return supports


def _certificate(run: Solved, infeasible: Exception) -> Certificate:
    """The audited certificate of ``run``; raises ``infeasible`` when no
    decomposition exists, ``ProjectionFailed`` when the solver stopped short
    and ``CertificateRejected`` when the audit failed."""
    sol = run.solution
    if sol.status == SdpStatus.PRIMAL_INFEASIBLE:
        raise infeasible
    if run.rejected is not None:
        raise run.rejected
    if run.certificate is None:
        raise ProjectionFailed(f"solver stopped with status {sol.status.value}: {sol.message}")
    return run.certificate


def _coefficients(spec: ProjectionSpec) -> list[dict[Monomial, tuple]]:
    """Each candidate coefficient as (constant, sign, parameter name or
    None), standing for constant + sign * parameter, per player in support
    order.  A frozen coefficient is a constant; under ``zero_sum`` player
    1's coefficient is minus player 0's parameter, or a constant when its
    partner is frozen."""
    game, frozen = spec.game, set(spec.frozen)
    supports = _candidate_supports(spec)
    coeffs: list[dict[Monomial, tuple]] = [{} for _ in supports]
    for i, support in enumerate(supports):
        for mono in support:
            if (i, mono) in frozen:
                coeffs[i][mono] = (game.payoffs[i].coeff(mono), 0.0, None)
            elif spec.zero_sum and (1 - i, mono) in frozen:
                coeffs[i][mono] = (-game.payoffs[1 - i].coeff(mono), 0.0, None)
            elif spec.zero_sum and i == 1:
                coeffs[i][mono] = (0.0, -1.0, _param_name(0, mono))
            else:
                coeffs[i][mono] = (0.0, 1.0, _param_name(i, mono))
    return coeffs


def project(spec: ProjectionSpec, options: SolveOptions | None = None) -> ProjectionResult:
    """Solve the single-SDP projection and return the modified game, its
    distance to the reference, and the validated certificate."""
    game = spec.game
    m = game.n_vars
    frozen = set(spec.frozen)
    coeffs = _coefficients(spec)

    def game_of(terms) -> PolynomialGame:
        """The game whose player i has the payoff terms ``terms[i]``."""
        return PolynomialGame(game.block_sizes, tuple(Polynomial(m, t) for t in terms), game.domain)

    # the payoffs are the constant game plus each parameter times its game
    constant_game = game_of([{mono: const for mono, (const, _, _) in ci.items()} for ci in coeffs])
    param_terms: dict[str, list[dict[Monomial, float]]] = {}
    for i, ci in enumerate(coeffs):
        for mono, (_, sign, name) in ci.items():
            if name:
                param_terms.setdefault(name, [{} for _ in coeffs])[i][mono] = sign
    names = list(param_terms)

    # membership targets are linear in the payoffs, so they are affine in
    # the parameters: the target of a parameter's game is its direction
    players = [None] if spec.kind == "monotone" else [p for p in range(game.n_players) if game.block_sizes[p]]
    memberships = []
    for p in players:
        base, dom = target(constant_game, p)
        pairs = []
        for name in names:
            direction = target_polynomial(game_of(param_terms[name]), p)
            if not direction.is_zero():
                pairs.append((name, direction))
        label = "monotone" if p is None else f"player {p}"
        memberships.append(SosMembership(base, dom, spec.level, tuple(pairs), label=label))

    # the epigraph |c - ref| <= dist of each coefficient that is not frozen:
    # a nonnegative scalar is a degree-0 sum of squares.  Each inequality is
    # added once: under zero_sum with a zero-sum reference, player 1's
    # inequalities repeat player 0's
    scalars, one = SemialgebraicSet(0), Polynomial.constant(0, 1.0)
    epigraph: dict[tuple, SosMembership] = {}
    for i, ci in enumerate(coeffs):
        for mono, (const, sign, name) in ci.items():
            if (i, mono) in frozen:
                continue
            ref = game.payoffs[i].coeff(mono)
            for side in (-1.0, 1.0):  # dist + side * (c - ref) >= 0
                pairs = [("dist", one)] + ([(name, one.scale(side * sign))] if name else [])
                label = f"dist {'-' if side < 0 else '+'} ({_param_name(i, mono)} - ref)"
                epigraph.setdefault((side * (const - ref), name, side * sign), SosMembership(
                    Polynomial.constant(0, side * (const - ref)), scalars, 0, tuple(pairs), label=label))
    memberships.extend(epigraph.values())

    program = SosProgram(
        memberships=tuple(memberships),
        params=("dist", *names),
        objective=(("dist", 1.0),),
    )
    run = solve_audited(program, options)
    cert = _certificate(run, ProjectionInfeasible(
        f"no {spec.kind} candidate at level {spec.level} meets the side constraints"
    ))

    projected = game_of([
        {mono: const + sign * cert.params[name] if name else const for mono, (const, sign, name) in ci.items()}
        for ci in coeffs
    ])
    distance, deltas = game_distance(projected, game)
    return ProjectionResult(
        game=projected,
        distance=distance,
        level=spec.level,
        kind=spec.kind,
        certificate=cert,
        epigraph_value=float(cert.params["dist"]),
        payoff_deltas=deltas,
        solver_iterations=run.solution.iterations,
    )


def game_distance(a: PolynomialGame, b: PolynomialGame) -> tuple[float, list[float]]:
    """Game norm of the payoff difference: max over players of the
    max-abs coefficient gap on the full bounded-degree basis."""
    if a.block_sizes != b.block_sizes:
        raise ValueError("games must share player blocks")
    deltas = []
    for u, v in zip(a.payoffs, b.payoffs):
        deltas.append((u - v).max_abs_coeff())
    return (max(deltas) if deltas else 0.0), deltas


class GaugeInfeasible(Exception):
    """No shift by the quadratic game certifies the game at the level."""


def gauge(game: PolynomialGame, level: int, options: SolveOptions | None = None) -> float:
    """Smallest eps >= 0 making the game certified at ``level`` after adding
    eps times the quadratic game (payoffs -||x_i||^2): max(0, lam/2) for
    the certify bound lam (see the module docstring).  The value is only
    returned after the bound's decomposition passes the certificate audit;
    a rejected one raises :class:`CertificateRejected`, as in :func:`project`."""
    run = solve_audited(bound_program(*target(game), level), options)
    cert = _certificate(run, GaugeInfeasible(
        f"no shift makes the game certified at level {level}; "
        "an Archimedean description (ball constraint) may be missing"
    ))
    return max(0.0, cert.params["lam"] / 2)
