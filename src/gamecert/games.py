"""Polynomial games over basic semialgebraic sets and their calculus.

A game assigns each player a contiguous block of variables in one global
variable space, a payoff polynomial over all variables, and shares a joint
strategy set described by polynomial inequalities g_j(x) >= 0 and
equalities h_j(x) = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .polynomials import Polynomial, PolyMatrix


@dataclass(frozen=True)
class SemialgebraicSet:
    """Points satisfying g(x) >= 0 for every inequality and h(x) = 0 for
    every equality."""

    n_vars: int
    inequalities: tuple[Polynomial, ...] = ()
    equalities: tuple[Polynomial, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "inequalities", tuple(self.inequalities))
        object.__setattr__(self, "equalities", tuple(self.equalities))
        for p in self.inequalities + self.equalities:
            if p.n_vars != self.n_vars:
                raise ValueError(
                    f"constraint over {p.n_vars} variables in a {self.n_vars}-variable set"
                )

    def contains_many(self, points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
        """Membership of each row of ``points`` (shape (N, n_vars)), as a
        boolean array of length N."""
        points = np.asarray(points, dtype=float)
        inside = np.ones(points.shape[0], dtype=bool)
        for g in self.inequalities:
            inside &= g.evaluate_many(points) >= -tol
        for h in self.equalities:
            inside &= np.abs(h.evaluate_many(points)) <= tol
        return inside

    def contains(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        return bool(self.contains_many(np.asarray(point, dtype=float)[None, :], tol)[0])

    def max_constraint_degree(self) -> int:
        degs = [p.degree for p in self.inequalities + self.equalities]
        return max(degs, default=0)


def sphere_set(dim: int) -> SemialgebraicSet:
    """The unit sphere y^T y = 1 as a single quadratic equality."""
    if dim <= 0:
        raise ValueError("sphere dimension must be positive")
    return SemialgebraicSet(dim, (), (Polynomial.squares(dim, range(dim), -1.0, 1.0),))


def box_set(bounds: Sequence[tuple[float, float]]) -> SemialgebraicSet:
    """Axis-aligned box lo_i <= x_i <= hi_i as 2n linear inequalities."""
    n = len(bounds)
    ineqs = []
    for i, (lo, hi) in enumerate(bounds):
        x = Polynomial.variable(n, i)
        ineqs.append(x - Polynomial.constant(n, lo))
        ineqs.append(Polynomial.constant(n, hi) - x)
    return SemialgebraicSet(n, tuple(ineqs), ())


def add_ball_constraint(domain: SemialgebraicSet, radius: float) -> SemialgebraicSet:
    """Append R^2 - sum x_i^2 >= 0, making the quadratic module Archimedean.

    The caller is responsible for the ball actually containing the set;
    the geometry is unchanged exactly when it does.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    n = domain.n_vars
    ball = Polynomial.squares(n, range(n), -1.0, float(radius) ** 2)
    return SemialgebraicSet(n, domain.inequalities + (ball,), domain.equalities)


@dataclass(frozen=True)
class PolynomialGame:
    """n payoff polynomials over one global variable space split into
    contiguous per-player blocks."""

    block_sizes: tuple[int, ...]
    payoffs: tuple[Polynomial, ...]
    domain: SemialgebraicSet

    def __post_init__(self):
        object.__setattr__(self, "block_sizes", tuple(int(m) for m in self.block_sizes))
        object.__setattr__(self, "payoffs", tuple(self.payoffs))
        if len(self.payoffs) != len(self.block_sizes):
            raise ValueError("one payoff polynomial per player required")
        if any(m < 0 for m in self.block_sizes):
            raise ValueError("block sizes must be nonnegative")
        n_vars = sum(self.block_sizes)
        if self.domain.n_vars != n_vars:
            raise ValueError(
                f"domain over {self.domain.n_vars} variables, blocks cover {n_vars}"
            )
        for u in self.payoffs:
            if u.n_vars != n_vars:
                raise ValueError("payoff variable count does not match blocks")

    @property
    def n_players(self) -> int:
        return len(self.block_sizes)

    @property
    def n_vars(self) -> int:
        return sum(self.block_sizes)

    def block_range(self, player: int) -> range:
        start = sum(self.block_sizes[:player])
        return range(start, start + self.block_sizes[player])

    @property
    def degree(self) -> int:
        """Max over payoff and constraint degrees."""
        return max(
            max((u.degree for u in self.payoffs), default=0),
            self.domain.max_constraint_degree(),
        )


def pseudogradient(game: PolynomialGame) -> list[Polynomial]:
    """Own-block gradients stacked in block order:
    (grad_{x_1} u_1, ..., grad_{x_n} u_n)."""
    out = []
    for i, u in enumerate(game.payoffs):
        for k in game.block_range(i):
            out.append(u.differentiate(k))
    return out


def jacobian(game: PolynomialGame) -> PolyMatrix:
    """Jacobian of the pseudogradient: row r, column c is d v_r / d x_c."""
    v = pseudogradient(game)
    entries = [[v_r.differentiate(c) for c in range(game.n_vars)] for v_r in v]
    return PolyMatrix(entries)


def symmetrized_jacobian(game: PolynomialGame) -> PolyMatrix:
    """(J + J^T)/2 of the pseudogradient; the game is monotone iff this is
    negative semidefinite on the domain."""
    return jacobian(game).symmetrized()


def player_hessian(game: PolynomialGame, player: int) -> PolyMatrix:
    """Hessian of payoff ``player`` with respect to that player's own block,
    as a function of all variables."""
    if not 0 <= player < game.n_players:
        raise IndexError(f"player index {player} out of range")
    block = list(game.block_range(player))
    u = game.payoffs[player]
    grads = [u.differentiate(k) for k in block]
    entries = [[grads[a].differentiate(block[b]) for b in range(len(block))] for a in range(len(block))]
    return PolyMatrix(entries).symmetrized()


def quadratic_form(matrix: PolyMatrix, y_offset: int) -> Polynomial:
    """The polynomial y^T M(x) y in the extended space where dim(M) fresh
    variables start at index ``y_offset`` (>= the x-variable count)."""
    if not matrix.symmetric:
        raise ValueError("quadratic_form expects a symmetric matrix")
    if y_offset < matrix.n_vars:
        raise ValueError("y_offset must not overlap the x variables")
    n_ext = y_offset + matrix.dim
    result = Polynomial.zero(n_ext)
    for i in range(matrix.dim):
        for j in range(i, matrix.dim):
            entry = matrix.entries[i][j]
            if entry.is_zero():
                continue
            e = [0] * n_ext
            e[y_offset + i] += 1
            e[y_offset + j] += 1
            factor = 1.0 if i == j else 2.0
            yy = Polynomial.monomial(n_ext, tuple(e), factor)
            result = result + entry.lift(n_ext) * yy
    return result


def regularize(game: PolynomialGame, eps: float) -> PolynomialGame:
    """Subtract (eps/2)*||x_i||^2 from each payoff, shifting the symmetrized
    Jacobian by exactly -eps*I."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    payoffs = tuple(u + Polynomial.squares(game.n_vars, game.block_range(i), -eps / 2.0)
                    for i, u in enumerate(game.payoffs))
    return PolynomialGame(game.block_sizes, payoffs, game.domain)


def quadratic_reference_game(game: PolynomialGame) -> PolynomialGame:
    """The game with payoffs -||x_i||^2 over the same blocks and domain;
    its symmetrized Jacobian is -2I."""
    payoffs = tuple(Polynomial.squares(game.n_vars, game.block_range(i), -1.0) for i in range(game.n_players))
    return PolynomialGame(game.block_sizes, payoffs, game.domain)
