"""Evaluation through one PowerTable per point set gives, bit for bit, what
the term-by-term loop that recomputes every power gives."""

from collections import Counter

import numpy as np
import pytest

from gamecert import oracles
from gamecert.certify import certify_concave, certify_monotone, target
from gamecert.games import player_hessian, symmetrized_jacobian
from gamecert.polynomials import Polynomial, PowerTable

GAMES = ["driver", "fig1", "fig3", "deg4", "deg8"]


def per_term(terms, points):
    """The evaluation loop without a table: every term starts from
    ``np.full`` and recomputes its powers."""
    out = np.zeros(points.shape[0])
    for exps, coeff in terms.items():
        term = np.full(points.shape[0], coeff)
        for i, e in enumerate(exps):
            if e:
                term *= points[:, i] ** e
        out += term
    return out


def mixed_points(n_points, n_vars, seed):
    """Points on [-1.5, 1.5] with exact zeros of both signs, so that terms
    and sums that come out as signed zeros are compared too."""
    rng = np.random.default_rng(seed)
    points = rng.uniform(-1.5, 1.5, (n_points, n_vars))
    points[rng.random((n_points, n_vars)) < 0.2] = 0.0
    points[rng.random((n_points, n_vars)) < 0.1] = -0.0
    return points


def game_polynomials(game):
    """Every payoff, every entry of the symmetrized Jacobian and of each
    player's Hessian, and every domain constraint."""
    matrices = [symmetrized_jacobian(game)] + [
        player_hessian(game, i) for i in range(game.n_players) if game.block_sizes[i]
    ]
    entries = [p for M in matrices for row in M.entries for p in row]
    return list(game.payoffs) + entries + list(game.domain.inequalities + game.domain.equalities)


@pytest.mark.parametrize("n_points", [1, 7, 10_000])
@pytest.mark.parametrize("name", GAMES)
def test_shared_table_is_bit_identical_to_the_per_term_loop(request, name, n_points):
    game = request.getfixturevalue(f"{name}_game")
    points = mixed_points(n_points, game.n_vars, seed=n_points)
    table = PowerTable(points)  # one table serves every polynomial in turn
    for poly in game_polynomials(game):
        expected = per_term(poly.terms, points).tobytes()
        assert poly.evaluate_many(table).tobytes() == expected
        assert poly.evaluate_many(points).tobytes() == expected
    J = symmetrized_jacobian(game)
    stack = J.evaluate_many(points)
    for i in range(J.dim):
        for j in range(J.dim):
            assert stack[:, i, j].tobytes() == per_term(J[i, j].terms, points).tobytes()
    inside = np.ones(n_points, dtype=bool)
    for g in game.domain.inequalities:
        inside &= per_term(g.terms, points) >= -1e-9
    for h in game.domain.equalities:
        inside &= np.abs(per_term(h.terms, points)) <= 1e-9
    assert np.array_equal(game.domain.contains_many(points), inside)


def test_signed_zeros_follow_the_per_term_loop():
    points = np.array([[0.0, -0.0], [-0.0, 2.0], [-1.0, 0.0], [3.0, -2.0]])
    for terms in ({(1, 0): 1.0}, {(1, 1): -2.0}, {(0, 0): -0.5, (2, 1): 1.0}, {(0, 3): 1.5, (1, 0): -1.0}):
        poly = Polynomial(2, terms)
        assert poly.evaluate_many(points).tobytes() == per_term(poly.terms, points).tobytes()
    # x0 = -0.0 in the second row: the sum starts from +0.0, which absorbs
    # the term's -0.0, where starting from the first term would keep it
    value = Polynomial(2, {(1, 0): 1.0}).evaluate_many(points)[1]
    assert value == 0.0 and not np.signbit(value)


class CountingTable(PowerTable):
    def __init__(self, points):
        super().__init__(points)
        self.computed = Counter()

    def __missing__(self, key):
        self.computed[key] += 1
        return super().__missing__(key)


def test_each_power_is_computed_once(deg8_game):
    J = symmetrized_jacobian(deg8_game)
    points = mixed_points(20_000, deg8_game.n_vars, seed=5)
    table = CountingTable(points)
    stack = J.evaluate_many(table)
    assert stack.tobytes() == J.evaluate_many(points).tobytes()
    # the factors the evaluated entries ask for; J is symmetric, so the
    # entries below the diagonal are copied, not evaluated
    factors = [
        (i, e)
        for r in range(J.dim)
        for c in range(r, J.dim)
        for exps in J[r, c].terms
        for i, e in enumerate(exps)
        if e
    ]
    assert set(table.computed) == set(factors)
    assert set(table.computed.values()) == {1}
    # the per-term loop computes a power for each factor of each term
    assert len(factors) > 10 * len(table.computed)


def per_term_evaluate(self, terms):
    return per_term(terms, self.points)


@pytest.fixture(scope="module")
def audited(driver_game, fig1_game, deg4_game):
    """(certificate, target, domain) of certified corpus bounds."""
    cases = []
    for game, level in ((driver_game, 2), (fig1_game, 2), (deg4_game, 4)):
        result = certify_monotone(game, level)
        base, domain = target(game)
        cases.append((result.certificate, Polynomial.constant(base.n_vars, result.lam) + base, domain))
    result = certify_concave(fig1_game, 2)
    player = max(result.per_player, key=lambda p: p[1])[0]
    base, domain = target(fig1_game, player)
    cases.append((result.certificate, Polynomial.constant(base.n_vars, result.lam) + base, domain))
    return cases


@pytest.mark.parametrize("seed", [17, 18])
def test_audits_equal_the_per_term_loop(request, audited, monkeypatch, seed):
    games = [request.getfixturevalue(f"{name}_game") for name in GAMES]

    def run():
        audits = [oracles.check_certificate_sampled(c, t, d, 500, seed) for c, t, d in audited]
        return audits, [oracles.finite_difference_audit(game, seed=seed) for game in games]

    shared = run()
    monkeypatch.setattr(PowerTable, "evaluate", per_term_evaluate)
    assert run() == shared
    assert all(ok for ok, _ in shared[0])
