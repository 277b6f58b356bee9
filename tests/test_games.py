import numpy as np
import pytest

from gamecert.games import (
    PolynomialGame,
    SemialgebraicSet,
    add_ball_constraint,
    box_set,
    jacobian,
    player_hessian,
    pseudogradient,
    quadratic_form,
    quadratic_reference_game,
    regularize,
    sphere_set,
    symmetrized_jacobian,
)
from gamecert.polynomials import Polynomial, allclose, monomials_upto


def random_game(rng, blocks=(1, 1), max_degree=3):
    n = sum(blocks)
    basis = monomials_upto(n, max_degree)
    payoffs = []
    for _ in blocks:
        terms = {m: float(rng.uniform(-1, 1)) for m in basis if rng.random() < 0.6}
        payoffs.append(Polynomial(n, terms))
    return PolynomialGame(blocks, tuple(payoffs), SemialgebraicSet(n, (), ()))


def test_pseudogradient_driver(driver_game):
    v = pseudogradient(driver_game)
    assert len(v) == 1
    assert allclose(v[0], Polynomial(1, {(1,): -6.0, (0,): 4.0}), 1e-12)


def test_pseudogradient_zero_game():
    zero = PolynomialGame((1, 2), (Polynomial.zero(3), Polynomial.zero(3)),
                          SemialgebraicSet(3, (), ()))
    assert all(p.is_zero() for p in pseudogradient(zero))


def test_pseudogradient_fig1(fig1_game):
    v = pseudogradient(fig1_game)
    expected = [
        Polynomial(3, {(0, 1, 0): 10.0, (0, 0, 1): 2.0, (0, 0, 0): -6.0}),
        Polynomial(3, {(1, 0, 0): 10.0, (0, 0, 1): 2.0, (0, 0, 0): -6.0}),
        Polynomial(3, {(1, 0, 0): -2.0, (0, 1, 0): -2.0, (0, 0, 0): 2.0}),
    ]
    for got, want in zip(v, expected):
        assert allclose(got, want, 1e-12)
    # finite-difference cross-check of the stacked gradient
    rng = np.random.default_rng(4)
    for _ in range(5):
        pt = rng.uniform(0, 1, 3)
        row = 0
        for i, u in enumerate(fig1_game.payoffs):
            for k in fig1_game.block_range(i):
                up = pt.copy(); up[k] += 1e-6
                dn = pt.copy(); dn[k] -= 1e-6
                fd = (u.evaluate(up) - u.evaluate(dn)) / 2e-6
                assert abs(fd - v[row].evaluate(pt)) < 1e-6
                row += 1


def test_symmetrized_jacobian_driver(driver_game):
    js = symmetrized_jacobian(driver_game)
    assert js.dim == 1
    assert allclose(js[0, 0], Polynomial.constant(1, -6.0), 1e-12)


def test_symmetrized_jacobian_fig1_constant(fig1_game):
    js = symmetrized_jacobian(fig1_game)
    expected = np.array([[0.0, 10.0, 0.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    rng = np.random.default_rng(9)
    for _ in range(5):
        pt = rng.uniform(0, 1, 3)
        assert np.max(np.abs(js.evaluate_many([pt])[0] - expected)) < 1e-12


def test_symmetrized_jacobian_exact_symmetry():
    rng = np.random.default_rng(12)
    for _ in range(10):
        game = random_game(rng, (2, 1), 4)
        js = symmetrized_jacobian(game)
        for i in range(js.dim):
            for j in range(js.dim):
                assert js[i, j] == js[j, i]


def test_quadratic_reference_game_jacobian():
    # payoffs -(||x_i||^2)/1 give Js = -2I; payoffs -(1/2)||x_i||^2 give -I
    base = PolynomialGame((2, 1), (Polynomial.zero(3),) * 2, SemialgebraicSet(3, (), ()))
    quad = quadratic_reference_game(base)
    js = quad and symmetrized_jacobian(quad)
    assert np.allclose(js.evaluate_many([[0.3, -0.2, 0.9]])[0], -2 * np.eye(3))
    half = regularize(base, 1.0)
    assert np.allclose(symmetrized_jacobian(half).evaluate_many([[0.5, 0.5, 0.5]])[0], -np.eye(3))


def test_player_hessian_examples(driver_game, fig1_game):
    h0 = player_hessian(driver_game, 0)
    assert allclose(h0[0, 0], Polynomial.constant(1, -6.0), 1e-12)
    h1 = player_hessian(fig1_game, 0)
    assert np.allclose(h1.evaluate_many([[0.1, 0.2, 0.3]])[0], [[0.0, 10.0], [10.0, 0.0]])
    quad = quadratic_reference_game(fig1_game)
    for i, m in enumerate(quad.block_sizes):
        h = player_hessian(quad, i)
        assert np.allclose(h.evaluate_many([[0.0, 0.0, 0.0]])[0], -2 * np.eye(m))
    with pytest.raises(IndexError):
        player_hessian(driver_game, 1)


def test_hessian_is_jacobian_diagonal_block():
    rng = np.random.default_rng(17)
    for _ in range(10):
        game = random_game(rng, (2, 2), 3)
        jac = jacobian(game)
        for i in range(game.n_players):
            block = list(game.block_range(i))
            h = player_hessian(game, i)
            for a in range(len(block)):
                for b in range(len(block)):
                    assert allclose(h[a, b], jac[block[a], block[b]], 1e-12)


def test_jacobian_finite_difference_property():
    rng = np.random.default_rng(23)
    game = random_game(rng, (2, 1), 4)
    js = symmetrized_jacobian(game)
    v = pseudogradient(game)
    for _ in range(20):
        pt = rng.uniform(-1, 1, 3)
        fd = np.zeros((3, 3))
        for r in range(3):
            for c in range(3):
                up = pt.copy(); up[c] += 1e-6
                dn = pt.copy(); dn[c] -= 1e-6
                fd[r, c] = (v[r].evaluate(up) - v[r].evaluate(dn)) / 2e-6
        assert np.max(np.abs(js.evaluate_many([pt])[0] - 0.5 * (fd + fd.T))) < 1e-4


def test_quadratic_form_examples(fig1_game):
    m = symmetrized_jacobian(PolynomialGame(
        (1,), (Polynomial(1, {(2,): -3.0, (1,): 4.0}),), SemialgebraicSet(1, (), ())))
    q = quadratic_form(m, 1)
    assert allclose(q, Polynomial(2, {(0, 2): -6.0}), 1e-12)

    from gamecert.polynomials import PolyMatrix
    eye = PolyMatrix([[Polynomial.constant(0, 1.0), Polynomial.zero(0)],
                      [Polynomial.zero(0), Polynomial.constant(0, 1.0)]], symmetric=True)
    q2 = quadratic_form(eye, 0)
    assert allclose(q2, Polynomial(2, {(2, 0): 1.0, (0, 2): 1.0}), 1e-12)

    q3 = quadratic_form(symmetrized_jacobian(fig1_game), 3)
    expected = Polynomial(6, {(0, 0, 0, 1, 1, 0): 20.0})
    assert allclose(q3, expected, 1e-12)


def test_regularize_shift_identity(fig1_game):
    eps = 0.37
    reg = regularize(fig1_game, eps)
    q_orig = quadratic_form(symmetrized_jacobian(fig1_game), 3)
    q_reg = quadratic_form(symmetrized_jacobian(reg), 3)
    shift = Polynomial(6, {
        (0, 0, 0, 2, 0, 0): eps, (0, 0, 0, 0, 2, 0): eps, (0, 0, 0, 0, 0, 2): eps,
    })
    assert allclose(q_reg + shift, q_orig, 1e-12)
    with pytest.raises(ValueError):
        regularize(fig1_game, 0.0)


def test_add_ball_constraint():
    box = box_set([(0.0, 1.0)])
    with_ball = add_ball_constraint(box, 2.0)
    polys = [g.terms for g in with_ball.inequalities]
    assert {(1,): 1.0} in polys
    assert {(0,): 1.0, (1,): -1.0} in polys
    assert {(0,): 4.0, (2,): -1.0} in polys
    # membership unchanged inside the box
    rng = np.random.default_rng(31)
    for _ in range(50):
        pt = rng.uniform(-0.5, 1.5, 1)
        assert box.contains(pt) == with_ball.contains(pt)
    # simplex in 2 vars
    one = Polynomial.constant(2, 1.0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    simplex = SemialgebraicSet(2, (x1, x2, one - x1 - x2), ())
    enlarged = add_ball_constraint(simplex, 2.0)
    assert enlarged.inequalities[-1].terms == {(0, 0): 4.0, (2, 0): -1.0, (0, 2): -1.0}
    with pytest.raises(ValueError):
        add_ball_constraint(box, -1.0)


def test_sphere_set():
    s = sphere_set(3)
    assert len(s.equalities) == 1 and not s.inequalities
    assert s.equalities[0].degree == 2
    assert s.contains([1.0, 0.0, 0.0])
    assert not s.contains([0.5, 0.0, 0.0])


def test_game_validation():
    with pytest.raises(ValueError):
        PolynomialGame((1,), (Polynomial.zero(2),), SemialgebraicSet(2, (), ()))
    with pytest.raises(ValueError):
        PolynomialGame((1, 1), (Polynomial.zero(2),), SemialgebraicSet(2, (), ()))
    game = PolynomialGame((2, 1), (Polynomial.zero(3),) * 2, SemialgebraicSet(3, (), ()))
    assert game.block_range(1) == range(2, 3)
    assert game.degree == 0


def test_contains_many_matches_pointwise_membership():
    """The batched test agrees with ``contains`` and with a direct check of
    every constraint, also within ``tol`` of the boundary."""
    tol = 1e-9
    one = Polynomial.constant(2, 1.0)
    x1, x2 = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    simplex = add_ball_constraint(SemialgebraicSet(2, (x1, x2, one - x1 - x2), ()), 1.2)
    circle = SemialgebraicSet(2, (x1,), sphere_set(2).equalities)
    rng = np.random.default_rng(5)
    angles = rng.uniform(-np.pi / 2, np.pi / 2, 40)
    u = rng.uniform(0.1, 0.9, 40)
    offsets = np.array([-2.0, -0.5, 0.0, 0.5, 2.0]) * tol
    cases = (
        (simplex, np.vstack([
            rng.uniform(-0.2, 1.2, (200, 2)),
            # near x1 = 0 and near x1 + x2 = 1, off by a multiple of tol
            np.column_stack([np.tile(offsets, 8), u]),
            np.column_stack([u, 1.0 - u + np.tile(offsets, 8)]),
        ])),
        (circle, np.vstack([
            rng.uniform(-1.2, 1.2, (100, 2)),
            np.column_stack([np.cos(angles), np.sin(angles)]) * (1.0 + np.tile(offsets, 8))[:, None],
        ])),
    )
    for domain, points in cases:
        batch = domain.contains_many(points, tol)
        assert batch.dtype == bool and batch.shape == (len(points),)
        direct = [
            all(g.evaluate(p) >= -tol for g in domain.inequalities)
            and all(abs(h.evaluate(p)) <= tol for h in domain.equalities)
            for p in points
        ]
        assert batch.tolist() == direct
        assert batch.tolist() == [domain.contains(p, tol) for p in points]
        assert batch.any() and not batch.all()
        assert batch[-40:].any() and not batch[-40:].all()
