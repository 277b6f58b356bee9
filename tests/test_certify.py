import dataclasses
import math

import numpy as np
import pytest

from gamecert.certify import (
    CertStatus,
    certify_concave,
    certify_monotone,
    extended_domain,
    monotone_target,
    run_hierarchy,
    usable_solution,
)
from gamecert.games import PolynomialGame, SemialgebraicSet, box_set, regularize
from gamecert.oracles import jacobi_eigenvalues
from gamecert.polynomials import Polynomial
from gamecert.sdp import solve
from gamecert.sos import (
    PSD_SLACK,
    CertificateRejected,
    SosMembership,
    SosProgram,
    compile_program,
    extract_certificate,
    round_onto_rows,
)


def quadratic_game_from_matrix(M, box=(-1.0, 1.0)):
    """One variable per player with payoffs u_i = (1/2) M_ii x_i^2 +
    sum_{j != i} M_ij x_i x_j, so the symmetrized Jacobian is exactly M."""
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    payoffs = []
    for i in range(n):
        terms = {}
        e = [0] * n
        e[i] = 2
        terms[tuple(e)] = 0.5 * M[i, i]
        for j in range(n):
            if j == i:
                continue
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0.0) + M[i, j]
        payoffs.append(Polynomial(n, terms))
    return PolynomialGame((1,) * n, tuple(payoffs), box_set([box] * n))


def test_driver_monotone(driver_game):
    result = certify_monotone(driver_game, 2)
    assert result.status == CertStatus.STRICTLY_CERTIFIED
    assert result.lam == pytest.approx(-6.0, abs=1e-4)
    assert result.certificate.identity_residual <= 1e-6


def test_fig1_monotone(fig1_game):
    result = certify_monotone(fig1_game, 2)
    assert result.status == CertStatus.INCONCLUSIVE
    assert result.lam == pytest.approx(10.0, abs=1e-3)


def test_driver_concave_equals_monotone(driver_game):
    # single player: the own-block Hessian is the symmetrized Jacobian
    result = certify_concave(driver_game, 2)
    assert result.lam == pytest.approx(-6.0, abs=1e-4)
    assert result.status == CertStatus.STRICTLY_CERTIFIED
    assert result.per_player == [(0, pytest.approx(-6.0, abs=1e-4))]


def test_zero_game_concave_certified():
    zero = PolynomialGame((1, 1), (Polynomial.zero(2),) * 2, box_set([(0, 1)] * 2))
    result = certify_concave(zero, 2)
    assert result.status == CertStatus.CERTIFIED
    assert abs(result.lam) <= 1e-6


def test_fig1_concave_per_player(fig1_game):
    result = certify_concave(fig1_game, 2)
    assert result.status == CertStatus.INCONCLUSIVE
    assert result.lam == pytest.approx(10.0, abs=1e-3)
    players = dict(result.per_player)
    assert players[0] == pytest.approx(10.0, abs=1e-3)
    assert abs(players[1]) <= 1e-6


def test_hierarchy_flat_for_constant_jacobian(driver_game, fig1_game):
    for game, value in ((driver_game, -6.0), (fig1_game, 10.0)):
        results = run_hierarchy(game, range(2, 5), kind="monotone")
        lams = [r.lam for r in results]
        assert all(l == pytest.approx(value, abs=1e-3) for l in lams)
        for a, b in zip(lams, lams[1:]):
            assert b <= a + 1e-6


def test_constant_jacobian_exactness():
    rng = np.random.default_rng(19)
    for _ in range(5):
        n = int(rng.integers(2, 4))
        A = rng.standard_normal((n, n))
        M = -(A @ A.T) - 0.1 * np.eye(n)
        game = quadratic_game_from_matrix(M)
        result = certify_monotone(game, 2)  # the target of a quadratic game is quadratic
        oracle = float(jacobi_eigenvalues(M)[-1])
        assert result.lam == pytest.approx(oracle, abs=1e-6)
        assert result.status == CertStatus.STRICTLY_CERTIFIED


def test_regularize_shift_and_strictification(fig1_game):
    base = certify_monotone(fig1_game, 2)
    shifted = certify_monotone(regularize(fig1_game, 0.1), 2)
    assert shifted.lam == pytest.approx(base.lam - 0.1, abs=1e-6)

    zero = PolynomialGame((1, 1), (Polynomial.zero(2),) * 2, box_set([(0, 1)] * 2))
    certified = certify_monotone(zero, 2)
    assert certified.status == CertStatus.CERTIFIED
    eps = 1e-3  # > 2 * STRICT_TOL
    strict = certify_monotone(regularize(zero, eps), 2)
    assert strict.status == CertStatus.STRICTLY_CERTIFIED
    assert strict.lam == pytest.approx(certified.lam - eps, abs=1e-6)


def test_level_below_target_degree_rejected(fig1_game):
    with pytest.raises(ValueError):
        certify_monotone(fig1_game, 1)


def test_run_hierarchy_records_level_errors(fig1_game):
    results = run_hierarchy(fig1_game, [1, 2], kind="monotone")
    assert results[0].status == CertStatus.INCONCLUSIVE
    assert "failed" in results[0].diagnostic
    assert results[1].status == CertStatus.INCONCLUSIVE
    assert results[1].lam == pytest.approx(10.0, abs=1e-3)


def test_run_hierarchy_rejects_an_unknown_kind(monkeypatch, fig1_game):
    import gamecert.certify as gcertify

    def no_level(*args, **kwargs):
        raise AssertionError("no level may run")

    monkeypatch.setattr(gcertify, "certify_monotone", no_level)
    monkeypatch.setattr(gcertify, "certify_concave", no_level)
    with pytest.raises(ValueError, match="^unknown kind 'monotnoe'$"):
        run_hierarchy(fig1_game, [2], kind="monotnoe")


def test_cubic_game_is_infeasible_at_level_three():
    # the payoff x^3/6 has Jacobian x, so lam - x y^2 must be nonnegative on
    # the whole line times the sphere: no bound lam exists
    cubic = PolynomialGame((1,), (Polynomial(1, {(3,): 1 / 6}),), SemialgebraicSet(1, (), ()))
    result = certify_monotone(cubic, 3)
    assert result.lam == math.inf
    assert result.status == CertStatus.INFEASIBLE
    assert result.solver.status == "PrimalInfeasible"
    assert result.certificate is None
    assert result.diagnostic == "no decomposition at any bound"


@pytest.mark.slow
def test_deg4_level_6_strictly_certified(deg4_game):
    # about 90 s and 0.8 GB on one OpenBLAS thread
    result = certify_monotone(deg4_game, 6)
    assert result.status == CertStatus.STRICTLY_CERTIFIED, result.diagnostic
    assert result.lam <= -0.9999155 and result.solver.status == "Optimal"


def test_upper_bound_property_sampling(fig1_game, driver_game):
    from gamecert.oracles import sample_max_eigenvalue

    for game, level in ((fig1_game, 2), (driver_game, 2)):
        result = certify_monotone(game, level)
        report = sample_max_eigenvalue(game, n_samples=2000)
        assert result.lam + 1e-6 >= report.max_value


def test_rounding_repairs_a_feasible_iterate_the_audit_rejects(deg4_game):
    """The solver's feasibility test is relative: on deg4 at level 4 the
    target coefficients reach 112.38 with unit row scales, so
    ``usable_solution`` admits absolute coefficient mismatches up to about
    1.1e-5, while the certificate audit rejects anything above 1e-6.  A
    fixed Gram perturbation inside that band must fail the audit as it
    stands and pass it after rounding onto the coefficient rows, with the
    bound untouched."""
    domain = extended_domain(deg4_game.domain, deg4_game.n_vars)
    # the bound is held at -0.5, above its optimum near -1, so the live Gram
    # directions are strictly inside the cone and the check is about the rows;
    # lam + 0.5 >= 0 is a degree-0 membership over no variables
    program = SosProgram(
        memberships=(
            SosMembership(monotone_target(deg4_game), domain, 4,
                          (("lam", Polynomial.constant(domain.n_vars, 1.0)),)),
            SosMembership(Polynomial.constant(0, 0.5), SemialgebraicSet(0), 0,
                          (("lam", Polynomial.constant(0, 1.0)),)),
        ),
        params=("lam",),
        objective=(("lam", 1.0),),
    )
    problem, comp = compile_program(program)
    sol = solve(problem)
    assert usable_solution(sol)
    lam = float(sol.free_values[comp.param_index("lam")])

    perturbed = []
    for G in sol.primal_blocks:
        live = np.diag(G) != 0
        perturbed.append(G + 1e-6 * np.outer(live, live))
    noisy = dataclasses.replace(sol, primal_blocks=perturbed)

    with pytest.raises(CertificateRejected) as rejected:
        extract_certificate(comp, noisy)
    assert 1e-6 < rejected.value.residual <= 1.1e-5

    cert = extract_certificate(comp, round_onto_rows(comp, noisy))
    assert cert.identity_residual <= 1e-8
    assert cert.params == {"lam": lam}
    for mem in cert.memberships:
        for _, _, G in mem.gram_matrices:
            assert float(np.linalg.eigvalsh(G)[0]) >= -PSD_SLACK
