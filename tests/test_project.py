import dataclasses

import numpy as np
import pytest

from gamecert.certify import CertStatus, certify_monotone
from gamecert.games import quadratic_reference_game, regularize
from gamecert.polynomials import Polynomial
from gamecert.project import (
    GaugeInfeasible,
    ProjectionInfeasible,
    ProjectionSpec,
    game_distance,
    gauge,
    project,
)
from tests.conftest import unit_interval_game


def test_fig1_projection_distance(fig1_game):
    result = project(ProjectionSpec(fig1_game, 2, zero_sum=True, preserve_support=True))
    assert result.distance == pytest.approx(10.0, abs=1e-3)
    assert abs(result.game.payoffs[0].coeff((1, 1, 0))) <= 1e-4
    assert result.certificate.identity_residual <= 1e-6
    # zero-sum respected
    assert (result.game.payoffs[0] + result.game.payoffs[1]).max_abs_coeff() <= 1e-6
    # reported distance equals the recomputed coefficient norm
    recomputed, _ = game_distance(result.game, fig1_game)
    assert abs(recomputed - result.distance) <= 1e-8
    assert abs(result.epigraph_value - result.distance) <= 1e-6


def test_fig1_projection_output_is_certified(fig1_game):
    result = project(ProjectionSpec(fig1_game, 2, zero_sum=True, preserve_support=True))
    check = certify_monotone(result.game, 2)
    assert check.lam <= 1e-6


def test_fig1_concave_projection(fig1_game):
    # the multilinear structure forces the same binding coefficient
    result = project(ProjectionSpec(fig1_game, 2, kind="concave", preserve_support=True))
    assert result.distance == pytest.approx(10.0, abs=1e-3)


def test_projection_of_certified_game_is_identity(fig1_game):
    quad = quadratic_reference_game(fig1_game)
    result = project(ProjectionSpec(quad, 2, preserve_support=True))
    assert result.distance <= 1e-6
    for u, v in zip(result.game.payoffs, quad.payoffs):
        assert (u - v).max_abs_coeff() <= 1e-6


def test_projection_frozen_coefficient_infeasible(fig1_game):
    # pinning the coupling coefficient at 10 leaves no monotone zero-sum
    # candidate at any level
    spec = ProjectionSpec(
        fig1_game, 2, zero_sum=True, preserve_support=True,
        frozen=((0, (1, 1, 0)), (1, (1, 1, 0))),
    )
    with pytest.raises(ProjectionInfeasible):
        project(spec)


@pytest.mark.parametrize("name, level, parent_distance", [
    ("fig1", 2, 9.999999999999709),
    ("fig3", 6, 49.000000000008214),
])
def test_zero_sum_projection_is_exactly_zero_sum(request, name, level, parent_distance):
    # player 1's coefficients are minus player 0's parameters, so the sum
    # cancels exactly rather than to solver tolerance
    game = request.getfixturevalue(f"{name}_game")
    result = project(ProjectionSpec(game, level, zero_sum=True, preserve_support=True))
    u0, u1 = result.game.payoffs
    assert all(u0.coeff(m) + u1.coeff(m) == 0.0 for m in set(u0.terms) | set(u1.terms))
    assert result.payoff_deltas[0] == result.payoff_deltas[1]
    assert result.certificate.identity_residual <= 1e-6
    # within 1e-8 (1 + |v|) of the distance the equality-row program found
    assert result.distance == pytest.approx(parent_distance, rel=0, abs=1e-8 * (1 + parent_distance))
    assert [p for p in result.certificate.params if p.startswith("u1")] == []


@pytest.mark.parametrize("name, level, distinct", [("fig1", 2, 14), ("fig3", 6, 20)])
def test_zero_sum_epigraph_adds_each_inequality_once(monkeypatch, request, name, level, distinct):
    # the references are zero-sum, so player 1's |c - ref| <= dist pair is
    # player 0's; 28 and 40 epigraph memberships collapse to 14 and 20
    import gamecert.project as gproject

    programs, solve_audited = [], gproject.solve_audited

    def spy(program, options):
        programs.append(program)
        return solve_audited(program, options)

    monkeypatch.setattr(gproject, "solve_audited", spy)
    game = request.getfixturevalue(f"{name}_game")
    result = project(ProjectionSpec(game, level, zero_sum=True, preserve_support=True))
    (program,) = programs
    epigraph = [(mem.base, mem.param_polys) for mem in program.memberships if mem.level == 0]
    assert len(epigraph) == distinct
    assert len({(base.coeff(()), tuple((n, p.coeff(())) for n, p in pairs)) for base, pairs in epigraph}) == distinct
    assert len(result.certificate.memberships) == 1 + distinct


def test_zero_sum_partner_of_a_frozen_coefficient_is_fixed(fig1_game):
    spec = ProjectionSpec(fig1_game, 2, zero_sum=True, preserve_support=True, frozen=((1, (1, 0, 1)),))
    result = project(spec)
    assert result.game.payoffs[1].coeff((1, 0, 1)) == -2.0
    assert result.game.payoffs[0].coeff((1, 0, 1)) == 2.0
    assert "u0[1,0,1]" not in result.certificate.params
    u0, u1 = result.game.payoffs
    assert all(u0.coeff(m) + u1.coeff(m) == 0.0 for m in set(u0.terms) | set(u1.terms))
    assert result.distance == pytest.approx(10.0, abs=1e-6)


def test_projection_validation(fig1_game, driver_game):
    with pytest.raises(ValueError):
        ProjectionSpec(driver_game, 2, zero_sum=True)
    with pytest.raises(ValueError):
        ProjectionSpec(fig1_game, 2, kind="sideways")


def test_fig3_projection_distance(fig3_game):
    result = project(ProjectionSpec(fig3_game, 6, zero_sum=True, preserve_support=True))
    assert result.distance == pytest.approx(49.0, abs=0.5)
    # the quadratic coefficient must vanish for monotonicity near x = 0
    assert abs(result.game.payoffs[0].coeff((2, 0))) <= 1e-3 * 49


def test_gauge_values(fig1_game):
    assert gauge(fig1_game, 2) == pytest.approx(5.0, abs=1e-3)
    convex = unit_interval_game({(2,): 3.0, (1,): -4.0})
    assert gauge(convex, 2) == pytest.approx(3.0, abs=1e-3)
    quad = quadratic_reference_game(fig1_game)
    assert gauge(quad, 2) == pytest.approx(0.0, abs=1e-6)


def test_gauge_halves_certified_bound(fig1_game, driver_game, fig3_game):
    # shifting by the quadratic game moves the bound by -2 eps, so the gauge
    # is max(0, bound/2), from the very same certify program
    for game, level in ((fig1_game, 2), (driver_game, 2), (fig3_game, 6)):
        assert gauge(game, level) == max(0.0, certify_monotone(game, level).lam / 2)
    # driver is strictly monotone at level 2: its gauge is exactly zero
    assert gauge(driver_game, 2) == 0.0


def test_gauge_consistency_with_certification(fig1_game):
    eps = gauge(fig1_game, 2)
    result = certify_monotone(regularize(fig1_game, 2 * eps + 1e-4), 2)
    assert result.status in (CertStatus.CERTIFIED, CertStatus.STRICTLY_CERTIFIED)


def test_gauge_infeasible_without_archimedean_route():
    from gamecert.games import PolynomialGame, SemialgebraicSet

    cubic = PolynomialGame(
        (1,), (Polynomial(1, {(3,): 1 / 6}),), SemialgebraicSet(1, (), ())
    )
    with pytest.raises(GaugeInfeasible):
        gauge(cubic, 3)


def test_gauge_bisection_cross_check(fig1_game):
    # independent route: bisect the smallest eps with a certified shift
    direct = gauge(fig1_game, 2)
    lo, hi = 0.0, 8.0
    for _ in range(24):
        mid = 0.5 * (lo + hi)
        lam = certify_monotone(regularize(fig1_game, 2 * mid + 1e-9), 2).lam
        if lam <= 1e-7:
            hi = mid
        else:
            lo = mid
    assert direct == pytest.approx(hi, abs=1e-3)


def test_gauge_certificate_is_audited(monkeypatch, fig1_game, fig3_game):
    import gamecert.certify
    from gamecert.sos import extract_certificate

    audited = []

    def spy(comp, solution, **kwargs):
        cert = extract_certificate(comp, solution, **kwargs)
        audited.append(cert)
        return cert

    monkeypatch.setattr(gamecert.certify, "extract_certificate", spy)
    for game, level in ((fig1_game, 2), (fig3_game, 6)):
        value = gauge(game, level)
        cert = audited.pop()
        assert value == max(0.0, cert.params["lam"] / 2)
        assert cert.identity_residual <= 1e-6
        assert [j for j, _, _ in cert.memberships[0].gram_matrices][0] == 0


def test_gauge_rejects_corrupted_certificate(monkeypatch, fig1_game):
    import gamecert.certify
    from gamecert.sos import CertificateRejected, round_onto_rows

    def corrupt(comp, solution):
        rounded = round_onto_rows(comp, solution)
        blocks = [G.copy() for G in rounded.primal_blocks]
        blocks[0][0, 0] += 0.5
        return dataclasses.replace(rounded, primal_blocks=blocks)

    monkeypatch.setattr(gamecert.certify, "round_onto_rows", corrupt)
    with pytest.raises(CertificateRejected):
        gauge(fig1_game, 2)
