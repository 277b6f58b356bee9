"""Acceptance criteria, one test per criterion, each printing a PASS line
with the measured values.  All runs are offline against the bundled corpus.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import hashlib
import time

import numpy as np
import pytest

from gamecert.certify import CertStatus, certify_monotone
from gamecert.games import (
    PolynomialGame,
    add_ball_constraint,
    box_set,
    regularize,
)
from gamecert.oracles import jacobi_eigenvalues, sample_max_eigenvalue
from gamecert.polynomials import Polynomial, monomials_upto
from gamecert.project import ProjectionSpec, gauge, project
from gamecert.sdp import Free, Gram, SdpProblem, SdpStatus, export_sdpa, import_sdpa, make_coo, solve
from tests.conftest import certify_deg4_in_child, unit_interval_game


def report(criterion: int, text: str):
    print(f"[acceptance] criterion {criterion}: PASS — {text}")


def test_criterion_1_driver_strictly_monotone(driver_game):
    t0 = time.perf_counter()
    result = certify_monotone(driver_game, 2)
    elapsed = time.perf_counter() - t0
    assert result.lam == pytest.approx(-6.0, abs=1e-4)
    assert result.status == CertStatus.STRICTLY_CERTIFIED
    assert elapsed < 0.5
    report(1, f"driver level 2: lambda={result.lam:.6f}, {result.status.value}, {elapsed:.3f}s")


def test_criterion_2_fig1_inconclusive(fig1_game):
    t0 = time.perf_counter()
    result = certify_monotone(fig1_game, 2)
    elapsed = time.perf_counter() - t0
    assert result.lam == pytest.approx(10.0, abs=1e-3)
    assert result.status == CertStatus.INCONCLUSIVE
    assert elapsed < 1.0
    report(2, f"fig1 level 2: lambda={result.lam:.6f}, {result.status.value}, {elapsed:.3f}s")


def test_criterion_3_fig1_projection(fig1_game):
    t0 = time.perf_counter()
    result = project(ProjectionSpec(fig1_game, 2, zero_sum=True, preserve_support=True))
    elapsed = time.perf_counter() - t0
    assert result.distance == pytest.approx(10.0, abs=1e-3)
    assert result.certificate.identity_residual <= 1e-6
    coupling = abs(result.game.payoffs[0].coeff((1, 1, 0)))
    assert coupling <= 1e-4
    assert elapsed < 2.0
    report(3, f"fig1 projection: distance={result.distance:.6f}, "
              f"x1x2 coeff={coupling:.2e}, residual={result.certificate.identity_residual:.2e}, "
              f"{elapsed:.3f}s")


def test_criterion_4_deg4_strictly_monotone(deg4_game):
    t0 = time.perf_counter()
    result = certify_monotone(deg4_game, 4)
    elapsed = time.perf_counter() - t0
    assert result.lam == pytest.approx(-1.0, abs=1e-2)
    assert result.status == CertStatus.STRICTLY_CERTIFIED
    assert elapsed < 60.0
    report(4, f"deg4 level 4: lambda={result.lam:.6f}, {result.status.value}, {elapsed:.2f}s")


def test_criterion_4_on_two_blas_threads():
    # criterion 4 under two OpenBLAS threads, whatever the host's default
    result = certify_deg4_in_child(2)
    assert result["status"] == CertStatus.STRICTLY_CERTIFIED.value, result["diagnostic"]
    assert result["lam"] <= -0.9999155 and result["solver"] == "Optimal"
    report(4, f"deg4 level 4 on 2 BLAS threads: lambda={result['lam']:.6f}, {result['status']}")


def test_criterion_5_fig3_projection(fig3_game):
    t0 = time.perf_counter()
    levels_tried = []
    result = None
    for level in (6, 8):
        candidate = project(ProjectionSpec(fig3_game, level, zero_sum=True, preserve_support=True))
        levels_tried.append((level, candidate.distance))
        if abs(candidate.distance - 49.0) <= 0.5:
            result = candidate
            break
    elapsed = time.perf_counter() - t0
    if result is None:
        print(f"[acceptance] criterion 5: distance-vs-level table: {levels_tried}")
    assert result is not None, f"no level reached 49 +/- 0.5: {levels_tried}"
    assert elapsed < 30.0
    report(5, f"fig3 projection: distance={result.distance:.4f} at level {result.level}, {elapsed:.2f}s")


def test_criterion_6_deg8_sdpa_round_trip(deg8_game, tmp_path):
    from gamecert.certify import extended_domain, monotone_target
    from gamecert.sos import compile_program, membership_problem

    t0 = time.perf_counter()
    base = monotone_target(deg8_game)
    domain = extended_domain(deg8_game.domain, 4)
    program = membership_problem(
        base, domain, 8,
        param_polys=[("lam", Polynomial.constant(domain.n_vars, 1.0))],
        objective=[("lam", 1.0)],
    )
    problem, _ = compile_program(program)
    path = tmp_path / "deg8.dat-s"
    export_sdpa(problem, str(path))
    back = import_sdpa(str(path))
    assert back == problem
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "e86970fa0dae4ec9ded03fafcb941fae27a5d4008f55e8e4cb93d800d9bdd2b3"
    path2 = tmp_path / "deg8_again.dat-s"
    export_sdpa(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()
    elapsed = time.perf_counter() - t0
    report(6, f"deg8 SDPA export: blocks={problem.block_dims}, m={problem.n_constraints}, "
              f"bit-exact round trip, {elapsed:.1f}s")


def test_criterion_7_efg_fidelity(driver_tree, fig1_tree):
    from gamecert.efg import efg_to_game, expected_utility_at
    from gamecert.polynomials import allclose

    driver_game, dmap = efg_to_game(driver_tree)
    assert allclose(driver_game.payoffs[0], Polynomial(1, {(2,): -3.0, (1,): 4.0}), 1e-12)
    fig1_game, fmap = efg_to_game(fig1_tree)
    u1 = Polynomial(3, {
        (1, 1, 0): 10.0, (1, 0, 1): 2.0, (0, 1, 1): 2.0,
        (1, 0, 0): -6.0, (0, 1, 0): -6.0, (0, 0, 1): -2.0, (0, 0, 0): 1.0,
    })
    assert allclose(fig1_game.payoffs[0], u1, 1e-12)
    assert allclose(fig1_game.payoffs[1], -u1, 1e-12)

    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    for tree, game, vmap in ((driver_tree, driver_game, dmap), (fig1_tree, fig1_game, fmap)):
        for _ in range(100):
            assignment = {
                infoset: rng.dirichlet(np.ones(k)).tolist()
                for infoset, (_, k, _) in vmap.entries.items()
            }
            tree_values = expected_utility_at(tree, assignment)
            point = vmap.point_from_assignment(assignment)
            for i, u in enumerate(game.payoffs):
                worst = max(worst, abs(u.evaluate(point) - tree_values[i]))
    assert worst <= 1e-10
    report(7, f"tree conversions coefficient-exact; worst evaluation gap {worst:.2e} over 200 strategies")


def test_criterion_8_hierarchy_properties():
    rng = np.random.default_rng(0x5EED)
    basis = monomials_upto(2, 4)
    worst_mono, worst_bound, worst_shift = -np.inf, -np.inf, 0.0
    t0 = time.perf_counter()
    for trial in range(20):
        payoffs = tuple(
            Polynomial(2, {m: float(rng.uniform(-1, 1)) for m in basis})
            for _ in range(2)
        )
        domain = add_ball_constraint(box_set([(0.0, 1.0)] * 2), float(np.sqrt(2.0)))
        game = PolynomialGame((1, 1), payoffs, domain)
        r4 = certify_monotone(game, 4)
        r5 = certify_monotone(game, 5)
        shifted = certify_monotone(regularize(game, 0.25), 4)
        sampled = sample_max_eigenvalue(game, n_samples=10_000, seed=0x5EED + trial)
        worst_mono = max(worst_mono, r5.lam - r4.lam)
        worst_bound = max(worst_bound, sampled.max_value - r4.lam)
        worst_shift = max(worst_shift, abs((r4.lam - 0.25) - shifted.lam))
        assert r5.lam <= r4.lam + 1e-6
        assert r4.lam + 1e-6 >= sampled.max_value
        assert abs((r4.lam - 0.25) - shifted.lam) <= 1e-6
    elapsed = time.perf_counter() - t0
    report(8, f"20 random games: max level increase {worst_mono:.2e}, "
              f"max sampled excess {worst_bound:.2e}, worst shift error {worst_shift:.2e}, {elapsed:.1f}s")


def _dense_gram(rows):
    """``Gram`` entries of the upper triangles of symmetric matrices, given
    as (row, block, M) triples."""
    return make_coo(Gram, [(r, b, i, j, float(M[i, j])) for r, b, M in rows
                           for i, j in zip(*np.triu_indices(len(M))) if M[i, j] != 0])


def test_criterion_9_sdp_solver_suite():
    rng = np.random.default_rng(0xC0FFEE)
    t0 = time.perf_counter()
    worst_gap = worst_res = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        mcon = int(rng.integers(2, 21))
        A = [0.5 * (lambda B: B + B.T)(rng.standard_normal((k, k))) for _ in range(mcon)]
        X0 = (lambda B: B @ B.T + np.eye(k))(rng.standard_normal((k, k)))
        y0 = rng.standard_normal(mcon)
        S0 = (lambda B: B @ B.T + np.eye(k))(rng.standard_normal((k, k)))
        C = S0 + sum(y0[i] * A[i] for i in range(mcon))
        sol = solve(SdpProblem(
            (k,), 0, _dense_gram((i, 0, A[i]) for i in range(mcon)), make_coo(Free),
            [float(np.tensordot(A[i], X0)) for i in range(mcon)], [False] * mcon,
            _dense_gram([(0, 0, C)]), make_coo(Free),
        ))
        assert sol.status == SdpStatus.OPTIMAL
        worst_gap = max(worst_gap, sol.relative_gap)
        worst_res = max(worst_res, sol.primal_residual)
    assert worst_gap <= 1e-7 and worst_res <= 1e-7

    worst_eig = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 13))
        A = 0.5 * (lambda B: B + B.T)(rng.standard_normal((k, k)) * 3)
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        sol = solve(SdpProblem(
            (k,), 1, make_coo(Gram, [(r, 0, i, j, 1.0) for r, (i, j) in enumerate(pairs)]),
            make_coo(Free, [(r, 0, -1.0) for r, (i, j) in enumerate(pairs) if i == j]),
            [-(1.0 if i == j else 2.0) * A[i, j] for i, j in pairs], [False] * len(pairs),
            make_coo(Gram), make_coo(Free, [(0, 0, 1.0)]),
        ))
        assert sol.status == SdpStatus.OPTIMAL
        worst_eig = max(worst_eig, abs(float(sol.free_values[0]) - float(jacobi_eigenvalues(A)[-1])))
    assert worst_eig <= 1e-6

    infeasible = solve(SdpProblem(
        (2,), 0, make_coo(Gram, [(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0)]), make_coo(Free), [-1.0], [False],
        make_coo(Gram), make_coo(Free),
    ))
    assert infeasible.status == SdpStatus.PRIMAL_INFEASIBLE
    elapsed = time.perf_counter() - t0
    report(9, f"100 feasible SDPs: gap<={worst_gap:.2e}, res<={worst_res:.2e}; "
              f"50 eigenvalue probes: |err|<={worst_eig:.2e}; infeasible probe classified; {elapsed:.1f}s")


def test_criterion_10_gauge_values(fig1_game):
    t0 = time.perf_counter()
    g_fig1 = gauge(fig1_game, 2)
    assert g_fig1 == pytest.approx(5.0, abs=1e-3)
    convex = unit_interval_game({(2,): 3.0, (1,): -4.0})
    g_convex = gauge(convex, 2)
    assert g_convex == pytest.approx(3.0, abs=1e-3)

    # cross-validate both by bisection over certification of shifted games
    for game, direct in ((fig1_game, g_fig1), (convex, g_convex)):
        lo, hi = 0.0, 8.0
        for _ in range(24):
            mid = 0.5 * (lo + hi)
            lam = certify_monotone(regularize(game, 2 * mid + 1e-9), 2).lam
            if lam <= 1e-7:
                hi = mid
            else:
                lo = mid
        assert direct == pytest.approx(hi, abs=1e-3)
    elapsed = time.perf_counter() - t0
    report(10, f"gauge(fig1)={g_fig1:.6f}, gauge(3x^2-4x)={g_convex:.6f}, "
               f"both bisection-validated, {elapsed:.1f}s")
