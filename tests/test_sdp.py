import math
import os

import numpy as np
import pytest

from gamecert import sdp
from gamecert.oracles import jacobi_eigenvalues
from gamecert.sdp import (
    Free,
    Gram,
    SdpConstraint,
    SdpProblem,
    SdpStatus,
    SolveOptions,
    export_sdpa,
    import_sdpa,
    make_coo,
    SdpaParseError,
    solve,
)


def coo_problem(dims, n_free=0, gram=(), free=(), rhs=(), le=None, obj_gram=(), obj_free=()):
    """An SdpProblem from ``make_coo`` entry tuples, the objective's with
    row 0; every row is "=" unless ``le`` marks it."""
    return SdpProblem(dims, n_free, make_coo(Gram, gram), make_coo(Free, free), rhs,
                      [False] * len(rhs) if le is None else le, make_coo(Gram, obj_gram), make_coo(Free, obj_free))


def dense_entries(row, block, M):
    """``Gram`` entry tuples of the upper triangle of the symmetric matrix
    ``M``, as block ``block`` of row ``row``."""
    return [(row, block, i, j, float(M[i, j])) for i, j in zip(*np.triu_indices(len(M))) if M[i, j] != 0]


def lambda_max_problem(A):
    """min lam s.t. lam*I - A PSD, with lam a free scalar."""
    pairs = [(i, j) for i in range(len(A)) for j in range(i, len(A))]
    return coo_problem(
        (len(A),), 1, [(r, 0, i, j, 1.0) for r, (i, j) in enumerate(pairs)],
        [(r, 0, -1.0) for r, (i, j) in enumerate(pairs) if i == j],
        [-(1.0 if i == j else 2.0) * A[i, j] for i, j in pairs], obj_free=[(0, 0, 1.0)],
    )


def random_feasible_problem(rng):
    k = int(rng.integers(2, 9))
    mcon = int(rng.integers(2, 21))
    A = [0.5 * (lambda B: B + B.T)(rng.standard_normal((k, k))) for _ in range(mcon)]
    X0 = (lambda B: B @ B.T + np.eye(k))(rng.standard_normal((k, k)))
    y0 = rng.standard_normal(mcon)
    S0 = (lambda B: B @ B.T + np.eye(k))(rng.standard_normal((k, k)))
    C = S0 + sum(y0[i] * A[i] for i in range(mcon))
    b = [float(np.tensordot(A[i], X0)) for i in range(mcon)]
    return coo_problem((k,), 0, [e for i in range(mcon) for e in dense_entries(i, 0, A[i])], rhs=b,
                   obj_gram=dense_entries(0, 0, C))


def random_block_problem(rng, dims, n_le=0, n_free=0):
    """Strictly feasible primal-dual pair over blocks of sizes ``dims``; the
    last ``n_le`` of its rows are '<=' rows, which become 1x1 slack blocks,
    and ``n_free`` free columns are dense in every row."""
    mcon = 8 + n_le
    pd = lambda d: (lambda B: B @ B.T + np.eye(d))(rng.standard_normal((d, d)))
    A = [[(lambda B: B + B.T)(rng.standard_normal((d, d))) for d in dims] for _ in range(mcon)]
    X0 = [pd(d) for d in dims]
    y0 = rng.standard_normal(mcon)
    y0[mcon - n_le:] = -0.1 - np.abs(y0[mcon - n_le:])  # slack duals stay interior
    C = [pd(d) + sum(y0[i] * A[i][b] for i in range(mcon)) for b, d in enumerate(dims)]
    le = [i >= mcon - n_le for i in range(mcon)]
    rhs = [sum(float(np.tensordot(A[i][b], X0[b])) for b in range(len(dims))) + (1.0 if le[i] else 0.0)
           for i in range(mcon)]
    F, u0 = rng.standard_normal((mcon, n_free)), rng.standard_normal(n_free)
    return coo_problem(
        tuple(dims), n_free, [e for i in range(mcon) for b in range(len(dims)) for e in dense_entries(i, b, A[i][b])],
        [(i, k, float(F[i, k])) for i in range(mcon) for k in range(n_free)], rhs=list(rhs + F @ u0), le=le,
        obj_gram=[e for b in range(len(dims)) for e in dense_entries(0, b, C[b])],
        obj_free=[(0, k, float(c)) for k, c in enumerate(F.T @ y0)],
    )


def permute_blocks(prob, perm):
    """The same program with block ``perm[k]`` stored at position k."""
    new = np.argsort(perm)
    move = lambda gram: gram._replace(block=new[gram.block])
    return SdpProblem(
        tuple(prob.block_dims[b] for b in perm), prob.n_free, move(prob.gram), prob.free,
        prob.rhs, prob.le, move(prob.obj_gram), prob.obj_free,
    )


def merge_blocks(prob):
    """The same program as one block-diagonal block."""
    offset = np.cumsum((0,) + prob.block_dims)
    merge = lambda gram: gram._replace(
        block=0 * gram.block, i=gram.i + offset[gram.block], j=gram.j + offset[gram.block]
    )
    return SdpProblem(
        (int(offset[-1]),), prob.n_free, merge(prob.gram), prob.free,
        prob.rhs, prob.le, merge(prob.obj_gram), prob.obj_free,
    )


@pytest.mark.parametrize("dims, n_le, perm", [
    ((3, 2, 3, 4), 2, (3, 1, 2, 0)),  # a repeated size, lone sizes, 1x1 slacks
    ((2, 3, 4), 0, (2, 0, 1)),  # every size distinct
    ((3, 3, 3), 0, (1, 2, 0)),  # every size equal
])
def test_block_order_invariance(dims, n_le, perm):
    prob = random_block_problem(np.random.default_rng(sum(dims)), dims, n_le)
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert len(sol.primal_blocks) == len(dims)
    permuted = solve(permute_blocks(prob, perm))
    assert permuted.status == sol.status
    assert permuted.primal_objective == pytest.approx(sol.primal_objective, abs=1e-9)
    for k, b in enumerate(perm):
        assert permuted.primal_blocks[k].shape == (dims[b], dims[b])
        assert np.allclose(permuted.primal_blocks[k], sol.primal_blocks[b], atol=1e-6)
    # oracle: one block-diagonal block holds the same program
    whole = solve(merge_blocks(prob))
    assert whole.status == SdpStatus.OPTIMAL
    assert whole.primal_objective == pytest.approx(sol.primal_objective, abs=1e-6)


@pytest.mark.parametrize("n_free", [0, 2], ids=["nf0", "nf2"])
@pytest.mark.parametrize("dims", [(3, 2, 3, 4), (2, 3, 4)], ids=["permuted", "sorted"])
def test_gram_factor_gives_the_rotated_schur_complement(monkeypatch, dims, n_free):
    monkeypatch.setattr(sdp, "ROTATE_CHUNK", 40)  # 5 columns of the 8 rows at a time
    prob = random_block_problem(np.random.default_rng(5), dims, n_free=n_free)
    data = sdp._Dense(prob)
    assert (data.slots != sorted(data.slots)) == (dims == (3, 2, 3, 4))  # the grouping permutes
    rng = np.random.default_rng(6)
    Lx = [np.tril(rng.standard_normal(I.shape)) for I in data.I]
    LsInv = [np.tril(rng.standard_normal(I.shape)) for I in data.I]
    B = data.gram_factor(Lx, LsInv)
    # reference: M_ij = tr(A_i X A_j S^-1) block by block, on the unrotated rows
    A = np.zeros((prob.n_constraints, len(dims), max(dims), max(dims)))
    A[prob.gram.row, prob.gram.block, prob.gram.i, prob.gram.j] = prob.gram.value
    A[prob.gram.row, prob.gram.block, prob.gram.j, prob.gram.i] = prob.gram.value
    M = sum(
        np.einsum("ipq,qr,jrs,sp->ij", A[:, b, :d, :d], L @ L.T, A[:, b, :d, :d], Li.T @ Li)
        for b, (d, L, Li) in enumerate(zip(dims, data.unstack(Lx), data.unstack(LsInv)))
    )
    Qf = np.eye(prob.n_constraints) if data.Qf is None else data.Qf
    assert (data.Qf is None) == (n_free == 0)
    ref = Qf.T @ M @ Qf
    np.testing.assert_allclose(B @ B.T, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
    # the free columns touch only the first n_free rotated rows
    assert np.all(data.F[n_free:] == 0)
    # the duals come back in the original rows: F^T y = c_f there
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    F = np.zeros((prob.n_constraints, n_free))
    F[prob.free.row, prob.free.col] = prob.free.value
    cf = np.zeros(n_free)
    cf[prob.obj_free.col] = prob.obj_free.value
    assert np.abs(F.T @ sol.dual_values - cf).max(initial=0.0) <= 1e-12 * (1 + np.abs(cf).max(initial=0.0))


def test_paired_step_bound_matches_eigvalsh():
    rng = np.random.default_rng(11)
    # positive definite X and S paired in (2, k, d, d) stacks, one per size
    P = [(lambda B: B @ np.swapaxes(B, -1, -2) + np.eye(d))(rng.standard_normal((2, k, d, d)))
         for d, k in ((3, 2), (2, 4))]
    D = [(lambda B: B + np.swapaxes(B, -1, -2))(rng.standard_normal(Pg.shape)) for Pg in P]
    Linv = [np.linalg.inv(np.linalg.cholesky(Pg)) for Pg in P]
    steps = sdp._max_step(Linv, D)
    for side in (0, 1):
        lam = min(
            float(np.linalg.eigvalsh(Li @ Dm @ Li.T)[0])
            for Lg, Dg in zip(Linv, D) for Li, Dm in zip(Lg[side], Dg[side])
        )
        assert lam < 0
        assert steps[side] == pytest.approx(-1.0 / lam, rel=1e-12)
        # the bound is where the first block turns singular
        low = min(float(np.linalg.eigvalsh(Pg[side] + steps[side] * Dg[side]).min()) for Pg, Dg in zip(P, D))
        assert abs(low) < 1e-9
    # a PSD direction on one side never bounds its step
    for Dg in D:
        Dg[1] = Dg[1] @ Dg[1]
    steps = sdp._max_step(Linv, D)
    assert steps[1] == math.inf and steps[0] < math.inf


def test_back_off_shrinks_only_the_failing_side():
    Z = [np.broadcast_to(np.eye(d), (2, k, d, d)) for d, k in ((3, 2), (2, 4))]
    # X + a*dX is positive definite only for a < 0.5; S + a*dS always is
    D = [np.stack([-2.0 * Zg[0], Zg[1]]) for Zg in Z]
    trial, factors, alpha = sdp._back_off(Z, D, np.array([1.0, 1.0]))
    assert alpha.tolist() == [1.0 * 0.8 * 0.8 * 0.8 * 0.8, 1.0]
    for T, Lf, Zg, Dg in zip(trial, factors, Z, D):
        assert np.array_equal(T, Zg + alpha[:, None, None, None] * Dg)
        assert np.array_equal(Lf, np.linalg.cholesky(T))
    # 39 failures on one side still give a step; 40 end the descent
    for half_steps, fails in ((77, False), (79, True)):
        D = [np.stack([Zg[0], -0.8 ** (-half_steps / 2) * Zg[1]]) for Zg in Z]
        if fails:
            with pytest.raises(sdp._Stall) as stall:
                sdp._back_off(Z, D, np.array([1.0, 1.0]))
            assert stall.value.args == (SdpStatus.NUMERICAL_FAILURE, "step length collapsed")
        else:
            _, _, alpha = sdp._back_off(Z, D, np.array([1.0, 1.0]))
            assert alpha[0] == 1.0 and alpha[1] == pytest.approx(0.8 ** 39, rel=1e-12)


def recorded_descent(monkeypatch):
    """Count the Schur builds of the descents that follow, and record the
    count at each stall: the first re-centers, the second ends the descent."""
    builds, stalls = [0], []
    real = sdp._Dense.gram_factor

    def gram_factor(self, Lx, LsInv):
        builds[0] += 1
        return real(self, Lx, LsInv)

    class Stall(sdp._Stall):
        def __init__(self, *args):
            super().__init__(*args)
            stalls.append(builds[0])

    monkeypatch.setattr(sdp._Dense, "gram_factor", gram_factor)
    monkeypatch.setattr(sdp, "_Stall", Stall)
    return builds, stalls


@pytest.fixture(scope="module")
def unsplit_deg4(deg4_game):
    """deg4 at level 4 compiled as it is, to be solved without the split:
    its Gram bases keep the square of the first sphere variable, and its
    descent still stalls."""
    from gamecert.certify import bound_program, target
    from gamecert.sos import compile_program

    return compile_program(bound_program(*target(deg4_game), 4))[0]


def test_fig3_converges_without_recentering(monkeypatch, fig3_game):
    from gamecert.certify import certify_monotone

    _, stalls = recorded_descent(monkeypatch)
    result = certify_monotone(fig3_game, 6)
    assert result.solver.status == "Optimal" and stalls == []
    assert result.lam == pytest.approx(118.0, abs=1e-6)


def test_recentered_descent_shares_the_budget(monkeypatch, unsplit_deg4):
    # two short steps in a row re-center the descent, and two more end it;
    # max_iterations caps both phases, and a cap inside the re-centered one
    # stops the descent there with the first phase's best iterate
    builds, stalls = recorded_descent(monkeypatch)
    full = solve(unsplit_deg4)
    assert full.status == SdpStatus.ITERATION_LIMIT
    assert len(stalls) == 2 and stalls[1] == builds[0]
    recentered, total = stalls[0], builds[0]
    assert recentered + 1 < total
    for cap in (recentered - 1, recentered + 1, total - 1):
        builds[0], stalls[:] = 0, []
        capped = solve(unsplit_deg4, SolveOptions(max_iterations=cap))
        assert capped.status == SdpStatus.ITERATION_LIMIT
        assert builds[0] == cap and stalls == ([recentered] if cap > recentered else [])
    assert (capped.iterations, capped.relative_gap) == (full.iterations, full.relative_gap)


def test_recentering_keeps_a_better_first_phase(monkeypatch, unsplit_deg4):
    from tests.conftest import certify_deg4_in_child

    # the first phase's best feasible iterate comes before the re-centering
    # and its gap stalls near 5e-5; the re-centered phase never beats it, so
    # the solve reports it bit for bit, as a cap just past it does
    _, stalls = recorded_descent(monkeypatch)
    full = solve(unsplit_deg4)
    assert full.status == SdpStatus.ITERATION_LIMIT and full.iterations < stalls[0]
    first_phase = solve(unsplit_deg4, SolveOptions(max_iterations=full.iterations + 1))
    for name in ("status", "iterations", "primal_objective", "relative_gap", "message"):
        assert getattr(full, name) == getattr(first_phase, name), name
    assert np.array_equal(full.free_values, first_phase.free_values)
    # the split drops that square from the Gram bases, and deg4 converges:
    # its bound, pinned on one OpenBLAS thread
    child = certify_deg4_in_child(1)
    assert child["lam"] == -0.9999165429921003 and child["solver"] == "Optimal"


def test_recentering_certifies_a_stalled_game():
    from gamecert.certify import ACCEPT_STALLED_GAP, CertStatus, certify_monotone
    from gamecert.games import PolynomialGame, add_ball_constraint, box_set
    from gamecert.polynomials import Polynomial, monomials_upto

    # draw 11 of the criterion-8 stream of default_rng(7)
    rng = np.random.default_rng(7)
    basis = monomials_upto(2, 4)
    for _ in range(12):
        payoffs = tuple(
            Polynomial(2, {m: float(rng.uniform(-1, 1)) for m in basis}) for _ in range(2)
        )
    domain = add_ball_constraint(box_set([(0.0, 1.0)] * 2), float(np.sqrt(2.0)))
    result = certify_monotone(PolynomialGame((1, 1), payoffs, domain), 4)
    # the first phase stalls above ACCEPT_STALLED_GAP; the re-centered one
    # reaches a feasible iterate far below it
    assert result.solver.relative_gap < ACCEPT_STALLED_GAP
    assert max(result.solver.primal_residual, result.solver.dual_residual) <= SolveOptions().tol
    assert result.status == CertStatus.STRICTLY_CERTIFIED


def failing_max_step(monkeypatch, at_call):
    """Make call ``at_call`` of ``sdp._max_step`` raise what numpy's
    ``eigvalsh`` raises on a NaN block of order 3 or more."""
    real, calls = sdp._max_step, []

    def max_step(Linv, D):
        calls.append(None)
        if len(calls) == at_call:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return real(Linv, D)

    monkeypatch.setattr(sdp, "_max_step", max_step)


def test_breakdown_without_a_feasible_iterate_is_classified(monkeypatch, driver_game):
    from gamecert.certify import certify_monotone

    failing_max_step(monkeypatch, 1)
    result = certify_monotone(driver_game, 2)
    assert result.solver.status == SdpStatus.NUMERICAL_FAILURE
    assert "Eigenvalues did not converge" in result.diagnostic


def test_breakdown_after_a_feasible_iterate_re_centers(monkeypatch, driver_game):
    from gamecert.certify import CertStatus, certify_monotone

    # by the 9th step bound the descent holds a feasible iterate: the
    # breakdown re-centers from it, and the re-centered phase converges
    failing_max_step(monkeypatch, 9)
    result = certify_monotone(driver_game, 2)
    assert result.solver.status == SdpStatus.OPTIMAL
    assert result.lam == pytest.approx(-6.0, abs=1e-6)
    assert result.status == CertStatus.STRICTLY_CERTIFIED


def forced_zero_reference(problem):
    """Forced-zero elimination row by row, each row seeing the columns
    removed by the rows before it: (dead columns per block, active rows,
    infeasible)."""
    removed = [set() for _ in problem.block_dims]
    g, m = problem.gram, problem.n_constraints
    entries = [list(zip(*(a[g.row == r].tolist() for a in g[1:]))) for r in range(m)]
    has_free = np.bincount(problem.free.row, minlength=m) > 0
    active = [True] * m
    changed = True
    while changed:
        changed = False
        for r in range(m):
            if not active[r]:
                continue
            live = [(b, i, j, v) for b, i, j, v in entries[r] if i not in removed[b] and j not in removed[b]]
            if not live and not has_free[r]:
                active[r] = False
                if abs(problem.rhs[r]) > 1e-30:
                    return removed, active, True
                changed = True
            elif not has_free[r] and abs(problem.rhs[r]) <= 1e-30 and all(i == j for _, i, j, _ in live):
                if len({v > 0 for *_, v in live}) == 1:
                    for b, i, _, _ in live:
                        removed[b].add(i)
                    active[r] = False
                    changed = True
    return removed, active, False


def test_facial_reduction_matches_row_by_row_elimination(fig3_game, deg4_game):
    from gamecert.certify import bound_program, concave_target, extended_domain, monotone_target
    from gamecert.sdp import _facial_reduction
    from gamecert.sos import compile_program

    cases = [
        bound_program(monotone_target(fig3_game), extended_domain(fig3_game.domain, fig3_game.n_vars), 6),
        bound_program(monotone_target(deg4_game), extended_domain(deg4_game.domain, deg4_game.n_vars), 4),
        bound_program(concave_target(deg4_game, 0), extended_domain(deg4_game.domain, deg4_game.block_sizes[0]), 4),
    ]
    for program in cases:
        problem = compile_program(program)[0].to_equality_form()
        removed, active, infeasible = forced_zero_reference(problem)
        reduction = _facial_reduction(problem)
        assert not infeasible and reduction is not None
        assert any(removed)
        for b, (start, d) in enumerate(zip(reduction.off, problem.block_dims)):
            kept = reduction.block[start:start + d] >= 0
            assert np.flatnonzero(kept).tolist() == [i for i in range(d) if i not in removed[b]]
        assert reduction.rows.tolist() == [r for r, a in enumerate(active) if a]
    # an unreachable nonzero coefficient is infeasible either way
    prob = coo_problem((2,), 0, [(0, 0, 0, 0, 1.0), (1, 0, 0, 0, 1.0), (1, 0, 0, 1, 1.0)], rhs=[0.0, 1.0])
    assert forced_zero_reference(prob)[2] and _facial_reduction(prob) is None


def test_every_block_dead_keeps_the_unreduced_problem():
    from gamecert.games import box_set
    from gamecert.polynomials import Polynomial
    from gamecert.sdp import _facial_reduction
    from gamecert.sos import compile_program, membership_problem, solve_split

    # a zero target on [0, 1] forces every Gram column to zero
    problem, comp = compile_program(membership_problem(Polynomial.zero(1), box_set([(0, 1)]), 2))
    reduction = _facial_reduction(problem.to_equality_form())
    assert reduction.problem == problem.to_equality_form()
    assert reduction.rows.tolist() == list(range(problem.n_constraints))
    sol = solve_split(problem, comp)
    assert sol.status == SdpStatus.OPTIMAL
    assert max(float(np.max(np.abs(G))) for G in sol.primal_blocks) < 1e-8
    assert len(sol.dual_values) == problem.n_constraints


def test_minimum_eigenvalue_probe():
    prob = coo_problem((2,), 0, [(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0)], rhs=[1.0],
                   obj_gram=[(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 2.0)])
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(sol.primal_blocks[0], np.diag([1.0, 0.0]), atol=1e-5)


def test_lambda_max_probe():
    A = np.array([[0.0, 10.0], [10.0, 0.0]])
    sol = solve(lambda_max_problem(A))
    assert sol.status == SdpStatus.OPTIMAL
    # oracle: dense symmetric eigensolver
    assert float(sol.free_values[0]) == pytest.approx(jacobi_eigenvalues(A)[-1], abs=1e-6)


def test_primal_infeasible_probe():
    prob = coo_problem((2,), 0, [(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0)], rhs=[-1.0])
    sol = solve(prob)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE


def test_structurally_unreachable_target_is_primal_infeasible():
    # X[1,1] = 0 kills row and column 1, so 2 X[0,1] = 1 has nothing left
    prob = coo_problem((2,), 0, [(0, 0, 1, 1, 1.0), (1, 0, 0, 1, 1.0)], rhs=[0.0, 1.0])
    sol = solve(prob)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE
    assert sol.message == "a target coefficient is structurally unreachable"


def test_unbounded_probe():
    # min -X11 with only X22 pinned: objective unbounded below
    prob = coo_problem((2,), 0, [(0, 0, 1, 1, 1.0)], rhs=[1.0], obj_gram=[(0, 0, 0, 0, -1.0)])
    sol = solve(prob)
    assert sol.status == SdpStatus.DUAL_INFEASIBLE


def test_no_constraints():
    psd = coo_problem((2,), 0, obj_gram=[(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 2.0)])
    sol = solve(psd)
    assert sol.status == SdpStatus.OPTIMAL
    assert sol.primal_objective == 0.0 and not sol.primal_blocks[0].any()
    indefinite = coo_problem((2,), 0, obj_gram=[(0, 0, 0, 0, 1.0), (0, 0, 1, 1, -1.0)])
    assert solve(indefinite).status == SdpStatus.DUAL_INFEASIBLE
    free = coo_problem((2,), 1, obj_free=[(0, 0, 1.0)])
    assert solve(free).status == SdpStatus.DUAL_INFEASIBLE


def free_columns_problem(n_free, obj_free):
    """X + u_1 + ... + u_n = 1 on a 1x1 block, minimizing ``obj_free . u``."""
    return SdpProblem(
        (1,), n_free, make_coo(Gram, [(0, 0, 0, 0, 1.0)]),
        make_coo(Free, [(0, k, 1.0) for k in range(n_free)]), [1.0], [False],
        make_coo(Gram), make_coo(Free, [(0, k, c) for k, c in enumerate(obj_free)]),
    )


def test_free_columns_filling_the_rows(capfd):
    # one free column per row leaves an empty reduced Schur system
    assert solve(free_columns_problem(1, [1.0])).status == SdpStatus.DUAL_INFEASIBLE
    sol = solve(free_columns_problem(1, [-1.0]))
    assert sol.status == SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(-1.0, abs=1e-8)
    # more free columns than rows cannot be independent
    sol = solve(free_columns_problem(2, [1.0, 0.0]))
    assert sol.status == SdpStatus.NUMERICAL_FAILURE
    assert sol.message == "free-variable columns are linearly dependent"
    assert capfd.readouterr().err == ""  # no LAPACK complaint either


@pytest.mark.parametrize("rel", ["=", "<="])
def test_every_row_reduced_away_keeps_one_dual_per_row(rel):
    # X[1,1] (plus a slack for "<=") = 0 forces column 1 out, and the row with it
    prob = coo_problem((2,), 0, [(0, 0, 1, 1, 1.0)], rhs=[0.0], le=[rel == "<="],
                   obj_gram=[(0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0)])
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert len(sol.dual_values) == prob.n_constraints
    assert [G.shape for G in sol.primal_blocks] == [(2, 2)]


def test_inequality_rows_via_slack():
    # min -x11 s.t. x11 <= 3 (as a 1x1 block)
    prob = coo_problem((1,), 0, [(0, 0, 0, 0, 1.0)], rhs=[3.0], le=[True], obj_gram=[(0, 0, 0, 0, -1.0)])
    sol = solve(prob)
    assert sol.status == SdpStatus.OPTIMAL
    assert sol.primal_objective == pytest.approx(-3.0, abs=1e-6)


def test_weak_duality_and_suite():
    rng = np.random.default_rng(100)
    for _ in range(25):
        prob = random_feasible_problem(rng)
        sol = solve(prob)
        assert sol.status == SdpStatus.OPTIMAL
        assert sol.relative_gap <= 1e-7
        assert sol.primal_residual <= 1e-7
        assert sol.primal_objective >= sol.dual_objective - 1e-9 * (1 + abs(sol.primal_objective))


def test_determinism():
    rng = np.random.default_rng(55)
    prob = random_feasible_problem(rng)
    a = solve(prob)
    b = solve(prob)
    assert a.primal_objective == b.primal_objective
    assert a.iterations == b.iterations
    assert all((x == y).all() for x, y in zip(a.primal_blocks, b.primal_blocks))
    assert (a.dual_values == b.dual_values).all()


def test_validation():
    with pytest.raises(ValueError):
        coo_problem((0,), 0)
    with pytest.raises(ValueError, match="at least one PSD block"):
        coo_problem((), 1, free=[(0, 0, 1.0)], rhs=[1.0], obj_free=[(0, 0, 1.0)])
    with pytest.raises(ValueError):
        coo_problem((2,), 0, obj_gram=[(0, 0, 0, 3, 1.0)])
    with pytest.raises(ValueError):
        coo_problem((2,), 0, rhs=[math.nan])


def test_canonical_form_folds_sums_and_drops():
    # (1, 0) folds onto (0, 1), the two (0, 0) entries and the two free
    # entries are summed, and (1, 1) and the objective cancel to exact zeros
    prob = coo_problem(
        (2,), 2, [(0, 0, 1, 0, 3.0), (0, 0, 0, 0, 1.0), (0, 0, 1, 1, 1.0), (0, 0, 0, 0, 0.5), (0, 0, 1, 1, -1.0)],
        [(0, 0, 1.0), (0, 0, 1.0)], [2.0], obj_free=[(0, 1, 2.0), (0, 1, -2.0)],
    )
    entries = lambda coo: list(zip(*(a.tolist() for a in coo)))
    assert entries(prob.gram) == [(0, 0, 0, 0, 1.5), (0, 0, 0, 1, 3.0)]
    assert entries(prob.free) == [(0, 0, 2.0)]
    assert len(prob.obj_free.value) == 0
    assert prob == coo_problem((2,), 2, [(0, 0, 0, 1, 3.0), (0, 0, 0, 0, 1.5)], [(0, 0, 2.0)], [2.0])


def test_equality_is_exact_and_a_bool():
    A = np.array([[0.0, 10.0], [10.0, 0.0]])
    a, b = lambda_max_problem(A), lambda_max_problem(A)
    assert (a == b) is True and (a != b) is False
    nudged = A.copy()
    nudged[0, 1] = nudged[1, 0] = np.nextafter(10.0, 11.0)
    assert (a == lambda_max_problem(nudged)) is False
    le = SdpProblem(a.block_dims, a.n_free, a.gram, a.free, a.rhs, ~a.le, a.obj_gram, a.obj_free)
    assert (a == le) is False
    assert (a == "not a problem") is False


def test_constraints_view_returns_input_rows():
    prob = coo_problem((2, 1), 2, [(0, 0, 0, 0, 1.0), (0, 0, 0, 1, 2.0), (0, 1, 0, 0, -1.0), (2, 1, 0, 0, 4.0)],
                   [(0, 1, 0.5), (1, 0, 1.0)], [3.0, 0.0, -1.0, 0.0], [True, False, False, False])
    assert prob.n_constraints == 4
    assert prob.constraints == (
        SdpConstraint(((0, ((0, 0, 1.0), (0, 1, 2.0))), (1, ((0, 0, -1.0),))), ((1, 0.5),), 3.0, "<="),
        SdpConstraint((), ((0, 1.0),), 0.0, "="),
        SdpConstraint(((1, ((0, 0, 4.0),)),), (), -1.0, "="),
        SdpConstraint((), (), 0.0, "="),
    )


@pytest.mark.parametrize("game, level", [("fig3", 6), ("deg4", 4)])
def test_constraints_view_holds_every_stored_entry(request, game, level):
    from gamecert.certify import bound_program, target
    from gamecert.sos import compile_program

    p, _ = compile_program(bound_program(*target(request.getfixturevalue(f"{game}_game")), level))
    assert (sum(len(e) for c in p.constraints for _, e in c.blocks) + sum(len(c.free) for c in p.constraints)
            == len(p.gram.value) + len(p.free.value))


# canonical entries of a problem with blocks (3, 2), 2 free variables and 4 rows
CANON_GRAM = [(0, 0, 0, 0, 1.0), (0, 0, 0, 2, 2.0), (0, 1, 1, 1, 3.0), (1, 0, 1, 1, 4.0), (3, 1, 0, 1, 5.0)]
CANON_FREE = [(0, 1, 1.0), (2, 0, 2.0), (2, 1, 3.0)]


def canonical_variant(variant):
    gram, free = list(CANON_GRAM), list(CANON_FREE)
    if variant == "zero":
        gram[1], free[1] = (0, 0, 0, 2, 0.0), (2, 0, 0.0)
    elif variant == "duplicate":
        gram.insert(2, (0, 0, 0, 2, 0.5))
        free.insert(2, (2, 0, -0.5))
    elif variant == "transposed":
        gram[1] = (0, 0, 2, 0, 2.0)
    elif variant == "reversed":
        gram.reverse()
        free.reverse()
    elif variant == "empty":
        gram, free = [], []
    return sdp.make_coo(sdp.Gram, gram), sdp.make_coo(sdp.Free, free)


@pytest.mark.parametrize("variant", ["canonical", "zero", "duplicate", "transposed", "reversed", "empty"])
@pytest.mark.parametrize("read_only", [False, True])
def test_canonical_fast_path_matches_sorting(variant, read_only):
    gram, free = canonical_variant(variant)
    if read_only:
        for a in (*gram, *free):
            a.setflags(write=False)
    got = sdp.canonical((3, 2), 2, 4, gram, free)
    # a leading zero entry at the last key sends the same data down the sorting path
    sort_gram = sdp.concat_coo([sdp.make_coo(sdp.Gram, [(3, 1, 1, 1, 0.0)]), gram])
    sort_free = sdp.concat_coo([sdp.make_coo(sdp.Free, [(3, 1, 0.0)]), free])
    want = sdp.canonical((3, 2), 2, 4, sort_gram, sort_free)
    for a, b in zip((*got[0], *got[1]), (*want[0], *want[1])):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert not a.flags.writeable
    for a, b in zip((*gram, *free), (*got[0], *got[1])):
        assert a.flags.writeable != read_only
        if variant in ("canonical", "empty"):
            assert (a is b) == read_only  # kept as it is, or copied
        elif not read_only:
            assert a is not b


def test_canonical_copies_writable_input():
    gram, free = canonical_variant("canonical")
    prob = SdpProblem((3, 2), 2, gram, free, np.ones(4), np.zeros(4, bool), *canonical_variant("empty"))
    same = SdpProblem((3, 2), 2, *canonical_variant("canonical"), np.ones(4), np.zeros(4, bool),
                                  *canonical_variant("empty"))
    for a in (*gram, *free):
        assert a.flags.writeable
        a[...] = 0
    assert prob == same
    assert prob.gram.value.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]


def test_validation_of_arrays():
    def build(gram=(), free=(), rhs=(0.0,)):
        return SdpProblem(
            (2,), 1, make_coo(Gram, gram), make_coo(Free, free), rhs, [False] * len(rhs),
            make_coo(Gram), make_coo(Free),
        )

    assert build([(0, 0, 1, 0, 1.0)]).gram.i.tolist() == [0]
    with pytest.raises(ValueError, match="block index 1"):
        build([(0, 1, 0, 0, 1.0)])
    with pytest.raises(ValueError, match="outside 2x2"):
        build([(0, 0, 0, 2, 1.0)])
    with pytest.raises(ValueError, match="non-finite matrix entry"):
        build([(0, 0, 0, 0, math.inf)])
    with pytest.raises(ValueError, match="free-variable index 1"):
        build(free=[(0, 1, 1.0)])
    with pytest.raises(ValueError, match="non-finite free coefficient"):
        build(free=[(0, 0, math.nan)])
    with pytest.raises(ValueError, match="non-finite right-hand side"):
        build(rhs=[math.inf])


def test_sdpa_round_trip_lambda_max(tmp_path):
    A = np.array([[0.0, 10.0], [10.0, 0.0]])
    prob = lambda_max_problem(A)
    path = tmp_path / "lm.dat-s"
    export_sdpa(prob, str(path))
    back = import_sdpa(str(path))
    assert back == prob
    # bit-exact second generation
    path2 = tmp_path / "lm2.dat-s"
    export_sdpa(back, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_sdpa_round_trip_empty_constraints(tmp_path):
    prob = coo_problem((3,), 0, obj_gram=[(0, 0, 0, 0, 1.0)])
    path = tmp_path / "empty.dat-s"
    export_sdpa(prob, str(path))
    lines = [l for l in path.read_text().splitlines() if l.strip()]
    # header (3 lines) + empty rhs + objective entry
    assert lines[0] == "0"
    back = import_sdpa(str(path))
    assert back == prob


def test_sdpa_inequality_converted_on_export(tmp_path):
    prob = coo_problem((1,), 0, [(0, 0, 0, 0, 1.0)], rhs=[3.0], le=[True], obj_gram=[(0, 0, 0, 0, -1.0)])
    path = tmp_path / "ineq.dat-s"
    export_sdpa(prob, str(path))
    back = import_sdpa(str(path))
    assert back.block_dims == (1, 1)  # slack block appended
    assert not back.le.any()
    assert back == prob.to_equality_form()


def test_sdpa_certification_round_trip(tmp_path, fig1_game):
    from gamecert.certify import extended_domain, monotone_target
    from gamecert.polynomials import Polynomial
    from gamecert.sos import compile_program, membership_problem

    base = monotone_target(fig1_game)
    dom = extended_domain(fig1_game.domain, 3)
    program = membership_problem(
        base, dom, 2,
        param_polys=[("lam", Polynomial.constant(dom.n_vars, 1.0))],
        objective=[("lam", 1.0)],
    )
    prob, _ = compile_program(program)
    path = tmp_path / "fig1.dat-s"
    export_sdpa(prob, str(path))
    back = import_sdpa(str(path))
    assert back == prob


def test_sdpa_parse_errors(tmp_path):
    bad = tmp_path / "bad.dat-s"
    bad.write_text("2\n1\n2\n0.0 0.0\n1 1 1 5 1.0\n")
    with pytest.raises(SdpaParseError) as err:
        import_sdpa(str(bad))
    assert "line 5" in str(err.value)
    bad.write_text("x\n")
    with pytest.raises(SdpaParseError):
        import_sdpa(str(bad))


SDPA_LINES = [
    '"two rows, one 2x2 block and one free scalar',
    "2 = mDIM",
    "2 = nBLOCK",
    "{2, -1}",
    "1.0, 2.0",
    "* objective: the free scalar",
    "0 2 1 1 1.0",
    "1 1 1 1 1.0",
    "",
    "1 1 1 2 0.5",
    "* row 2",
    "2 1 2 2 1.0",
    "2 2 1 1 -1.0",
]


def test_sdpa_comments_and_punctuation_parse(tmp_path):
    path = tmp_path / "ok.dat-s"
    path.write_text("\n".join(SDPA_LINES) + "\n")
    prob = import_sdpa(str(path))
    assert prob == coo_problem((2,), 1, [(0, 0, 0, 0, 1.0), (0, 0, 0, 1, 0.5), (1, 0, 1, 1, 1.0)], [(1, 0, -1.0)],
                           [1.0, 2.0], obj_free=[(0, 0, 1.0)])


PARSE_ERRORS = [
    (10, "1 1 1 2", "expected 5 fields, got 4"),
    (12, "2 1 2 2 1.0 7", "expected 5 fields, got 6"),
    (10, "1 1 1.5 2 0.5", "malformed entry line"),
    (8, "1 1 1 1 x", "malformed entry line"),
    (10, "1 1 1 99999999999999999999 0.5", "malformed entry line"),
    (12, "3 1 2 2 1.0", "matrix number 3 out of range"),
    (7, "-1 2 1 1 1.0", "matrix number -1 out of range"),
    (13, "2 3 1 1 -1.0", "block number 3 out of range"),
    (8, "1 0 1 1 1.0", "block number 0 out of range"),
    (10, "1 1 1 3 0.5", "indices (1,3) outside 2x2 block"),
    (12, "2 1 0 2 1.0", "indices (0,2) outside 2x2 block"),
    (13, "2 2 1 2 -1.0", "free block entries must be diagonal"),
    (7, "0 2 2 2 1.0", "free index 2 out of range"),
    (5, "1.0", "expected 2 rhs values, got 1"),
    (5, "1.0 2.0 3.0", "expected 2 rhs values, got 3"),
    (8, "1 1 1 1 nan", "non-finite value"),
    (10, "1 1 1 2 1e999", "non-finite value"),
    (13, "2 2 1 1 -inf", "non-finite value"),
    (5, "1.0, nan", "rhs values must be finite"),
    (5, "-1e999 2.0", "rhs values must be finite"),
    (8, "1 1 1 1 1_0", "malformed entry line"),  # float() alone would read 10
    (5, "1_0 2.0", "rhs values must be numeric"),
]


@pytest.mark.parametrize("line_no, text, complaint", PARSE_ERRORS)
def test_sdpa_parse_error_reports_its_line(tmp_path, line_no, text, complaint):
    lines = list(SDPA_LINES)
    lines[line_no - 1] = text
    path = tmp_path / "bad.dat-s"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(SdpaParseError) as err:
        import_sdpa(str(path))
    assert err.value.line_no == line_no
    assert str(err.value) == f"line {line_no}: {complaint}"


def small_chunks(monkeypatch, chars):
    """Read SDPA entry lines about ``chars`` characters at a time."""
    monkeypatch.setattr(sdp, "_LINE_CHARS", 1)
    monkeypatch.setattr(sdp, "SDPA_CHUNK", chars)


def test_sdpa_chunk_boundaries_change_no_result(tmp_path, monkeypatch):
    path = tmp_path / "ok.dat-s"
    path.write_text("\n".join(SDPA_LINES) + "\n")
    expected = import_sdpa(str(path))
    # the first chunk ends on each line in turn, so a boundary falls
    # before, between and after the comment and the blank line in the body
    for chars in range(1, len(path.read_text()) + 2):
        small_chunks(monkeypatch, chars)
        assert import_sdpa(str(path)) == expected
    for chars in (1, 7, 20, 45):
        small_chunks(monkeypatch, chars)
        for line_no, text, complaint in PARSE_ERRORS:
            lines = list(SDPA_LINES)
            lines[line_no - 1] = text
            bad = tmp_path / "bad.dat-s"
            bad.write_text("\n".join(lines) + "\n")
            with pytest.raises(SdpaParseError) as err:
                import_sdpa(str(bad))
            assert (err.value.line_no, str(err.value)) == (line_no, f"line {line_no}: {complaint}")


def test_sdpa_parse_error_wins_over_an_earlier_range_error(tmp_path, monkeypatch):
    lines = list(SDPA_LINES)
    lines[6] = "-1 2 1 1 1.0"  # out of range, line 7
    lines[12] = "2 2 1 x -1.0"  # malformed, line 13
    path = tmp_path / "bad.dat-s"
    path.write_text("\n".join(lines) + "\n")
    for chars in (1, 40, 10_000):
        small_chunks(monkeypatch, chars)
        with pytest.raises(SdpaParseError, match="^line 13: malformed entry line$"):
            import_sdpa(str(path))


@pytest.mark.parametrize("game", ["fig1", "deg4"])
def test_sdpa_export_chunks_change_no_byte(tmp_path, monkeypatch, request, game):
    from gamecert.certify import extended_domain, monotone_target
    from gamecert.polynomials import Polynomial
    from gamecert.sos import compile_program, membership_problem

    g = request.getfixturevalue(f"{game}_game")
    dom = extended_domain(g.domain, g.n_vars)
    prob, _ = compile_program(membership_problem(
        monotone_target(g), dom, 4,
        param_polys=[("lam", Polynomial.constant(dom.n_vars, 1.0))], objective=[("lam", 1.0)],
    ))
    whole = tmp_path / "whole.dat-s"
    export_sdpa(prob, str(whole))
    for lines in (1, 3, 7):
        monkeypatch.setattr(sdp, "SDPA_CHUNK", lines)
        chunked = tmp_path / f"chunked{lines}.dat-s"
        export_sdpa(prob, str(chunked))
        assert chunked.read_bytes() == whole.read_bytes()
        assert import_sdpa(str(chunked)) == prob


# leading characters that str.isspace accepts, below "+" or from "\x85" on
LEADS = [" ", "\t", "\x0c", "\x1c", "\x85", "\xa0", "\u3000"]


def decorated(lines):
    """``lines`` with every other body line led by one of ``LEADS``, a line
    of those characters alone after each body line, and the line number
    each original line moves to."""
    out, moved = list(lines[:5]), list(range(1, 6))
    for k, text in enumerate(lines[5:]):
        out.append(LEADS[k % len(LEADS)] * (k % 2) + text)
        moved.append(len(out))
        out.append("".join(LEADS[k % len(LEADS):][:2]))
    return out, moved


def test_sdpa_space_led_lines_follow_the_per_line_rule(tmp_path, monkeypatch):
    plain = tmp_path / "plain.dat-s"
    plain.write_text("\n".join(SDPA_LINES) + "\n")
    expected = import_sdpa(str(plain))
    lines, moved = decorated(SDPA_LINES)
    path = tmp_path / "led.dat-s"
    path.write_text("\n".join(lines) + "\n")
    for chars in range(1, len(path.read_text()) + 2):
        small_chunks(monkeypatch, chars)
        assert import_sdpa(str(path)) == expected
    for chars in (1, 7, 20, 45, 10_000):
        small_chunks(monkeypatch, chars)
        for line_no, text, complaint in PARSE_ERRORS:
            bad_lines = list(SDPA_LINES)
            bad_lines[line_no - 1] = text
            lines, _ = decorated(bad_lines)
            bad = tmp_path / "bad.dat-s"
            bad.write_text("\n".join(lines) + "\n")
            with pytest.raises(SdpaParseError) as err:
                import_sdpa(str(bad))
            no = moved[line_no - 1]
            assert (err.value.line_no, str(err.value)) == (no, f"line {no}: {complaint}")


def test_sdpa_clean_chunks_skip_the_line_filter(tmp_path, monkeypatch):
    prob = distinct_value_problem()
    path = tmp_path / "clean.dat-s"
    export_sdpa(prob, str(path))
    filtered = []
    kept = sdp._kept
    monkeypatch.setattr(sdp, "_kept", lambda lines: filtered.append(len(lines)) or kept(lines))
    for chars in (40, 10_000):
        small_chunks(monkeypatch, chars)
        filtered.clear()
        assert import_sdpa(str(path)) == prob
        assert filtered == [1] * 4  # the header lines alone


def distinct_value_problem():
    """Rows with 1- to 3-digit indices and values from every decade."""
    values = [-2.5, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308, -1.7976931348623157e308,
              0.1, 1 / 3, -1 / 3, 2.0, 2.0, 1.0]
    rng = np.random.default_rng(5)
    dims, n_free, m = (2, 150, 9), 12, 120
    gram, free = [], []
    for r in range(-1, m):
        for b, d in enumerate(dims):
            i, j = sorted(rng.integers(d, size=2).tolist())
            n = len(gram)
            gram.append((r, b, i, j, values[n % len(values)] if n % 3 else float(rng.normal())))
        free.append((r, int(rng.integers(n_free)), float(rng.uniform(-1e5, 1e5))))
    obj_gram = sdp.make_coo(sdp.Gram, [(0, *e[1:]) for e in gram if e[0] < 0])
    obj_free = sdp.make_coo(sdp.Free, [(0, *e[1:]) for e in free if e[0] < 0])
    return SdpProblem(
        dims, n_free, sdp.make_coo(sdp.Gram, [e for e in gram if e[0] >= 0]),
        sdp.make_coo(sdp.Free, [e for e in free if e[0] >= 0]),
        rng.uniform(-3, 3, m), np.zeros(m, dtype=bool), obj_gram, obj_free)


def sdpa_text(prob):
    """The SDPA text of an equality-form problem, one line at a time."""
    sizes = list(prob.block_dims) + ([-prob.n_free] if prob.n_free else [])
    lines = [f"{prob.n_constraints}\n", f"{len(sizes)}\n", " ".join(map(str, sizes)) + "\n",
             " ".join("%.16e" % v for v in prob.rhs) + "\n"]
    rows = [(prob.obj_gram, prob.obj_free, 0)] + [(prob.gram, prob.free, r) for r in range(prob.n_constraints)]
    for matno, (gram, free, r) in enumerate(rows):
        for k in np.flatnonzero(gram.row == r):
            lines.append("%d %d %d %d %.16e\n" % (
                matno, gram.block[k] + 1, gram.i[k] + 1, gram.j[k] + 1, gram.value[k]))
        for k in np.flatnonzero(free.row == r):
            lines.append("%d %d %d %d %.16e\n" % (
                matno, len(prob.block_dims) + 1, free.col[k] + 1, free.col[k] + 1, free.value[k]))
    return "".join(lines)


def test_sdpa_export_tables_give_formatted_lines(tmp_path, monkeypatch):
    prob = distinct_value_problem()
    assert len(np.unique(prob.gram.value)) > 12 and prob.gram.i.max() >= 99
    objective_only = coo_problem((3,), 2, obj_gram=[(0, 0, 0, 0, 1 / 3), (0, 0, 0, 2, -5e-324)], obj_free=[(0, 1, 0.1)])
    chunks = (sdp.SDPA_CHUNK, 1, 7)
    for p in (prob, objective_only):
        for lines in chunks:
            monkeypatch.setattr(sdp, "SDPA_CHUNK", lines)
            path = tmp_path / "out.dat-s"
            export_sdpa(p, str(path))
            assert path.read_text() == sdpa_text(p)
            assert import_sdpa(str(path)) == p


# the SDPA manual's example1.dat-s (Fujisawa, Kojima & Nakata), verbatim
SDPA_EXAMPLE1 = """\
"Example 1: mDim = 3, nBLOCK = 1, {2}"
   3  =  mDIM
   1  =  nBOLCK
   2  = bLOCKsTRUCT
{48, -8, 20}
0 1 1 1 -11
0 1 2 2 23
1 1 1 1 10
1 1 1 2 4
2 1 2 2 -8
3 1 1 2 -8
3 1 2 2 -2
"""


def test_sdpa_manual_example_parses(tmp_path):
    path = tmp_path / "example1.dat-s"
    path.write_text(SDPA_EXAMPLE1)
    prob = import_sdpa(str(path))
    assert prob.n_constraints == 3 and prob.block_dims == (2,) and prob.n_free == 0
    assert prob.rhs.tolist() == [48.0, -8.0, 20.0]
    plain = tmp_path / "plain.dat-s"
    plain.write_text("3\n1\n2\n48 -8 20\n" + "".join(SDPA_EXAMPLE1.splitlines(True)[5:]))
    assert import_sdpa(str(plain)) == prob
    path.write_text(SDPA_EXAMPLE1.replace("{48, -8, 20}", "{48, -8}"))
    with pytest.raises(SdpaParseError, match="^line 5: expected 3 rhs values, got 2$"):
        import_sdpa(str(path))


def test_solution_invariant_on_optimal():
    rng = np.random.default_rng(77)
    opts = SolveOptions()
    for _ in range(5):
        sol = solve(random_feasible_problem(rng), opts)
        if sol.status == SdpStatus.OPTIMAL:
            assert max(sol.primal_residual, sol.dual_residual, sol.relative_gap) <= opts.tol
