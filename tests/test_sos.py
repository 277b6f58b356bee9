from dataclasses import replace

import numpy as np
import pytest

from gamecert.certify import concave_target, extended_domain, monotone_target
from gamecert.games import SemialgebraicSet, add_ball_constraint
from gamecert.polynomials import Polynomial
from gamecert.sdp import Restriction, SdpSolution, SdpStatus, solve
from gamecert.sos import (
    PSD_SLACK,
    CertificateRejected,
    CompileError,
    compile_program,
    extract_certificate,
    gram_basis,
    membership_problem,
    round_onto_rows,
    sign_symmetries,
    solve_split,
)


def driver_membership(level=2):
    """lam + 6 y^2 over [0,1] x sphere: the one-player quadratic example."""
    # extended space (x, y); target base = -y^T(-6)y = 6 y^2
    base = Polynomial(2, {(0, 2): 6.0})
    x = Polynomial.variable(2, 0)
    one = Polynomial.constant(2, 1.0)
    sphere = Polynomial(2, {(0, 0): 1.0, (0, 2): -1.0})
    domain = SemialgebraicSet(2, (x, one - x), (sphere,))
    return membership_problem(
        base, domain, level,
        param_polys=[("lam", Polynomial.constant(2, 1.0))],
        objective=[("lam", 1.0)],
    )


def test_gram_basis_examples():
    assert gram_basis(2, 0, 1) == [(0,), (1,)]
    assert gram_basis(2, 2, 1) == [(0,)]
    assert gram_basis(4, 0, 2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    with pytest.warns(UserWarning):
        assert gram_basis(1, 2, 1) == []


def test_gram_basis_monotone_in_level():
    sizes = [len(gram_basis(l, 1, 3)) for l in range(1, 9)]
    assert sizes == sorted(sizes)


def test_driver_membership_minimum():
    problem, comp = compile_program(driver_membership())
    sol = solve(problem)
    assert sol.status == SdpStatus.OPTIMAL
    lam = float(sol.free_values[comp.param_index("lam")])
    assert lam == pytest.approx(-6.0, abs=1e-6)
    cert = extract_certificate(comp, sol)
    assert cert.identity_residual <= 1e-8


def test_constant_one_is_member():
    domain = SemialgebraicSet(1, (Polynomial.variable(1, 0),), ())
    program = membership_problem(Polynomial.constant(1, 1.0), domain, 2)
    problem, comp = compile_program(program)
    sol = solve(problem)
    assert sol.status == SdpStatus.OPTIMAL
    cert = extract_certificate(comp, sol)
    assert cert.identity_residual <= 1e-8


def test_negative_constant_not_member():
    # -1 over the ball set has no decomposition: nothing in the module is
    # negative at the center
    ball = add_ball_constraint(SemialgebraicSet(1, (), ()), 1.0)
    program = membership_problem(Polynomial.constant(1, -1.0), ball, 2)
    problem, _ = compile_program(program)
    sol = solve(problem)
    assert sol.status == SdpStatus.PRIMAL_INFEASIBLE


def test_certificate_from_hand_built_solution():
    # lam = -6 with sigma_0 = 0, multiplier p0 = -6 solves the driver
    # identity exactly: lam + 6y^2 = (-6)(1 - y^2)
    problem, comp = compile_program(driver_membership())
    free = np.zeros(problem.n_free)
    p0 = next(m for m in comp.multipliers if m.equality == 0)
    const_pos = p0.basis.index((0, 0))
    free[p0.offset + const_pos] = -6.0
    free[comp.param_index("lam")] = -6.0
    fake = SdpSolution(
        status=SdpStatus.OPTIMAL,
        primal_blocks=[np.zeros((d, d)) for d in problem.block_dims],
        free_values=free,
    )
    cert = extract_certificate(comp, fake)
    assert cert.identity_residual == 0.0
    assert cert.params["lam"] == -6.0


def test_corrupted_gram_rejected():
    problem, comp = compile_program(driver_membership())
    sol = solve(problem)
    sol.primal_blocks[0][0, 0] += 1e-2
    with pytest.raises(CertificateRejected):
        extract_certificate(comp, sol)


@pytest.mark.parametrize("depth, rejected", [(2.0, True), (0.5, False)])
def test_psd_gate_of_extract_certificate(depth, rejected):
    problem, comp = compile_program(driver_membership())
    sol = round_onto_rows(comp, solve_split(problem, comp))
    # move the lowest eigenvalue of block 0 to -depth * PSD_SLACK, the
    # other eigenvalues kept
    G = sol.primal_blocks[0]
    low, vecs = np.linalg.eigh(G)
    sol.primal_blocks[0] = G + (-depth * PSD_SLACK - low[0]) * np.outer(vecs[:, 0], vecs[:, 0])
    if rejected:
        with pytest.raises(CertificateRejected, match=f"Gram block {comp.gram_blocks[0].multiplier} "):
            extract_certificate(comp, sol)
    else:
        cert = extract_certificate(comp, sol)
        assert cert.params["lam"] == pytest.approx(-6.0, abs=1e-6)


def test_soundness_random_points(fig1_game):
    from gamecert.certify import certify_monotone

    result = certify_monotone(fig1_game, 2)
    base = monotone_target(fig1_game)
    target = Polynomial.constant(base.n_vars, result.lam) + base
    mem = result.certificate.memberships[0]
    expansion = mem.expansion()
    # the symbolic residual is below tolerance; check again by evaluation
    rng = np.random.default_rng(41)
    scale = 1 + target.max_abs_coeff()
    for _ in range(100):
        pt = rng.uniform(-1, 1, 6)
        assert abs(target.evaluate(pt) - expansion.evaluate(pt)) <= 1e-5 * scale


def test_nonnegativity_witness(fig1_game):
    from gamecert.certify import certify_monotone
    from gamecert.games import symmetrized_jacobian

    result = certify_monotone(fig1_game, 2)
    js = symmetrized_jacobian(fig1_game)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.uniform(0, 1, 3)
        y = rng.standard_normal(3)
        y /= np.linalg.norm(y)
        value = result.lam - y @ js.evaluate_many([x])[0] @ y
        assert value >= -1e-6


def test_compile_rejects_overdegree_target():
    domain = SemialgebraicSet(1, (Polynomial.variable(1, 0),), ())
    with pytest.raises(ValueError):
        membership_problem(Polynomial(1, {(4,): 1.0}), domain, 2)


def test_compile_unmatchable_monomial():
    # degree-3 target over a constraint-free domain at level 3: the cubic
    # monomial cannot be reached by squares alone
    domain = SemialgebraicSet(1, (), ())
    program = membership_problem(Polynomial(1, {(3,): 1.0}), domain, 3)
    with pytest.raises(CompileError):
        compile_program(program)


# ---------------------------------------------------------------------------
# sign-symmetry split


def bound_membership(base, domain, level):
    return membership_problem(
        base, domain, level,
        param_polys=[("lam", Polynomial.constant(domain.n_vars, 1.0))],
        objective=[("lam", 1.0)],
    )


def monotone_membership(game, level):
    return bound_membership(monotone_target(game), extended_domain(game.domain, game.n_vars), level)


def concave_membership(game, player, level):
    domain = extended_domain(game.domain, game.block_sizes[player])
    return bound_membership(concave_target(game, player), domain, level)


def parity_class(flips, mono):
    return tuple(flips @ np.array(mono) % 2)


def restricted_problem(monkeypatch, problem, comp):
    """Run solve_split and return (its solution, the program it solved)."""
    import gamecert.sos

    seen = []

    def record(restricted, options=None):
        seen.append(restricted)
        return solve(restricted, options)

    monkeypatch.setattr(gamecert.sos, "solve", record)
    sol = solve_split(problem, comp)
    return sol, seen[0]


def test_sign_symmetries_of_driver_target():
    # 6 y^2 + lam on [0, 1] x sphere: only y -> -y leaves every polynomial alone
    program = driver_membership(level=4)
    flips = sign_symmetries(program.memberships[0])
    assert flips.tolist() == [[0, 1]]
    basis = gram_basis(4, 0, 2)
    classes = {mono: parity_class(flips, mono) for mono in basis}
    assert [m for m in basis if classes[m] == (0,)] == [(0, 0), (1, 0), (2, 0), (0, 2)]
    assert [m for m in basis if classes[m] == (1,)] == [(0, 1), (1, 1)]


def test_sign_symmetries_null_space(fig1_game, fig3_game):
    for game, level in ((fig1_game, 2), (fig3_game, 6)):
        mem = monotone_membership(game, level).memberships[0]
        flips = sign_symmetries(mem)
        polys = [mem.base, *mem.domain.inequalities, *mem.domain.equalities]
        parities = np.array([m for p in polys for m in p.terms]) % 2
        assert not np.any(parities @ flips.T % 2)
        # the flips are independent over GF(2) and include y -> -y
        n, m = mem.domain.n_vars, game.n_vars
        span = {tuple(np.array(c) @ flips % 2) for c in np.ndindex(*(2,) * len(flips))}
        assert len(span) == 2 ** len(flips)
        assert (0,) * m + (1,) * (n - m) in span
        # and nothing else: every other flip changes some polynomial
        for s in np.ndindex(*(2,) * n):
            if tuple(s) not in span:
                assert np.any(parities @ np.array(s) % 2)


def test_degree_zero_membership_certifies_a_scalar_bound():
    # lam - 2 >= 0 over the space of no variables is lam - 2 = s_0 with s_0 a
    # 1x1 Gram block: the smallest lam is 2
    from gamecert.certify import solve_audited

    program = membership_problem(
        Polynomial.constant(0, -2.0), SemialgebraicSet(0), 0,
        param_polys=[("lam", Polynomial.constant(0, 1.0))], objective=[("lam", 1.0)],
    )
    assert sign_symmetries(program.memberships[0]).shape == (0, 0)
    run = solve_audited(program)
    assert run.solution.status == SdpStatus.OPTIMAL
    assert run.certificate is not None
    assert run.certificate.params["lam"] == pytest.approx(2.0, abs=1e-6)
    assert run.certificate.identity_residual <= 1e-6


def test_odd_target_drops_only_quotient_columns(monkeypatch):
    # y + x y^2 is not even in y, and x(1 - x) >= 0 is not even in x: no
    # flip applies, and only the Gram columns of y^2, the leading monomial
    # of the sphere 1 - y^2, drop
    base = Polynomial(2, {(0, 1): 1.0, (1, 2): 1.0})
    x = Polynomial.variable(2, 0)
    sphere = Polynomial(2, {(0, 0): 1.0, (0, 2): -1.0})
    domain = SemialgebraicSet(2, (x * (Polynomial.constant(2, 1.0) - x),), (sphere,))
    program = bound_membership(base, domain, 4)
    assert sign_symmetries(program.memberships[0]).shape == (0, 2)
    problem, comp = compile_program(program)
    _, restricted = restricted_problem(monkeypatch, problem, comp)
    sizes = [len(info.basis) for info in comp.gram_blocks]
    dropped = np.array([mono[1] >= 2 for info in comp.gram_blocks for mono in info.basis])
    assert sizes == [6, 3] and np.flatnonzero(dropped).tolist() == [5]
    block = np.where(dropped, -1, np.repeat(np.arange(len(sizes)), sizes))
    pos = np.concatenate([np.cumsum(~d) - 1 for d in np.split(dropped, np.cumsum(sizes)[:-1])])
    assert restricted == Restriction(problem, block, pos, np.ones(problem.n_free, dtype=bool)).problem
    assert restricted.block_dims == (5, 3)


def test_compile_keeps_full_shape(monkeypatch, deg4_game):
    problem, comp = compile_program(monotone_membership(deg4_game, 4))
    assert problem.block_dims == (45,) + (9,) * 6
    assert problem.n_constraints == 495 and problem.n_free == 46
    assert [len(info.basis) for info in comp.multipliers] == [45]
    _, restricted = restricted_problem(monkeypatch, problem, comp)
    assert restricted.block_dims == (24, 20) + (5, 4) * 6
    assert restricted.n_constraints == 255 and restricted.n_free == 26


def split_cases(fig3_game, deg4_game):
    return [
        ("fig3 L6", compile_program(monotone_membership(fig3_game, 6))),
        ("deg4 concave L4", compile_program(concave_membership(deg4_game, 0, 4))),
    ]


def test_split_bound_equals_unsplit_bound(fig3_game, deg4_game):
    for label, (problem, comp) in split_cases(fig3_game, deg4_game):
        lam = comp.param_index("lam")
        full = float(solve(problem).free_values[lam])
        split = float(solve_split(problem, comp).free_values[lam])
        assert abs(split - full) <= 1e-4 * (1 + abs(full)), label


def test_split_solution_has_exact_zeros(fig3_game, deg4_game):
    for label, (problem, comp) in split_cases(fig3_game, deg4_game):
        flips = sign_symmetries(comp.program.memberships[0])
        sol = solve_split(problem, comp)
        assert sol.status in (SdpStatus.OPTIMAL, SdpStatus.ITERATION_LIMIT), label
        for candidate in (sol, round_onto_rows(comp, sol)):
            for info, G in zip(comp.gram_blocks, candidate.primal_blocks):
                cls = [parity_class(flips, mono) for mono in info.basis]
                cross = np.array([[a != b for b in cls] for a in cls])
                assert np.any(cross) and np.all(G[cross] == 0.0), (label, info.multiplier)
                assert np.any(G[~cross] != 0.0)
            for info in comp.multipliers:
                coeffs = candidate.free_values[info.offset : info.offset + len(info.basis)]
                odd = np.array([any(parity_class(flips, mono)) for mono in info.basis])
                assert np.any(odd) and np.all(coeffs[odd] == 0.0), label
            assert len(candidate.primal_blocks) == len(problem.block_dims)
        cert = extract_certificate(comp, round_onto_rows(comp, sol))
        assert [b for b, _, _ in cert.memberships[0].gram_matrices] == [
            info.multiplier for info in comp.gram_blocks
        ]


def test_quotient_ring_columns_are_exact_zeros(deg4_game):
    from gamecert.certify import bound_program, solve_audited, target

    # deg4 at level 4: the Gram rows and columns of every basis monomial
    # divisible by y_k^2, for y_k the first sphere variable, are exact zeros
    # in the solution and in the certificate, which passes the audit
    run = solve_audited(bound_program(*target(deg4_game), 4))
    assert run.solution.status == SdpStatus.OPTIMAL and run.certificate is not None
    k = deg4_game.n_vars
    grams = run.certificate.memberships[0].gram_matrices
    quotient = [np.array([mono[k] >= 2 for mono in basis]) for _, basis, _ in grams]
    assert [int(q.sum()) for q in quotient] == [1] + [0] * (len(grams) - 1)
    for q, (_, _, G), X in zip(quotient, grams, run.solution.primal_blocks):
        for M in (G, X):
            assert np.all(M[q] == 0.0) and np.all(M[:, q] == 0.0)
    assert run.certificate.params["lam"] <= -0.9999155


def test_deg4_concave_bounds_meet_the_gate(deg4_game):
    from gamecert.certify import certify_concave

    result = certify_concave(deg4_game, 4)
    assert [i for i, _ in result.per_player] == [0, 1]
    assert all(lam <= -0.9999155 for _, lam in result.per_player), result.per_player


# ---------------------------------------------------------------------------
# compiled rows against the symbolic expansion


class _Captured(Exception):
    pass


def concave_projection_program(monkeypatch, game, level):
    """The program ``project`` builds for a concave projection, one
    membership per player, captured before it is solved."""
    import gamecert.project as gproject

    seen = []

    def capture(program, opts):
        seen.append(program)
        raise _Captured

    monkeypatch.setattr(gproject, "solve_audited", capture)
    with pytest.raises(_Captured):
        gproject.project(gproject.ProjectionSpec(game, level, kind="concave"))
    return seen[0]


def test_compiled_rows_match_symbolic_expansion(monkeypatch, fig1_game, fig3_game, deg4_game):
    from gamecert.sos import read_certificate

    programs = {
        "fig3 L6": monotone_membership(fig3_game, 6),
        "deg4 L4": monotone_membership(deg4_game, 4),
        "fig1 concave projection L2": concave_projection_program(monkeypatch, fig1_game, 2),
    }
    labels = [mem.label for mem in programs["fig1 concave projection L2"].memberships]
    assert [label for label in labels if label.startswith("player")] == ["player 0", "player 1"]
    rng = np.random.default_rng(5)
    for label, program in programs.items():
        problem, comp = compile_program(program)
        grams = [(lambda B: B + B.T)(rng.standard_normal((d, d))) for d in problem.block_dims]
        free = rng.standard_normal(problem.n_free)
        x = np.concatenate([G.ravel() for G in grams] + [free])
        r, c, v = comp.flat_rows()
        rows = comp.row_targets - np.bincount(r, v * x[c], minlength=len(comp.row_targets))
        cert = read_certificate(comp, SdpSolution(SdpStatus.OPTIMAL, primal_blocks=grams, free_values=free))
        for mi, mem in enumerate(cert.memberships):
            residual = mem.target - mem.expansion()
            mine = {mono: rows[r] for r, (m, mono) in enumerate(comp.row_monomials) if m == mi}
            assert set(residual.terms) <= set(mine), label
            worst = max(abs(v - residual.coeff(mono)) for mono, v in mine.items())
            assert worst <= 1e-12, (label, mi, worst)


def test_rounding_is_the_minimum_norm_correction(fig3_game, deg4_game):
    """Rounding lands on the rows, moves only the movable entries, and moves
    them within the row space of their columns, so the correction is the
    minimum-norm one.  Checked on the solver's iterate and on a copy whose
    movable entries carry 1e-7 of noise, which the rounding must remove."""
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    for label, (problem, comp) in [("deg4 L4", compile_program(monotone_membership(deg4_game, 4))),
                                   ("fig3 L6", compile_program(monotone_membership(fig3_game, 6)))]:
        sol = solve_split(problem, comp)
        assert sol.status == SdpStatus.OPTIMAL, label
        live = [np.diag(G) != 0 for G in sol.primal_blocks]
        multipliers = np.arange(problem.n_free) < comp.param_offset
        movable = np.concatenate([np.outer(d, d).ravel() for d in live] + [multipliers])
        noisy = replace(
            sol,
            primal_blocks=[G + 1e-7 * np.outer(d, d) * (lambda B: B + B.T)(rng.standard_normal(G.shape))
                           for G, d in zip(sol.primal_blocks, live)],
            free_values=sol.free_values + 1e-7 * multipliers * rng.standard_normal(problem.n_free),
        )
        r, c, v = comp.flat_rows()
        A = np.zeros((len(comp.row_targets), len(movable)))
        np.add.at(A, (r, c), v)
        A = A[:, movable]
        flat = lambda s: np.concatenate([G.ravel() for G in s.primal_blocks] + [s.free_values])
        miss = lambda x: np.abs(comp.row_targets - np.bincount(r, v * x[c], minlength=len(A))).max()
        assert miss(flat(noisy)) > 1e-7, label
        for start in (sol, noisy):
            x0, x1 = flat(start), flat(round_onto_rows(comp, start))
            assert miss(x1) <= 1e-12, label
            assert x1[~movable].tobytes() == flat(sol)[~movable].tobytes(), label
            d = (x1 - x0)[movable]
            z = np.linalg.lstsq(A.T, d, rcond=None)[0]
            # storing x0 + d and taking the difference again round at the level of x
            assert np.linalg.norm(A.T @ z - d) <= eps * (np.linalg.norm(x0[movable]) + np.linalg.norm(d)), label
