import dataclasses

import numpy as np
import pytest

from gamecert import oracles
from gamecert.certify import certify_monotone, extended_domain, monotone_target, target
from gamecert.games import player_hessian, quadratic_reference_game, symmetrized_jacobian
from gamecert.oracles import (
    JACOBI_SLICE,
    SAMPLE_BLOCK,
    finite_difference_audit,
    check_certificate_sampled,
    infer_bounding_box,
    jacobi_eigenvalues,
    sample_domain_points,
    sample_extended_points,
    sample_max_eigenvalue,
)
from gamecert.polynomials import Polynomial
from gamecert.project import ProjectionSpec, project


def test_jacobi_known_values():
    assert np.allclose(jacobi_eigenvalues(np.diag([3.0, -1.0, 2.0])), [-1.0, 2.0, 3.0])
    A = np.array([[0.0, 10.0], [10.0, 0.0]])
    assert np.allclose(jacobi_eigenvalues(A), [-10.0, 10.0])
    assert jacobi_eigenvalues(np.array([[4.0]]))[0] == 4.0


def test_jacobi_matches_lapack():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k = int(rng.integers(1, 13))
        A = rng.standard_normal((k, k))
        A = 0.5 * (A + A.T)
        ours = jacobi_eigenvalues(A)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(ours - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


def test_jacobi_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def _symmetric_stack(rng, n, k):
    A = rng.standard_normal((n, k, k))
    return 0.5 * (A + A.transpose(0, 2, 1))


def test_jacobi_stack_rows_equal_single_calls():
    rng = np.random.default_rng(11)
    for n, k in ((40, 1), (40, 2), (40, 4), (15, 7), (JACOBI_SLICE + 3, 3), (20, 5), (20, 8), (20, 9), (20, 16)):
        stack = _symmetric_stack(rng, n, k)
        stack[::5] = np.diag(rng.standard_normal(k))  # converge before the first sweep
        # nearly diagonal lanes converge a few sweeps before the others
        stack[2::5] = np.diag(rng.standard_normal(k)) + 1e-7 * _symmetric_stack(rng, len(stack[2::5]), k)
        stacked = jacobi_eigenvalues(stack)
        assert stacked.shape == (n, k)
        for i in (0, 1, 2, 5, 7, n // 2, n - 1):
            assert stacked[i].tobytes() == jacobi_eigenvalues(stack[i]).tobytes()
        if k > 1:
            # the sweep each lane converges at: the fewest sweeps that give its final values
            final = [row.tobytes() for row in stacked]
            done = np.full(n, -1)
            for sweeps in range(12):
                early = jacobi_eigenvalues(stack, max_sweeps=sweeps)
                done[(done < 0) & [row.tobytes() == f for row, f in zip(early, final)]] = sweeps
            assert (done >= 0).all() and len(set(done.tolist())) >= min(k, 3)


def test_jacobi_stop_test_sees_convergence(monkeypatch):
    """The stop test reads the off-diagonal entries, so a lane stops within
    a few sweeps whatever its order; a test that subtracts the diagonal from
    the whole norm floors near sqrt(eps) times it and runs every sweep."""
    rounds = []
    rotate = oracles._rotate

    def counted(A):
        rounds.append(1)
        rotate(A)

    monkeypatch.setattr(oracles, "_rotate", counted)
    rng = np.random.default_rng(3)
    for k in [*range(1, 51), 240]:
        B = rng.standard_normal((k, k))
        A = B + B.T
        values = jacobi_eigenvalues(A, max_sweeps=20)
        rounds.clear()
        assert values.tobytes() == jacobi_eigenvalues(A, max_sweeps=100).tobytes()
        assert len(rounds) <= 20 * (k - 1 + k % 2)
        ref = np.linalg.eigvalsh(A)
        assert np.max(np.abs(values - ref)) <= 1e-10 * (1 + np.max(np.abs(ref)))


def test_jacobi_stack_matches_lapack():
    rng = np.random.default_rng(12)
    for k in (1, 2, 4):
        stack = _symmetric_stack(rng, 60, k)
        assert np.max(np.abs(jacobi_eigenvalues(stack) - np.linalg.eigvalsh(stack))) <= 1e-9
    diagonal = np.zeros((10, 4, 4))
    diagonal[:, range(4), range(4)] = rng.standard_normal((10, 4))
    assert np.array_equal(jacobi_eigenvalues(diagonal), np.sort(np.diagonal(diagonal, axis1=1, axis2=2)))


@pytest.mark.filterwarnings("error")
def test_jacobi_stack_tiny_off_diagonal_lanes():
    """An entry near 1e-200 takes the |theta| > 1e150 branch, and the zero
    entries of a block-diagonal matrix skip their rotations in every sweep;
    neither may overflow or divide by zero in the lanes masked out."""
    tiny = np.array([[1.0, 1e-200, 0.0], [1e-200, 2.0, 0.5], [0.0, 0.5, -1.0]])
    ordinary = np.array([[2.0, 1.0, 0.3], [1.0, -1.0, 0.2], [0.3, 0.2, 0.5]])
    blocks = np.array([[1.0, 2.0, 0.0], [2.0, -1.0, 0.0], [0.0, 0.0, 3.0]])
    stack = np.stack([ordinary, tiny, blocks, ordinary.T @ ordinary, np.diag([3.0, 1.0, 2.0])])
    stacked = jacobi_eigenvalues(stack)
    assert np.max(np.abs(stacked - np.linalg.eigvalsh(stack))) <= 1e-9
    for i in range(len(stack)):
        assert stacked[i].tobytes() == jacobi_eigenvalues(stack[i]).tobytes()
    alone = jacobi_eigenvalues(np.array([[1.0, 1e-200], [1e-200, 2.0]]))
    assert alone.tolist() == [1.0, 2.0]


def test_jacobi_stack_rejects_one_nonsymmetric():
    stack = np.stack([np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]]), np.eye(2)])
    with pytest.raises(ValueError, match="not symmetric"):
        jacobi_eigenvalues(stack)
    with pytest.raises(ValueError):
        jacobi_eigenvalues(np.zeros((2, 3, 4)))


def test_bounding_box_inference(driver_game, fig1_game, deg4_game):
    assert infer_bounding_box(driver_game.domain) == [(0.0, 1.0)]
    assert infer_bounding_box(fig1_game.domain) == [(0.0, 1.0)] * 3
    assert infer_bounding_box(deg4_game.domain) == [(0.0, 1.0)] * 4
    from gamecert.games import SemialgebraicSet

    unbounded = SemialgebraicSet(1, (Polynomial.variable(1, 0),), ())
    assert infer_bounding_box(unbounded) is None


def test_sampled_max_constant_jacobian(driver_game, fig1_game):
    assert sample_max_eigenvalue(fig1_game, n_samples=1).max_value == pytest.approx(10.0)
    assert sample_max_eigenvalue(fig1_game, n_samples=200).max_value == pytest.approx(10.0)
    assert sample_max_eigenvalue(driver_game, n_samples=50).max_value == pytest.approx(-6.0)
    quad = quadratic_reference_game(fig1_game)
    assert sample_max_eigenvalue(quad, n_samples=50).max_value == pytest.approx(-2.0)


@pytest.mark.parametrize("kind", ["monotone", "concave"])
def test_constant_matrix_sampled_at_one_point(fig1_game, monkeypatch, kind):
    if kind == "monotone":
        matrices = [symmetrized_jacobian(fig1_game)]
    else:
        matrices = [player_hessian(fig1_game, i) for i in range(fig1_game.n_players)]
    assert all(p.degree == 0 for M in matrices for row in M.entries for p in row)
    points, rate = sample_domain_points(fig1_game.domain, 500, seed=4)
    best, best_point = -np.inf, None
    for M in matrices:  # the report from the full evaluated stack
        lam = jacobi_eigenvalues(M.evaluate_many(points))[:, -1]
        if lam.max() > best:
            best, best_point = float(lam.max()), points[int(np.argmax(lam))]
    stacks = []
    monkeypatch.setattr(oracles, "jacobi_eigenvalues", lambda A: stacks.append(len(A)) or jacobi_eigenvalues(A))
    rep = sample_max_eigenvalue(fig1_game, kind=kind, n_samples=500, seed=4)
    assert stacks == [1] * len(matrices)
    assert (rep.max_value, rep.samples, rep.acceptance_rate) == (best, 500, rate)
    assert np.array_equal(rep.argmax_point, best_point) and np.array_equal(best_point, points[0])


def test_sampling_determinism(fig1_game):
    a = sample_max_eigenvalue(fig1_game, n_samples=100, seed=123)
    b = sample_max_eigenvalue(fig1_game, n_samples=100, seed=123)
    assert a.max_value == b.max_value
    assert (a.argmax_point == b.argmax_point).all()
    assert a.acceptance_rate == b.acceptance_rate


def test_rejection_abort_on_thin_set():
    from gamecert.games import SemialgebraicSet, box_set

    thin = box_set([(0.0, 1e-6)])
    with pytest.raises(RuntimeError):
        sample_domain_points(thin, 50, bounding_box=[(0.0, 1.0)], seed=1)


def _one_at_a_time(domain, box, n_samples, seed):
    """Reference rejection loop: one attempt at a time over the block stream
    as the module docstring defines it."""
    lo, hi = np.array(box).T
    points, attempts, block = [], 0, None
    while len(points) < n_samples:
        b, row = divmod(attempts, SAMPLE_BLOCK)
        if b != block:
            gen = np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFF, counter=[0, b, 0, 0]))
            block, uniforms = b, gen.random((SAMPLE_BLOCK, domain.n_vars))
        point = lo + uniforms[row] * (hi - lo)
        attempts += 1
        if domain.contains(point):
            points.append(point)
    return np.array(points), attempts


def test_block_sampling_matches_one_at_a_time(fig1_game):
    domain, box = fig1_game.domain, [(0.0, 1.0)] * 3
    k = SAMPLE_BLOCK + 50  # the k-th accepted point lies past the first block
    reference, attempts = _one_at_a_time(domain, box, k, seed=7)
    assert attempts > SAMPLE_BLOCK
    points, rate = sample_domain_points(domain, k, box, seed=7)
    assert np.array_equal(points, reference)
    assert rate == k / attempts
    longer, _ = sample_domain_points(domain, k + 3 * SAMPLE_BLOCK, box, seed=7)
    assert np.array_equal(longer[:k], points)
    few, few_rate = sample_domain_points(domain, 3, box, seed=7)
    assert np.array_equal(few, points[:3])
    assert few_rate == 3 / _one_at_a_time(domain, box, 3, seed=7)[1]


def test_zero_samples_rejected(fig1_game):
    with pytest.raises(ValueError, match="n_samples"):
        sample_domain_points(fig1_game.domain, 0)
    with pytest.raises(ValueError, match="n_samples"):
        sample_max_eigenvalue(fig1_game, n_samples=0)


def test_extended_points_prefix_and_spheres(fig1_game):
    domain = extended_domain(fig1_game.domain, 3)
    points = sample_extended_points(domain, 300, seed=9)
    assert np.array_equal(sample_extended_points(domain, 120, seed=9), points[:120])
    assert np.allclose(np.linalg.norm(points[:, 3:], axis=1), 1.0)
    assert domain.contains_many(points).all()
    assert not np.array_equal(sample_extended_points(domain, 300, seed=10), points)


def test_finite_difference_audit(driver_game, fig1_game, deg4_game):
    assert finite_difference_audit(fig1_game) <= 1e-6
    assert finite_difference_audit(deg4_game) <= 1e-4
    zero = quadratic_reference_game(fig1_game)
    from gamecert.games import PolynomialGame

    true_zero = PolynomialGame(
        zero.block_sizes,
        tuple(Polynomial.zero(3) for _ in range(2)),
        zero.domain,
    )
    assert finite_difference_audit(true_zero) == 0.0


def test_certificate_sampling_audit(fig1_game):
    result = certify_monotone(fig1_game, 2)
    base = monotone_target(fig1_game)
    target = Polynomial.constant(base.n_vars, result.lam) + base
    domain = extended_domain(fig1_game.domain, 3)
    ok, worst = check_certificate_sampled(result.certificate, target, domain, n_samples=500)
    assert ok and worst <= 1e-5
    # corrupting the certificate flips the audit
    result.certificate.memberships[0].gram_matrices[0][2][0, 0] += 0.5
    ok_bad, worst_bad = check_certificate_sampled(
        result.certificate, target, domain, n_samples=200
    )
    assert not ok_bad and worst_bad > 1e-5


def test_certificate_sampling_audit_large_blocks(deg4_game):
    """deg4's level-4 certificate has a 45x45 sigma_0 and six 9x9 blocks."""
    result = certify_monotone(deg4_game, 4)
    (mem,) = result.certificate.memberships
    assert sorted(G.shape[0] for _, _, G in mem.gram_matrices) == [9] * 6 + [45]
    base, domain = target(deg4_game)
    target_poly = Polynomial.constant(base.n_vars, result.lam) + base
    ok, worst = check_certificate_sampled(result.certificate, target_poly, domain)
    assert ok and worst <= 1e-5
    mem.gram_matrices[0][2][0, 0] += 0.5
    ok_bad, worst_bad = check_certificate_sampled(result.certificate, target_poly, domain)
    assert not ok_bad and worst_bad > 1e-5


def test_sampled_audit_takes_one_membership_at_a_time(fig1_game):
    result = project(ProjectionSpec(fig1_game, 2, kind="concave"))
    cert = result.certificate
    players = [mem for mem in cert.memberships if mem.label.startswith("player")]
    assert [mem.label for mem in players] == ["player 0", "player 1"]
    base, domain = target(result.game, 0)
    with pytest.raises(ValueError, match=f"^certificate has {len(cert.memberships)} memberships; audit each "):
        check_certificate_sampled(cert, base, domain, n_samples=100)
    # the projected game's concave targets are the ones its memberships certify
    for player, mem in enumerate(players):
        base, domain = target(result.game, player)
        ok, worst = check_certificate_sampled(mem, base, domain, n_samples=300)
        assert ok and worst <= 1e-5


@pytest.mark.parametrize("kind, zero_sum, count", [("monotone", True, 15), ("concave", False, 42)])
def test_every_projection_membership_passes_the_sampled_audit(fig1_game, kind, zero_sum, count):
    # each membership carries the target and domain it certifies, so it is
    # audited on its own, the degree-0 epigraph ones included; shifting its
    # first Gram entry by 0.5 fails the audit
    spec = ProjectionSpec(fig1_game, 2, kind=kind, zero_sum=zero_sum, preserve_support=zero_sum)
    cert = project(spec).certificate
    assert len(cert.memberships) == count
    for mem in cert.memberships:
        ok, worst = check_certificate_sampled(mem, mem.target, mem.domain, 200)
        assert ok and worst <= 1e-5, (mem.label, worst)
        (name, basis, G), *rest = mem.gram_matrices
        G = G.copy()
        G[0, 0] += 0.5
        bad = dataclasses.replace(mem, gram_matrices=[(name, basis, G), *rest])
        ok_bad, worst_bad = check_certificate_sampled(bad, bad.target, bad.domain, 200)
        assert not ok_bad and worst_bad > 1e-5, mem.label


def test_per_player_sampling(fig1_game):
    report = sample_max_eigenvalue(fig1_game, kind="concave", n_samples=100)
    assert report.max_value == pytest.approx(10.0)


def full_stack_report(game, kind, n_samples, seed):
    """sample_max_eigenvalue's report with Jacobi run on every evaluated
    matrix of every family: (max, argmax point, samples, acceptance)."""
    points, rate = sample_domain_points(game.domain, n_samples, seed=seed)
    if kind == "monotone":
        families = [symmetrized_jacobian(game)]
    else:
        families = [player_hessian(game, i) for i in range(game.n_players) if game.block_sizes[i]]
    best, best_point = -np.inf, None
    for M in families:
        lam = jacobi_eigenvalues(M.evaluate_many(points))[:, -1]
        idx = int(np.argmax(lam))
        if lam[idx] > best:
            best, best_point = float(lam[idx]), points[idx]
    return best, best_point, len(points), rate


@pytest.mark.parametrize("seed", [21, 22, 23])
@pytest.mark.parametrize("name, kind", [
    ("deg4", "monotone"), ("fig3", "monotone"), ("deg8", "monotone"), ("deg4", "concave"), ("deg8", "concave"),
])
def test_screened_sampling_equals_the_full_stack(request, name, kind, seed):
    game = request.getfixturevalue(f"{name}_game")
    best, best_point, samples, rate = full_stack_report(game, kind, 3000, seed)
    rep = sample_max_eigenvalue(game, kind=kind, n_samples=3000, seed=seed)
    assert (rep.max_value, rep.samples, rep.acceptance_rate) == (best, samples, rate)
    assert np.array_equal(rep.argmax_point, best_point)


class CraftedFamily:
    """A stand-in for a matrix family: not constant, and evaluating to a
    fixed stack whatever the points."""

    def __init__(self, stack):
        self.stack = np.array(stack, dtype=float)
        self.entries = [[Polynomial.variable(1, 0)]]

    def evaluate_many(self, points):
        assert len(points) == len(self.stack)
        return self.stack.copy()


def test_screen_keeps_ties_and_the_boundary(fig1_game, monkeypatch):
    small = [[0.0, 0.1], [0.1, 0.0]]
    top = [[2.0, 1.0], [1.0, 2.0]]  # eigenvalues 1 and 3, disc bound 3
    first = [small] * 10
    first[3] = first[7] = top
    first[5] = [[2.5, 0.0], [0.0, 0.0]]  # the largest diagonal entry: the floor is 2.5
    first[1] = [[1.5, 1.0], [1.0, 0.0]]  # a decoy whose disc bound is the floor
    first[8] = [[1.5, 0.999], [0.999, 0.0]]  # disc bound 2.499, past the margin below the floor
    # the second family ties the best value at sample 0 and must not replace it
    second = [small] * 10
    second[0] = top
    families = [CraftedFamily(first), CraftedFamily(second)]
    monkeypatch.setattr(oracles, "player_hessian", lambda game, i: families[i])
    stacks = []
    monkeypatch.setattr(oracles, "jacobi_eigenvalues", lambda A: stacks.append(A) or jacobi_eigenvalues(A))
    rep = sample_max_eigenvalue(fig1_game, kind="concave", n_samples=10, seed=5)
    points, _ = sample_domain_points(fig1_game.domain, 10, seed=5)
    assert np.array_equal(rep.argmax_point, points[3])
    assert rep.max_value == jacobi_eigenvalues(np.array(top))[-1]
    assert np.array_equal(stacks[0], families[0].stack[[1, 3, 5, 7]])
    assert np.array_equal(stacks[1], families[1].stack[[0]])


def test_screen_sends_few_matrices_to_jacobi(deg4_game, monkeypatch):
    rows = []
    monkeypatch.setattr(oracles, "jacobi_eigenvalues", lambda A: rows.append(len(A)) or jacobi_eigenvalues(A))
    sample_max_eigenvalue(deg4_game, n_samples=10_000)
    assert sum(rows) < 1000


def per_variable_audit(game, n_points, seed, step=1e-6):
    """finite_difference_audit with two payoff evaluations per variable."""
    box = infer_bounding_box(game.domain) or [(-1.0, 1.0)] * game.n_vars
    lo, hi = np.array(box).T
    v = oracles.pseudogradient(game)
    points = lo + oracles._uniform_block(seed, 0, oracles.DIFFERENCE_STREAM, game.n_vars)[:n_points] * (hi - lo)
    worst, row = 0.0, 0
    for i, u in enumerate(game.payoffs):
        for k in game.block_range(i):
            up, down = points.copy(), points.copy()
            up[:, k] += step
            down[:, k] -= step
            fd = (u.evaluate_many(up) - u.evaluate_many(down)) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - v[row].evaluate_many(points)))))
            row += 1
    return worst


@pytest.mark.parametrize("seed", [31, 32])
@pytest.mark.parametrize("name", ["driver", "fig1", "fig3", "deg4", "deg8"])
def test_stacked_difference_audit_equals_per_variable_loop(request, name, seed):
    game = request.getfixturevalue(f"{name}_game")
    assert finite_difference_audit(game, seed=seed) == per_variable_audit(game, 20, seed)


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8, 16])
def test_short_difference_draw_is_the_block_prefix(width):
    # the audit draws only the rows it uses; they must be the block's first
    block = oracles._uniform_block(31, 1, oracles.DIFFERENCE_STREAM, width)
    for rows in (1, 20, 777):
        short = oracles._stream(31, 1, oracles.DIFFERENCE_STREAM).random((rows, width))
        assert np.array_equal(short, block[:rows])


@pytest.mark.parametrize("n_points", [0, -5])
def test_difference_audit_needs_a_point(fig1_game, n_points):
    with pytest.raises(ValueError, match="n_points"):
        finite_difference_audit(fig1_game, n_points=n_points)


def test_difference_audit_takes_a_numpy_box(fig1_game):
    box = [(0.0, 1.0), (0.0, 0.5), (0.25, 1.0)]
    assert finite_difference_audit(fig1_game, bounding_box=np.array(box)) == finite_difference_audit(
        fig1_game, bounding_box=box
    )
    sample_max_eigenvalue(fig1_game, n_samples=10, bounding_box=np.array(box))


def test_difference_audit_rejects_an_empty_box(fig1_game):
    with pytest.raises(ValueError, match="0 intervals for 3 variables"):
        finite_difference_audit(fig1_game, bounding_box=[])


@pytest.mark.parametrize("box", [[(0.0, 1.0)], [(0.0, 1.0)] * 4])
def test_sampling_checks_the_box_length(fig1_game, box):
    with pytest.raises(ValueError, match=f"{len(box)} intervals for 3 variables"):
        sample_max_eigenvalue(fig1_game, n_samples=10, bounding_box=box)


@pytest.mark.parametrize("box", [[(0.0, 1.0)], [(0.0, 1.0)] * 4])
def test_difference_audit_checks_the_box_length(fig1_game, box):
    with pytest.raises(ValueError, match=f"{len(box)} intervals for 3 variables"):
        finite_difference_audit(fig1_game, bounding_box=box)


def test_unknown_kind_rejected_before_sampling(fig1_game, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before checking kind")

    monkeypatch.setattr(oracles, "sample_domain_points", no_sampling)
    with pytest.raises(ValueError, match="unknown kind 'convex'"):
        sample_max_eigenvalue(fig1_game, kind="convex", n_samples=10)
