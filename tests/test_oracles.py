import numpy as np
import pytest

from gamecert.certify import certify_monotone, extended_domain, monotone_target
from gamecert.games import quadratic_reference_game
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
    for n, k in ((40, 1), (40, 2), (40, 4), (15, 7), (JACOBI_SLICE + 3, 3)):
        stack = _symmetric_stack(rng, n, k)
        stack[::5] = np.diag(rng.standard_normal(k))  # converge before the first sweep
        stacked = jacobi_eigenvalues(stack)
        assert stacked.shape == (n, k)
        for i in (0, 1, 5, n // 2, n - 1):
            assert stacked[i].tobytes() == jacobi_eigenvalues(stack[i]).tobytes()


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


def test_per_player_sampling(fig1_game):
    report = sample_max_eigenvalue(fig1_game, kind="concave", n_samples=100)
    assert report.max_value == pytest.approx(10.0)
