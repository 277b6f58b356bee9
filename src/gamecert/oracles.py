"""Independent numerical verification: sampling bounds and a
self-contained eigensolver.

Everything here deliberately avoids the symbolic certification path: the
eigensolver is round-robin Jacobi (not the SDP, and no LAPACK eigen-routine),
derivatives are checked by central finite differences, and membership
certificates are audited by pointwise evaluation.  Each check works on whole
arrays: the eigensolver takes an (N, k, k) stack and rotates it lanes last,
as (k, k, N), points are drawn and tested for membership a block at a time,
and a payoff is evaluated once on all of its finite-difference points.
Polynomials on one point set share a ``polynomials.PowerTable`` of it, so
each power of a coordinate is computed once.

The sampled maximum solves only the matrices that can hold it: a Gershgorin
disc bound below the largest diagonal entry of the stack (or below the best
value of an earlier matrix family), less a margin for the eigensolver's own
error, rules a matrix out.  Of deg4's 10,000 default samples 250 pass the
screen.  Stacked Jacobi rows and stacked evaluations equal the calls on one
matrix or point, so every report is the one the full stack gives.

Sampling is reproducible and counter-based.  Attempt i of a seed takes its
coordinates from row i mod SAMPLE_BLOCK of block i // SAMPLE_BLOCK, where
block b is the Philox stream keyed by the seed and started at counter
(0, b, 0, 0) (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC 2011).  The coordinates of an attempt depend only on the seed, its index
and the number of variables, so results do not depend on chunking or
parallelism.  Sphere directions and finite-difference points come from the
same key with other values of the third counter word.  Earlier releases drew
one generator per attempt, so the sampled points, maxima and argmax points
for a given seed differ from theirs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .games import PolynomialGame, SemialgebraicSet, player_hessian, pseudogradient, symmetrized_jacobian
from .polynomials import Polynomial, PowerTable

DEFAULT_SEED = 0x5EED


# Matrices of a stack go through the sweeps this many at a time, so the
# working memory does not grow with the stack.
JACOBI_SLICE = 2048

# jacobi_eigenvalues stops rotating a matrix once every off-diagonal entry
# is at most this many times its largest entry in magnitude.
JACOBI_TOL = 1e-12

# Relative slack of the Gershgorin screen in sample_max_eigenvalue, in units
# of 1 + max|A| over the stack.  jacobi_eigenvalues stops with every
# off-diagonal entry at most JACOBI_TOL = 1e-12 times max|A|, so by Weyl's
# inequality its diagonal is within k * 1e-12 * max|A| of the eigenvalues;
# its rotations add a few ulps per sweep, and the disc bound's row sum at
# most k ulps of k * max|A|.  The screen must cover these errors at two
# matrices, the one holding the floor and the one screened out; for any k
# up to 500 they add up to less than 2e-9 * max|A|, five times less than
# this.
MARGIN = 1e-8


def jacobi_eigenvalues(matrix: np.ndarray, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by round-robin Jacobi rotations,
    ascending.  Deterministic and dependency-free on purpose: this is the
    reference the SDP route is checked against.

    ``matrix`` is one (k, k) matrix or an (N, k, k) stack; the result has
    shape (k,) or (N, k).  A sweep visits every pair (p, q) once, in the
    k - 1 rounds (k for odd k) of the round-robin tournament (Brent & Luk,
    SIAM J. Sci. Stat. Comput. 6(1), 1985); the pairs of one round are
    disjoint, so their rotations commute and are applied together.  A
    matrix stops rotating once every off-diagonal entry is at most
    ``JACOBI_TOL`` times its largest entry in magnitude.

    The stack is worked on lanes last, as (k, k, N), so that each entry is
    a contiguous vector over the matrices.  Every matrix of a stack goes
    through the same elementwise operations it would get alone, until it
    converges, so row i of a stacked call equals the call on matrix i bit
    for bit.
    """
    stack = np.asarray(matrix, dtype=float)
    single = stack.ndim == 2
    if single:
        stack = stack[None]
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError("jacobi_eigenvalues needs a square matrix or a stack of them")
    values = np.empty(stack.shape[:2])
    for start in range(0, stack.shape[0], JACOBI_SLICE):
        part = slice(start, start + JACOBI_SLICE)
        values[part] = _jacobi_sweeps(np.array(stack[part].transpose(1, 2, 0), order="C"), max_sweeps)
    return values[0] if single else values


def _round_robin(k: int) -> np.ndarray:
    """The move between two rounds of the circle method on 0..k-1: in every
    round position j meets position k//2 + j, for j < k//2, and an odd k
    leaves its last position idle.  Entry (i, j) of the next round's layout
    is entry ``order[i * k + j]`` of this one, counted row by row.

    The n = k + k % 2 seats of the method hold the positions: seat 0 stays
    put, every other player moves one seat on, and seat j meets seat
    n-1-j.  An odd k seats a phantom at seat 0, and whoever meets it sits
    the round out.  After n - 1 rounds every pair has met once and the
    layout is back where it started."""
    n, half = k + k % 2, k // 2
    if k % 2:
        seat = np.r_[1 : half + 1, n - 2 : half : -1, n - 1]
    else:
        seat = np.r_[0:half, n - 1 : half - 1 : -1]
    position = np.zeros(n, dtype=int)
    position[seat] = np.arange(k)
    came_from = np.r_[0, n - 1, 1 : n - 1]  # the seat whose player moves to seat t
    step = position[came_from[seat]]
    return (step[:, None] * k + step).ravel()


def _jacobi_sweeps(A: np.ndarray, max_sweeps: int) -> np.ndarray:
    """Ascending eigenvalues of each matrix of the lanes-last stack A,
    shape (k, k, N), which is overwritten; converged matrices leave the
    working stack.  Returns shape (N, k)."""
    k = A.shape[0]
    At = A.transpose(1, 0, 2)
    work = np.abs(A)
    size = work.max(axis=(0, 1), initial=0.0)
    np.abs(np.subtract(A, At, out=work), out=work)
    if np.any(work.max(axis=(0, 1), initial=0.0) > 1e-10 * (1.0 + size)):
        raise ValueError("matrix is not symmetric")
    A = np.multiply(np.add(A, At, out=work), 0.5, out=A)
    del work, At
    order = _round_robin(k)
    scale = np.where(size > 0.0, size, 1.0)
    values = np.empty((A.shape[2], k))
    diagonal = np.arange(k)
    # A holds the matrices still rotating; lanes[j] is the stack index of A[..., j]
    lanes = np.arange(A.shape[2])
    for _ in range(max_sweeps):
        # the largest off-diagonal magnitude: a maximum, so it is exact and
        # sees no other lane, and it reaches zero as the matrix converges
        off = np.abs(A)
        off[diagonal, diagonal] = 0.0
        running = off.max(axis=(0, 1), initial=0.0) > JACOBI_TOL * scale[lanes]
        del off
        if not running.all():
            values[lanes[~running]] = A[diagonal, diagonal][:, ~running].T
            A, lanes = A[:, :, running], lanes[running]
            if not lanes.size:
                break
        for _ in range(k - 1 + k % 2):
            _rotate(A)
            A = A.reshape(k * k, -1).take(order, axis=0).reshape(A.shape)
    else:  # max_sweeps ran out: take the diagonals as they stand
        values[lanes] = A[diagonal, diagonal].T
    values.sort(axis=1)
    return values


def _rotate(A: np.ndarray) -> None:
    """One round on the lanes-last stack A of order k: the rotations that
    zero A[j, k//2 + j] in every lane, for each j < k//2.  The pairs are
    disjoint, so the rotations commute: they update the columns of every
    pair, then the rows, with one pass over each half.  An entry at most
    1e-300 in magnitude is left alone: its lane gets c = 1 and s = 0.  No
    round is skipped, so a lane sees the same operations alone or in a
    stack."""
    half = A.shape[0] // 2
    p, q = np.arange(half), np.arange(half, 2 * half)
    diagonal = np.diagonal(A, axis1=0, axis2=1).T
    apq = A[p, q]
    live = np.abs(apq) > 1e-300
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the lanes this yields inf or nan in are overwritten below
        theta = (diagonal[half : 2 * half] - diagonal[:half]) / (2.0 * apq)
        t = np.copysign(1.0, theta) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        huge = np.abs(theta) > 1e150
        t[huge] = 1.0 / (2.0 * theta[huge])
    t[~live] = 0.0
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c
    columns = (A[:, :half], A[:, half : 2 * half], c, s)
    rows = (A[:half], A[half : 2 * half], c[:, None], s[:, None])
    for x, y, c, s in (columns, rows):
        u = c * x
        u -= s * y
        y *= c
        y += s * x
        x[...] = u
    apq[live] = 0.0
    A[p, q] = A[q, p] = apq


def infer_bounding_box(domain: SemialgebraicSet) -> list[tuple[float, float]] | None:
    """Derive per-variable bounds from linear inequalities.

    Handles single-variable bounds (a0 + a*x_i >= 0) and simplex-style rows
    (a0 - sum_j x_j >= 0 with nonnegative lower bounds on the x_j).
    Returns None when some variable stays unbounded.
    """
    n = domain.n_vars
    lo = [-math.inf] * n
    hi = [math.inf] * n
    linear = []
    for g in domain.inequalities:
        if g.degree > 1:
            continue
        a0 = g.coeff((0,) * n)
        coeffs = {}
        for exps, c in g.terms.items():
            if sum(exps) == 1:
                coeffs[exps.index(1)] = c
        linear.append((a0, coeffs))
        if len(coeffs) == 1:
            ((i, a),) = coeffs.items()
            bound = -a0 / a
            if a > 0:
                lo[i] = max(lo[i], bound)
            else:
                hi[i] = min(hi[i], bound)
    for a0, coeffs in linear:
        if len(coeffs) < 2 or a0 <= 0:
            continue
        if all(a < 0 for a in coeffs.values()) and all(lo[i] >= 0 for i in coeffs):
            for i, a in coeffs.items():
                hi[i] = min(hi[i], a0 / -a)
    if any(math.isinf(v) for v in lo + hi):
        return None
    return list(zip(lo, hi))


@dataclass
class SampleReport:
    kind: str
    samples: int
    max_value: float
    argmax_point: np.ndarray | None
    acceptance_rate: float

    def __repr__(self):
        return (
            f"SampleReport(kind={self.kind!r}, samples={self.samples}, "
            f"max={self.max_value:.6g}, acceptance={self.acceptance_rate:.3f})"
        )


# Attempts are drawn in blocks of this many; the size never depends on the
# number of samples asked for, so memory per block stays fixed.
SAMPLE_BLOCK = 4096

# Rejection sampling gives up when fewer attempts than this are accepted.
MIN_ACCEPTANCE = 1e-4

# Largest pointwise identity mismatch a sampled certificate audit accepts.
MISMATCH_TOL = 1e-5

# Counter words that keep the independent streams of one seed apart.
DOMAIN_STREAM = 0
DIFFERENCE_STREAM = 1
SPHERE_STREAM = 2  # sphere group g uses SPHERE_STREAM + g


def _stream(seed: int, block: int, stream: int) -> np.random.Generator:
    """Counter-based generator: Philox keyed by the seed, started at
    counter (0, block, stream, 0)."""
    return np.random.Generator(np.random.Philox(key=seed & 0xFFFFFFFF, counter=[0, block, stream, 0]))


def _uniform_block(seed: int, block: int, stream: int, width: int) -> np.ndarray:
    """Attempts block*SAMPLE_BLOCK .. (block+1)*SAMPLE_BLOCK - 1 of a stream,
    one row of ``width`` uniforms on [0, 1) per attempt."""
    return _stream(seed, block, stream).random((SAMPLE_BLOCK, width))


def _box_limits(box, n_vars: int) -> tuple[np.ndarray, np.ndarray]:
    """The lower and upper ends of a bounding box, one interval per
    variable."""
    if len(box) != n_vars:
        raise ValueError(f"bounding box has {len(box)} intervals for {n_vars} variables")
    return np.array([b[0] for b in box]), np.array([b[1] for b in box])


def sample_domain_points(
    domain: SemialgebraicSet,
    n_samples: int,
    bounding_box=None,
    seed: int = DEFAULT_SEED,
) -> tuple[np.ndarray, float]:
    """Rejection-sample points of the set from its bounding box.

    Returns the first ``n_samples`` accepted points in attempt order and the
    acceptance rate up to the attempt that gave the last of them; aborts
    when the rate stays under ``MIN_ACCEPTANCE``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    box = bounding_box if bounding_box is not None else infer_bounding_box(domain)
    if box is None:
        raise ValueError(
            "no bounding box could be inferred; pass one explicitly"
        )
    lo, hi = _box_limits(box, domain.n_vars)
    accepted: list[np.ndarray] = []
    n_accepted = 0
    max_attempts = max(200_000, 50 * n_samples)
    block = 0
    while True:
        points = lo + _uniform_block(seed, block, DOMAIN_STREAM, domain.n_vars) * (hi - lo)
        inside = domain.contains_many(points)
        start = block * SAMPLE_BLOCK
        # accepted count after each attempt of the block
        counts = n_accepted + np.cumsum(inside)
        # the rate is checked after every max_attempts attempts while short of n_samples
        while max_attempts <= start + SAMPLE_BLOCK:
            reached = int(counts[max_attempts - start - 1])
            if reached >= n_samples:
                break
            rate = reached / max_attempts
            if rate < MIN_ACCEPTANCE:
                raise RuntimeError(
                    f"rejection sampling acceptance rate {rate:.2e} below {MIN_ACCEPTANCE:.0e}; "
                    "supply a tighter bounding box"
                )
            max_attempts *= 2
        if counts[-1] >= n_samples:
            last = int(np.searchsorted(counts, n_samples))
            accepted.append(points[: last + 1][inside[: last + 1]])
            return np.concatenate(accepted), n_samples / (start + last + 1)
        accepted.append(points[inside])
        n_accepted = int(counts[-1])
        block += 1


def sample_max_eigenvalue(
    game: PolynomialGame,
    kind: str = "monotone",
    n_samples: int = 10_000,
    bounding_box=None,
    seed: int = DEFAULT_SEED,
) -> SampleReport:
    """Lower-bound max_x lambda_max by sampling the domain and running the
    Jacobi eigensolver on the evaluated matrix (symmetrized Jacobian, or
    the worst per-player Hessian).  A matrix whose entries all have degree
    0 takes one value everywhere, so it is evaluated and solved at the first
    point only, where the full stack has its first maximum too.

    Other matrices are screened by Gershgorin's theorem: no eigenvalue of A
    exceeds its disc bound max_r(a_rr + sum_{c != r} |a_rc|), and the
    largest is at least every diagonal entry.  So a matrix whose disc bound is
    below the floor, the larger of the best value so far and the largest
    diagonal entry of the stack, can neither hold the stack's maximum nor
    beat the best so far.  Only the others go to Jacobi, in sample order,
    and the floor is lowered by ``MARGIN * (1 + max|A|)`` for the
    eigensolver's own error.  A stacked Jacobi row equals the call on that
    matrix alone, so the report, its first maximizing sample included, is
    the one the full stack gives."""
    if kind not in ("monotone", "concave"):
        raise ValueError(f"unknown kind {kind!r}")
    points, rate = sample_domain_points(game.domain, n_samples, bounding_box, seed)
    if kind == "monotone":
        matrices = [symmetrized_jacobian(game)]
    else:
        matrices = [player_hessian(game, i) for i in range(game.n_players) if game.block_sizes[i]]
    best = -math.inf
    best_point = None
    for M in matrices:
        if all(p.degree == 0 for row in M.entries for p in row):
            rows = [0]
            stack = M.evaluate_many(points[:1])
        else:
            stack = M.evaluate_many(points)
            magnitude = np.abs(stack)
            diagonal = np.diagonal(stack, axis1=1, axis2=2)
            disc = (diagonal + magnitude.sum(axis=2) - np.abs(diagonal)).max(axis=1)
            floor = max(best, float(diagonal.max()))
            margin = MARGIN * (1.0 + float(magnitude.max()))
            rows = np.flatnonzero(disc >= floor - margin)
            if not rows.size:
                continue
            stack = stack[rows]
        lam = jacobi_eigenvalues(stack)[:, -1]
        idx = int(np.argmax(lam))
        if lam[idx] > best:
            best = float(lam[idx])
            best_point = points[rows[idx]]
    return SampleReport(
        kind=kind,
        samples=points.shape[0],
        max_value=best,
        argmax_point=best_point,
        acceptance_rate=rate,
    )


def _split_sphere_equalities(domain: SemialgebraicSet):
    """Recognize equalities of the form c*(1 - sum_{i in S} x_i^2) and
    return (sphere var groups, remaining domain over the other variables)."""
    n = domain.n_vars
    spheres: list[tuple[int, ...]] = []
    sphere_vars: set[int] = set()
    leftover_eqs = []
    for h in domain.equalities:
        const = h.coeff((0,) * n)
        group = []
        ok = const != 0.0
        if ok:
            for exps, c in h.terms.items():
                if sum(exps) == 0:
                    continue
                if sum(exps) == 2 and max(exps) == 2 and abs(c + const) <= 1e-12 * abs(const):
                    group.append(exps.index(2))
                else:
                    ok = False
                    break
        if ok and group:
            spheres.append(tuple(sorted(group)))
            sphere_vars.update(group)
        else:
            leftover_eqs.append(h)
    return spheres, sphere_vars, leftover_eqs


def sample_extended_points(domain: SemialgebraicSet, n_samples: int, seed: int = DEFAULT_SEED) -> np.ndarray:
    """Sample a set built as (base semialgebraic part) x (unit spheres).

    Sphere-shaped equalities are sampled uniformly on their spheres; the
    remaining variables are rejection-sampled against the remaining
    inequality constraints.
    """
    spheres, sphere_vars, leftover_eqs = _split_sphere_equalities(domain)
    if leftover_eqs:
        raise ValueError("cannot sample equalities other than unit spheres")
    n = domain.n_vars
    base_vars = [i for i in range(n) if i not in sphere_vars]
    base_ineqs = []
    for g in domain.inequalities:
        if any(exps[i] for exps in g.terms for i in sphere_vars):
            raise ValueError("inequality mixes sphere variables with the base set")
        squeezed = {
            tuple(exps[i] for i in base_vars): c for exps, c in g.terms.items()
        }
        base_ineqs.append(Polynomial(len(base_vars), squeezed))
    base = SemialgebraicSet(len(base_vars), tuple(base_ineqs), ())
    if base_vars:
        base_points, _ = sample_domain_points(base, n_samples, seed=seed)
    else:
        base_points = np.zeros((n_samples, 0))
    out = np.zeros((n_samples, n))
    out[:, base_vars] = base_points
    for g, group in enumerate(spheres):
        rng = _stream(seed, 0, SPHERE_STREAM + g)
        vec = rng.standard_normal((n_samples, len(group)))
        norm = np.linalg.norm(vec, axis=1)
        while np.any(short := norm < 1e-12):
            vec[short] = rng.standard_normal((int(short.sum()), len(group)))
            norm = np.linalg.norm(vec, axis=1)
        out[:, list(group)] = vec / norm[:, None]
    return out


def check_certificate_sampled(
    certificate,
    target: Polynomial,
    domain: SemialgebraicSet,
    n_samples: int = 1000,
    seed: int = DEFAULT_SEED,
) -> tuple[bool, float]:
    """Audit a decomposition numerically: evaluate the identity mismatch at
    sampled points of the extended set, up to ``MISMATCH_TOL``, and check
    every Gram block stays PSD up to ``sos.PSD_SLACK``.  Returns (ok, worst
    violation).  ``certificate`` is one membership, or a certificate that
    has exactly one."""
    from .sos import PSD_SLACK, Certificate, MembershipCertificate  # local import to avoid a cycle

    mem = certificate
    if isinstance(certificate, Certificate):
        if len(certificate.memberships) != 1:
            raise ValueError(
                f"certificate has {len(certificate.memberships)} memberships; audit each "
                "MembershipCertificate against its own target and domain"
            )
        (mem,) = certificate.memberships
    assert isinstance(mem, MembershipCertificate)
    # Gram blocks of one size share a stacked eigenvalue call
    by_size: dict[int, list[np.ndarray]] = {}
    for _, _, G in mem.gram_matrices:
        by_size.setdefault(G.shape[0], []).append(0.5 * (G + G.T))
    worst = 0.0
    for blocks in by_size.values():
        min_eig = float(jacobi_eigenvalues(np.stack(blocks))[:, 0].min())
        if min_eig < 0:
            worst = max(worst, -min_eig)
    if worst > PSD_SLACK:
        return False, worst
    table = PowerTable(sample_extended_points(domain, n_samples, seed=seed))
    expansion = _expansion_values(mem, domain, table)
    mismatch = np.abs(target.evaluate_many(table) - expansion)
    worst = max(worst, float(np.max(mismatch)) if mismatch.size else 0.0)
    return worst <= MISMATCH_TOL, worst


def _expansion_values(mem, domain: SemialgebraicSet, table: PowerTable) -> np.ndarray:
    """The certificate's right-hand side at the points of ``table``: the
    constraints, Gram basis monomials and free multipliers are all
    evaluated on that one table."""
    n = table.points.shape[0]
    total = np.zeros(n)
    ineq_values = [g.evaluate_many(table) for g in domain.inequalities]
    eq_values = [h.evaluate_many(table) for h in domain.equalities]
    for j, basis, G in mem.gram_matrices:
        Z = np.empty((n, len(basis)))
        for col, mono in enumerate(basis):
            Z[:, col] = table.evaluate({mono: 1.0})
        sigma = np.einsum("ni,ij,nj->n", Z, G, Z)
        if j == 0:
            total += sigma
        else:
            total += ineq_values[j - 1] * sigma
    for eq_index, p in mem.free_multipliers:
        total += eq_values[eq_index] * p.evaluate_many(table)
    return total


DIFFERENCE_STEP = 1e-6  # the central difference's step along each variable


def finite_difference_audit(
    game: PolynomialGame,
    n_points: int = 20,
    seed: int = DEFAULT_SEED,
    bounding_box=None,
) -> float:
    """Worst deviation between the symbolic pseudogradient and a central
    finite-difference gradient of the payoffs, with step ``DIFFERENCE_STEP``.
    Each payoff is evaluated once, on the up and down shift of every point
    along each variable of its block, stacked; the pseudogradient rows
    share one ``PowerTable`` of the unshifted points.  Without a bounding box the inferred one is used,
    or [-1, 1] for every variable when none can be inferred."""
    if n_points < 1:
        raise ValueError(f"n_points must be at least 1, got {n_points}")
    box = bounding_box if bounding_box is not None else infer_bounding_box(game.domain)
    if box is None:
        box = [(-1.0, 1.0)] * game.n_vars
    lo, hi = _box_limits(box, game.n_vars)
    v = pseudogradient(game)
    # only the rows used: a short Philox draw is the prefix of the block's
    uniforms = np.concatenate([
        _stream(seed, b, DIFFERENCE_STREAM).random((min(SAMPLE_BLOCK, n_points - b * SAMPLE_BLOCK), game.n_vars))
        for b in range(-(-n_points // SAMPLE_BLOCK))
    ])
    points = lo + uniforms * (hi - lo)
    table = PowerTable(points)
    worst = 0.0
    row = 0
    for i, u in enumerate(game.payoffs):
        block = game.block_range(i)
        # shifted[j, 0] moves variable block[j] up by the step, shifted[j, 1] down
        shifted = np.broadcast_to(points, (len(block), 2) + points.shape).copy()
        for j, k in enumerate(block):
            shifted[j, 0, :, k] += DIFFERENCE_STEP
            shifted[j, 1, :, k] -= DIFFERENCE_STEP
        values = u.evaluate_many(shifted.reshape(-1, game.n_vars)).reshape(shifted.shape[:3])
        fd = (values[:, 0] - values[:, 1]) / (2 * DIFFERENCE_STEP)
        for deviation in fd:
            worst = max(worst, float(np.max(np.abs(deviation - v[row].evaluate_many(table)))))
            row += 1
    return worst
