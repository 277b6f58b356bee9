"""Independent numerical verification: sampling bounds and a
self-contained eigensolver.

Everything here deliberately avoids the symbolic certification path: the
eigensolver is cyclic Jacobi (not the SDP), derivatives are checked by
central finite differences, and membership certificates are audited by
pointwise evaluation.  Each check works on whole arrays: the eigensolver
takes an (N, k, k) stack, and points are drawn and tested for membership a
block at a time.

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
from .polynomials import Polynomial

DEFAULT_SEED = 0x5EED


# Matrices of a stack go through the sweeps this many at a time, so the
# working memory does not grow with the stack.
JACOBI_SLICE = 2048


def jacobi_eigenvalues(matrix: np.ndarray, tol: float = 1e-12, max_sweeps: int = 100) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations,
    ascending.  Deterministic and dependency-free on purpose: this is the
    reference the SDP route is checked against.

    ``matrix`` is one (k, k) matrix or an (N, k, k) stack; the result has
    shape (k,) or (N, k).  Every matrix of a stack goes through the same
    sweeps it would get alone, until it converges, so row i of a stacked
    call equals the call on matrix i bit for bit.
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
        values[part] = _jacobi_sweeps(np.array(stack[part]), tol, max_sweeps)
    return values[0] if single else values


def _jacobi_sweeps(A: np.ndarray, tol: float, max_sweeps: int) -> np.ndarray:
    """Ascending eigenvalues of each matrix of the stack A, which is
    overwritten; converged matrices leave the working stack."""
    n = A.shape[1]
    At = A.transpose(0, 2, 1)
    work = np.abs(A)
    size = work.max(axis=(1, 2))
    np.abs(np.subtract(A, At, out=work), out=work)
    if np.any(work.max(axis=(1, 2)) > 1e-10 * (1.0 + size)):
        raise ValueError("matrix is not symmetric")
    A = np.multiply(np.add(A, At, out=work), 0.5, out=A)
    del work, At
    scale = np.where(size > 0.0, size, 1.0)
    values = np.empty(A.shape[:2])
    # A holds the matrices still rotating; lanes[j] is the stack index of A[j]
    lanes = np.arange(A.shape[0])
    for _ in range(max_sweeps):
        diag = np.diagonal(A, axis1=1, axis2=2)
        off = np.sqrt(np.maximum(0.0, (A * A).sum(axis=(1, 2)) - (diag**2).sum(axis=1)))
        running = off > tol * scale[lanes]
        if not running.all():
            values[lanes[~running]] = diag[~running]
            del diag  # a view that would keep the uncompacted stack alive
            A, lanes = A[running], lanes[running]
            if not lanes.size:
                break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = A[:, p, q].copy()
                live = np.abs(apq) > 1e-300
                if not live.any():
                    continue
                # masked lanes get harmless operands, so they raise no warning
                theta = (A[:, q, q] - A[:, p, p]) / (2.0 * np.where(live, apq, 1.0))
                huge = np.abs(theta) > 1e150
                moderate = np.where(huge, 0.0, theta)
                t = np.where(
                    huge,
                    1.0 / (2.0 * np.where(huge, theta, 1.0)),
                    np.copysign(1.0, moderate) / (np.abs(moderate) + np.sqrt(moderate * moderate + 1.0)),
                )
                c = (1.0 / np.sqrt(t * t + 1.0))[:, None]
                s = t[:, None] * c
                lane = live[:, None]
                col_p, col_q = A[:, :, p].copy(), A[:, :, q].copy()
                A[:, :, p] = np.where(lane, c * col_p - s * col_q, col_p)
                A[:, :, q] = np.where(lane, s * col_p + c * col_q, col_q)
                row_p, row_q = A[:, p, :].copy(), A[:, q, :].copy()
                A[:, p, :] = np.where(lane, c * row_p - s * row_q, row_p)
                A[:, q, :] = np.where(lane, s * row_p + c * row_q, row_q)
                A[:, p, q] = A[:, q, p] = np.where(live, 0.0, apq)
    else:  # max_sweeps ran out: take the diagonals as they stand
        values[lanes] = np.diagonal(A, axis1=1, axis2=2)
    values.sort(axis=1)
    return values


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


def sample_domain_points(
    domain: SemialgebraicSet,
    n_samples: int,
    bounding_box=None,
    seed: int = DEFAULT_SEED,
    min_acceptance: float = 1e-4,
) -> tuple[np.ndarray, float]:
    """Rejection-sample points of the set from its bounding box.

    Returns the first ``n_samples`` accepted points in attempt order and the
    acceptance rate up to the attempt that gave the last of them; aborts
    when the rate stays under ``min_acceptance``.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    box = bounding_box if bounding_box is not None else infer_bounding_box(domain)
    if box is None:
        raise ValueError(
            "no bounding box could be inferred; pass one explicitly"
        )
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
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
            if rate < min_acceptance:
                raise RuntimeError(
                    f"rejection sampling acceptance rate {rate:.2e} below {min_acceptance:.0e}; "
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
    the worst per-player Hessian)."""
    points, rate = sample_domain_points(game.domain, n_samples, bounding_box, seed)
    if kind == "monotone":
        matrices = [symmetrized_jacobian(game)]
    elif kind == "concave":
        matrices = [player_hessian(game, i) for i in range(game.n_players) if game.block_sizes[i]]
    else:
        raise ValueError(f"unknown kind {kind!r}")
    best = -math.inf
    best_point = None
    for M in matrices:
        lam = jacobi_eigenvalues(M.evaluate_many(points))[:, -1]
        idx = int(np.argmax(lam))
        if lam[idx] > best:
            best = float(lam[idx])
            best_point = points[idx]
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


def sample_extended_points(
    domain: SemialgebraicSet,
    n_samples: int,
    bounding_box=None,
    seed: int = DEFAULT_SEED,
) -> np.ndarray:
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
    if bounding_box is not None and len(bounding_box) == n:
        bounding_box = [bounding_box[i] for i in base_vars]
    if base_vars:
        base_points, _ = sample_domain_points(base, n_samples, bounding_box, seed)
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
    mismatch_tol: float = 1e-5,
    psd_slack: float = 1e-7,
) -> tuple[bool, float]:
    """Audit a decomposition numerically: evaluate the identity mismatch at
    sampled points of the extended set and check every Gram block stays PSD
    up to slack.  Returns (ok, worst violation)."""
    from .sos import MembershipCertificate  # local import to avoid a cycle

    mem = certificate.memberships[0] if hasattr(certificate, "memberships") else certificate
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
    if worst > psd_slack:
        return False, worst
    points = sample_extended_points(domain, n_samples, seed=seed)
    expansion = _expansion_values(mem, domain, points)
    mismatch = np.abs(target.evaluate_many(points) - expansion)
    worst = max(worst, float(np.max(mismatch)) if mismatch.size else 0.0)
    return worst <= mismatch_tol, worst


def _expansion_values(mem, domain: SemialgebraicSet, points: np.ndarray) -> np.ndarray:
    from .polynomials import Polynomial as P

    n = domain.n_vars
    total = np.zeros(points.shape[0])
    ineq_values = [g.evaluate_many(points) for g in domain.inequalities]
    eq_values = [h.evaluate_many(points) for h in domain.equalities]
    for which, (name, basis, G) in enumerate(mem.gram_matrices):
        Z = np.empty((points.shape[0], len(basis)))
        for col, mono in enumerate(basis):
            Z[:, col] = P.monomial(n, mono).evaluate_many(points)
        sigma = np.einsum("ni,ij,nj->n", Z, G, Z)
        if name == "sigma_0":
            total += sigma
        else:
            total += ineq_values[int(name.split("_")[1]) - 1] * sigma
    for eq_index, p in mem.free_multipliers:
        total += eq_values[eq_index] * p.evaluate_many(points)
    return total


def finite_difference_audit(
    game: PolynomialGame,
    n_points: int = 20,
    step: float = 1e-6,
    seed: int = DEFAULT_SEED,
    bounding_box=None,
) -> float:
    """Worst deviation between the symbolic pseudogradient and a central
    finite-difference gradient of the payoffs."""
    box = bounding_box or infer_bounding_box(game.domain) or [(-1.0, 1.0)] * game.n_vars
    lo = np.array([b[0] for b in box])
    hi = np.array([b[1] for b in box])
    v = pseudogradient(game)
    blocks = range(n_points // SAMPLE_BLOCK + 1)
    uniforms = np.concatenate([_uniform_block(seed, b, DIFFERENCE_STREAM, game.n_vars) for b in blocks])
    points = lo + uniforms[:n_points] * (hi - lo)
    worst = 0.0
    row = 0
    for i, u in enumerate(game.payoffs):
        for k in game.block_range(i):
            shifted_up = points.copy()
            shifted_dn = points.copy()
            shifted_up[:, k] += step
            shifted_dn[:, k] -= step
            fd = (u.evaluate_many(shifted_up) - u.evaluate_many(shifted_dn)) / (2 * step)
            worst = max(worst, float(np.max(np.abs(fd - v[row].evaluate_many(points)), initial=0.0)))
            row += 1
    return worst
