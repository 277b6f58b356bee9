"""Dense primal-dual interior-point solver for block SDPs with free variables.

Problem form (minimization):

    min   sum_b <C_b, X_b> + c_f . u
    s.t.  sum_b <A_ib, X_b> + f_i . u  (= or <=)  b_i      i = 1..m
          X_b PSD,  u free

"<=" rows are turned into equalities with fresh 1x1 slack blocks before
solving or exporting.  The search direction is the HKM/XZ scaled Newton
step with a Mehrotra predictor-corrector.  Blocks of equal size are
stacked, so each step of an iteration runs once per block size; the Schur
complement is formed densely, in Gram form, and free variables are handled
through an augmented system (no PSD splitting).

Constraint data has one stored form, COO arrays: ``Gram`` entries
``(row, block, i, j, value)`` with i <= j, ``Free`` coefficients ``(row,
col, value)``, a rhs array, a "<=" mask, and the objective in the same
layout.  :func:`canonical` validates and sorts what the constructor gets;
read-only input already in canonical order is kept as it is, not copied.

SDPA sparse export writes the equality-form problem with the free scalars
as a trailing negative-size diagonal block; values carry 17 significant
digits so a file round-trips to bit-identical data.  Export and import
stream the entry lines in chunks, so neither holds the file's text whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, compress, groupby
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla


class SdpStatus(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_FAILURE = "NumericalFailure"


class Gram(NamedTuple):
    """Gram-block entries as COO arrays: ``value`` sits at (i, j) and (j, i)
    of block ``block`` in row ``row``."""

    row: np.ndarray
    block: np.ndarray
    i: np.ndarray
    j: np.ndarray
    value: np.ndarray


class Free(NamedTuple):
    """Free-variable coefficients as COO arrays."""

    row: np.ndarray
    col: np.ndarray
    value: np.ndarray


def make_coo(kind, entries=()):
    """A ``Gram`` or ``Free`` from index/value tuples in field order."""
    cols = list(zip(*entries)) or [()] * len(kind._fields)
    return kind(*(np.array(c, dtype=np.int64) for c in cols[:-1]), np.array(cols[-1], dtype=float))


def concat_coo(parts):
    return type(parts[0])(*map(np.concatenate, zip(*parts)))


def _summed(coo, keys, shape):
    """``coo`` sorted by the flat index of ``keys`` in ``shape``, duplicates
    summed in input order and zeros dropped; the arrays are read-only.

    Input whose flat keys already increase strictly is only cleared of
    zeros: a read-only array of it is kept as it is and a writable one is
    copied once, so a caller's array is never frozen."""
    flat = np.ravel_multi_index(keys, shape)
    if np.all(flat[1:] > flat[:-1]):
        nonzero = coo.value != 0
        if nonzero.all():
            out = type(coo)(*(a.copy() if a.flags.writeable else a for a in coo))
        else:
            out = type(coo)(*(a[nonzero] for a in coo))
    else:
        order = np.argsort(flat, kind="stable")
        first = np.flatnonzero(np.diff(flat[order], prepend=-1))
        total = np.add.reduceat(coo.value[order], first)
        pick = order[first[total != 0]]
        out = type(coo)(*(k[pick] for k in coo[:-1]), total[total != 0])
    for a in out:
        a.setflags(write=False)
    return out


def canonical(block_dims, n_free: int, n_rows: int, gram: Gram, free: Free) -> tuple[Gram, Free]:
    """Validate COO constraint data and bring it to the one canonical form:
    (j, i) entries folded onto i <= j, entries sorted by (row, block, i, j)
    and (row, col), duplicates summed and zeros dropped.  Read-only input
    already in that form is kept, not copied."""
    dims = np.array(block_dims, dtype=np.int64)
    row, block, i, j, frow, col = (np.asarray(a, dtype=np.int64) for a in (*gram[:4], *free[:2]))
    if np.any(i > j):
        i, j = np.minimum(i, j), np.maximum(i, j)
    if np.any(bad := (block < 0) | (block >= len(dims))):
        raise ValueError(f"block index {block[bad][0]} out of range")
    if np.any(bad := (i < 0) | (j >= dims[block])):
        k = np.argmax(bad)
        raise ValueError(f"entry ({i[k]},{j[k]}) outside {dims[block[k]]}x{dims[block[k]]} block")
    value, fvalue = np.asarray(gram.value, dtype=float), np.asarray(free.value, dtype=float)
    if not np.isfinite(value).all():
        raise ValueError("non-finite matrix entry")
    if np.any(bad := (col < 0) | (col >= n_free)):
        raise ValueError(f"free-variable index {col[bad][0]} out of range")
    if not np.isfinite(fvalue).all():
        raise ValueError("non-finite free coefficient")
    # a row's Gram entries in the order of the flattened blocks (vec X_1, ..., vec X_k)
    off = np.concatenate(([0], np.cumsum(dims * dims)))
    flat = off[block] + i * dims[block] + j
    return (_summed(Gram(row, block, i, j, value), (row, flat), (n_rows, off[-1])),
            _summed(Free(frow, col, fvalue), (frow, col), (n_rows, n_free)))


@dataclass(frozen=True)
class SdpConstraint:
    """One row of the read-only :attr:`SdpProblem.constraints` view.  Only
    the benchmark's tracer reads it, to count nonzeros; the class and the
    view are deleted in the benchmark change that counts them from
    ``gram`` and ``free``."""

    blocks: tuple[tuple[int, tuple[tuple[int, int, float], ...]], ...]  # (block, ((i, j, value), ...))
    free: tuple[tuple[int, float], ...]  # (col, value)
    rhs: float
    rel: str  # "=" or "<="


class SdpProblem:
    """Block SDP data as COO arrays in the form :func:`canonical` gives.

    ``gram`` and ``free`` hold the constraint rows, ``rhs`` their right-hand
    sides and ``le`` marks the "<=" rows; ``obj_gram`` and ``obj_free`` hold
    the objective in the same layout, as row 0.
    """

    def __init__(self, block_dims, n_free, gram, free, rhs, le, obj_gram, obj_free):
        self.block_dims = tuple(int(d) for d in block_dims)
        if not self.block_dims:
            raise ValueError("a problem needs at least one PSD block")
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        self.n_free = int(n_free)
        self.rhs = np.array(rhs, dtype=float).reshape(-1)
        if not np.isfinite(self.rhs).all():
            raise ValueError("non-finite right-hand side")
        self.le = np.array(le, dtype=bool).reshape(self.rhs.shape)
        self.gram, self.free = canonical(self.block_dims, self.n_free, len(self.rhs), gram, free)
        self.obj_gram, self.obj_free = canonical(self.block_dims, self.n_free, 1, obj_gram, obj_free)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SdpProblem):
            return NotImplemented
        arrays = lambda p: (*p.gram, *p.free, p.rhs, p.le, *p.obj_gram, *p.obj_free)
        return (self.block_dims, self.n_free) == (other.block_dims, other.n_free) and all(
            np.array_equal(a, b) for a, b in zip(arrays(self), arrays(other))
        )

    @property
    def n_constraints(self) -> int:
        return len(self.rhs)

    @property
    def constraints(self) -> tuple[SdpConstraint, ...]:
        """The rows as ``SdpConstraint`` tuples, rebuilt on each access: a
        read-only view for the benchmark's tracer, deleted with
        :class:`SdpConstraint`."""
        blocks, free = [[] for _ in self.rhs], [[] for _ in self.rhs]
        for (r, b), entries in groupby(zip(*(a.tolist() for a in self.gram)), key=lambda e: e[:2]):
            blocks[r].append((b, tuple(e[2:] for e in entries)))
        for r, k, v in zip(*(a.tolist() for a in self.free)):
            free[r].append((k, v))
        rel = ["<=" if le else "=" for le in self.le.tolist()]
        return tuple(map(SdpConstraint, map(tuple, blocks), map(tuple, free), self.rhs.tolist(), rel))

    def to_equality_form(self) -> "SdpProblem":
        """Convert every '<=' row to an equality with a 1x1 slack block."""
        rows = np.flatnonzero(self.le)
        if not len(rows):
            return self
        zero = np.zeros(len(rows), dtype=np.int64)
        slack = Gram(rows, len(self.block_dims) + np.arange(len(rows)), zero, zero, np.ones(len(rows)))
        return SdpProblem(
            self.block_dims + (1,) * len(rows), self.n_free, concat_coo([self.gram, slack]),
            self.free, self.rhs, np.zeros_like(self.le), self.obj_gram, self.obj_free,
        )


@dataclass
class SolveOptions:
    tol: float = 1e-8  # on the scaled residuals and the relative gap
    max_iterations: int = 200


@dataclass
class SdpSolution:
    status: SdpStatus
    primal_blocks: list[np.ndarray] = field(default_factory=list)
    free_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_values: np.ndarray = field(default_factory=lambda: np.zeros(0))
    primal_objective: float = math.nan
    dual_objective: float = math.nan
    primal_residual: float = math.nan
    dual_residual: float = math.nan
    relative_gap: float = math.nan
    iterations: int = 0
    message: str = ""


# ---------------------------------------------------------------------------
# restriction and facial reduction


ZERO_RHS = 1e-30  # a rhs at most this large counts as zero


class Restriction:
    """``original`` restricted to a smaller block layout, and the way back.

    Gram column ``c`` of the flattened blocks (the columns of block 0, then
    those of block 1, ...) moves to position ``pos[c]`` of restricted block
    ``block[c]``, or is dropped when ``block[c] < 0``; the columns of one
    restricted block come from one original block, and an entry joining two
    restricted blocks is dropped.  Free variable k stays when
    ``keep_free[k]``.  A row stays while it keeps an entry or has a rhs
    above ``ZERO_RHS``.  ``problem`` is the restricted problem; :meth:`inflate` maps its
    solution back, with exact zeros in whatever was dropped.
    """

    def __init__(self, original: SdpProblem, block: np.ndarray, pos: np.ndarray, keep_free: np.ndarray):
        self.original, self.block, self.pos, self.keep_free = original, block, pos, keep_free
        self.off = np.cumsum((0,) + original.block_dims)
        free_pos = np.cumsum(keep_free) - 1

        def restrict(gram, free):
            fi, fj = self.off[gram.block] + gram.i, self.off[gram.block] + gram.j
            k = (block[fi] >= 0) & (block[fi] == block[fj])
            kf = keep_free[free.col]
            return (Gram(gram.row[k], block[fi[k]], pos[fi[k]], pos[fj[k]], gram.value[k]),
                    Free(free.row[kf], free_pos[free.col[kf]], free.value[kf]))

        gram, free = restrict(original.gram, original.free)
        m = original.n_constraints
        keep = (np.bincount(gram.row, minlength=m) + np.bincount(free.row, minlength=m) > 0) | (
            np.abs(original.rhs) > ZERO_RHS)
        self.rows = np.flatnonzero(keep)
        renumber = np.cumsum(keep) - 1
        self.problem = SdpProblem(
            np.bincount(block[block >= 0]), int(keep_free.sum()),
            gram._replace(row=renumber[gram.row]), free._replace(row=renumber[free.row]),
            original.rhs[keep], original.le[keep], *restrict(original.obj_gram, original.obj_free),
        )

    def inflate(self, sol: SdpSolution) -> SdpSolution:
        """``sol``, a solution of ``problem``, in the layout of ``original``."""
        if not sol.primal_blocks:
            return sol
        blocks = [np.zeros((d, d)) for d in self.original.block_dims]
        for r, G in enumerate(sol.primal_blocks):
            cols = np.flatnonzero(self.block == r)
            b = np.searchsorted(self.off, cols[0], side="right") - 1
            idx, at = cols - self.off[b], self.pos[cols]
            blocks[b][np.ix_(idx, idx)] = G[np.ix_(at, at)]
        free = np.zeros(self.original.n_free)
        free[self.keep_free] = sol.free_values
        duals = np.zeros(self.original.n_constraints)
        duals[self.rows] = sol.dual_values
        return replace(sol, primal_blocks=blocks, free_values=free, dual_values=duals)


def _facial_reduction(problem: SdpProblem) -> Restriction | None:
    """Forced-zero elimination for an equality-form problem, or None when a
    nonzero coefficient is structurally unreachable.

    A zero-rhs row whose entries are all diagonal with one sign forces those
    diagonal entries, and by PSD-ness the whole rows/columns, to zero: the
    feasible set lies on a face of the cone and no interior point exists.
    Removing the dead columns restores strict feasibility for the reduced
    problem (decomposition SDPs produce such rows for every monomial that
    squares can reach but the target cannot contain).
    """
    g, m = problem.gram, problem.n_constraints
    off = np.cumsum((0,) + problem.block_dims)
    gi, gj = off[g.block] + g.i, off[g.block] + g.j  # columns in one flat index
    dead = np.zeros(off[-1], dtype=bool)
    active = np.ones(m, dtype=bool)
    has_free = np.bincount(problem.free.row, minlength=m) > 0
    zero_rhs = np.abs(problem.rhs) <= ZERO_RHS
    diagonal = g.i == g.j
    # removing columns only shrinks a row's live entries, so a row that
    # qualifies keeps qualifying: sweeping all rows at once against one
    # dead set reaches the fixed point any row order reaches
    while True:
        live = ~dead[gi] & ~dead[gj]
        count = lambda mask: np.bincount(g.row[live & mask], minlength=m)
        n_live = count(True)
        empty = active & ~has_free & (n_live == 0)
        if np.any(empty & ~zero_rhs):
            return None
        n_pos = count(g.value > 0)
        forced = (active & ~has_free & zero_rhs & (n_live > 0) & (count(diagonal) == n_live)
                  & ((n_pos == 0) | (n_pos == n_live)))
        if not np.any(empty | forced):
            break
        dead[gi[live & forced[g.row]]] = True
        active &= ~(empty | forced)

    if dead.all():
        dead[:] = False  # every block died; keep the unreduced problem
    col_block = np.repeat(np.arange(len(problem.block_dims)), problem.block_dims)
    before = np.concatenate(([0], np.cumsum(~dead)))  # live columns before each column
    alive = before[off[1:]] > before[off[:-1]]  # blocks that keep a column
    block = np.where(dead, -1, (np.cumsum(alive) - 1)[col_block])
    pos = before[:-1] - before[off[:-1]][col_block]
    return Restriction(problem, block, pos, np.ones(problem.n_free, dtype=bool))


# ---------------------------------------------------------------------------
# dense assembly


def _T(P: np.ndarray) -> np.ndarray:
    return np.swapaxes(P, -1, -2)


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + _T(P))


def _inner(P: list[np.ndarray], Q: list[np.ndarray]) -> float:
    return sum(float(np.vdot(Pg, Qg)) for Pg, Qg in zip(P, Q))


def _tri_solve(L: np.ndarray, v: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L x = v (trans=0) or L^T x = v (trans=1) for lower-triangular
    L, calling LAPACK directly: the scipy wrapper costs more than the solve
    at these sizes.  Fortran-ordered L avoids a copy."""
    x, info = sla.lapack.dtrtrs(L, v, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


class _Dense:
    """Dense views of an equality-form problem, its blocks grouped by size.

    Group g stacks its blocks in their original order: ``C[g]`` is
    (k, d, d) and ``A[g]`` is (m, k, d, d), so each per-iteration step is
    one stacked call per block size.  Iterates use the same layout, a list
    of (k, d, d) stacks; ``slots[b]`` is the (group, position) of block b.
    """

    def __init__(self, prob: SdpProblem):
        self.dims = prob.block_dims
        self.m = prob.n_constraints
        self.nf = prob.n_free
        sizes = list(dict.fromkeys(self.dims))
        group = {d: g for g, d in enumerate(sizes)}
        counts = [0] * len(sizes)
        self.slots = []
        for d in self.dims:
            self.slots.append((group[d], counts[group[d]]))
            counts[group[d]] += 1
        self.I = [np.broadcast_to(np.eye(d), (k, d, d)) for d, k in zip(sizes, counts)]
        slot_g, slot_p = np.array(self.slots, dtype=np.int64).reshape(-1, 2).T

        def scatter(stacks, gram, lead):
            """Write each entry at (i, j) and (j, i) of its block's slot."""
            g, p = slot_g[gram.block], slot_p[gram.block]
            for k, P in enumerate(stacks):
                s = g == k
                idx = tuple(r[s] for r in lead) + (p[s],)
                P[idx + (gram.i[s], gram.j[s])] = gram.value[s]
                P[idx + (gram.j[s], gram.i[s])] = gram.value[s]
            return stacks

        self.C = scatter([np.zeros(I.shape) for I in self.I], prob.obj_gram, ())
        self.A = scatter([np.zeros((self.m,) + I.shape) for I in self.I], prob.gram, (prob.gram.row,))
        self.cf = np.zeros(self.nf)
        self.cf[prob.obj_free.col] = prob.obj_free.value
        self.F = np.zeros((self.m, self.nf))
        self.F[prob.free.row, prob.free.col] = prob.free.value
        self.b = prob.rhs.copy()
        self.Aflat = [A.reshape(self.m, I.size) for A, I in zip(self.A, self.I)]
        # the Gram-form Schur factor keeps its columns in the original block
        # order, so its QR sees the same matrix whatever the grouping
        self.col_order = None
        if self.slots != sorted(self.slots):
            first = np.cumsum([0] + [I.size for I in self.I])
            self.col_order = np.concatenate(
                [first[g] + p * d * d + np.arange(d * d) for (g, p), d in zip(self.slots, self.dims)]
            )
        self.norm_b = float(np.max(np.abs(self.b), initial=0.0))
        self.norm_C = max(float(np.max(np.abs(P), initial=0.0)) for P in self.C + [self.cf])
        self.norm_A = max(float(np.max(np.abs(P), initial=0.0)) for P in self.A + [self.F])

    def apply_A(self, X: list[np.ndarray], u: np.ndarray | None = None) -> np.ndarray:
        out = sum(Af @ Xg.reshape(-1) for Af, Xg in zip(self.Aflat, X))
        if u is not None and self.nf:
            out = out + self.F @ u
        return out

    def apply_At(self, y: np.ndarray) -> list[np.ndarray]:
        return [(y @ Af).reshape(I.shape) for Af, I in zip(self.Aflat, self.I)]

    def gram_factor(self, Lx: list[np.ndarray], LsInv: list[np.ndarray]) -> np.ndarray:
        """B with row j the flattened blocks of Lx^T A_j Ls^-T, so that the
        Schur complement tr(A_i X A_j S^-1) is B B^T."""
        parts = [
            (_T(L) @ A @ _T(Li)).reshape(self.m, -1) for L, A, Li in zip(Lx, self.A, LsInv)
        ]
        B = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return B if self.col_order is None else B[:, self.col_order]

    def unstack(self, P: list[np.ndarray]) -> list[np.ndarray]:
        """Per-block views of a stacked iterate, in block order."""
        return [P[g][p] for g, p in self.slots]


def _max_step(Linv: list[np.ndarray], D: list[np.ndarray]) -> float:
    """Largest alpha with P + alpha*D PSD in every block, given the inverse
    Cholesky factors of P (P^-1 = Linv^T Linv)."""
    lam_min = min(
        float(np.linalg.eigvalsh(_sym(Li @ Dg @ _T(Li)))[:, 0].min()) for Li, Dg in zip(Linv, D)
    )
    if lam_min >= -1e-13:
        return math.inf
    return -1.0 / lam_min


WARM_PATIENCE = 8  # iterations a warm descent gets to beat the first's feasible gap


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration; never raises on numerical trouble,
    reporting a diagnosed status instead.

    When the first descent stalls on a degenerate face with a feasible
    iterate, one more descent is started from a re-centered copy of that
    iterate.  That descent stops after ``WARM_PATIENCE`` iterations unless
    it has reached a feasible gap below the first's.  Its outcome is
    returned when it converges, or when it stalls with a smaller gap at an
    iterate whose primal and dual residuals are within ``tol``; otherwise
    the first descent's is.  Running out of memory is a NumericalFailure.
    """
    opts = options or SolveOptions()
    reduction = _facial_reduction(problem.to_equality_form())
    if reduction is None:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE,
            message="a target coefficient is structurally unreachable",
        )
    try:
        data = _Dense(reduction.problem)
        if data.m == 0:
            sol = _solve_unconstrained(data)
        else:
            sol, warm = _solve_once(data, opts, None)
            # a returned warm start is a feasible iterate, so IterationLimit means gap > tol
            if warm is not None and sol.status == SdpStatus.ITERATION_LIMIT:
                second, _ = _solve_once(data, opts, warm, sol.relative_gap)
                if second.status == SdpStatus.OPTIMAL or (
                    second.status == SdpStatus.ITERATION_LIMIT
                    and second.relative_gap < sol.relative_gap
                    and max(second.primal_residual, second.dual_residual) <= opts.tol
                ):
                    sol = second
    except MemoryError as exc:
        sol = SdpSolution(status=SdpStatus.NUMERICAL_FAILURE, message=f"out of memory: {exc}")
    sol = reduction.inflate(sol)
    del sol.primal_blocks[len(problem.block_dims):]  # the slack blocks of "<=" rows
    return sol


def _solve_once(data: _Dense, opts: SolveOptions, warm, rival_gap=0.0) -> tuple[SdpSolution, tuple | None]:
    """One descent on the reduced data, reported in its layout.  Returns
    the solution and, when that solution is the best feasible iterate seen,
    the iterate itself as ``(X, S, y, u, mu)`` in stacked form, the warm
    start of a restart; otherwise None.  ``rival_gap`` is the gap a warm
    descent must beat."""
    m, nf = data.m, data.nf
    nu = sum(data.dims)

    if warm is not None:
        X0, S0, y, u, mu0 = warm
        shift = math.sqrt(max(mu0, 1e-14))
        X = [Xg + shift * I for Xg, I in zip(X0, data.I)]
        S = [Sg + shift * I for Sg, I in zip(S0, data.I)]
    else:
        # interior start scaled from the data magnitudes
        xi_p = max(10.0, math.sqrt(max(data.dims)), data.norm_b / max(1.0, data.norm_A))
        xi_d = max(10.0, math.sqrt(max(data.dims)), data.norm_C)
        X = [xi_p * I for I in data.I]
        S = [xi_d * I for I in data.I]
        y = np.zeros(m)
        u = np.zeros(nf)

    # orthogonal splitting of the dual space: y-steps are confined to the
    # nullspace of F^T, so the free-variable dual equation F^T y = c_f is
    # enforced exactly by a projection instead of drifting numerically
    if nf:
        Qf, Rf = np.linalg.qr(data.F, mode="complete")
        Rtri = Rf[:nf, :]
        if nf > m or float(np.min(np.abs(np.diag(Rtri)))) < 1e-12 * max(1.0, float(np.max(np.abs(Rtri)))):
            return SdpSolution(
                status=SdpStatus.NUMERICAL_FAILURE,
                message="free-variable columns are linearly dependent",
            ), None
        Q1, Q2 = Qf[:, :nf], Qf[:, nf:]
        Rf_low = np.asfortranarray(Rtri.T)
    else:
        Q1 = Rf_low = None
        Q2 = np.eye(m)

    best: SdpSolution | None = None
    best_warm = None
    best_age = 0

    def measure():
        """The current iterate's residuals (rp, Rd, rf), objectives, scaled
        primal and dual residuals and relative gap."""
        rp = data.b - data.apply_A(X, u)
        Rd = [C - At - Sg for C, At, Sg in zip(data.C, data.apply_At(y), S)]
        rf = data.cf - data.F.T @ y if nf else np.zeros(0)
        pobj = _inner(data.C, X) + float(data.cf @ u)
        dobj = float(data.b @ y)
        err_p = float(np.max(np.abs(rp))) / (1.0 + data.norm_b)
        err_d = max(float(np.max(np.abs(R))) for R in Rd) / (1.0 + data.norm_C)
        err_f = (float(np.max(np.abs(rf))) / (1.0 + data.norm_C)) if nf else 0.0
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, Rd, rf, pobj, dobj, err_p, max(err_d, err_f), rel_gap

    def build_solution(status, message, it, measures=None) -> SdpSolution:
        """The current iterate, with its ``measures`` when the loop has them."""
        pobj, dobj, err_p, err_d, rel_gap = (measures or measure())[3:]
        return SdpSolution(
            status=status,
            primal_blocks=data.unstack(X),
            free_values=u.copy(),
            dual_values=y,
            primal_objective=pobj,
            dual_objective=dobj,
            primal_residual=err_p,
            dual_residual=err_d,
            relative_gap=rel_gap,
            iterations=it,
            message=message,
        )

    def stop(status, message, it, measures=None):
        """End the descent with the best feasible iterate if there is one,
        else with the current iterate under ``status``."""
        if best is None:
            return build_solution(status, message, it, measures), None
        if best.relative_gap <= opts.tol and best.primal_residual <= opts.tol and best.dual_residual <= opts.tol:
            best.status = SdpStatus.OPTIMAL
            best.message = "converged"
        else:
            best.status = SdpStatus.ITERATION_LIMIT
            best.message = f"gap stalled at {best.relative_gap:.3e} with feasible iterate"
        return best, best_warm

    for it in range(opts.max_iterations):
        if nf:
            # restore F^T y = c_f exactly before measuring residuals
            drift = data.cf - data.F.T @ y
            y = y + Q1 @ _tri_solve(Rf_low, drift)

        measures = measure()
        rp, Rd, rf, pobj, dobj, err_p, err_d, rel_gap = measures
        gap = _inner(X, S)
        mu = gap / nu

        if err_p <= opts.tol and err_d <= opts.tol and rel_gap <= opts.tol:
            return build_solution(SdpStatus.OPTIMAL, "converged", it, measures), None

        # remember the feasible iterate with the smallest gap: on degenerate
        # faces the gap can floor out while feasibility stays excellent, and
        # iterating past that point only does damage
        if err_p <= opts.tol and err_d <= opts.tol:
            if best is None or rel_gap < (1 - 1e-4) * best.relative_gap:
                best = build_solution(SdpStatus.OPTIMAL, "feasible iterate", it, measures)
                # iterates are replaced, never written in place: no copies
                best_warm = (X, S, y, u, mu)
                best_age = 0
            else:
                best_age += 1
        elif best is not None:
            best_age += 1
        if best is not None and (best_age >= 10 or err_p > 1e5 * max(best.primal_residual, 1e-13)):
            return stop(SdpStatus.ITERATION_LIMIT, "", it, measures)
        if warm is not None and it >= WARM_PATIENCE and (best is None or best.relative_gap >= rival_gap):
            return stop(SdpStatus.ITERATION_LIMIT, "warm descent fell behind", it, measures)

        # divergence-based infeasibility certificates
        scale0 = 1.0 + data.norm_b + data.norm_C
        if dobj > 1e6 * scale0 and float(data.b @ y) > 0:
            yhat = y / float(data.b @ y)
            lam = max(float(np.linalg.eigvalsh(At)[:, -1].max()) for At in data.apply_At(yhat))
            fres = float(np.max(np.abs(data.F.T @ yhat))) if nf else 0.0
            tol_inf = 1e-7 * (1.0 + float(np.max(np.abs(yhat)))) * max(1.0, data.norm_A)
            if lam <= tol_inf and fres <= tol_inf:
                return build_solution(SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found", it, measures), None
        if pobj < -1e6 * scale0:
            tr = sum(float(np.einsum("kii->", Xg)) for Xg in X)
            Xhat = [Xg / tr for Xg in X]
            uhat = u / tr
            ares = float(np.max(np.abs(data.apply_A(Xhat, uhat))))
            cval = _inner(data.C, Xhat) + float(data.cf @ uhat)
            if ares <= 1e-7 * max(1.0, data.norm_A) and cval < 0:
                return build_solution(SdpStatus.DUAL_INFEASIBLE, "primal improving ray found", it, measures), None

        # triangular inverses, reused by every step-length bound below
        try:
            Lx = [np.linalg.cholesky(Xg) for Xg in X]
            LxInv = [np.linalg.inv(L) for L in Lx]
            LsInv = [np.linalg.inv(np.linalg.cholesky(Sg)) for Sg in S]
            Sinv = [_T(Li) @ Li for Li in LsInv]
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "iterate left the cone", it, measures)

        # Schur complement M_ij = tr(A_i X A_j S^-1) in explicit Gram form:
        # with B_j = Lx' A_j Ls^-T, M = B B', and the triangular factor of
        # the reduced system comes from a QR of B' -- the solves then see
        # sqrt(cond(M)) instead of cond(M), which is what keeps the late,
        # degenerate-face iterations from drifting off the affine subspace
        Bfull = data.gram_factor(Lx, LsInv)
        BR = Q2.T @ Bfull if nf else Bfull

        m_red = BR.shape[0]
        try:
            Rr = np.linalg.qr(BR.T, mode="r")
            diag = np.abs(np.diag(Rr)) if Rr.shape[0] == m_red else np.zeros(1)
            if float(np.min(diag, initial=math.inf)) < 1e-13 * float(np.max(diag, initial=1.0)):
                # redundant constraints: redo with a tiny Tikhonov tail so
                # the factor is square and positive definite; refinement
                # against the true Gram absorbs the perturbation
                row_norms = np.einsum("ij,ij->i", BR, BR)
                delta = math.sqrt(1e-14 * max(float(np.max(row_norms, initial=0.0)), 1e-30))
                Rr = np.linalg.qr(np.vstack([BR.T, delta * np.eye(m_red)]), mode="r")
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "Schur factorization failed", it, measures)
        Rr_low = np.asfortranarray(Rr.T)

        def reduced_solve(h: np.ndarray):
            """Solve M dy + F du = h with F^T dy = 0, refining in the
            reduced space via the triangular Gram factor."""
            rhs = z = Q2.T @ h if nf else h  # empty when the free columns fill the rows
            if m_red:
                z = _tri_solve(Rr_low, _tri_solve(Rr_low, rhs), trans=1)
                for _ in range(3):
                    res = rhs - BR @ (BR.T @ z)
                    if float(np.max(np.abs(res))) <= 1e-13 * (1.0 + float(np.max(np.abs(rhs)))):
                        break
                    z = z + _tri_solve(Rr_low, _tri_solve(Rr_low, res), trans=1)
            dy = Q2 @ z if nf else z
            if nf:
                du = _tri_solve(Rf_low, Q1.T @ (h - Bfull @ (Bfull.T @ dy)), trans=1)
            else:
                du = np.zeros(0)
            return dy, du

        def directions(Rc: list[np.ndarray]):
            """Solve the Newton system (complementarity target Rc in the XS
            space), then polish with exactly-applied residuals: the formed
            Schur matrix only approximates the true operator once X, S are
            ill-conditioned near a degenerate face."""
            V = [_sym((R - Xg @ Rdg) @ Si) for R, Xg, Rdg, Si in zip(Rc, X, Rd, Sinv)]
            dy, du = reduced_solve(rp - data.apply_A(V))
            dAt = data.apply_At(dy)
            dS = [Rdg - a for Rdg, a in zip(Rd, dAt)]
            dX = [Vg + _sym(Xg @ a @ Si) for Vg, Xg, a, Si in zip(V, X, dAt, Sinv)]
            for _ in range(2):
                r1 = rp - data.apply_A(dX, du)
                err = float(np.max(np.abs(r1)))
                if nf:
                    err = max(err, float(np.max(np.abs(rf - data.F.T @ dy))))
                if err <= 1e-10 * (1.0 + float(np.max(np.abs(rp)))):
                    break
                ey, eu = reduced_solve(r1)
                eAt = data.apply_At(ey)
                dy = dy + ey
                if nf:
                    du = du + eu
                dS = [P - a for P, a in zip(dS, eAt)]
                dX = [P + _sym(Xg @ a @ Si) for P, Xg, a, Si in zip(dX, X, eAt, Sinv)]
            return dX, du, dy, dS

        # predictor (affine scaling)
        XS = [Xg @ Sg for Xg, Sg in zip(X, S)]
        try:
            dXa, _, _, dSa = directions([-P for P in XS])
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "direction solve failed", it, measures)

        ap = min(1.0, _max_step(LxInv, dXa))
        ad = min(1.0, _max_step(LsInv, dSa))
        gap_aff = _inner(
            [Xg + ap * D for Xg, D in zip(X, dXa)], [Sg + ad * D for Sg, D in zip(S, dSa)]
        )
        sigma = min(1.0, max(1e-10, (max(gap_aff, 0.0) / gap) ** 3))

        # Mehrotra corrector; fall back to plain centering if it shortens
        # the step badly
        try:
            dX, du, dy, dS = directions(
                [sigma * mu * I - P - Da @ Db for I, P, Da, Db in zip(data.I, XS, dXa, dSa)]
            )
            step_x, step_s = _max_step(LxInv, dX), _max_step(LsInv, dS)
            if min(1.0, step_x, step_s) < 0.2 * min(ap, ad):
                dX, du, dy, dS = directions([sigma * mu * I - P for I, P in zip(data.I, XS)])
                step_x, step_s = _max_step(LxInv, dX), _max_step(LsInv, dS)
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "direction solve failed", it, measures)

        gamma = 0.95 if it < 2 else 0.98
        ap = min(1.0, gamma * step_x)
        ad = min(1.0, gamma * step_s)
        if ap < 1e-10 and ad < 1e-10:
            return stop(SdpStatus.NUMERICAL_FAILURE, "step length collapsed", it, measures)

        # eigenvalue-based step bounds can overshoot once the blocks are
        # nearly singular; verify with a Cholesky and back off if needed
        def try_step(mats, dirs, alpha):
            for _ in range(40):
                trial = [_sym(P + alpha * D) for P, D in zip(mats, dirs)]
                try:
                    for T in trial:
                        np.linalg.cholesky(T)
                    return trial, alpha
                except np.linalg.LinAlgError:
                    alpha *= 0.8
            return None, 0.0

        newX, ap = try_step(X, dX, ap)
        newS, ad = try_step(S, dS, ad)
        if newX is None or newS is None:
            return stop(SdpStatus.NUMERICAL_FAILURE, "step length collapsed", it, measures)
        X, S = newX, newS
        y = y + ad * dy
        if nf:
            u = u + ap * du

        if not all(np.all(np.isfinite(P)) for P in X + S):
            return stop(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate", it)

    return stop(SdpStatus.ITERATION_LIMIT, "iteration limit reached", opts.max_iterations)


def _solve_unconstrained(data: _Dense) -> SdpSolution:
    """m = 0: optimum is X = 0 iff every C_b is PSD and c_f = 0."""
    if data.nf and np.any(data.cf != 0):
        return SdpSolution(status=SdpStatus.DUAL_INFEASIBLE, message="free objective unbounded")
    if min((float(np.linalg.eigvalsh(C)[:, 0].min()) for C in data.C), default=0.0) < -1e-12:
        return SdpSolution(status=SdpStatus.DUAL_INFEASIBLE, message="objective unbounded over the cone")
    return SdpSolution(
        status=SdpStatus.OPTIMAL,
        primal_blocks=[np.zeros((d, d)) for d in data.dims],
        free_values=np.zeros(data.nf),
        dual_values=np.zeros(0),
        primal_objective=0.0,
        dual_objective=0.0,
        primal_residual=0.0,
        dual_residual=0.0,
        relative_gap=0.0,
        message="no constraints",
    )


# ---------------------------------------------------------------------------
# SDPA sparse files


class SdpaParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


SDPA_CHUNK = 16_384  # entry lines formatted, or about as many read, at a time
_LINE_CHARS = 32  # a typical entry line's length, to size the read chunks
_BRACKETS = str.maketrans(",{}()", "     ")


def export_sdpa(problem: SdpProblem, path: str) -> None:
    """Write the equality-form problem as SDPA sparse text.

    Layout: m / nblocks / block sizes (free scalars as a trailing negative
    diagonal block) / rhs vector, then one "matno blkno i j value" line per
    upper-triangle nonzero, with matno 0 holding the objective.  The entry
    lines are built and written ``SDPA_CHUNK`` at a time from two string
    tables: ``"k "`` for every index k up to the largest one written, and
    ``"%.16e"`` of each distinct value, formatted once and looked up with
    ``searchsorted`` (the stored values are finite and nonzero, so equal
    values have equal text).
    """
    eq = problem.to_equality_form()
    sizes = list(eq.block_dims) + ([-eq.n_free] if eq.n_free else [])
    head = [str(eq.n_constraints), str(len(sizes)), " ".join(map(str, sizes)),
            " ".join("%.16e" % v for v in eq.rhs.tolist())]
    free_blk = len(eq.block_dims) + 1  # 1-based index of the free diagonal block
    og, of, g, f = eq.obj_gram, eq.obj_free, eq.gram, eq.free
    columns = [
        (og.row, of.row, g.row + 1, f.row + 1),
        (og.block + 1, np.full(len(of.col), free_blk), g.block + 1, np.full(len(f.col), free_blk)),
        (og.i + 1, of.col + 1, g.i + 1, f.col + 1),
        (og.j + 1, of.col + 1, g.j + 1, f.col + 1),
        (og.value, of.value, g.value, f.value),
    ]
    # per matno, its Gram entries and then its free ones, each in stored order
    order = np.argsort(np.concatenate(columns[0]), kind="stable")
    columns = [np.concatenate(parts)[order] for parts in columns]
    *indices, value = columns
    values = np.unique(value)
    texts = ("%.16e\n" * len(values) % tuple(values.tolist())).splitlines(keepends=True)
    top = max((int(c.max()) for c in indices if len(c)), default=0)
    fields = [f"{k} " for k in range(top + 1)]
    with open(path, "w") as fh:
        fh.write("\n".join(head) + "\n")
        for start in range(0, len(order), SDPA_CHUNK):
            chunk = slice(start, start + SDPA_CHUNK)
            flat = [None] * (5 * len(value[chunk]))
            for k, c in enumerate(indices):
                flat[k::5] = [fields[x] for x in c[chunk].tolist()]
            flat[4::5] = [texts[x] for x in np.searchsorted(values, value[chunk]).tolist()]
            fh.write("".join(flat))


_ENTRY = np.dtype([("matno", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64), ("value", float)])


def _kept(lines):
    """Which of ``lines`` are neither blank nor a comment."""
    return [text.lstrip()[:1] not in "*\"" for text in lines]


def import_sdpa(path: str) -> SdpProblem:
    """Parse SDPA sparse text back into an equality-form SdpProblem.

    A trailing negative block is read as the free-variable block (the
    convention used by :func:`export_sdpa`); negative blocks elsewhere are
    rejected.  The m and block-count lines are read up to their first
    field and the block-size line up to its first "=", so the labels of the
    SDPA manual's examples pass; commas and brackets separate values.  The
    entry lines are read and parsed in chunks of about ``SDPA_CHUNK`` lines.
    A chunk whose lines all start with a character above "*" and below
    "\\x85" holds no blank or comment line, so it is parsed whole; any
    other chunk is filtered line by line.  The rhs values and the entry
    lines go through one parser, ``numpy.loadtxt``, which a failing chunk
    also retries line by line to name the first bad line.  A number that
    parser rejects (``1_0``, say, which ``float`` reads as 10) or a
    non-finite value or rhs is a parse error of its line.
    """
    with open(path) as fh:
        n_read = 0  # lines read so far

        def header_line():
            """The next line that is neither blank nor a comment, and its number."""
            nonlocal n_read
            for text in iter(fh.readline, ""):
                n_read += 1
                if _kept([text])[0]:
                    return n_read, text
            return n_read, None

        head = [header_line() for _ in range(3)]
        if head[-1][1] is None:
            raise SdpaParseError(n_read, "file truncated before the block sizes")

        def parse_int(pos, what):
            no, text = head[pos]
            text = text.strip()
            try:
                return int(text.split()[0])
            except ValueError as exc:
                raise SdpaParseError(no, f"expected {what}, got {text!r}") from exc

        m = parse_int(0, "constraint count")
        nblocks = parse_int(1, "block count")
        no, text = head[2]
        raw_dims = text.split("=")[0].translate(_BRACKETS).split()
        if len(raw_dims) != nblocks:
            raise SdpaParseError(no, f"expected {nblocks} block sizes, got {len(raw_dims)}")
        try:
            signed_dims = [int(d) for d in raw_dims]
        except ValueError as exc:
            raise SdpaParseError(no, "block sizes must be integers") from exc
        n_free = 0
        if signed_dims and signed_dims[-1] < 0:
            n_free = -signed_dims[-1]
            signed_dims = signed_dims[:-1]
        if any(d <= 0 for d in signed_dims):
            raise SdpaParseError(no, "negative block size allowed only in the last position")
        dims = tuple(signed_dims)

        rhs = []
        if m:
            no, text = header_line()
            if text is None:
                raise SdpaParseError(n_read, "file truncated before the rhs vector")
            rhs_raw = text.translate(_BRACKETS).split()
            if len(rhs_raw) != m:
                raise SdpaParseError(no, f"expected {m} rhs values, got {len(rhs_raw)}")
            try:
                rhs = np.loadtxt([" ".join(rhs_raw)], comments=None, ndmin=1)
            except ValueError as exc:
                raise SdpaParseError(no, "rhs values must be numeric") from exc
            if not np.isfinite(rhs).all():
                raise SdpaParseError(no, "rhs values must be finite")

        parts, numbers = [], []  # parsed entries and their line numbers, per chunk
        while chunk := fh.readlines(SDPA_CHUNK * _LINE_CHARS):
            if min(chunk)[:1] > "*" and max(chunk)[:1] < "\x85":
                # no whitespace character, "*" or '"' lies strictly between
                # "*" and "\x85", so no line here is blank or a comment
                body, nos = chunk, n_read + 1 + np.arange(len(chunk))
            else:
                keep = _kept(chunk)
                body = list(compress(chunk, keep))
                nos = n_read + 1 + np.flatnonzero(keep)
            n_read += len(chunk)
            if not body:
                continue
            try:
                parts.append(np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1))
            except ValueError:
                # name the first line that the same parser rejects on its own
                for no, text in zip(nos.tolist(), body):
                    try:
                        np.loadtxt([text], dtype=_ENTRY, comments=None, ndmin=1)
                    except ValueError:
                        n = len(text.split())
                        raise SdpaParseError(no, "malformed entry line" if n == 5 else
                                             f"expected 5 fields, got {n}") from None
                raise
            numbers.append(nos)

    data = np.concatenate(parts) if parts else np.zeros(0, _ENTRY)
    del parts
    constraints, objective = _split_entries(data, numbers, dims, n_free, m)
    del data  # freed before canonical runs
    return SdpProblem(dims, n_free, *constraints, rhs, np.zeros(m, dtype=bool), *objective)


def _split_entries(data, numbers, dims, n_free, m):
    """Range-check the parsed entry lines, whose line numbers ``numbers``
    holds in chunks, and split them into the COO arrays of the constraints
    and of the objective, read-only so that :func:`canonical` keeps them."""
    free_blk = len(dims) + 1
    matno, blk, i, j, value = (data[name] for name in _ENTRY.names)
    free = (blk == free_blk) & (n_free > 0)
    size = np.array(dims + (0,), dtype=np.int64)[np.clip(blk - 1, 0, len(dims))]
    checks = (
        ((matno < 0) | (matno > m), lambda k: f"matrix number {matno[k]} out of range"),
        (free & (i != j), lambda k: "free block entries must be diagonal"),
        (free & ((i < 1) | (i > n_free)), lambda k: f"free index {i[k]} out of range"),
        (~free & ((blk < 1) | (blk > len(dims))), lambda k: f"block number {blk[k]} out of range"),
        (~free & ((i < 1) | (i > size) | (j < 1) | (j > size)),
         lambda k: f"indices ({i[k]},{j[k]}) outside {size[k]}x{size[k]} block"),
        (~np.isfinite(value), lambda k: "non-finite value"),
    )
    bad = np.any([mask for mask, _ in checks], axis=0)
    if np.any(bad):
        k = int(np.argmax(bad))
        message = next(text for mask, text in checks if mask[k])
        raise SdpaParseError(int(np.concatenate(numbers)[k]), message(k))

    def part(rows):
        g, f = rows & ~free, rows & free
        out = (Gram((matno[g] - 1).clip(0), blk[g] - 1, i[g] - 1, j[g] - 1, value[g]),
               Free((matno[f] - 1).clip(0), i[f] - 1, value[f]))
        for a in chain(*out):
            a.setflags(write=False)
        return out

    return part(matno > 0), part(matno == 0)
