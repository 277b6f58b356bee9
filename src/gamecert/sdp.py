"""Dense primal-dual interior-point solver for block SDPs with free variables.

Problem form (minimization):

    min   sum_b <C_b, X_b> + c_f . u
    s.t.  sum_b <A_ib, X_b> + f_i . u  (= or <=)  b_i      i = 1..m
          X_b PSD,  u free

"<=" rows are turned into equalities with fresh 1x1 slack blocks before
solving or exporting.  The search direction is the HKM/XZ scaled Newton
step with a Mehrotra predictor-corrector.  Blocks of equal size are
stacked, so each step of an iteration runs once per block size; the Schur
complement is formed densely, in Gram form.  Free variables need no PSD
splitting: the rows are rotated once by the complete QR of the free
columns, which then touch only the first n_free rows, so the free-variable
dual equation fixes those duals and the Newton system reduces to the other
rows.

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
    max_iterations: int = 200  # caps the whole descent, both phases together


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


ROTATE_CHUNK = 1 << 19  # about this many entries of an A are rotated at a time


def _T(P: np.ndarray) -> np.ndarray:
    return P.swapaxes(-1, -2)


def _sym(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + _T(P))


def _inner(P: list[np.ndarray], Q: list[np.ndarray]) -> float:
    return sum(float(np.vdot(Pg, Qg)) for Pg, Qg in zip(P, Q))


def _tri_solve(L: np.ndarray, v: np.ndarray, trans: int = 0) -> np.ndarray:
    """Solve L x = v (trans=0) or L^T x = v (trans=1) for lower-triangular
    L, calling LAPACK directly: the scipy wrapper costs more than the solve
    at these sizes.  Fortran-ordered L avoids a copy."""
    if not len(v):  # LAPACK rejects an empty system
        return np.zeros(0)
    x, info = sla.lapack.dtrtrs(L, v, lower=1, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info {info})")
    return x


class _Dense:
    """Dense views of an equality-form problem, its blocks grouped by size,
    with the rows rotated so that the free columns touch only the first nf.

    Group g stacks its blocks in their original order: ``C[g]`` is
    (k, d, d) and ``A[g]`` is (m, k, d, d), so each per-iteration step is
    one stacked call per block size.  Iterates use the same layout, X and S
    of group g paired as one (2, k, d, d) stack so that their factorizations
    and step bounds are one call too; ``slots[b]`` is the (group, position)
    of block b.

    With free columns, the complete QR ``F = Qf [Rf; 0]`` rotates the rows
    once: ``A``, ``b`` and ``F`` hold ``Qf^T A``, ``Qf^T b`` and ``[Rf; 0]``,
    and a dual ``y`` of the original rows is ``Qf y`` of these
    (:meth:`unrotate`).  ``norm_A`` and ``norm_b`` are those of the
    unrotated data.  ``Qf`` is None when there is no rotation: no free
    columns, or dependent ones (``independent`` is False then).
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
        self.norm_b = float(np.max(np.abs(self.b), initial=0.0))
        self.norm_C = max(float(np.max(np.abs(P), initial=0.0)) for P in self.C + [self.cf])
        self.norm_A = max(float(np.max(np.abs(P), initial=0.0)) for P in self.A + [self.F])

        self.Qf, self.independent = None, self.nf <= self.m
        if self.nf and self.independent:
            Qf, R = np.linalg.qr(self.F, mode="complete")
            low = float(np.min(np.abs(np.diag(R))))
            self.independent = low >= 1e-12 * max(1.0, float(np.max(np.abs(R))))
            if self.independent:
                # in place, a chunk of columns at a time: no second A-sized array
                step = max(1, ROTATE_CHUNK // self.m)
                for Af in self.Aflat:
                    for start in range(0, Af.shape[1], step):
                        Af[:, start:start + step] = Qf.T @ Af[:, start:start + step]
                self.Qf, self.b, self.F = Qf, Qf.T @ self.b, R

    def unrotate(self, v: np.ndarray) -> np.ndarray:
        """A vector over the rotated rows, over the original ones."""
        return v if self.Qf is None else self.Qf @ v

    def apply_A(self, X: list[np.ndarray], u: np.ndarray | None = None) -> np.ndarray:
        out = sum(Af @ Xg.reshape(-1) for Af, Xg in zip(self.Aflat, X))
        if u is not None and self.nf:
            out = out + self.F @ u
        return out

    def apply_At(self, y: np.ndarray) -> list[np.ndarray]:
        return [(y @ Af).reshape(I.shape) for Af, I in zip(self.Aflat, self.I)]

    def gram_factor(self, Lx: list[np.ndarray], LsInv: list[np.ndarray]) -> np.ndarray:
        """B with row j the flattened blocks of Lx^T A_j Ls^-T, group after
        group, so that the Schur complement tr(A_i X A_j S^-1) is B B^T
        (which does not depend on the column order)."""
        if len(self.A) == 1:
            return (_T(Lx[0]) @ self.A[0] @ _T(LsInv[0])).reshape(self.m, -1)
        widths = [I.size for I in self.I]
        B = np.empty((self.m, sum(widths)))
        for L, A, Li, start, width in zip(Lx, self.A, LsInv, np.cumsum([0] + widths), widths):
            B[:, start:start + width] = (_T(L) @ A @ _T(Li)).reshape(self.m, -1)
        return B

    def unstack(self, P: list[np.ndarray]) -> list[np.ndarray]:
        """Per-block views of a stacked iterate, in block order."""
        return [P[g][p] for g, p in self.slots]


def _max_step(Linv: list[np.ndarray], D: list[np.ndarray]) -> np.ndarray:
    """Largest alpha per side with P + alpha*D PSD in every block, for
    paired (2, k, d, d) stacks P and D given the inverse Cholesky factors
    of P (P^-1 = Linv^T Linv); inf on a side whose D keeps P PSD."""
    lam_min = np.minimum.reduce(
        [np.linalg.eigvalsh(_sym(Li @ Dg @ _T(Li)))[..., 0].min(axis=1) for Li, Dg in zip(Linv, D)]
    )
    return np.where(lam_min >= -1e-13, math.inf, -1.0 / np.minimum(lam_min, -1e-13))


class _Stall(Exception):
    """Ends a descent early; its args are the (status, message) it reports
    when there is no feasible iterate to fall back on."""


def _back_off(Z: list[np.ndarray], D: list[np.ndarray], alpha: np.ndarray):
    """The trial iterate Z + alpha*D of paired stacks, with its Cholesky
    factors and the step lengths taken.

    Eigenvalue step bounds can overshoot once the blocks are nearly
    singular, so the trial is verified by a Cholesky: a side that fails it
    backs off by 0.8 on its own, and 40 failures on one side end the
    descent."""

    def positive(mats):
        try:
            for P in mats:
                np.linalg.cholesky(P)
        except np.linalg.LinAlgError:
            return False
        return True

    for _ in range(40):
        trial = [_sym(P + alpha[:, None, None, None] * Dg) for P, Dg in zip(Z, D)]
        try:
            return trial, [np.linalg.cholesky(T) for T in trial], alpha
        except np.linalg.LinAlgError:
            ok = [positive([T[side] for T in trial]) for side in (0, 1)]
            alpha = np.where(ok, alpha, 0.8 * alpha)
    raise _Stall(SdpStatus.NUMERICAL_FAILURE, "step length collapsed")


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration; never raises on numerical trouble,
    reporting a diagnosed status instead.

    One descent runs per solve (see ``_solve_once``), and
    ``max_iterations`` caps all of it; ``iterations`` is the index of the
    returned iterate.  Running out of memory is a NumericalFailure.
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
        sol = _solve_unconstrained(data) if data.m == 0 else _solve_once(data, opts)
    except MemoryError as exc:
        sol = SdpSolution(status=SdpStatus.NUMERICAL_FAILURE, message=f"out of memory: {exc}")
    sol = reduction.inflate(sol)
    del sol.primal_blocks[len(problem.block_dims):]  # the slack blocks of "<=" rows
    return sol


def _solve_once(data: _Dense, opts: SolveOptions) -> SdpSolution:
    """One descent on the reduced data, reported in its layout.

    The descent keeps the feasible iterate with the smallest gap.  When it
    would end early with one that has not converged (two steps in a row
    fall short of 0.1, or a step breaks down, a ``LinAlgError`` included),
    it re-centers once instead: ``X`` and ``S`` restart from that
    iterate's, shifted by ``sqrt(mu)*I``, and the descent goes on under the
    same iteration budget.  The next such stop returns the feasible
    iterate with the smallest gap from either phase; a stop with no
    feasible iterate reports the current one with the stop's status,
    ``NumericalFailure`` and numpy's message for a ``LinAlgError``.
    """
    m, nf = data.m, data.nf
    nu = sum(data.dims)
    if not data.independent:
        return SdpSolution(
            status=SdpStatus.NUMERICAL_FAILURE,
            message="free-variable columns are linearly dependent",
        )

    # interior start scaled from the data magnitudes
    xi_p = max(10.0, math.sqrt(max(data.dims)), data.norm_b / max(1.0, data.norm_A))
    xi_d = max(10.0, math.sqrt(max(data.dims)), data.norm_C)
    Z = [np.stack([xi_p * I, xi_d * I]) for I in data.I]  # X and S paired per group
    L = None  # Cholesky factors of Z, carried over from the accepted trial
    X, S = [P[0] for P in Z], [P[1] for P in Z]
    u = np.zeros(nf)

    # in the rotated rows the free-variable dual equation F^T y = c_f reads
    # Rf^T y[:nf] = c_f: y[:nf] is fixed once, and y-steps move y[nf:] only
    Rf_low = np.asfortranarray(data.F[:nf].T)
    y = np.zeros(m)
    y[:nf] = _tri_solve(Rf_low, data.cf)

    best: SdpSolution | None = None
    best_point = None  # its (Z, y, u, mu), the start of a re-centering
    short_steps = 0  # consecutive steps with min(ap, ad) < 0.1
    recentered = False

    def measure():
        """The current iterate's residuals (rp, rotated, and Rd), objectives,
        scaled primal and dual residuals and relative gap.  The primal one
        is measured over the original rows, so that the stopping test does
        not depend on the rotation."""
        rp = data.b - data.apply_A(X, u)
        Rd = [C - At - Sg for C, At, Sg in zip(data.C, data.apply_At(y), S)]
        pobj = _inner(data.C, X) + float(data.cf @ u)
        dobj = float(data.b @ y)
        err_p = float(np.abs(data.unrotate(rp)).max()) / (1.0 + data.norm_b)
        err_d = max(float(np.abs(R).max()) for R in Rd) / (1.0 + data.norm_C)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, Rd, pobj, dobj, err_p, err_d, rel_gap

    def build_solution(status, message, it, measures=None) -> SdpSolution:
        """The current iterate, with its ``measures`` when the loop has them."""
        pobj, dobj, err_p, err_d, rel_gap = (measures or measure())[2:]
        return SdpSolution(
            status=status,
            primal_blocks=data.unstack(X),
            free_values=u.copy(),
            dual_values=data.unrotate(y),
            primal_objective=pobj,
            dual_objective=dobj,
            primal_residual=err_p,
            dual_residual=err_d,
            relative_gap=rel_gap,
            iterations=it,
            message=message,
        )

    for it in range(opts.max_iterations):
        measures = measure()
        rp, Rd, pobj, dobj, err_p, err_d, rel_gap = measures
        gap = _inner(X, S)
        mu = gap / nu

        if err_p <= opts.tol and err_d <= opts.tol and rel_gap <= opts.tol:
            return build_solution(SdpStatus.OPTIMAL, "converged", it, measures)

        # remember the feasible iterate with the smallest gap: on degenerate
        # faces the gap can floor out while feasibility stays excellent, and
        # iterating past that point only does damage
        if err_p <= opts.tol and err_d <= opts.tol:
            if best is None or rel_gap < (1 - 1e-4) * best.relative_gap:
                best = build_solution(
                    SdpStatus.ITERATION_LIMIT, f"gap stalled at {rel_gap:.3e} with feasible iterate", it, measures
                )
                # iterates are replaced, never written in place: no copies
                best_point = (Z, y, u, mu)

        try:
            # divergence-based infeasibility certificates
            scale0 = 1.0 + data.norm_b + data.norm_C
            if dobj > 1e6 * scale0:
                yhat = y / dobj
                lam = max(float(np.linalg.eigvalsh(At)[:, -1].max()) for At in data.apply_At(yhat))
                fres = float(np.max(np.abs(data.F.T @ yhat), initial=0.0))
                tol_inf = 1e-7 * (1.0 + float(np.max(np.abs(data.unrotate(yhat))))) * max(1.0, data.norm_A)
                if lam <= tol_inf and fres <= tol_inf:
                    return build_solution(SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found", it, measures)
            if pobj < -1e6 * scale0:
                tr = sum(float(np.einsum("kii->", Xg)) for Xg in X)
                Xhat = [Xg / tr for Xg in X]
                uhat = u / tr
                ares = float(np.max(np.abs(data.unrotate(data.apply_A(Xhat, uhat)))))
                cval = _inner(data.C, Xhat) + float(data.cf @ uhat)
                if ares <= 1e-7 * max(1.0, data.norm_A) and cval < 0:
                    return build_solution(SdpStatus.DUAL_INFEASIBLE, "primal improving ray found", it, measures)

            # triangular inverses, reused by every step-length bound below
            if L is None:
                L = [np.linalg.cholesky(P) for P in Z]
            Linv = [np.linalg.inv(P) for P in L]
            Lx, LsInv = [P[0] for P in L], [P[1] for P in Linv]
            Sinv = [_T(Li) @ Li for Li in LsInv]
            XRd = [Xg @ Rdg for Xg, Rdg in zip(X, Rd)]

            # Schur complement M_ij = tr(A_i X A_j S^-1) in explicit Gram form:
            # with B_j = Lx' A_j Ls^-T, M = B B', and the triangular factor of
            # the reduced system comes from a QR of B' -- the solves then see
            # sqrt(cond(M)) instead of cond(M), which is what keeps the late,
            # degenerate-face iterations from drifting off the affine subspace.
            # The rows past nf are those the y-steps move: their factor BR is
            # the reduced system's
            B = data.gram_factor(Lx, LsInv)
            B1, BR = B[:nf], B[nf:]

            m_red = m - nf
            Rr = np.linalg.qr(BR.T, mode="r")
            diag = np.abs(np.diag(Rr)) if Rr.shape[0] == m_red else np.zeros(1)
            if float(np.min(diag, initial=math.inf)) < 1e-13 * float(np.max(diag, initial=1.0)):
                # redundant constraints: redo with a tiny Tikhonov tail so
                # the factor is square and positive definite; refinement
                # against the true Gram absorbs the perturbation
                row_norms = np.einsum("ij,ij->i", BR, BR)
                delta = math.sqrt(1e-14 * max(float(np.max(row_norms, initial=0.0)), 1e-30))
                Rr = np.linalg.qr(np.vstack([BR.T, delta * np.eye(m_red)]), mode="r")
            Rr_low = np.asfortranarray(Rr.T)

            def reduced_solve(h: np.ndarray):
                """Solve M dy + F du = h with F^T dy = 0, that is dy[:nf] = 0,
                refining in the reduced space via the triangular Gram factor."""
                rhs = z = h[nf:]  # empty when the free columns fill the rows
                if m_red:
                    z = _tri_solve(Rr_low, _tri_solve(Rr_low, rhs), trans=1)
                    for _ in range(3):
                        res = rhs - BR @ (BR.T @ z)
                        if float(np.abs(res).max()) <= 1e-13 * (1.0 + float(np.abs(rhs).max())):
                            break
                        z = z + _tri_solve(Rr_low, _tri_solve(Rr_low, res), trans=1)
                du = _tri_solve(Rf_low, h[:nf] - B1 @ (BR.T @ z), trans=1)
                return np.concatenate((np.zeros(nf), z)), du

            # the polish measures its residual over the original rows, as the stopping test does
            rp_max = float(np.abs(data.unrotate(rp)).max())

            def directions(Rc: list[np.ndarray]):
                """Solve the Newton system (complementarity target Rc in the XS
                space), then polish with exactly-applied residuals: the formed
                Schur matrix only approximates the true operator once X, S are
                ill-conditioned near a degenerate face."""
                V = [_sym((R - XR) @ Si) for R, XR, Si in zip(Rc, XRd, Sinv)]
                dy, du = reduced_solve(rp - data.apply_A(V))
                D = [np.empty((2,) + I.shape) for I in data.I]  # dX and dS paired
                for Dg, Vg, Xg, a, Rdg, Si in zip(D, V, X, data.apply_At(dy), Rd, Sinv):
                    np.add(Vg, _sym(Xg @ a @ Si), out=Dg[0])
                    np.subtract(Rdg, a, out=Dg[1])
                for _ in range(2):
                    r1 = rp - data.apply_A([Dg[0] for Dg in D], du)
                    if float(np.abs(data.unrotate(r1)).max()) <= 1e-10 * (1.0 + rp_max):
                        break
                    ey, eu = reduced_solve(r1)
                    dy, du = dy + ey, du + eu
                    for Dg, Xg, a, Si in zip(D, X, data.apply_At(ey), Sinv):
                        Dg[0] += _sym(Xg @ a @ Si)
                        Dg[1] -= a
                return D, du, dy

            # predictor (affine scaling)
            XS = [Xg @ Sg for Xg, Sg in zip(X, S)]
            Da, _, _ = directions([-P for P in XS])
            ap, ad = alpha = np.minimum(1.0, _max_step(Linv, Da))
            aff = [P + alpha[:, None, None, None] * Dg for P, Dg in zip(Z, Da)]
            gap_aff = _inner([P[0] for P in aff], [P[1] for P in aff])
            sigma = min(1.0, max(1e-10, (max(gap_aff, 0.0) / gap) ** 3))

            # Mehrotra corrector
            D, du, dy = directions(
                [sigma * mu * I - P - Dg[0] @ Dg[1] for I, P, Dg in zip(data.I, XS, Da)]
            )
            steps = _max_step(Linv, D)

            gamma = 0.95 if it < 2 else 0.98
            alpha = np.minimum(1.0, gamma * steps)
            if alpha.max() < 1e-10:
                raise _Stall(SdpStatus.NUMERICAL_FAILURE, "step length collapsed")
            trial, factors, (ap, ad) = _back_off(Z, D, alpha)
            if not all(np.isfinite(P).all() for P in trial):
                raise _Stall(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate")
            Z, L = trial, factors
            X, S = [P[0] for P in Z], [P[1] for P in Z]
            y = y + ad * dy
            u = u + ap * du
            # a second short step in a row means the phase has stalled
            short_steps = short_steps + 1 if min(ap, ad) < 0.1 else 0
            if short_steps >= 2 and best is not None:
                raise _Stall(SdpStatus.ITERATION_LIMIT, "")
        except (_Stall, np.linalg.LinAlgError) as halt:
            # every stop short of convergence or an infeasibility ray comes
            # here, a linear-algebra breakdown included: without a feasible
            # iterate the current one is reported; the best feasible one is
            # re-centered once, then returned
            if best is None:
                stop = halt.args if isinstance(halt, _Stall) else (SdpStatus.NUMERICAL_FAILURE, str(halt))
                return build_solution(*stop, it, measures)
            if recentered:
                return best
            Z0, y, u, mu0 = best_point
            shift = math.sqrt(max(mu0, 1e-14))
            Z, L = [P + shift * I for P, I in zip(Z0, data.I)], None
            X, S = [P[0] for P in Z], [P[1] for P in Z]
            recentered, short_steps = True, 0

    if best is not None:
        return best
    return build_solution(SdpStatus.ITERATION_LIMIT, "iteration limit reached", opts.max_iterations)


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
            " ".join(["%.16e"] * len(eq.rhs)) % tuple(eq.rhs.tolist())]
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
