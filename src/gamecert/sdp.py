"""Dense primal-dual interior-point solver for block SDPs with free variables.

Problem form (minimization):

    min   sum_b <C_b, X_b> + c_f . u
    s.t.  sum_b <A_ib, X_b> + f_i . u  =  b_i      i = 1..m
          X_b PSD,  u free

An inequality is stated with a 1x1 block of its own as the slack.  The
search direction is the HKM/XZ scaled Newton step with a Mehrotra predictor-corrector.  Blocks of equal size are
stacked, so each step of an iteration runs once per block size; the Schur
complement is formed densely, in Gram form.  Free variables need no PSD
splitting: the rows are rotated once by the complete QR of the free
columns, which then touch only the first n_free rows, so the free-variable
dual equation fixes those duals and the Newton system reduces to the other
rows.  Everything is numpy: the triangular factors are inverted by block
recursion (:func:`_upper_inverse`), so no solve needs LAPACK's ``trtrs``.

Constraint data has one stored form, COO arrays: ``Gram`` entries
``(row, block, i, j, value)`` with i <= j, ``Free`` coefficients ``(row,
col, value)``, a rhs array, and the objective in the same layout; every
index array is ``INDEX`` (int32).  :func:`canonical` validates and sorts what the constructor gets;
read-only input already in canonical order is kept as it is, not copied.

SDPA sparse export writes the problem with the free scalars as a trailing negative-size diagonal block; values carry 17 significant
digits so a file round-trips to bit-identical data.  Export and import
stream the entry lines in chunks, so neither holds the file's text whole
nor a second copy of the entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import compress, groupby
from typing import NamedTuple

import numpy as np


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


INDEX = np.int32  # the dtype of every COO index array
_INDEX_RANGE = np.iinfo(INDEX)


def make_coo(kind, entries=()):
    """A ``Gram`` or ``Free`` from index/value tuples in field order."""
    cols = list(zip(*entries)) or [()] * len(kind._fields)
    return kind(*map(_indices, cols[:-1]), np.array(cols[-1], dtype=float))


def _indices(a) -> np.ndarray:
    """``a`` as an ``INDEX`` array, kept when it is one already; a value
    ``INDEX`` cannot hold is a ``ValueError`` instead of wrapping."""
    a = np.asarray(a)
    if a.dtype != INDEX and a.size:
        low, high = a.min(), a.max()
        if low < _INDEX_RANGE.min or high > _INDEX_RANGE.max:
            raise ValueError(f"index {low if low < _INDEX_RANGE.min else high} does not fit {_INDEX_RANGE.dtype}")
    return a.astype(INDEX, copy=False)


def concat_coo(parts: list):
    """One read-only ``Gram`` or ``Free`` joining ``parts``.  It empties
    ``parts``, so that each array's pieces are freed once it is joined."""
    kind, pieces = type(parts[0]), [list(c) for c in zip(*parts)]
    parts.clear()
    out = []
    while pieces:
        out.append(np.concatenate(pieces.pop(0)))
        out[-1].setflags(write=False)
    return kind(*out)


def _summed(coo, flat):
    """``coo`` sorted by the int64 keys ``flat``, one per entry, duplicates
    summed in input order and zeros dropped; the arrays are read-only.

    Input whose keys already increase strictly is only cleared of zeros: a
    read-only array of it is kept as it is and a writable one is copied
    once, so a caller's array is never frozen."""
    if np.all(flat[1:] > flat[:-1]):
        nonzero = coo.value != 0
        if nonzero.all():
            out = type(coo)(*(a.copy() if a.flags.writeable else a for a in coo))
        else:
            out = type(coo)(*(a[nonzero] for a in coo))
    else:
        order = np.argsort(flat, kind="stable")
        flat = flat[order]  # frees the unsorted keys when this call holds their one reference
        first = np.concatenate(([True], flat[1:] != flat[:-1]))  # where each key's run starts
        del flat
        if first.all():  # no duplicates: the sort is a permutation and sums nothing
            total = coo.value[order]
        else:
            first = np.flatnonzero(first)
            total, order = np.add.reduceat(coo.value[order], first), order[first]
        del first
        if not (nonzero := total != 0).all():
            total, order = total[nonzero], order[nonzero]
        out = type(coo)(*(k[order] for k in coo[:-1]), total)
    for a in out:
        a.setflags(write=False)
    return out


def canonical(block_dims, n_free: int, n_rows: int, gram: Gram, free: Free) -> tuple[Gram, Free]:
    """Validate COO constraint data and bring it to the one canonical form:
    (j, i) entries folded onto i <= j, entries sorted by (row, block, i, j)
    and (row, col), duplicates summed and zeros dropped, every index array
    ``INDEX``.  Read-only input already in that form is kept, not copied."""
    dims = np.array(block_dims, dtype=np.int64)
    row, block, i, j, frow, col = map(_indices, (*gram[:4], *free[:2]))
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
    # the keys are made in the calls, so that _summed holds their one reference
    return (_summed(Gram(row, block, i, j, value), _gram_keys(dims, n_rows, row, block, i, j)),
            _summed(Free(frow, col, fvalue), np.ravel_multi_index((frow, col), (n_rows, n_free))))


def _gram_keys(dims, n_rows, row, block, i, j) -> np.ndarray:
    """The int64 sort key of each Gram entry: by row, then in the order of
    the flattened blocks (vec X_1, ..., vec X_k).  Built in place, so that
    no more than two entry-sized int64 arrays live at once."""
    off = np.concatenate(([0], np.cumsum(dims * dims)))
    flat = dims[block] * i
    flat += off[block]
    flat += j
    return np.ravel_multi_index((row, flat), (n_rows, off[-1]))  # also checks each row


@dataclass(frozen=True)
class SdpConstraint:
    """One row of the read-only :attr:`SdpProblem.constraints` view.  Only
    the benchmark's tracer reads it, to count nonzeros; the class and the
    view are deleted in the benchmark change that counts them from
    ``gram`` and ``free``."""

    blocks: tuple[tuple[int, tuple[tuple[int, int, float], ...]], ...]  # (block, ((i, j, value), ...))
    free: tuple[tuple[int, float], ...]  # (col, value)
    rhs: float


class SdpProblem:
    """Block SDP data as COO arrays in the form :func:`canonical` gives.

    ``gram`` and ``free`` hold the equality rows and ``rhs`` their right-hand
    sides; ``obj_gram`` and ``obj_free`` hold the objective in the same
    layout, as row 0.
    """

    def __init__(self, block_dims, n_free, gram, free, rhs, obj_gram, obj_free):
        self.block_dims = tuple(int(d) for d in block_dims)
        if not self.block_dims:
            raise ValueError("a problem needs at least one PSD block")
        if any(d <= 0 for d in self.block_dims):
            raise ValueError("block dimensions must be positive")
        self.n_free = int(n_free)
        self.rhs = np.array(rhs, dtype=float).reshape(-1)
        if not np.isfinite(self.rhs).all():
            raise ValueError("non-finite right-hand side")
        self.gram, self.free = canonical(self.block_dims, self.n_free, len(self.rhs), gram, free)
        self.obj_gram, self.obj_free = canonical(self.block_dims, self.n_free, 1, obj_gram, obj_free)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SdpProblem):
            return NotImplemented
        arrays = lambda p: (*p.gram, *p.free, p.rhs, *p.obj_gram, *p.obj_free)
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
        return tuple(map(SdpConstraint, map(tuple, blocks), map(tuple, free), self.rhs.tolist()))


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
            original.rhs[keep], *restrict(original.obj_gram, original.obj_free),
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
    """Forced-zero elimination for ``problem``, or None when a
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


def _upper_inverse(R: np.ndarray) -> np.ndarray:
    """Invert the upper-triangular R (zeros below the diagonal) in place, by
    2x2 block recursion (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, §14.2): with R = [[A, B], [0, C]],
    R^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]].  That is about 2m^3/3 flops,
    nearly all in matrix products; blocks of order <= 32 go to
    ``np.linalg.inv``, so a zero on the diagonal raises ``LinAlgError``.  It works in place because
    a second R-sized array per iteration tipped glibc into handing heap
    pages back to the system and faulting them in again: about 8,000 page
    faults, 6% of the time, per solve of deg4 at level 4."""
    m = R.shape[0]
    if m <= 32:
        R[...] = np.linalg.inv(R)
        return R
    k = m // 2
    Ai, Ci = _upper_inverse(R[:k, :k]), _upper_inverse(R[k:, k:])
    R[:k, k:] = -(Ai @ R[:k, k:]) @ Ci
    return R


class _Dense:
    """Dense views of a problem, its blocks grouped by size,
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
    """Ends a descent early; its message is the NumericalFailure it reports
    when there is no feasible iterate to fall back on."""


def solve(problem: SdpProblem, options: SolveOptions | None = None) -> SdpSolution:
    """Run the interior-point iteration; never raises on numerical trouble,
    reporting a diagnosed status instead.

    One descent runs per solve (see ``_solve_once``), and
    ``max_iterations`` caps all of it; ``iterations`` is the index of the
    returned iterate.  Running out of memory is a NumericalFailure.
    """
    opts = options or SolveOptions()
    reduction = _facial_reduction(problem)
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
    return reduction.inflate(sol)


def _solve_once(data: _Dense, opts: SolveOptions) -> SdpSolution:
    """One descent on the reduced data, reported in its layout.

    The descent keeps the feasible iterate with the smallest gap.  When it
    would end early with one that has not converged (two steps in a row
    fall short of 0.1, or a step breaks down: a ``LinAlgError``, a trial
    iterate that fails its Cholesky included), it re-centers once instead:
    ``X`` and ``S`` restart from that iterate's, shifted by ``sqrt(mu)*I``,
    and the descent goes on under the same iteration budget.  The next such
    stop returns the feasible iterate with the smallest gap from either
    phase; a stop with no feasible iterate reports the current one as
    ``NumericalFailure``, with the stop's message or numpy's.
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
    # Rf^T y[:nf] = c_f: y[:nf] is fixed once, and y-steps move y[nf:] only.
    # Rf is inverted once per solve; it is nonsingular, as checked above
    Rf_inv = _upper_inverse(data.F[:nf].copy())
    y = np.zeros(m)
    y[:nf] = Rf_inv.T @ data.cf

    best: SdpSolution | None = None
    best_point = None  # its (Z, y, u, mu), the start of a re-centering
    short_steps = 0  # consecutive steps with min(ap, ad) < 0.1
    recentered = False

    def measure():
        """The current iterate's residuals (rp, rotated, its largest entry
        over the original rows, and Rd), objectives, scaled primal and dual
        residuals and relative gap.  The primal ones are measured over the
        original rows, so that the stopping test does not depend on the
        rotation."""
        rp = data.b - data.apply_A(X, u)
        rp_max = float(np.abs(data.unrotate(rp)).max())
        Rd = [C - At - Sg for C, At, Sg in zip(data.C, data.apply_At(y), S)]
        pobj = _inner(data.C, X) + float(data.cf @ u)
        dobj = float(data.b @ y)
        err_p = rp_max / (1.0 + data.norm_b)
        err_d = max(float(np.abs(R).max()) for R in Rd) / (1.0 + data.norm_C)
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        return rp, rp_max, Rd, pobj, dobj, err_p, err_d, rel_gap

    def build_solution(status, message, it, measures=None) -> SdpSolution:
        """The current iterate, with its ``measures`` when the loop has them."""
        pobj, dobj, err_p, err_d, rel_gap = (measures or measure())[3:]
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
        rp, rp_max, Rd, pobj, dobj, err_p, err_d, rel_gap = measures
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
            # the reduced system's.  Its triangular factor is inverted once
            # per factorization, and every solve is two matrix-vector products
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
            Rr_inv = _upper_inverse(Rr)

            def reduced_solve(h: np.ndarray):
                """Solve M dy + F du = h with F^T dy = 0, that is dy[:nf] = 0,
                refining in the reduced space via the triangular Gram factor."""
                rhs = z = h[nf:]  # empty when the free columns fill the rows
                if m_red:
                    z = Rr_inv @ (Rr_inv.T @ rhs)
                    for _ in range(3):
                        res = rhs - BR @ (BR.T @ z)
                        if float(np.abs(res).max()) <= 1e-13 * (1.0 + float(np.abs(rhs).max())):
                            break
                        z = z + Rr_inv @ (Rr_inv.T @ res)
                du = Rf_inv @ (h[:nf] - B1 @ (BR.T @ z))
                return np.concatenate((np.zeros(nf), z)), du

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
                raise _Stall("step length collapsed")
            ap, ad = alpha
            trial = [_sym(P + alpha[:, None, None, None] * Dg) for P, Dg in zip(Z, D)]
            if not all(np.isfinite(P).all() for P in trial):
                raise _Stall("non-finite iterate")
            # eigenvalue step bounds can overshoot once the blocks are nearly
            # singular: a trial that fails its Cholesky is a breakdown too
            Z, L = trial, [np.linalg.cholesky(P) for P in trial]
            X, S = [P[0] for P in Z], [P[1] for P in Z]
            y = y + ad * dy
            u = u + ap * du
            # a second short step in a row means the phase has stalled
            short_steps = short_steps + 1 if min(ap, ad) < 0.1 else 0
            if short_steps >= 2 and best is not None:
                raise _Stall()
        except (_Stall, np.linalg.LinAlgError) as halt:
            # every stop short of convergence or an infeasibility ray comes
            # here, a linear-algebra breakdown included: without a feasible
            # iterate the current one is reported; the best feasible one is
            # re-centered once, then returned
            if best is None:
                return build_solution(SdpStatus.NUMERICAL_FAILURE, str(halt), it, measures)
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
    """Write ``problem`` as SDPA sparse text.

    Layout: m / nblocks / block sizes (free scalars as a trailing negative
    diagonal block) / rhs vector, then one "matno blkno i j value" line per
    upper-triangle nonzero, with matno 0 holding the objective and each
    matno its Gram entries and then its free ones, each in stored order.
    The entry lines are built and written for whole rows about
    ``SDPA_CHUNK`` lines at a time, from a table of ``"k "`` for every
    index k up to the largest one a line can hold and from ``"%.16e"`` of
    each distinct value of the chunk, formatted once (the stored values are
    finite and nonzero, so equal values have equal text).
    """
    sizes = list(problem.block_dims) + ([-problem.n_free] if problem.n_free else [])
    head = [str(problem.n_constraints), str(len(sizes)), " ".join(map(str, sizes)),
            " ".join(["%.16e"] * len(problem.rhs)) % tuple(problem.rhs.tolist())]
    free_blk = len(problem.block_dims) + 1  # 1-based index of the free diagonal block
    written = (*problem.obj_gram[1:4], problem.obj_free.col, *problem.gram[1:4], problem.free.col)
    top = max([problem.n_constraints, free_blk] + [int(a.max()) + 1 for a in written if len(a)])
    fields = [f"{k} " for k in range(top + 1)]
    with open(path, "w") as fh:
        fh.write("\n".join(head) + "\n")
        for first, g, f, n_rows in ((0, problem.obj_gram, problem.obj_free, 1),
                                    (1, problem.gram, problem.free, problem.n_constraints)):
            for gs, fs in _row_chunks(g.row, f.row, n_rows):
                columns = [np.concatenate(parts) for parts in (
                    (g.row[gs] + first, f.row[fs] + first),
                    (g.block[gs] + 1, np.full(fs.stop - fs.start, free_blk, dtype=INDEX)),
                    (g.i[gs] + 1, f.col[fs] + 1),
                    (g.j[gs] + 1, f.col[fs] + 1),
                    (g.value[gs], f.value[fs]),
                )]
                order = np.argsort(columns[0], kind="stable")  # per row, Gram entries first
                *indices, value = (c[order] for c in columns)
                values, at = np.unique(value, return_inverse=True)
                texts = ("%.16e\n" * len(values) % tuple(values.tolist())).splitlines(keepends=True)
                flat = [None] * (5 * len(value))
                for k, c in enumerate(indices):
                    flat[k::5] = [fields[x] for x in c.tolist()]
                flat[4::5] = [texts[x] for x in at.tolist()]
                fh.write("".join(flat))


def _row_chunks(gram_row, free_row, n_rows):
    """Slice pairs of the sorted row arrays ``gram_row`` and ``free_row``
    that cover rows ``0..n_rows-1`` in order, whole rows of about
    ``SDPA_CHUNK`` entries together (a longer row alone)."""
    rows = np.arange(n_rows + 1, dtype=INDEX)  # the rows' dtype, so that searchsorted casts neither
    g_at, f_at = np.searchsorted(gram_row, rows), np.searchsorted(free_row, rows)
    before = g_at + f_at  # entries in the rows before each row
    cuts = np.unique(np.append(np.searchsorted(before, np.arange(0, before[-1], SDPA_CHUNK)), n_rows))
    return [(slice(g_at[a], g_at[b]), slice(f_at[a], f_at[b])) for a, b in zip(cuts[:-1], cuts[1:])]


_ENTRY = np.dtype([("matno", INDEX), ("blk", INDEX), ("i", INDEX), ("j", INDEX), ("value", float)])
# the same fields with int64 indices, to name an index that INDEX cannot hold
_WIDE_ENTRY = np.dtype([("matno", np.int64), ("blk", np.int64), ("i", np.int64), ("j", np.int64), ("value", float)])


def _kept(lines):
    """Which of ``lines`` are neither blank nor a comment."""
    return [text.lstrip()[:1] not in "*\"" for text in lines]


def import_sdpa(path: str) -> SdpProblem:
    """Parse SDPA sparse text back into an SdpProblem.

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
    parser rejects (``1_0``, say, which ``float`` reads as 10), an index
    that does not fit ``INDEX``, or a non-finite value or rhs is a parse
    error of its line.  Each chunk is range-checked and split into pieces of
    the COO arrays as it is parsed; each array is one concatenation of its
    pieces at the end.  The first line out of range is reported only once
    the whole file has parsed, so a malformed line after it still wins.
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

        # the parts of the constraints' Gram and Free and of the objective's,
        # each led by an empty one for its dtypes
        parts = [[part] for part in _split_entries(np.zeros(0, _ENTRY), dims, n_free)]
        out_of_range = None  # (line number, message) of the first entry out of range
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
                entries = np.loadtxt(body, dtype=_ENTRY, comments=None, ndmin=1)
            except ValueError:
                # name the first line that the same parser rejects on its own
                for no, text in zip(nos.tolist(), body):
                    try:
                        np.loadtxt([text], dtype=_ENTRY, comments=None, ndmin=1)
                    except ValueError:
                        raise SdpaParseError(no, _malformed(text)) from None
                raise
            out_of_range = out_of_range or _out_of_range(entries, nos, dims, n_free, m)
            for pieces, part in zip(parts, _split_entries(entries, dims, n_free)):
                pieces.append(part)

    if out_of_range:
        raise SdpaParseError(*out_of_range)
    gram, free, obj_gram, obj_free = (concat_coo(p) for p in parts)  # read-only, so canonical keeps them
    return SdpProblem(dims, n_free, gram, free, rhs, obj_gram, obj_free)


def _malformed(text: str) -> str:
    """Why the entry line ``text``, which ``_ENTRY`` does not parse, is bad."""
    n = len(text.split())
    if n != 5:
        return f"expected 5 fields, got {n}"
    try:
        wide = np.loadtxt([text], dtype=_WIDE_ENTRY, comments=None, ndmin=1)[0].tolist()
    except ValueError:
        return "malformed entry line"
    index = next(k for k in wide[:4] if not _INDEX_RANGE.min <= k <= _INDEX_RANGE.max)
    return f"index {index} does not fit {_INDEX_RANGE.dtype}"


def _out_of_range(entries, nos, dims, n_free, m):
    """The line number, in ``nos``, and the complaint of the first of the
    parsed entry lines ``entries`` that is out of range, or None."""
    free_blk = len(dims) + 1
    matno, blk, i, j, value = (entries[name] for name in _ENTRY.names)
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
    if not np.any(bad):
        return None
    k = int(np.argmax(bad))
    return int(nos[k]), next(text for mask, text in checks if mask[k])(k)


def _split_entries(entries, dims, n_free):
    """The parsed entry lines ``entries`` as the constraints' ``Gram`` and
    ``Free`` and then the objective's."""
    matno, blk, i, j, value = (entries[name] for name in _ENTRY.names)
    free = (blk == len(dims) + 1) & (n_free > 0)
    out = []
    for rows in (matno > 0, matno == 0):
        g, f = rows & ~free, rows & free
        out += [Gram((matno[g] - 1).clip(0), blk[g] - 1, i[g] - 1, j[g] - 1, value[g]),
                Free((matno[f] - 1).clip(0), i[f] - 1, value[f])]
    return out
