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

SDPA sparse export writes the equality-form problem with the free scalars
as a trailing negative-size diagonal block; values carry 17 significant
digits so a file round-trips to bit-identical data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as sla

BlockEntry = tuple[int, int, float]  # (i, j, value) with i <= j; value sits at (i,j) and (j,i)


class SdpStatus(str, Enum):
    OPTIMAL = "Optimal"
    PRIMAL_INFEASIBLE = "PrimalInfeasible"
    DUAL_INFEASIBLE = "DualInfeasible"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL_FAILURE = "NumericalFailure"


def _canon_block_entries(dim: int, entries) -> tuple[BlockEntry, ...]:
    out = []
    for i, j, v in entries:
        i, j, v = int(i), int(j), float(v)
        if i > j:
            i, j = j, i
        if not (0 <= i <= j < dim):
            raise ValueError(f"entry ({i},{j}) outside {dim}x{dim} block")
        if not math.isfinite(v):
            raise ValueError("non-finite matrix entry")
        if v != 0.0:
            out.append((i, j, v))
    out.sort(key=lambda e: (e[0], e[1]))
    return tuple(out)


def _canon_blocks(block_dims, blocks) -> tuple[tuple[int, tuple[BlockEntry, ...]], ...]:
    seen = {}
    for b, entries in blocks:
        b = int(b)
        if not 0 <= b < len(block_dims):
            raise ValueError(f"block index {b} out of range")
        seen.setdefault(b, []).extend(entries)
    out = []
    for b in sorted(seen):
        canon = _canon_block_entries(block_dims[b], seen[b])
        if canon:
            out.append((b, canon))
    return tuple(out)


def _canon_free(n_free, free) -> tuple[tuple[int, float], ...]:
    acc = {}
    for k, v in free:
        k, v = int(k), float(v)
        if not 0 <= k < n_free:
            raise ValueError(f"free-variable index {k} out of range")
        if not math.isfinite(v):
            raise ValueError("non-finite free coefficient")
        acc[k] = acc.get(k, 0.0) + v
    return tuple((k, acc[k]) for k in sorted(acc) if acc[k] != 0.0)


@dataclass(frozen=True)
class SdpConstraint:
    blocks: tuple[tuple[int, tuple[BlockEntry, ...]], ...]
    free: tuple[tuple[int, float], ...]
    rhs: float
    rel: str = "="  # "=" or "<="


@dataclass(frozen=True)
class SdpProblem:
    """Block SDP data in canonical (sorted, deduplicated) sparse form."""

    block_dims: tuple[int, ...]
    n_free: int
    obj_blocks: tuple[tuple[int, tuple[BlockEntry, ...]], ...]
    obj_free: tuple[tuple[int, float], ...]
    constraints: tuple[SdpConstraint, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        if any(d <= 0 for d in dims):
            raise ValueError("block dimensions must be positive")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "n_free", int(self.n_free))
        object.__setattr__(self, "obj_blocks", _canon_blocks(dims, self.obj_blocks))
        object.__setattr__(self, "obj_free", _canon_free(self.n_free, self.obj_free))
        rows = []
        for con in self.constraints:
            if con.rel not in ("=", "<="):
                raise ValueError(f"unknown relation {con.rel!r}")
            if not math.isfinite(con.rhs):
                raise ValueError("non-finite right-hand side")
            rows.append(
                SdpConstraint(
                    _canon_blocks(dims, con.blocks),
                    _canon_free(self.n_free, con.free),
                    float(con.rhs),
                    con.rel,
                )
            )
        object.__setattr__(self, "constraints", tuple(rows))

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def to_equality_form(self) -> "SdpProblem":
        """Convert every '<=' row to an equality with a 1x1 slack block."""
        if all(c.rel == "=" for c in self.constraints):
            return self
        dims = list(self.block_dims)
        rows = []
        for con in self.constraints:
            if con.rel == "=":
                rows.append(con)
            else:
                slack = len(dims)
                dims.append(1)
                rows.append(
                    SdpConstraint(
                        con.blocks + ((slack, ((0, 0, 1.0),)),),
                        con.free,
                        con.rhs,
                        "=",
                    )
                )
        return SdpProblem(tuple(dims), self.n_free, self.obj_blocks, self.obj_free, tuple(rows))


@dataclass
class SolveOptions:
    tol_feasibility: float = 1e-8
    tol_gap: float = 1e-8
    max_iterations: int = 200
    verbose: bool = False


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
# facial reduction


class _Reduction:
    """Forced-zero elimination for equality-form problems.

    A zero-rhs row whose entries are all diagonal with one sign forces those
    diagonal entries, and by PSD-ness the whole rows/columns, to zero: the
    feasible set lies on a face of the cone and no interior point exists.
    Removing the dead columns restores strict feasibility for the reduced
    problem (decomposition SDPs produce such rows for every monomial that
    squares can reach but the target cannot contain).
    """

    def __init__(self, problem: SdpProblem):
        self.original = problem
        self.infeasible = False
        removed: list[set[int]] = [set() for _ in problem.block_dims]
        rows = list(problem.constraints)
        active = [True] * len(rows)

        def live_entries(con: SdpConstraint):
            out = []
            for b, entries in con.blocks:
                for i, j, v in entries:
                    if i not in removed[b] and j not in removed[b]:
                        out.append((b, i, j, v))
            return out

        changed = True
        while changed and not self.infeasible:
            changed = False
            for r, con in enumerate(rows):
                if not active[r]:
                    continue
                entries = live_entries(con)
                if not entries and not con.free:
                    active[r] = False
                    if abs(con.rhs) > 1e-30:
                        self.infeasible = True
                        break
                    changed = True
                    continue
                if con.free or abs(con.rhs) > 1e-30:
                    continue
                if not entries:
                    continue
                if all(i == j for _, i, j, _ in entries):
                    signs = {v > 0 for _, _, _, v in entries}
                    if len(signs) == 1:
                        for b, i, _, _ in entries:
                            removed[b].add(i)
                        active[r] = False
                        changed = True

        self.keep_cols = [
            [i for i in range(d) if i not in removed[b]]
            for b, d in enumerate(problem.block_dims)
        ]
        self.keep_rows = [r for r in range(len(rows)) if active[r]]
        self.block_map = []  # reduced index -> original block
        dims = []
        for b, cols in enumerate(self.keep_cols):
            if cols:
                self.block_map.append(b)
                dims.append(len(cols))
        col_pos = [
            {i: k for k, i in enumerate(cols)} for cols in self.keep_cols
        ]
        block_pos = {b: rb for rb, b in enumerate(self.block_map)}

        def squeeze(blocks):
            out = []
            for b, entries in blocks:
                if b not in block_pos:
                    continue
                kept = [
                    (col_pos[b][i], col_pos[b][j], v)
                    for i, j, v in entries
                    if i in col_pos[b] and j in col_pos[b]
                ]
                if kept:
                    out.append((block_pos[b], tuple(kept)))
            return tuple(out)

        if dims:
            constraints = tuple(
                SdpConstraint(squeeze(rows[r].blocks), rows[r].free, rows[r].rhs, rows[r].rel)
                for r in self.keep_rows
            )
            self.reduced = SdpProblem(
                tuple(dims),
                problem.n_free,
                squeeze(problem.obj_blocks),
                problem.obj_free,
                constraints,
            )
        else:
            # every block died; fall back to the unreduced problem
            self.keep_cols = [list(range(d)) for d in problem.block_dims]
            self.keep_rows = list(range(len(rows)))
            self.block_map = list(range(len(problem.block_dims)))
            self.reduced = problem

    def inflate_blocks(self, reduced_blocks: list[np.ndarray]) -> list[np.ndarray]:
        out = [np.zeros((d, d)) for d in self.original.block_dims]
        for rb, b in enumerate(self.block_map):
            cols = self.keep_cols[b]
            out[b][np.ix_(cols, cols)] = reduced_blocks[rb]
        return out

    def inflate_duals(self, reduced_y: np.ndarray) -> np.ndarray:
        out = np.zeros(len(self.original.constraints))
        out[self.keep_rows] = reduced_y
        return out


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
        self.C = [np.zeros(I.shape) for I in self.I]
        for b, entries in prob.obj_blocks:
            g, p = self.slots[b]
            for i, j, v in entries:
                self.C[g][p, i, j] = v
                self.C[g][p, j, i] = v
        self.cf = np.zeros(self.nf)
        for k, v in prob.obj_free:
            self.cf[k] = v
        self.A = [np.zeros((self.m,) + I.shape) for I in self.I]
        self.F = np.zeros((self.m, self.nf))
        self.b = np.zeros(self.m)
        for r, con in enumerate(prob.constraints):
            self.b[r] = con.rhs
            for b_idx, entries in con.blocks:
                g, p = self.slots[b_idx]
                for i, j, v in entries:
                    self.A[g][r, p, i, j] = v
                    self.A[g][r, p, j, i] = v
            for k, v in con.free:
                self.F[r, k] = v
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
    iterate whose primal and dual residuals are within ``tol_feasibility``;
    otherwise the first descent's is.
    """
    opts = options or SolveOptions()
    eq = problem.to_equality_form()
    reduction = _Reduction(eq)
    if reduction.infeasible:
        return SdpSolution(
            status=SdpStatus.PRIMAL_INFEASIBLE,
            message="a target coefficient is structurally unreachable",
        )
    data = _Dense(reduction.reduced)
    n_orig_blocks = len(problem.block_dims)
    if data.m == 0:
        return _solve_unconstrained(problem, data, n_orig_blocks)
    first, warm = _solve_once(data, reduction, n_orig_blocks, opts, None)
    # a returned warm start is a feasible iterate, so IterationLimit means gap > tol_gap
    if warm is not None and first.status == SdpStatus.ITERATION_LIMIT:
        second, _ = _solve_once(data, reduction, n_orig_blocks, opts, warm, first.relative_gap)
        if second.status == SdpStatus.OPTIMAL or (
            second.status == SdpStatus.ITERATION_LIMIT
            and second.relative_gap < first.relative_gap
            and max(second.primal_residual, second.dual_residual) <= opts.tol_feasibility
        ):
            return second
    return first


def _solve_once(
    data: _Dense, reduction: _Reduction, n_orig_blocks: int, opts: SolveOptions, warm, rival_gap=0.0
) -> tuple[SdpSolution, tuple | None]:
    """One descent on the reduced data.  Returns the solution and, when
    that solution is the best feasible iterate seen, the iterate itself as
    ``(X, S, y, u, mu)`` in stacked form, the warm start of a restart;
    otherwise None.  ``rival_gap`` is the gap a warm descent must beat."""
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
        if float(np.min(np.abs(np.diag(Rtri)))) < 1e-12 * max(1.0, float(np.max(np.abs(Rtri)))):
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

    def build_solution(status, message="", it=0) -> SdpSolution:
        pobj = _inner(data.C, X) + float(data.cf @ u)
        dobj = float(data.b @ y)
        rp = data.b - data.apply_A(X, u)
        rd = max(
            float(np.max(np.abs(C - At - Sg))) for C, At, Sg in zip(data.C, data.apply_At(y), S)
        )
        rf = float(np.max(np.abs(data.cf - data.F.T @ y))) if nf else 0.0
        return SdpSolution(
            status=status,
            primal_blocks=reduction.inflate_blocks(data.unstack(X))[:n_orig_blocks],
            free_values=u.copy(),
            dual_values=reduction.inflate_duals(y),
            primal_objective=pobj,
            dual_objective=dobj,
            primal_residual=float(np.max(np.abs(rp))) / (1.0 + data.norm_b),
            dual_residual=max(rd, rf) / (1.0 + data.norm_C),
            relative_gap=abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj)),
            iterations=it,
            message=message,
        )

    def stop(status, message, it):
        """End the descent with the best feasible iterate if there is one,
        else with the current iterate under ``status``."""
        if best is None:
            return build_solution(status, message, it), None
        if (
            best.relative_gap <= opts.tol_gap
            and best.primal_residual <= opts.tol_feasibility
            and best.dual_residual <= opts.tol_feasibility
        ):
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

        # residuals
        rp = data.b - data.apply_A(X, u)
        Rd = [C - At - Sg for C, At, Sg in zip(data.C, data.apply_At(y), S)]
        rf = data.cf - data.F.T @ y if nf else np.zeros(0)
        gap = _inner(X, S)
        mu = gap / nu

        pobj = _inner(data.C, X) + float(data.cf @ u)
        dobj = float(data.b @ y)

        err_p = float(np.max(np.abs(rp))) / (1.0 + data.norm_b)
        err_d = max(float(np.max(np.abs(R))) for R in Rd) / (1.0 + data.norm_C)
        err_f = (float(np.max(np.abs(rf))) / (1.0 + data.norm_C)) if nf else 0.0
        rel_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))

        if opts.verbose:
            print(
                f"iter {it:3d}  mu {mu:9.2e}  gap {rel_gap:9.2e}  "
                f"rp {err_p:9.2e}  rd {max(err_d, err_f):9.2e}  pobj {pobj:+.8e}"
            )

        if err_p <= opts.tol_feasibility and max(err_d, err_f) <= opts.tol_feasibility and rel_gap <= opts.tol_gap:
            return build_solution(SdpStatus.OPTIMAL, "converged", it), None

        # remember the feasible iterate with the smallest gap: on degenerate
        # faces the gap can floor out while feasibility stays excellent, and
        # iterating past that point only does damage
        if err_p <= opts.tol_feasibility and max(err_d, err_f) <= opts.tol_feasibility:
            if best is None or rel_gap < (1 - 1e-4) * best.relative_gap:
                best = build_solution(SdpStatus.OPTIMAL, "feasible iterate", it)
                # iterates are replaced, never written in place: no copies
                best_warm = (X, S, y, u, mu)
                best_age = 0
            else:
                best_age += 1
        elif best is not None:
            best_age += 1
        if best is not None and (best_age >= 10 or err_p > 1e5 * max(best.primal_residual, 1e-13)):
            return stop(SdpStatus.ITERATION_LIMIT, "", it)
        if warm is not None and it >= WARM_PATIENCE and (best is None or best.relative_gap >= rival_gap):
            return stop(SdpStatus.ITERATION_LIMIT, "warm descent fell behind", it)

        # divergence-based infeasibility certificates
        scale0 = 1.0 + data.norm_b + data.norm_C
        if dobj > 1e6 * scale0 and float(data.b @ y) > 0:
            yhat = y / float(data.b @ y)
            lam = max(float(np.linalg.eigvalsh(At)[:, -1].max()) for At in data.apply_At(yhat))
            fres = float(np.max(np.abs(data.F.T @ yhat))) if nf else 0.0
            tol_inf = 1e-7 * (1.0 + float(np.max(np.abs(yhat)))) * max(1.0, data.norm_A)
            if lam <= tol_inf and fres <= tol_inf:
                return build_solution(SdpStatus.PRIMAL_INFEASIBLE, "dual improving ray found", it), None
        if pobj < -1e6 * scale0:
            tr = sum(float(np.einsum("kii->", Xg)) for Xg in X)
            Xhat = [Xg / tr for Xg in X]
            uhat = u / tr
            ares = float(np.max(np.abs(data.apply_A(Xhat, uhat))))
            cval = _inner(data.C, Xhat) + float(data.cf @ uhat)
            if ares <= 1e-7 * max(1.0, data.norm_A) and cval < 0:
                return build_solution(SdpStatus.DUAL_INFEASIBLE, "primal improving ray found", it), None

        # triangular inverses, reused by every step-length bound below
        try:
            Lx = [np.linalg.cholesky(Xg) for Xg in X]
            LxInv = [np.linalg.inv(L) for L in Lx]
            LsInv = [np.linalg.inv(np.linalg.cholesky(Sg)) for Sg in S]
            Sinv = [_T(Li) @ Li for Li in LsInv]
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "iterate left the cone", it)

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
            if Rr.shape[0] != m_red or float(np.min(diag)) < 1e-13 * float(np.max(diag, initial=1.0)):
                # redundant constraints: redo with a tiny Tikhonov tail so
                # the factor is square and positive definite; refinement
                # against the true Gram absorbs the perturbation
                row_norms = np.einsum("ij,ij->i", BR, BR)
                delta = math.sqrt(1e-14 * max(float(np.max(row_norms, initial=0.0)), 1e-30))
                Rr = np.linalg.qr(np.vstack([BR.T, delta * np.eye(m_red)]), mode="r")
        except np.linalg.LinAlgError:
            return stop(SdpStatus.NUMERICAL_FAILURE, "Schur factorization failed", it)
        Rr_low = np.asfortranarray(Rr.T)

        def reduced_solve(h: np.ndarray):
            """Solve M dy + F du = h with F^T dy = 0, refining in the
            reduced space via the triangular Gram factor."""
            rhs = Q2.T @ h if nf else h
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
            return stop(SdpStatus.NUMERICAL_FAILURE, "direction solve failed", it)

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
            return stop(SdpStatus.NUMERICAL_FAILURE, "direction solve failed", it)

        gamma = 0.95 if it < 2 else 0.98
        ap = min(1.0, gamma * step_x)
        ad = min(1.0, gamma * step_s)
        if ap < 1e-10 and ad < 1e-10:
            return stop(SdpStatus.NUMERICAL_FAILURE, "step length collapsed", it)

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
            return stop(SdpStatus.NUMERICAL_FAILURE, "step length collapsed", it)
        X, S = newX, newS
        y = y + ad * dy
        if nf:
            u = u + ap * du

        if not all(np.all(np.isfinite(P)) for P in X + S):
            return stop(SdpStatus.NUMERICAL_FAILURE, "non-finite iterate", it)

    return stop(SdpStatus.ITERATION_LIMIT, "iteration limit reached", opts.max_iterations)


def _solve_unconstrained(problem: SdpProblem, data: _Dense, n_orig_blocks: int) -> SdpSolution:
    """m = 0: optimum is X = 0 iff every C_b is PSD and c_f = 0."""
    if data.nf and np.any(data.cf != 0):
        return SdpSolution(status=SdpStatus.DUAL_INFEASIBLE, message="free objective unbounded")
    if min((float(np.linalg.eigvalsh(C)[:, 0].min()) for C in data.C), default=0.0) < -1e-12:
        return SdpSolution(status=SdpStatus.DUAL_INFEASIBLE, message="objective unbounded over the cone")
    return SdpSolution(
        status=SdpStatus.OPTIMAL,
        primal_blocks=[np.zeros((d, d)) for d in problem.block_dims[:n_orig_blocks]],
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


def _fmt(v: float) -> str:
    return f"{v:.16e}"


def export_sdpa(problem: SdpProblem, path: str) -> None:
    """Write the equality-form problem as SDPA sparse text.

    Layout: m / nblocks / block sizes (free scalars as a trailing negative
    diagonal block) / rhs vector, then one "matno blkno i j value" line per
    upper-triangle nonzero, with matno 0 holding the objective.
    """
    eq = problem.to_equality_form()
    dims = list(eq.block_dims)
    nblocks = len(dims) + (1 if eq.n_free else 0)
    lines = [str(eq.n_constraints), str(nblocks)]
    sizes = [str(d) for d in dims]
    if eq.n_free:
        sizes.append(str(-eq.n_free))
    lines.append(" ".join(sizes))
    lines.append(" ".join(_fmt(c.rhs) for c in eq.constraints))

    free_blk = len(dims) + 1  # 1-based index of the free diagonal block

    def emit(matno: int, blocks, free):
        for b, entries in blocks:
            for i, j, v in entries:
                lines.append(f"{matno} {b + 1} {i + 1} {j + 1} {_fmt(v)}")
        for k, v in free:
            lines.append(f"{matno} {free_blk} {k + 1} {k + 1} {_fmt(v)}")

    emit(0, eq.obj_blocks, eq.obj_free)
    for r, con in enumerate(eq.constraints):
        emit(r + 1, con.blocks, con.free)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def import_sdpa(path: str) -> SdpProblem:
    """Parse SDPA sparse text back into an equality-form SdpProblem.

    A trailing negative block is read as the free-variable block (the
    convention used by :func:`export_sdpa`); negative blocks elsewhere are
    rejected.
    """
    with open(path) as fh:
        raw = fh.readlines()
    lines = []
    for no, text in enumerate(raw, start=1):
        stripped = text.strip()
        if not stripped or stripped[0] in "*\"":
            continue
        lines.append((no, stripped))
    if len(lines) < 3:
        raise SdpaParseError(len(raw), "file truncated before the block sizes")

    def parse_int(pos, what):
        no, text = lines[pos]
        try:
            return int(text.split()[0])
        except ValueError as exc:
            raise SdpaParseError(no, f"expected {what}, got {text!r}") from exc

    m = parse_int(0, "constraint count")
    nblocks = parse_int(1, "block count")
    no, text = lines[2]
    raw_dims = text.replace(",", " ").replace("{", " ").replace("}", " ").replace("(", " ").replace(")", " ").split()
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
    free_blk = len(dims) + 1

    if m == 0:
        rhs = []
        body_start = 3
    else:
        if len(lines) < 4:
            raise SdpaParseError(len(raw), "file truncated before the rhs vector")
        no, text = lines[3]
        rhs_raw = text.replace(",", " ").split()
        if len(rhs_raw) != m:
            raise SdpaParseError(no, f"expected {m} rhs values, got {len(rhs_raw)}")
        try:
            rhs = [float(v) for v in rhs_raw]
        except ValueError as exc:
            raise SdpaParseError(no, "rhs values must be numeric") from exc
        body_start = 4

    obj_blocks: dict[int, list] = {}
    obj_free: list = []
    con_blocks: list[dict[int, list]] = [dict() for _ in range(m)]
    con_free: list[list] = [[] for _ in range(m)]

    for no, text in lines[body_start:]:
        parts = text.split()
        if len(parts) != 5:
            raise SdpaParseError(no, f"expected 5 fields, got {len(parts)}")
        try:
            matno, blk, i, j = (int(p) for p in parts[:4])
            value = float(parts[4])
        except ValueError as exc:
            raise SdpaParseError(no, "malformed entry line") from exc
        if not 0 <= matno <= m:
            raise SdpaParseError(no, f"matrix number {matno} out of range")
        if blk == free_blk and n_free:
            if i != j:
                raise SdpaParseError(no, "free block entries must be diagonal")
            if not 1 <= i <= n_free:
                raise SdpaParseError(no, f"free index {i} out of range")
            target = obj_free if matno == 0 else con_free[matno - 1]
            target.append((i - 1, value))
        else:
            if not 1 <= blk <= len(dims):
                raise SdpaParseError(no, f"block number {blk} out of range")
            d = dims[blk - 1]
            if not (1 <= i <= d and 1 <= j <= d):
                raise SdpaParseError(no, f"indices ({i},{j}) outside {d}x{d} block")
            target = obj_blocks if matno == 0 else con_blocks[matno - 1]
            target.setdefault(blk - 1, []).append((i - 1, j - 1, value))

    constraints = tuple(
        SdpConstraint(tuple(con_blocks[r].items()), tuple(con_free[r]), rhs[r], "=")
        for r in range(m)
    )
    return SdpProblem(dims, n_free, tuple(obj_blocks.items()), tuple(obj_free), constraints)
