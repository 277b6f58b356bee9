"""Compile quadratic-module membership queries into block SDPs.

A membership query asks for a Putinar-type decomposition

    target(x) = s_0(x) + sum_j g_j(x) s_j(x) + sum_j h_j(x) p_j(x)

with each s_j a sum of squares, each p_j free, and every summand of total
degree at most the level.  The target may be affine in named scalar
decision parameters (a bound, game coefficients, a shift), and a program
may carry several membership constraints sharing those parameters plus
extra linear constraints and a linear objective over them.

Compilation produces one PSD Gram block per SOS multiplier, free scalars
for the p_j coefficients and the parameters, and one linear equality per
monomial of degree <= level in the ambient space, matching coefficients
between the target and the decomposition.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import lsqr

from .games import SemialgebraicSet
from .polynomials import Monomial, Polynomial, monomials_upto
from .sdp import Free, Gram, Restriction, SdpProblem, SdpSolution, SolveOptions, canonical, concat_coo, make_coo, solve


def gram_basis(level: int, constraint_degree: int, n_vars: int) -> list[Monomial]:
    """Monomial basis for the Gram matrix of an SOS multiplier attached to a
    constraint of the given degree: all monomials of total degree at most
    floor((level - constraint_degree) / 2), grevlex ordered."""
    if level < constraint_degree:
        warnings.warn(
            f"level {level} below constraint degree {constraint_degree}; empty Gram basis",
            stacklevel=2,
        )
        return []
    return monomials_upto(n_vars, (level - constraint_degree) // 2)


LinearCombo = tuple[tuple[str, float], ...]  # sum of coeff * parameter


@dataclass(frozen=True)
class SosMembership:
    """One decomposition requirement: base + sum_k theta_k * param_polys[k]
    must lie in the level-truncated quadratic module of ``domain``."""

    base: Polynomial
    domain: SemialgebraicSet
    level: int
    param_polys: tuple[tuple[str, Polynomial], ...] = ()
    label: str = ""

    def __post_init__(self):
        n = self.domain.n_vars
        if self.base.n_vars != n:
            raise ValueError("target and domain disagree on variable count")
        for name, poly in self.param_polys:
            if poly.n_vars != n:
                raise ValueError(f"parameter polynomial {name} has wrong variable count")
        deg = max([self.base.degree] + [p.degree for _, p in self.param_polys])
        if deg > self.level:
            raise ValueError(
                f"target degree {deg} exceeds level {self.level}"
            )


@dataclass(frozen=True)
class SosProgram:
    """Membership constraints plus a linear program over the shared
    decision parameters (minimization)."""

    memberships: tuple[SosMembership, ...]
    params: tuple[str, ...] = ()
    objective: LinearCombo = ()
    param_equalities: tuple[tuple[LinearCombo, float], ...] = ()
    param_inequalities: tuple[tuple[LinearCombo, float], ...] = ()  # combo <= rhs

    def __post_init__(self):
        known = set(self.params)
        used = set()
        for mem in self.memberships:
            used.update(name for name, _ in mem.param_polys)
        for combo, _ in self.param_equalities + self.param_inequalities:
            used.update(name for name, _ in combo)
        used.update(name for name, _ in self.objective)
        unknown = used - known
        if unknown:
            raise ValueError(f"undeclared parameters: {sorted(unknown)}")


def membership_problem(
    base: Polynomial,
    domain: SemialgebraicSet,
    level: int,
    param_polys: Sequence[tuple[str, Polynomial]] = (),
    objective: Sequence[tuple[str, float]] = (),
    param_inequalities: Sequence[tuple[Sequence[tuple[str, float]], float]] = (),
) -> SosProgram:
    """Single-membership program; the common case."""
    params = tuple(name for name, _ in param_polys)
    extra = [n for combo, _ in param_inequalities for n, _ in combo if n not in params]
    return SosProgram(
        memberships=(SosMembership(base, domain, level, tuple(param_polys)),),
        params=params + tuple(dict.fromkeys(extra)),
        objective=tuple(objective),
        param_inequalities=tuple(
            (tuple(combo), float(rhs)) for combo, rhs in param_inequalities
        ),
    )


@dataclass(frozen=True)
class GramBlockInfo:
    membership: int
    multiplier: str          # "sigma_0" or "sigma_<j>" for inequality j
    constraint: Polynomial | None  # g_j, or None for sigma_0
    basis: tuple[Monomial, ...]


@dataclass(frozen=True)
class MultiplierInfo:
    membership: int
    equality: int            # index into domain.equalities
    basis: tuple[Monomial, ...]
    offset: int              # first free-variable index of this coefficient run


@dataclass
class Compilation:
    """Layout bookkeeping tying SDP variables back to the program.

    Row r of the problem matches the coefficient of ``row_monomials[r]``
    (membership, monomial) for r below ``len(row_monomials)``; the linear
    parameter constraints follow.  ``gram`` and ``free`` hold the entries
    of the coefficient-matching rows before row ``r`` is divided by
    ``row_scales[r]``, as the problem stores them (same indices, same
    order); ``row_targets`` holds the matching target coefficients of the
    parameter-free part of each membership.
    """

    program: SosProgram
    gram_blocks: list[GramBlockInfo]
    multipliers: list[MultiplierInfo]
    param_offset: int        # free index of the first parameter
    row_monomials: list[tuple[int, Monomial]]
    row_scales: np.ndarray
    row_targets: np.ndarray
    gram: Gram
    free: Free

    def param_index(self, name: str) -> int:
        return self.param_offset + self.program.params.index(name)

    @functools.cached_property
    def coeff_matrix(self) -> sp.csr_matrix:
        """Rows <A_r, X> + f_r . u over the flat vector (vec X_1, ..., vec
        X_k, u), so ``row_targets - coeff_matrix @ x`` is the identity
        residual in polynomial coefficients.  An off-diagonal Gram
        coefficient sits at both (i, j) and (j, i).  Built on first use,
        since only certificate rounding needs it."""
        dims = np.array([len(info.basis) for info in self.gram_blocks], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(dims * dims)))
        n_free = self.param_offset + len(self.program.params)
        g, f = self.gram, self.free
        off = g.i != g.j
        start, dim = offsets[g.block], dims[g.block]
        rows = np.concatenate((g.row, g.row[off], f.row))
        cols = np.concatenate((start + g.i * dim + g.j, (start + g.j * dim + g.i)[off], offsets[-1] + f.col))
        vals = np.concatenate((g.value, g.value[off], f.value))
        shape = (len(self.row_monomials), int(offsets[-1]) + n_free)
        return sp.csr_matrix((vals, (rows, cols)), shape=shape)


class CompileError(ValueError):
    pass


def _ranks(exps: np.ndarray, level: int) -> np.ndarray:
    """Index of each exponent row among the monomials of degree <= level in
    its variables.  Stars and bars places the partial sums of the row, plus
    k, at increasing positions p_k in [0, n + level), and sum_k C(p_k, k+1)
    numbers those n-subsets 0, 1, ... (the combinatorial number system)."""
    n = exps.shape[1]
    table = np.array(
        [[math.comb(p, k + 1) if p <= k + level else 0 for k in range(n)] for p in range(n + level)],
        dtype=np.int64,
    ).reshape(n + level, n)
    return table[np.cumsum(exps, axis=1) + np.arange(n), np.arange(n)].sum(axis=1)


def compile_program(program: SosProgram) -> tuple[SdpProblem, Compilation]:
    """Build the block SDP whose feasible points are exactly the degree-
    bounded decompositions of every membership constraint."""
    gram_blocks: list[GramBlockInfo] = []
    multipliers: list[MultiplierInfo] = []
    block_dims: list[int] = []
    n_mult = 0
    # multipliers of equal degree share a basis; build each one once
    bases: dict[tuple[int, int], tuple[Monomial, ...]] = {}

    def upto(n: int, degree: int) -> tuple[Monomial, ...]:
        if (n, degree) not in bases:
            bases[n, degree] = tuple(monomials_upto(n, degree))
        return bases[n, degree]

    for mi, mem in enumerate(program.memberships):
        n = mem.domain.n_vars
        for j, g in enumerate((None, *mem.domain.inequalities)):
            degree = 0 if g is None else g.degree
            if mem.level < degree:
                gram_basis(mem.level, degree, n)  # warns that this multiplier has no basis
                continue
            basis = upto(n, (mem.level - degree) // 2)
            gram_blocks.append(GramBlockInfo(mi, f"sigma_{j}", g, basis))
            block_dims.append(len(basis))
        for j, h in enumerate(mem.domain.equalities):
            if mem.level < h.degree:
                warnings.warn(
                    f"level {mem.level} below equality degree {h.degree}; multiplier dropped",
                    stacklevel=2,
                )
                continue
            basis = upto(n, mem.level - h.degree)
            multipliers.append(MultiplierInfo(mi, j, basis, n_mult))
            n_mult += len(basis)

    param_offset = n_mult
    n_free = n_mult + len(program.params)
    param_col = {name: param_offset + k for k, name in enumerate(program.params)}

    # one candidate row per (membership, monomial of degree <= level), found
    # from a monomial's exponents through its rank
    candidates: list[tuple[int, Monomial]] = []
    row_of_rank = []
    for mi, mem in enumerate(program.memberships):
        monos = upto(mem.domain.n_vars, mem.level)
        ranks = _ranks(np.array(monos, dtype=np.int64).reshape(len(monos), mem.domain.n_vars), mem.level)
        row_of_rank.append(len(candidates) + np.argsort(ranks))  # ranks are a permutation
        candidates.extend((mi, mono) for mono in monos)

    def rows(mi, exps):
        mem = program.memberships[mi]
        exps = np.asarray(exps, dtype=np.int64).reshape(len(exps), mem.domain.n_vars)
        if np.any(exps.sum(axis=1) > mem.level):
            raise CompileError(f"a monomial exceeds level {mem.level} in membership {mi}")
        return row_of_rank[mi][_ranks(exps, mem.level)]

    gram_parts = [make_coo(Gram)]
    for blk, info in enumerate(gram_blocks):
        one = {(0,) * program.memberships[info.membership].domain.n_vars: 1.0}
        g_terms = (one if info.constraint is None else info.constraint.terms).items()
        a, b = np.triu_indices(len(info.basis))
        basis = np.array(info.basis, dtype=np.int64)
        for gt, gc in g_terms:
            r = rows(info.membership, basis[a] + basis[b] + gt)
            gram_parts.append(Gram(r, np.full(len(r), blk), a, b, np.full(len(r), gc)))

    free_parts = [make_coo(Free)]
    for info in multipliers:
        h = program.memberships[info.membership].domain.equalities[info.equality]
        basis = np.array(info.basis, dtype=np.int64)
        for ht, hc in h.terms.items():
            r = rows(info.membership, basis + ht)
            free_parts.append(Free(r, info.offset + np.arange(len(r)), np.full(len(r), hc)))

    target = np.zeros(len(candidates))
    for mi, mem in enumerate(program.memberships):
        target[rows(mi, list(mem.base.terms))] = list(mem.base.terms.values())
        for name, poly in mem.param_polys:
            r = rows(mi, list(poly.terms))
            free_parts.append(Free(r, np.full(len(r), param_col[name]), -np.array(list(poly.terms.values()))))

    gram, free = concat_coo(gram_parts), concat_coo(free_parts)
    del gram_parts  # else they stay alive beside their concatenation while canonical runs
    gram, free = canonical(block_dims, n_free, len(candidates), gram, free)
    live = (np.bincount(gram.row, minlength=len(candidates)) + np.bincount(free.row, minlength=len(candidates))) > 0
    unmatched = np.flatnonzero(~live & (np.abs(target) > 1e-12))
    if len(unmatched):
        mi, mono = candidates[unmatched[0]]
        raise CompileError(
            f"target monomial {mono} in membership {mi} cannot be matched "
            f"by any decomposition term at level {program.memberships[mi].level}"
        )
    renumber = np.cumsum(live) - 1
    gram, free = gram._replace(row=renumber[gram.row]), free._replace(row=renumber[free.row])
    n_rows = int(live.sum())
    scales = np.zeros(n_rows)
    np.maximum.at(scales, gram.row, np.abs(gram.value))
    np.maximum.at(scales, free.row, np.abs(free.value))
    row_targets = target[live]

    param_rows = [(c, v, "=") for c, v in program.param_equalities]
    param_rows += [(c, v, "<=") for c, v in program.param_inequalities]
    param_free, param_rhs = [], []
    for r, (combo, value, _) in enumerate(param_rows, start=n_rows):
        if not combo:
            raise CompileError("empty linear parameter constraint")
        scale = max(abs(w) for _, w in combo)
        param_free.extend((r, param_col[name], w / scale) for name, w in combo)
        param_rhs.append(value / scale)

    problem = SdpProblem(
        block_dims, n_free, gram._replace(value=gram.value / scales[gram.row]),
        concat_coo([free._replace(value=free.value / scales[free.row]), make_coo(Free, param_free)]),
        np.concatenate((row_targets / scales, param_rhs)), [False] * n_rows + [rel == "<=" for *_, rel in param_rows],
        make_coo(Gram), make_coo(Free, [(0, param_col[name], w) for name, w in program.objective]),
    )
    comp = Compilation(
        program=program,
        gram_blocks=gram_blocks,
        multipliers=multipliers,
        param_offset=param_offset,
        row_monomials=[candidates[k] for k in np.flatnonzero(live)],
        row_scales=scales,
        row_targets=row_targets,
        gram=gram,
        free=free,
    )
    return problem, comp


# ---------------------------------------------------------------------------
# sign-symmetry split


def sign_symmetries(mem: SosMembership) -> np.ndarray:
    """Rows s spanning the sign flips z_k -> (-1)^(s_k) z_k that leave the
    target, the parameter polynomials and every g_j and h_j unchanged: the
    GF(2) null space of their exponent parities, by Gaussian elimination.
    A monomial's parity class is ``tuple(S @ exps % 2)``."""
    polys = [mem.base, *(p for _, p in mem.param_polys)]
    polys += [*mem.domain.inequalities, *mem.domain.equalities]
    exps = [m for p in polys for m in p.terms]
    P = np.array(exps, dtype=np.int64).reshape(-1, mem.domain.n_vars) % 2
    pivots: list[int] = []
    for c in range(P.shape[1]):
        hit = np.flatnonzero(P[len(pivots):, c])
        if hit.size == 0:
            continue
        r = len(pivots)
        P[[r, r + hit[0]]] = P[[r + hit[0], r]]
        P[(P[:, c] == 1) & (np.arange(len(P)) != r)] ^= P[r]
        pivots.append(c)
    free = [c for c in range(P.shape[1]) if c not in pivots]
    S = np.zeros((len(free), P.shape[1]), dtype=np.int64)
    for k, f in enumerate(free):
        S[k, f] = 1
        S[k, pivots] = P[: len(pivots), f]
    return S


def solve_split(
    problem: SdpProblem, comp: Compilation, options: SolveOptions | None = None
) -> SdpSolution:
    """Solve a compiled program through its exact sign-symmetry split and
    quotient-ring Gram bases.

    Every polynomial of a membership is invariant under the flips of
    :func:`sign_symmetries`, so averaging any decomposition over them gives
    one with the same parameters in which each Gram block is block-diagonal
    by parity class and each equality multiplier has only class-0
    monomials (Gatermann & Parrilo 2004).  Replacing each square's base
    polynomial by its normal form modulo the membership's first equality
    ``h`` keeps the degree, and the free multiplier of ``h`` absorbs the
    difference, so no Gram column whose monomial the grlex-leading
    monomial of ``h`` divides is needed (Permenter & Parrilo 2012).  The
    program restricted to such decompositions has the same optimum: each
    Gram block loses those columns and is split into its classes, odd
    multiplier coefficients are dropped, and so are the rows that lose
    every entry.  An :class:`~gamecert.sdp.Restriction`, the one facial
    reduction uses too, builds the restricted program and inflates its
    solution back to ``problem``'s layout, with exact zeros in the dropped
    Gram rows and columns, the cross-class Gram entries, the odd
    multiplier coefficients and the duals of the dropped rows.
    """
    flips = [sign_symmetries(mem) for mem in comp.program.memberships]
    # the grlex-leading monomial of each membership's first equality, if any
    leads = [max((e for h in mem.domain.equalities[:1] for e in h.terms), key=lambda e: (sum(e), e), default=None)
             for mem in comp.program.memberships]
    off = np.cumsum([0] + [len(info.basis) for info in comp.gram_blocks])
    block = np.full(off[-1], -1, dtype=np.int64)  # flat basis index -> restricted block
    pos = np.zeros(off[-1], dtype=np.int64)       # flat basis index -> position in it
    n_blocks = 0
    for b, info in enumerate(comp.gram_blocks):
        groups: dict[tuple, list[int]] = {}
        lead = leads[info.membership]
        for i, mono in enumerate(info.basis):
            if lead is not None and all(e >= d for e, d in zip(mono, lead)):
                continue  # not a standard monomial of the quotient ring
            groups.setdefault(tuple(flips[info.membership] @ mono % 2), []).append(off[b] + i)
        for cols in groups.values():
            block[cols], pos[cols] = n_blocks, np.arange(len(cols))
            n_blocks += 1
    keep_free = np.ones(problem.n_free, dtype=bool)
    for info in comp.multipliers:
        odd = [any(flips[info.membership] @ mono % 2) for mono in info.basis]
        keep_free[info.offset : info.offset + len(odd)] = np.logical_not(odd)
    split = Restriction(problem, block, pos, keep_free)
    return split.inflate(solve(split.problem, options))


# ---------------------------------------------------------------------------
# certificates

RESIDUAL_TOL = 1e-6  # largest identity coefficient mismatch a certificate may have
PSD_SLACK = 1e-7     # how far below zero a Gram eigenvalue may sit


class CertificateRejected(Exception):
    def __init__(self, residual: float, detail: str = ""):
        super().__init__(
            f"decomposition identity residual {residual:.3e} exceeds tolerance"
            + (f" ({detail})" if detail else "")
        )
        self.residual = residual


@dataclass
class MembershipCertificate:
    label: str
    level: int
    gram_matrices: list[tuple[str, tuple[Monomial, ...], np.ndarray]]
    free_multipliers: list[tuple[int, Polynomial]]
    identity_residual: float

    def multiplier_polynomial(self, which: int) -> Polynomial:
        """Expand Gram block ``which`` of this membership into its SOS
        multiplier polynomial."""
        _, basis, G = self.gram_matrices[which]
        n = len(basis[0]) if basis else 0
        terms: dict = {}
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                mono = tuple(x + y for x, y in zip(basis[a], basis[b]))
                factor = 1.0 if a == b else 2.0
                terms[mono] = terms.get(mono, 0.0) + factor * G[a, b]
        return Polynomial(n, terms)


@dataclass
class Certificate:
    """Validated decomposition data recovered from an SDP solution."""

    level: int
    optimum: float
    params: dict[str, float]
    memberships: list[MembershipCertificate]

    @property
    def identity_residual(self) -> float:
        return max(m.identity_residual for m in self.memberships)


def reconstruct_expansion(
    comp: Compilation, cert_mem: MembershipCertificate, membership_index: int
) -> Polynomial:
    """Symbolically rebuild s_0 + sum g_j s_j + sum h_j p_j."""
    mem = comp.program.memberships[membership_index]
    n = mem.domain.n_vars
    total = Polynomial.zero(n)
    gram_of_mem = [
        (k, info) for k, info in enumerate(comp.gram_blocks) if info.membership == membership_index
    ]
    for local, (_, info) in enumerate(gram_of_mem):
        sigma = cert_mem.multiplier_polynomial(local)
        total = total + (sigma if info.constraint is None else info.constraint * sigma)
    for eq_index, p in cert_mem.free_multipliers:
        total = total + mem.domain.equalities[eq_index] * p
    return total


def round_onto_rows(comp: Compilation, solution: SdpSolution) -> SdpSolution:
    """Return a copy of ``solution`` moved onto the coefficient-matching rows.

    The solver calls an iterate feasible relative to the size of the target
    coefficients, while the certificate gates in :func:`extract_certificate`
    are absolute, so a usable iterate can miss the identity by more than
    ``RESIDUAL_TOL`` depending on floating-point rounding.  This applies the
    minimum-norm (Frobenius on the Gram blocks) least-squares correction of
    the Gram entries and equality-multiplier coefficients that cancels the
    identity residual (Peyrl & Parrilo 2008; Löfberg 2009).

    Every decision parameter is held fixed, so bounds and distances read
    from the solution do not change.  Gram rows and columns with a zero
    diagonal stay zero: on a PSD block a zero diagonal entry pins its whole
    row, and in a solver iterate these are exactly the columns the
    quotient-ring bases or facial reduction removed.  The result is not
    trusted here; the certificate audit judges it.
    """
    blocks = [np.asarray(G, dtype=float) for G in solution.primal_blocks]
    free = np.asarray(solution.free_values, dtype=float)
    x = np.concatenate([G.ravel() for G in blocks] + [free])
    residual = comp.row_targets - comp.coeff_matrix @ x
    live = [np.diag(G) != 0 for G in blocks]
    movable = np.concatenate(
        [np.outer(d, d).ravel() for d in live] + [np.arange(free.size) < comp.param_offset]
    )
    # iterate to rounding level; whether that is good enough is the audit's call
    x[movable] += lsqr(comp.coeff_matrix[:, movable], residual, atol=1e-14, btol=1e-14)[0]
    *parts, rounded_free = np.split(x, np.cumsum([G.size for G in blocks]))
    rounded = [part.reshape(G.shape) for part, G in zip(parts, blocks)]
    return replace(solution, primal_blocks=rounded, free_values=rounded_free)


def extract_certificate(comp: Compilation, solution: SdpSolution) -> Certificate:
    """Read Gram matrices and multipliers back from a solution, rebuild the
    decomposition identity symbolically, and reject it if the worst
    coefficient mismatch exceeds ``RESIDUAL_TOL`` or a Gram block has an
    eigenvalue below ``-PSD_SLACK``.

    Both gates are absolute: the residual is the largest
    ``|target - expansion|`` coefficient in polynomial units, with no
    scaling by the size of the target (unlike the solver's feasibility
    test, see ``certify.usable_solution``).  This is a pure audit; it
    repairs nothing, so callers pass the output of :func:`round_onto_rows`.
    """
    program = comp.program
    params = {
        name: float(solution.free_values[comp.param_offset + k])
        for k, name in enumerate(program.params)
    }
    mem_certs: list[MembershipCertificate] = []
    for mi, mem in enumerate(program.memberships):
        grams = []
        for blk, info in enumerate(comp.gram_blocks):
            if info.membership != mi:
                continue
            G = np.asarray(solution.primal_blocks[blk])
            grams.append((info.multiplier, info.basis, G))
            min_eig = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
            if min_eig < -PSD_SLACK:
                raise CertificateRejected(
                    -min_eig, f"Gram block {info.multiplier} has eigenvalue {min_eig:.3e}"
                )
        mults = []
        for info in comp.multipliers:
            if info.membership != mi:
                continue
            coeffs = solution.free_values[info.offset : info.offset + len(info.basis)]
            terms = {mono: float(c) for mono, c in zip(info.basis, coeffs)}
            mults.append((info.equality, Polynomial(mem.domain.n_vars, terms)))
        cert_mem = MembershipCertificate(
            label=mem.label,
            level=mem.level,
            gram_matrices=grams,
            free_multipliers=mults,
            identity_residual=0.0,
        )
        target = mem.base
        for name, poly in mem.param_polys:
            target = target + poly.scale(params[name])
        expansion = reconstruct_expansion(comp, cert_mem, mi)
        residual = (target - expansion).max_abs_coeff()
        cert_mem.identity_residual = residual
        if residual > RESIDUAL_TOL:
            raise CertificateRejected(residual, mem.label or f"membership {mi}")
        mem_certs.append(cert_mem)
    optimum = sum(w * params[name] for name, w in program.objective)
    level = max(mem.level for mem in program.memberships)
    return Certificate(level=level, optimum=optimum, params=params, memberships=mem_certs)
