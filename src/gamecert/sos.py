"""Compile quadratic-module membership queries into block SDPs.

A membership query asks for a Putinar-type decomposition

    target(x) = s_0(x) + sum_j g_j(x) s_j(x) + sum_j h_j(x) p_j(x)

with each s_j a sum of squares, each p_j free, and every summand of total
degree at most the level.  The target may be affine in named scalar
decision parameters (a bound, game coefficients, a distance), and a program
holds several membership constraints sharing those parameters and a linear
objective over them.  A linear inequality over the parameters is a
membership too: an affine function is nonnegative exactly when it is a
degree-0 sum of squares, over the space of no variables.

Compilation produces one PSD Gram block per SOS multiplier, free scalars
for the p_j coefficients and the parameters, and one linear equality per
monomial of degree <= level in the ambient space, matching coefficients
between the target and the decomposition.  A solution is read back one
membership at a time, through the index ranges ``Compilation.spans``, into
a :class:`MembershipCertificate` that carries its own target and domain, so
each expands and is audited on its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

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
    """Membership constraints and a linear objective over the shared
    decision parameters (minimization)."""

    memberships: tuple[SosMembership, ...]
    params: tuple[str, ...] = ()
    objective: LinearCombo = ()

    def __post_init__(self):
        known = set(self.params)
        used = set()
        for mem in self.memberships:
            used.update(name for name, _ in mem.param_polys)
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
) -> SosProgram:
    """Single-membership program; the common case."""
    return SosProgram(
        memberships=(SosMembership(base, domain, level, tuple(param_polys)),),
        params=tuple(name for name, _ in param_polys),
        objective=tuple(objective),
    )


@dataclass(frozen=True)
class GramBlockInfo:
    multiplier: str          # "sigma_0" or "sigma_<j>" for inequality j
    constraint: Polynomial | None  # g_j, or None for sigma_0
    basis: tuple[Monomial, ...]


@dataclass(frozen=True)
class MultiplierInfo:
    equality: int            # index into domain.equalities
    basis: tuple[Monomial, ...]
    offset: int              # first free-variable index of this coefficient run


@dataclass
class Compilation:
    """Layout bookkeeping tying SDP variables back to the program.

    Membership ``k`` owns ``gram_blocks[spans[k][0]]`` and the equality
    multipliers ``multipliers[spans[k][1]]``, two slices.  Row r of the problem
    matches the coefficient of ``row_monomials[r]`` (membership, monomial).
    ``gram`` and ``free`` hold the entries of the rows as the problem stores
    them (same indices, same order) before each row is divided by its
    largest absolute entry; ``row_targets`` holds the matching target
    coefficients of the parameter-free part of each membership.
    """

    program: SosProgram
    gram_blocks: list[GramBlockInfo]
    multipliers: list[MultiplierInfo]
    spans: list[tuple[slice, slice]]
    param_offset: int        # free index of the first parameter
    row_monomials: list[tuple[int, Monomial]]
    row_targets: np.ndarray
    gram: Gram
    free: Free

    def param_index(self, name: str) -> int:
        return self.param_offset + self.program.params.index(name)

    def flat_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The rows <A_r, X> + f_r . u as (row, column, value) triplets over
        the flat vector x = (vec X_1, ..., vec X_k, u), read from ``gram``
        and ``free``; an off-diagonal Gram coefficient sits at both (i, j)
        and (j, i).  ``row_targets`` minus the sums of ``value * x[column]``
        per row is the identity residual in polynomial coefficients."""
        dims = np.array([len(info.basis) for info in self.gram_blocks], dtype=np.int64)
        offsets = np.concatenate(([0], np.cumsum(dims * dims)))
        g, f = self.gram, self.free
        off = g.i != g.j
        start, dim = offsets[g.block], dims[g.block]
        rows = np.concatenate((g.row, g.row[off], f.row))
        cols = np.concatenate((start + g.i * dim + g.j, (start + g.j * dim + g.i)[off], offsets[-1] + f.col))
        vals = np.concatenate((g.value, g.value[off], f.value))
        return rows, cols, vals


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
    spans: list[tuple[slice, slice]] = []
    block_dims: list[int] = []
    n_mult = 0
    # multipliers of equal degree share a basis; build each one once
    bases: dict[tuple[int, int], tuple[Monomial, ...]] = {}

    def upto(n: int, degree: int) -> tuple[Monomial, ...]:
        if (n, degree) not in bases:
            bases[n, degree] = tuple(monomials_upto(n, degree))
        return bases[n, degree]

    # one candidate row per (membership, monomial of degree <= level), found
    # from a monomial's exponents through its rank
    candidates: list[tuple[int, Monomial]] = []
    row_of_rank = []
    for mi, mem in enumerate(program.memberships):
        n, first_block, first_mult = mem.domain.n_vars, len(gram_blocks), len(multipliers)
        for j, g in enumerate((None, *mem.domain.inequalities)):
            degree = 0 if g is None else g.degree
            if mem.level < degree:
                gram_basis(mem.level, degree, n)  # warns that this multiplier has no basis
                continue
            basis = upto(n, (mem.level - degree) // 2)
            gram_blocks.append(GramBlockInfo(f"sigma_{j}", g, basis))
            block_dims.append(len(basis))
        for j, h in enumerate(mem.domain.equalities):
            if mem.level < h.degree:
                warnings.warn(
                    f"level {mem.level} below equality degree {h.degree}; multiplier dropped",
                    stacklevel=2,
                )
                continue
            basis = upto(n, mem.level - h.degree)
            multipliers.append(MultiplierInfo(j, basis, n_mult))
            n_mult += len(basis)
        spans.append((slice(first_block, len(gram_blocks)), slice(first_mult, len(multipliers))))
        monos = upto(n, mem.level)
        ranks = _ranks(np.array(monos, dtype=np.int64).reshape(len(monos), n), mem.level)
        row_of_rank.append(len(candidates) + np.argsort(ranks))  # ranks are a permutation
        candidates.extend((mi, mono) for mono in monos)

    param_offset = n_mult
    n_free = n_mult + len(program.params)
    param_col = {name: param_offset + k for k, name in enumerate(program.params)}

    def rows(mi, exps):
        mem = program.memberships[mi]
        exps = np.asarray(exps, dtype=np.int64).reshape(len(exps), mem.domain.n_vars)
        if np.any(exps.sum(axis=1) > mem.level):
            raise CompileError(f"a monomial exceeds level {mem.level} in membership {mi}")
        return row_of_rank[mi][_ranks(exps, mem.level)]

    gram_parts, free_parts = [make_coo(Gram)], [make_coo(Free)]
    target = np.zeros(len(candidates))
    for mi, (mem, (blocks, mults)) in enumerate(zip(program.memberships, spans)):
        one = {(0,) * mem.domain.n_vars: 1.0}
        for blk, info in enumerate(gram_blocks[blocks], blocks.start):
            g_terms = (one if info.constraint is None else info.constraint.terms).items()
            a, b = np.triu_indices(len(info.basis))
            basis = np.array(info.basis, dtype=np.int64)
            for gt, gc in g_terms:
                r = rows(mi, basis[a] + basis[b] + gt)
                gram_parts.append(Gram(r, np.full(len(r), blk), a, b, np.full(len(r), gc)))
        for info in multipliers[mults]:
            basis = np.array(info.basis, dtype=np.int64)
            for ht, hc in mem.domain.equalities[info.equality].terms.items():
                r = rows(mi, basis + ht)
                free_parts.append(Free(r, info.offset + np.arange(len(r)), np.full(len(r), hc)))
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

    problem = SdpProblem(
        block_dims, n_free, gram._replace(value=gram.value / scales[gram.row]),
        free._replace(value=free.value / scales[free.row]), row_targets / scales,
        make_coo(Gram), make_coo(Free, [(0, param_col[name], w) for name, w in program.objective]),
    )
    comp = Compilation(
        program=program,
        gram_blocks=gram_blocks,
        multipliers=multipliers,
        spans=spans,
        param_offset=param_offset,
        row_monomials=[candidates[k] for k in np.flatnonzero(live)],
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
    P = np.array(exps, dtype=np.int64).reshape(len(exps), mem.domain.n_vars) % 2
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
    off = np.cumsum([0] + [len(info.basis) for info in comp.gram_blocks])
    block = np.full(off[-1], -1, dtype=np.int64)  # flat basis index -> restricted block
    pos = np.zeros(off[-1], dtype=np.int64)       # flat basis index -> position in it
    keep_free = np.ones(problem.n_free, dtype=bool)
    n_blocks = 0
    for mem, (blocks, mults) in zip(comp.program.memberships, comp.spans):
        flips = sign_symmetries(mem)
        # the grlex-leading monomial of the membership's first equality, if any
        lead = max((e for h in mem.domain.equalities[:1] for e in h.terms), key=lambda e: (sum(e), e), default=None)
        for b, info in enumerate(comp.gram_blocks[blocks], blocks.start):
            groups: dict[tuple, list[int]] = {}
            for i, mono in enumerate(info.basis):
                if lead is not None and all(e >= d for e, d in zip(mono, lead)):
                    continue  # not a standard monomial of the quotient ring
                groups.setdefault(tuple(flips @ mono % 2), []).append(off[b] + i)
            for cols in groups.values():
                block[cols], pos[cols] = n_blocks, np.arange(len(cols))
                n_blocks += 1
        for info in comp.multipliers[mults]:
            odd = [any(flips @ mono % 2) for mono in info.basis]
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
    """One membership's decomposition target = s_0 + sum_j g_j s_j + sum_j
    h_j p_j over ``domain``: the Gram matrix of each s_j as (``"sigma_j"``,
    basis, G), j = 0 for s_0, and each p_j as (j - 1, polynomial), indexing
    ``domain.inequalities`` and ``domain.equalities``.  ``target`` has the
    program's parameters substituted."""

    label: str
    level: int
    target: Polynomial
    domain: SemialgebraicSet
    gram_matrices: list[tuple[str, tuple[Monomial, ...], np.ndarray]]
    free_multipliers: list[tuple[int, Polynomial]]
    identity_residual: float

    def expansion(self) -> Polynomial:
        """Symbolically rebuild s_0 + sum g_j s_j + sum h_j p_j."""
        n = self.domain.n_vars
        total = Polynomial.zero(n)
        for name, basis, G in self.gram_matrices:
            terms: dict = {}
            for a in range(len(basis)):
                for b in range(a, len(basis)):
                    mono = tuple(x + y for x, y in zip(basis[a], basis[b]))
                    factor = 1.0 if a == b else 2.0
                    terms[mono] = terms.get(mono, 0.0) + factor * G[a, b]
            sigma = Polynomial(n, terms)
            j = int(name.split("_")[1])
            total = total + (sigma if j == 0 else self.domain.inequalities[j - 1] * sigma)
        for eq_index, p in self.free_multipliers:
            total = total + self.domain.equalities[eq_index] * p
        return total


@dataclass
class Certificate:
    """Decomposition data read back from an SDP solution; validated when
    it comes from :func:`extract_certificate`."""

    level: int
    optimum: float
    params: dict[str, float]
    memberships: list[MembershipCertificate]

    @property
    def identity_residual(self) -> float:
        return max(m.identity_residual for m in self.memberships)


def _lsqr(row: np.ndarray, col: np.ndarray, val: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The minimum-norm least-squares solution d of A d = b, where the m x n
    matrix A holds ``val`` at (``row``, ``col``): Paige & Saunders' LSQR
    (1982) from d = 0, stopped as scipy's ``lsqr`` is with atol = btol =
    1e-14, or after 2n steps.  Its iterates stay in the row space of A."""
    m, tol = len(b), 1e-14
    d = np.zeros(n)
    bnorm = beta = float(np.linalg.norm(b))
    if beta == 0:
        return d
    u = b / beta
    v = np.bincount(col, val * u[row], minlength=n)
    alpha = float(np.linalg.norm(v))
    if alpha == 0:
        return d
    v /= alpha
    w = v.copy()
    phibar, rhobar, anorm = beta, alpha, 0.0
    for _ in range(2 * n):
        # one Golub-Kahan bidiagonalization step, then one Givens rotation
        u = np.bincount(row, val * v[col], minlength=m) - alpha * u
        beta = float(np.linalg.norm(u))
        if beta > 0:
            u /= beta
            anorm = math.sqrt(anorm**2 + alpha**2 + beta**2)  # estimates the Frobenius norm of A
            v = np.bincount(col, val * u[row], minlength=n) - beta * v
            alpha = float(np.linalg.norm(v))
            if alpha > 0:
                v /= alpha
        rho = math.hypot(rhobar, beta)
        c, s = rhobar / rho, beta / rho
        theta, rhobar = s * alpha, -c * alpha
        phi, phibar = c * phibar, s * phibar
        d += (phi / rho) * w
        w = v - (theta / rho) * w
        # phibar is |b - A d| and alpha |s phi| is |A^T (b - A d)|
        if phibar <= tol * (bnorm + anorm * float(np.linalg.norm(d))) or alpha * abs(s * phi) <= tol * anorm * phibar:
            break
    return d


def round_onto_rows(comp: Compilation, solution: SdpSolution) -> SdpSolution:
    """Return a copy of ``solution`` moved onto the coefficient-matching rows.

    The solver calls an iterate feasible relative to the size of the target
    coefficients, while the certificate gates in :func:`extract_certificate`
    are absolute, so a usable iterate can miss the identity by more than
    ``RESIDUAL_TOL`` depending on floating-point rounding.  This applies the
    minimum-norm (Frobenius on the Gram blocks) least-squares correction of
    the Gram entries and equality-multiplier coefficients that cancels the
    identity residual (Peyrl & Parrilo 2008; Löfberg 2009), by LSQR on the
    triplets of :meth:`Compilation.flat_rows` that fall in movable columns.

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
    row, col, val = comp.flat_rows()
    residual = comp.row_targets - np.bincount(row, val * x[col], minlength=len(comp.row_targets))
    live = [np.diag(G) != 0 for G in blocks]
    movable = np.concatenate(
        [np.outer(d, d).ravel() for d in live] + [np.arange(free.size) < comp.param_offset]
    )
    keep = movable[col]
    # iterate to rounding level; whether that is good enough is the audit's call
    x[movable] += _lsqr(row[keep], (np.cumsum(movable) - 1)[col[keep]], val[keep], residual, int(movable.sum()))
    *parts, rounded_free = np.split(x, np.cumsum([G.size for G in blocks]))
    rounded = [part.reshape(G.shape) for part, G in zip(parts, blocks)]
    return replace(solution, primal_blocks=rounded, free_values=rounded_free)


def read_certificate(comp: Compilation, solution: SdpSolution) -> Certificate:
    """Read every membership's Gram matrices, multipliers and identity
    residual, the largest ``|target - expansion|`` coefficient, back from a
    solution, in membership order.  Nothing is gated here."""
    program = comp.program
    params = {
        name: float(solution.free_values[comp.param_offset + k])
        for k, name in enumerate(program.params)
    }
    mem_certs: list[MembershipCertificate] = []
    for mem, (blocks, mults) in zip(program.memberships, comp.spans):
        target = mem.base
        for name, poly in mem.param_polys:
            target = target + poly.scale(params[name])
        grams = [(info.multiplier, info.basis, np.asarray(G))
                 for info, G in zip(comp.gram_blocks[blocks], solution.primal_blocks[blocks])]
        free = []
        for info in comp.multipliers[mults]:
            coeffs = map(float, solution.free_values[info.offset : info.offset + len(info.basis)])
            free.append((info.equality, Polynomial(mem.domain.n_vars, dict(zip(info.basis, coeffs)))))
        cert_mem = MembershipCertificate(mem.label, mem.level, target, mem.domain, grams, free, 0.0)
        cert_mem.identity_residual = (target - cert_mem.expansion()).max_abs_coeff()
        mem_certs.append(cert_mem)
    optimum = sum(w * params[name] for name, w in program.objective)
    level = max(mem.level for mem in program.memberships)
    return Certificate(level=level, optimum=optimum, params=params, memberships=mem_certs)


def extract_certificate(comp: Compilation, solution: SdpSolution) -> Certificate:
    """:func:`read_certificate`, rejected if a Gram block has an eigenvalue
    below ``-PSD_SLACK`` or the worst coefficient mismatch of a membership
    exceeds ``RESIDUAL_TOL``; each membership in turn, its Gram blocks first.

    Both gates are absolute: the residual is the largest
    ``|target - expansion|`` coefficient in polynomial units, with no
    scaling by the size of the target (unlike the solver's feasibility
    test, see ``certify.usable_solution``).  This is a pure audit; it
    repairs nothing, so callers pass the output of :func:`round_onto_rows`.
    """
    cert = read_certificate(comp, solution)
    for mi, mem in enumerate(cert.memberships):
        for name, _, G in mem.gram_matrices:
            min_eig = float(np.linalg.eigvalsh(0.5 * (G + G.T))[0])
            if min_eig < -PSD_SLACK:
                raise CertificateRejected(-min_eig, f"Gram block {name} has eigenvalue {min_eig:.3e}")
        if mem.identity_residual > RESIDUAL_TOL:
            raise CertificateRejected(mem.identity_residual, mem.label or f"membership {mi}")
    return cert
