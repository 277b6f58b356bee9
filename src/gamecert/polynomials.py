"""Sparse multivariate polynomial arithmetic over a fixed variable count.

A polynomial is a dict mapping exponent tuples to float coefficients:

    x0^2*x1 + 3  ->  {(2, 1): 1.0, (0, 0): 3.0}

The zero polynomial has an empty term map.  Coefficients with magnitude
below ``CANON_EPS`` are dropped whenever a result is canonicalized, so
float cancellation never bloats the term map and the canonical form of
``p - p`` is exactly the zero polynomial.

Monomial bases are always enumerated in graded order (total degree first),
with graded-reverse-lexicographic tie breaking inside each degree.  This
fixes the layout of every coefficient vector and Gram matrix built on top.

Numeric evaluation on many points goes through a ``PowerTable`` of the
point set: each power ``points[:, i] ** e`` is computed the first time a
term asks for it and reused by every later term, polynomial and matrix
entry evaluated on the same table.  The products and sums are the ones a
term-by-term evaluation does, in the same order, so the values do not
depend on what else the table has served.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Sequence, Tuple

import numpy as np

Monomial = Tuple[int, ...]

# Coefficients below this are treated as exact zeros on canonicalization.
CANON_EPS = 1e-14


def grevlex_key(exps: Monomial) -> tuple:
    """Sort key realizing graded reverse lexicographic order.

    Sorting ascending by this key lists monomials degree by degree and,
    within a degree, from the grevlex-largest down (1, x1, x2, x1^2,
    x1*x2, x2^2, ...).
    """
    return (sum(exps), tuple(reversed(exps)))


def monomials_upto(n_vars: int, max_degree: int) -> list[Monomial]:
    """All exponent tuples of total degree <= max_degree, grevlex ordered.

    Within one degree, grevlex order is ascending order of the reversed
    exponent tuple, so the bases are built variable by variable with the
    new last exponent as the outer loop, and come out in order unsorted.
    """
    if max_degree < 0:
        return []
    of_degree: list[list[Monomial]] = [[()]] + [[] for _ in range(max_degree)]
    for _ in range(n_vars):
        of_degree = [[m + (e,) for e in range(d + 1) for m in of_degree[d - e]]
                     for d in range(max_degree + 1)]
    return [m for batch in of_degree for m in batch]


class Polynomial:
    """Immutable sparse polynomial in ``n_vars`` real variables."""

    __slots__ = ("n_vars", "terms")

    def __init__(self, n_vars: int, terms: Dict[Monomial, float] | None = None):
        if n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        canon: Dict[Monomial, float] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != n_vars:
                    raise ValueError(
                        f"exponent tuple {exps} has length {len(exps)}, expected {n_vars}"
                    )
                c = float(coeff)
                if abs(c) >= CANON_EPS:
                    canon[tuple(int(e) for e in exps)] = c
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "terms", canon)

    @classmethod
    def _of_terms(cls, n_vars: int, terms: Dict[Monomial, float]) -> "Polynomial":
        """What the constructor makes of ``terms`` whose keys are already
        int tuples of length ``n_vars``, as the ring operations' are: only
        the float conversion and the ``CANON_EPS`` drop run."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "n_vars", n_vars)
        object.__setattr__(poly, "terms", {e: float(c) for e, c in terms.items() if abs(c) >= CANON_EPS})
        return poly

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "Polynomial":
        return cls(n_vars, {})

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "Polynomial":
        return cls(n_vars, {(0,) * n_vars: float(value)})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Polynomial":
        if not 0 <= index < n_vars:
            raise IndexError(f"variable index {index} out of range for {n_vars} variables")
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1.0})

    @classmethod
    def monomial(cls, n_vars: int, exps: Monomial, coeff: float = 1.0) -> "Polynomial":
        return cls(n_vars, {tuple(exps): coeff})

    @classmethod
    def squares(cls, n_vars: int, indices: Iterable[int], coeff: float, constant: float = 0.0) -> "Polynomial":
        """constant + coeff * sum of x_k^2 over ``indices``, its terms in
        that order (the constant first, dropped when it is zero)."""
        terms = {(0,) * n_vars: constant}
        for k in indices:
            exps = [0] * n_vars
            exps[k] = 2
            terms[tuple(exps)] = coeff
        return cls(n_vars, terms)

    # -- structure ----------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree; the zero polynomial has degree 0 by convention."""
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Monomial) -> float:
        return self.terms.get(tuple(exps), 0.0)

    def sorted_terms(self) -> list[tuple[Monomial, float]]:
        return sorted(self.terms.items(), key=lambda kv: grevlex_key(kv[0]))

    def __iter__(self) -> Iterator[tuple[Monomial, float]]:
        return iter(self.sorted_terms())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n_vars == other.n_vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in self.sorted_terms():
            mono = "*".join(
                f"x{i}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(exps)
                if e > 0
            )
            bits.append(f"{coeff:+g}" + (f"*{mono}" if mono else ""))
        return " ".join(bits)

    # -- ring operations ----------------------------------------------

    def _check_same_space(self, other: "Polynomial") -> None:
        if self.n_vars != other.n_vars:
            raise ValueError(
                f"variable-count mismatch: {self.n_vars} vs {other.n_vars}"
            )

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_same_space(other)
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, 0.0) + coeff
        return Polynomial._of_terms(self.n_vars, terms)

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __neg__(self) -> "Polynomial":
        return Polynomial._of_terms(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, (int, float)):
            return self.scale(float(other))
        self._check_same_space(other)
        terms: Dict[Monomial, float] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(a + b for a, b in zip(ea, eb))
                terms[key] = terms.get(key, 0.0) + ca * cb
        return Polynomial._of_terms(self.n_vars, terms)

    __rmul__ = __mul__

    def scale(self, factor: float) -> "Polynomial":
        return Polynomial._of_terms(self.n_vars, {e: c * factor for e, c in self.terms.items()})

    # -- calculus and evaluation ---------------------------------------

    def differentiate(self, var_index: int) -> "Polynomial":
        """Exact partial derivative with respect to variable ``var_index``."""
        if not 0 <= var_index < self.n_vars:
            raise IndexError(f"variable index {var_index} out of range")
        terms: Dict[Monomial, float] = {}
        for exps, coeff in self.terms.items():
            e = exps[var_index]
            if e == 0:
                continue
            new = list(exps)
            new[var_index] = e - 1
            key = tuple(new)
            terms[key] = terms.get(key, 0.0) + coeff * e
        return Polynomial(self.n_vars, terms)

    def evaluate(self, point: Sequence[float]) -> float:
        if len(point) != self.n_vars:
            raise ValueError(
                f"point has dimension {len(point)}, expected {self.n_vars}"
            )
        total = 0.0
        for exps, coeff in self.terms.items():
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= float(x) ** e
            total += value
        return total

    def evaluate_many(self, points: "np.ndarray | PowerTable") -> np.ndarray:
        """Evaluate at each row of ``points`` (shape (N, n_vars)) at once.

        ``points`` may also be the ``PowerTable`` of such an array, which
        the call then shares with every other evaluation on it."""
        table = PowerTable.of(points)
        if table.points.shape[1] != self.n_vars:
            raise ValueError(f"points must have shape (N, {self.n_vars})")
        return table.evaluate(self.terms)

    def lift(self, new_n_vars: int) -> "Polynomial":
        """Embed into a larger variable space; variables keep their indices."""
        pad = (0,) * (new_n_vars - self.n_vars)
        return Polynomial(new_n_vars, {exps + pad: coeff for exps, coeff in self.terms.items()})

    def max_abs_coeff(self) -> float:
        return max((abs(c) for c in self.terms.values()), default=0.0)


class PowerTable(dict):
    """The powers ``points[:, i] ** e`` of one point set, keyed by (i, e);
    each is computed the first time it is looked up.

    ``evaluate`` sums a term map on the points the way a term-by-term loop
    does: from ``np.zeros(N)``, in dict order, each term the coefficient
    times its powers in variable order, and a constant term as
    ``np.full(N, coeff)``.  So the values are bit for bit those of the loop
    that recomputes every power."""

    __slots__ = ("points",)

    def __init__(self, points: np.ndarray):
        super().__init__()
        points = np.asarray(points, dtype=float)
        if points.ndim != 2:
            raise ValueError(f"points must have shape (N, n_vars), got {points.shape}")
        self.points = points

    @classmethod
    def of(cls, points: "np.ndarray | PowerTable") -> "PowerTable":
        """``points`` if it is a table already, else a new table of it."""
        return points if isinstance(points, PowerTable) else cls(points)

    def __missing__(self, key: tuple[int, int]) -> np.ndarray:
        i, e = key
        power = self[key] = self.points[:, i] ** e
        return power

    def evaluate(self, terms: Dict[Monomial, float]) -> np.ndarray:
        n = self.points.shape[0]
        out = np.zeros(n)
        term = np.empty(n)
        for exps, coeff in terms.items():
            factors = [(i, e) for i, e in enumerate(exps) if e]
            if not factors:
                out += np.full(n, coeff)
                continue
            np.multiply(coeff, self[factors[0]], out=term)
            for factor in factors[1:]:
                term *= self[factor]
            out += term
        return out


def allclose(p: Polynomial, q: Polynomial, tol: float = 1e-12) -> bool:
    """Coefficient-wise comparison of two polynomials."""
    if p.n_vars != q.n_vars:
        return False
    keys = set(p.terms) | set(q.terms)
    return all(abs(p.terms.get(k, 0.0) - q.terms.get(k, 0.0)) <= tol for k in keys)


class PolyMatrix:
    """A square matrix of polynomials sharing one variable space."""

    __slots__ = ("dim", "n_vars", "entries", "symmetric")

    def __init__(self, entries: Sequence[Sequence[Polynomial]], symmetric: bool = False):
        dim = len(entries)
        if dim == 0:
            raise ValueError("PolyMatrix must have positive dimension")
        if any(len(row) != dim for row in entries):
            raise ValueError("PolyMatrix entries must form a square grid")
        n_vars = entries[0][0].n_vars
        for row in entries:
            for p in row:
                if p.n_vars != n_vars:
                    raise ValueError("PolyMatrix entries disagree on variable count")
        if symmetric:
            for i in range(dim):
                for j in range(i + 1, dim):
                    if entries[i][j] != entries[j][i]:
                        raise ValueError(f"matrix marked symmetric but entry ({i},{j}) differs")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "n_vars", n_vars)
        object.__setattr__(self, "entries", tuple(tuple(row) for row in entries))
        object.__setattr__(self, "symmetric", symmetric)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, ij: tuple[int, int]) -> Polynomial:
        i, j = ij
        return self.entries[i][j]

    def evaluate_many(self, points: "np.ndarray | PowerTable") -> np.ndarray:
        """Evaluate at N points at once; returns shape (N, dim, dim).  All
        entries share one ``PowerTable`` of the points (``points`` may be
        that table)."""
        table = PowerTable.of(points)
        out = np.empty((table.points.shape[0], self.dim, self.dim))
        for i in range(self.dim):
            for j in range(self.dim):
                if self.symmetric and j < i:
                    out[:, i, j] = out[:, j, i]
                else:
                    out[:, i, j] = self.entries[i][j].evaluate_many(table)
        return out

    def symmetrized(self) -> "PolyMatrix":
        half = 0.5
        entries = [
            [
                (self.entries[i][j] + self.entries[j][i]).scale(half)
                for j in range(self.dim)
            ]
            for i in range(self.dim)
        ]
        return PolyMatrix(entries, symmetric=True)
