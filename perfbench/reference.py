"""Reference computations made apart from gamecert.

The checks compare the program's outputs with values computed here from
the game files' raw coefficients, with numpy alone: exponent-array
polynomials, their exact derivatives, and ``numpy.linalg.eigvalsh``.
Nothing here imports gamecert.
"""

from __future__ import annotations

import json

import numpy as np


class RawPoly:
    """Sum of ``coeffs[t] * prod(x ** exps[t])`` over the terms t."""

    def __init__(self, n_vars: int, exps, coeffs):
        self.exps = np.asarray(exps, dtype=np.int64).reshape(len(coeffs), n_vars)
        self.coeffs = np.asarray(coeffs, dtype=float)

    @classmethod
    def from_json(cls, obj) -> "RawPoly":
        terms = obj["terms"]
        return cls(obj["n_vars"], [t["exps"] for t in terms], [t["coeff"] for t in terms])

    def derivative(self, var: int) -> "RawPoly":
        coeffs = self.coeffs * self.exps[:, var]
        keep = coeffs != 0
        exps = self.exps[keep].copy()
        exps[:, var] -= 1
        return RawPoly(exps.shape[1], exps, coeffs[keep])

    def evaluate(self, points: np.ndarray) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if not self.coeffs.size:
            return np.zeros(points.shape[0])
        return np.prod(points[:, None, :] ** self.exps[None], axis=2) @ self.coeffs

    def as_dict(self) -> dict:
        out: dict = {}
        for e, c in zip(map(tuple, self.exps.tolist()), self.coeffs):
            out[e] = out.get(e, 0.0) + float(c)
        return out


class RawGame:
    """A game file read as raw coefficient arrays."""

    def __init__(self, obj):
        self.blocks = [int(p["m"]) for p in obj["players"]]
        self.payoffs = [RawPoly.from_json(p) for p in obj["payoffs"]]
        self.ineq = [RawPoly.from_json(p) for p in obj["domain"].get("ineq", [])]
        self.eq = [RawPoly.from_json(p) for p in obj["domain"].get("eq", [])]
        self.owner = [i for i, m in enumerate(self.blocks) for _ in range(m)]

    @classmethod
    def load(cls, path: str) -> "RawGame":
        with open(path) as fh:
            return cls(json.load(fh))

    def _second(self, player: int, a: int, b: int, points: np.ndarray) -> np.ndarray:
        return self.payoffs[player].derivative(a).derivative(b).evaluate(points)

    def symmetrized_jacobian(self, points: np.ndarray) -> np.ndarray:
        """(N, n, n) stack of (J + J^T) / 2 with J[k, l] = d^2 u_owner(k) / dx_k dx_l."""
        n = len(self.owner)
        J = np.empty((np.atleast_2d(points).shape[0], n, n))
        for k in range(n):
            for col in range(n):
                J[:, k, col] = self._second(self.owner[k], k, col, points)
        return 0.5 * (J + J.transpose(0, 2, 1))

    def hessians(self, points: np.ndarray) -> list[np.ndarray]:
        """Each player's own-block payoff Hessian, as an (N, m_i, m_i) stack."""
        out = []
        for player, m in enumerate(self.blocks):
            if not m:
                continue
            own = [k for k, o in enumerate(self.owner) if o == player]
            H = np.empty((np.atleast_2d(points).shape[0], m, m))
            for r, a in enumerate(own):
                for c, b in enumerate(own):
                    H[:, r, c] = self._second(player, a, b, points)
            out.append(H)
        return out

    def max_eigenvalue(self, kind: str, points: np.ndarray) -> float:
        mats = [self.symmetrized_jacobian(points)] if kind == "monotone" else self.hessians(points)
        return max(float(np.linalg.eigvalsh(M)[:, -1].max()) for M in mats)

    def contains(self, point, tol: float = 1e-9) -> bool:
        return all(float(g.evaluate(point)[0]) >= -tol for g in self.ineq) and all(
            abs(float(h.evaluate(point)[0])) <= tol for h in self.eq
        )


def criterion8_coefficients(rng: np.random.Generator, n_terms: int) -> np.ndarray:
    """Two payoffs' coefficients, drawn like the acceptance suite's random
    games: uniform on [-1, 1], payoff by payoff, monomial by monomial."""
    return np.array([[rng.uniform(-1, 1) for _ in range(n_terms)] for _ in range(2)])


def unit_square_grid(steps: int) -> np.ndarray:
    """Grid points of [0, 1]^2 that lie in the ball of radius sqrt(2)."""
    t = np.linspace(0.0, 1.0, steps)
    pts = np.array([(a, b) for a in t for b in t])
    return pts[(pts * pts).sum(axis=1) <= 2.0 + 1e-12]
