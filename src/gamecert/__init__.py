"""Certification of concavity and monotonicity for polynomial games via
sum-of-squares programming, projection onto certified game classes, and
conversion of extensive-form games with imperfect recall.

The re-exports below load on first access (PEP 562), so importing a
submodule such as ``gamecert.cli`` does not load numpy: the command pins
the BLAS thread count before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "Polynomial": "polynomials",
    "PolyMatrix": "polynomials",
    "Monomial": "polynomials",
    "PolynomialGame": "games",
    "SemialgebraicSet": "games",
    "add_ball_constraint": "games",
    "box_set": "games",
    "player_hessian": "games",
    "pseudogradient": "games",
    "quadratic_form": "games",
    "regularize": "games",
    "sphere_set": "games",
    "symmetrized_jacobian": "games",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value
