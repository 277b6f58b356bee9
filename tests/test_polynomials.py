from itertools import combinations_with_replacement

import numpy as np
import pytest

from gamecert.polynomials import Polynomial, allclose, grevlex_key, monomials_upto


def random_poly(rng, n_vars, max_degree, n_terms=6):
    basis = monomials_upto(n_vars, max_degree)
    terms = {}
    for _ in range(n_terms):
        mono = basis[rng.integers(len(basis))]
        terms[mono] = terms.get(mono, 0.0) + float(rng.uniform(-2, 2))
    return Polynomial(n_vars, terms)


def test_add_cancellation():
    p = Polynomial(1, {(2,): 1.0, (0,): 1.0})
    q = Polynomial(1, {(2,): -1.0})
    assert (p + q).terms == {(0,): 1.0}


def test_add_identity():
    p = Polynomial(2, {(1, 1): 3.0, (0, 0): -2.0})
    assert p + Polynomial.zero(2) == p


def test_add_partial_cancellation():
    p = Polynomial(1, {(2,): -3.0, (1,): 4.0})
    q = Polynomial(1, {(2,): 3.0})
    assert (p + q).terms == {(1,): 4.0}


def test_mul_square_and_identity():
    x = Polynomial.variable(1, 0)
    assert (x * x).terms == {(2,): 1.0}
    p = Polynomial(2, {(1, 0): 2.0, (0, 2): -1.0})
    assert p * Polynomial.constant(2, 1.0) == p


def test_mul_sphere_multiplier_expansion():
    # (1 - y^2) * (-6) = -6 + 6 y^2
    one_minus = Polynomial(1, {(0,): 1.0, (2,): -1.0})
    result = one_minus * (-6.0)
    assert result.terms == {(0,): -6.0, (2,): 6.0}


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError):
        Polynomial.variable(1, 0) + Polynomial.variable(2, 0)
    with pytest.raises(ValueError):
        Polynomial.variable(1, 0) * Polynomial.variable(2, 0)


def test_ring_axioms_random():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 7))
        p = random_poly(rng, n, 4)
        q = random_poly(rng, n, 4)
        r = random_poly(rng, n, 4)
        assert allclose((p + q) + r, p + (q + r), 1e-12)
        assert allclose(p + q, q + p, 1e-12)
        assert allclose(p * q, q * p, 1e-12)
        assert allclose((p * q) * r, p * (q * r), 1e-12)
        assert allclose(p * (q + r), p * q + p * r, 1e-12)


def test_ring_operations_match_the_public_constructor():
    p = Polynomial(3, {(0, 0, 0): 0.5, (1, 0, 0): -2.0, (0, 2, 1): 3.0, (1, 1, 1): -0.25})
    q = random_poly(np.random.default_rng(12), 3, 3)
    factor = np.float64(-1.5)
    # each result against the constructor fed the same raw sums and products
    summed = dict(p.terms)
    for e, c in q.terms.items():
        summed[e] = summed.get(e, 0.0) + c
    multiplied = {}
    for ea, ca in p.terms.items():
        for eb, cb in q.terms.items():
            key = tuple(a + b for a, b in zip(ea, eb))
            multiplied[key] = multiplied.get(key, 0.0) + ca * cb
    cases = [
        (p + q, summed),
        (p + (-p), {e: c - c for e, c in p.terms.items()}),
        (-p, {e: -c for e, c in p.terms.items()}),
        (p * q, multiplied),
        (p.scale(factor), {e: c * factor for e, c in p.terms.items()}),
        (p * factor, {e: c * float(factor) for e, c in p.terms.items()}),
        (p.scale(1e-14), {e: c * 1e-14 for e, c in p.terms.items()}),
    ]
    for result, raw in cases:
        expected = Polynomial(3, raw)
        assert list(result.terms.items()) == list(expected.terms.items())
        assert all(type(c) is float for c in result.terms.values())
        assert all(type(e) is tuple and all(type(k) is int for k in e) for e in result.terms)
    # the CANON_EPS drop ran: some scaled terms fell below it, some did not
    assert 0 < len(p.scale(1e-14).terms) < len(p.terms)


def test_differentiate_analytic():
    p = Polynomial(1, {(2,): -3.0, (1,): 4.0})
    assert p.differentiate(0).terms == {(1,): -6.0, (0,): 4.0}
    assert Polynomial.constant(3, 5.0).differentiate(1).is_zero()


def test_differentiate_multilinear_payoff():
    # d/dy of the three-variable payoff 10*x1*x2 + 2*x1*y + 2*x2*y - 6*x1 - 6*x2 - 2*y + 1
    u = Polynomial(3, {
        (1, 1, 0): 10.0, (1, 0, 1): 2.0, (0, 1, 1): 2.0,
        (1, 0, 0): -6.0, (0, 1, 0): -6.0, (0, 0, 1): -2.0, (0, 0, 0): 1.0,
    })
    expected = Polynomial(3, {(1, 0, 0): 2.0, (0, 1, 0): 2.0, (0, 0, 0): -2.0})
    du = u.differentiate(2)
    assert allclose(du, expected, 1e-12)
    # cross-check against central finite differences at random points
    rng = np.random.default_rng(3)
    for _ in range(10):
        point = rng.uniform(-1, 1, 3)
        up = point.copy(); up[2] += 1e-6
        dn = point.copy(); dn[2] -= 1e-6
        fd = (u.evaluate(up) - u.evaluate(dn)) / 2e-6
        assert abs(fd - du.evaluate(point)) <= 1e-6


def test_differentiate_fd_property():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        p = random_poly(rng, n, 4)
        k = int(rng.integers(n))
        point = rng.uniform(-1, 1, n)
        up = point.copy(); up[k] += 1e-6
        dn = point.copy(); dn[k] -= 1e-6
        fd = (p.evaluate(up) - p.evaluate(dn)) / 2e-6
        sym = p.differentiate(k).evaluate(point)
        assert abs(sym - fd) <= 1e-5 * (1 + abs(sym))


def test_differentiate_index_error():
    with pytest.raises(IndexError):
        Polynomial.variable(2, 0).differentiate(2)


def test_evaluate_examples():
    p = Polynomial(1, {(2,): -3.0, (1,): 4.0})
    assert p.evaluate([1.0]) == pytest.approx(1.0, abs=1e-14)
    q = Polynomial(2, {(2, 0): 1.0, (1, 1): 4.0, (0, 0): 7.5})
    assert q.evaluate([0.0, 0.0]) == pytest.approx(7.5)
    r = Polynomial(2, {(2, 0): 1.0, (1, 1): 4.0})
    assert r.evaluate([0.5, 0.5]) == pytest.approx(1.25)
    with pytest.raises(ValueError):
        p.evaluate([1.0, 2.0])


def test_evaluate_many_matches_evaluate():
    rng = np.random.default_rng(8)
    p = random_poly(rng, 3, 4)
    pts = rng.uniform(-1, 1, (20, 3))
    batch = p.evaluate_many(pts)
    for i in range(20):
        assert batch[i] == pytest.approx(p.evaluate(pts[i]), abs=1e-12)


def test_canonical_zero():
    rng = np.random.default_rng(2)
    p = random_poly(rng, 3, 4)
    assert (p + (-p)).terms == {}
    assert (p - p).is_zero()


def test_monomial_order():
    assert monomials_upto(2, 2) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
    ]
    ordered = monomials_upto(3, 3)
    keys = [grevlex_key(m) for m in ordered]
    assert keys == sorted(keys)


def sorted_monomials(n_vars, max_degree):
    """The basis built by sorting each degree's exponent tuples by grevlex_key."""
    out = []
    for deg in range(max_degree + 1):
        batch = []
        for combo in combinations_with_replacement(range(n_vars), deg):
            exps = [0] * n_vars
            for idx in combo:
                exps[idx] += 1
            batch.append(tuple(exps))
        out.extend(sorted(batch, key=grevlex_key))
    return out


def test_monomials_upto_matches_the_sorted_construction():
    cases = [(n, d) for n in range(7) for d in range(7)] + [(8, 8), (0, 9), (9, 0), (5, 9)]
    for n, d in cases:
        assert monomials_upto(n, d) == sorted_monomials(n, d), (n, d)
    assert monomials_upto(0, 3) == [()]
    for n in (0, 1, 4):
        assert monomials_upto(n, -1) == []


def test_degree_of_zero():
    assert Polynomial.zero(4).degree == 0
    assert Polynomial(2, {(1, 2): 1e-20}).degree == 0  # canonicalized away
