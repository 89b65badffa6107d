import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplanes.fields import PrimeField, RationalField
from qplanes.unipoly import (UniPoly, gcd, interpolate, resultant,
                             roots_in_field, squarefree_and_power, sylvester)

K = PrimeField()


def _random_upoly(k, rng, deg):
    coeffs = [k.random_element(rng) for _ in range(deg)]
    coeffs.append(1 + rng.randrange(k.p - 1))
    return UniPoly(k, coeffs)


def test_divmod_round_trip():
    rng = random.Random(0)
    for _ in range(20):
        f = _random_upoly(K, rng, rng.randrange(1, 8))
        g = _random_upoly(K, rng, rng.randrange(1, 5))
        q, r = f.divmod(g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_gcd():
    a = UniPoly(K, [K.of(-1), 1])  # t - 1
    b = UniPoly(K, [K.of(-2), 1])  # t - 2
    f = a * a * b
    g = a * b * b
    assert gcd(f, g) == (a * b).monic()


def test_interpolate_round_trip():
    rng = random.Random(3)
    f = _random_upoly(K, rng, 9)
    samples = [(t, f.evaluate(t)) for t in range(12)]
    assert interpolate(K, samples) == f
    with pytest.raises(ValueError):
        interpolate(K, [(0, 1), (0, 2)])


def _newton_interpolate(field, samples):
    """Newton's divided differences, expanded into the monomial basis:
    the oracle for interpolate."""
    ts = [field.of(t) for t, _ in samples]
    coef = [field.of(v) for _, v in samples]
    n = len(ts)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = field.div(field.sub(coef[i], coef[i - 1]),
                                field.sub(ts[i], ts[i - j]))
    result = UniPoly.zero(field)
    basis = UniPoly(field, [field.one])
    for i in range(n):
        result = result + basis.scale(coef[i])
        basis = basis * UniPoly(field, [field.neg(ts[i]), field.one])
    return result


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(41), PrimeField(32003),
                        PrimeField(2147483647), RationalField()]),
       st.integers(0, 40))
@settings(max_examples=60, deadline=None)
def test_interpolate_matches_newton(seed, k, n):
    """Distinct abscissae in any order, negative ones over Q, and random
    values; then one abscissa repeated."""
    rng = random.Random(seed)
    span = range(-60, 60) if k.kind == "rationals" else range(k.p)
    ts = rng.sample(span, n)
    samples = [(t, k.random_element(rng)) for t in ts]
    got = interpolate(k, samples)
    assert got == _newton_interpolate(k, samples)
    assert got.degree() < n
    assert all(got.evaluate(k.of(t)) == k.of(v) for t, v in samples)
    if n:
        t = rng.choice(ts)
        with pytest.raises(ValueError, match="duplicate"):
            interpolate(k, samples + [(t, k.random_element(rng))])


def test_interpolate_rationals():
    q = RationalField()
    f = UniPoly(q, [q.of(1), q.of(-2), q.of(1)])
    samples = [(t, f.evaluate(q.of(t))) for t in range(4)]
    assert interpolate(q, samples) == f


def test_resultant_common_root():
    a = UniPoly(K, [K.of(-5), 1])
    f = a * UniPoly(K, [1, 1])
    g = a * UniPoly(K, [2, 1])
    assert resultant(f, g) == 0
    h = UniPoly(K, [3, 1])
    assert resultant(UniPoly(K, [1, 1]), h) != 0


def test_sylvester_formal_degree():
    # cubics of formal degree 3 whose leading coefficients both vanish
    f, g = [1, 2, 0, 0], [3, 1, 0, 0]
    assert sylvester(K, f, g).det() == 0
    assert sylvester(K, f[:2], g[:2]).det() == \
        resultant(UniPoly(K, f), UniPoly(K, g)) == 5


def test_squarefree_and_power():
    rng = random.Random(7)
    s = _random_upoly(K, rng, 10).monic()
    f = (s * s * s).scale(17)
    got = squarefree_and_power(f, 3)
    assert got is not None
    g, c = got
    assert g == s and c == 17
    # not a perfect cube
    assert squarefree_and_power(s * s, 3) is None


def _yun_power(f, k):
    """Yun's squarefree decomposition f = c prod a_i^i, then g = prod
    a_i^(i/k) when k divides every multiplicity, checked by g^k c == f:
    the oracle for squarefree_and_power (p > deg f)."""
    field = f.field

    def derivative(u):
        return UniPoly(field, [field.mul(field.of(i), c)
                               for i, c in enumerate(u.coeffs)][1:])

    def exact_div(u, v):
        q, r = u.divmod(v)
        assert r.is_zero()
        return q

    c, fm = f.leading(), f.monic()
    parts = {}
    a = gcd(fm, derivative(fm))
    b = exact_div(fm, a)
    d = exact_div(derivative(fm), a) - derivative(b)
    i = 1
    while b.degree() > 0:
        ai = gcd(b, d)
        if ai.degree() > 0:
            parts[i] = ai
        b2 = exact_div(b, ai)
        d = exact_div(d, ai) - derivative(b2)
        b = b2
        i += 1
    if any(mult % k for mult in parts):
        return None
    g = UniPoly(field, [field.one])
    for mult, ai in parts.items():
        g = g * ai.pow(mult // k)
    return (g, c) if g.pow(k).scale(c) == f else None


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(41), PrimeField(32003),
                        PrimeField(2147483647)]),
       st.sampled_from([2, 3]), st.integers(0, 12),
       st.sampled_from(["power", "perturbed", "times", "mixed", "odd"]))
@settings(max_examples=200, deadline=None)
def test_power_root_matches_yun(seed, k, e, deg, kind):
    """c g^e for a monic g of degree 0..12 and c != 0; the same with one
    coefficient perturbed, times a non-power, times h^(e+1), or times one
    more linear factor, so that e does not divide the degree.  Inputs of
    degree p or more are refused (test_power_root_refusals) and skipped."""
    rng = random.Random(seed)
    g = _random_upoly(k, rng, deg).monic()
    c = 1 + rng.randrange(k.p - 1)
    f = g.pow(e).scale(c)
    if kind == "perturbed":
        i = rng.randrange(f.degree() + 1)
        f = f + UniPoly(k, [0] * i + [1 + rng.randrange(k.p - 1)])
    elif kind == "times":
        f = f * _random_upoly(k, rng, rng.randrange(1, 4))
    elif kind == "mixed":
        f = f * _random_upoly(k, rng, rng.randrange(1, 3)).pow(e + 1)
    elif kind == "odd":
        f = f * UniPoly(k, [k.random_element(rng), 1])
    if f.is_zero() or f.degree() >= k.p:
        return
    got = squarefree_and_power(f, e)
    assert got == _yun_power(f, e)
    if kind == "power":
        assert got == (g, c)


def test_power_root_refusals():
    """p <= deg f and fields other than prime fields are refused."""
    k = PrimeField(41)
    with pytest.raises(ValueError, match="too small"):
        squarefree_and_power(UniPoly(k, [1, 1]).pow(42), 3)
    with pytest.raises(ValueError, match="too small"):
        squarefree_and_power(UniPoly(k, [1, 1]).pow(41), 41)
    assert squarefree_and_power(UniPoly(k, [1, 1]).pow(40), 2) is not None
    q = RationalField()
    with pytest.raises(ValueError, match="prime fields"):
        squarefree_and_power(UniPoly(q, [1, 2, 1]), 2)


def test_roots_in_field():
    f = UniPoly(K, [K.of(-1), 1]) * UniPoly(K, [K.of(-1), 1]) \
        * UniPoly(K, [K.of(-3), 1])
    assert roots_in_field(f) == [1, 1, 3]
    with pytest.raises(ValueError):
        roots_in_field(UniPoly(K, [1] * 11))  # degree 10 over the cap


def test_evaluate_many_matches_evaluate():
    import numpy as np
    rng = random.Random(11)
    f = _random_upoly(K, rng, 6)
    ts = np.arange(50, dtype=np.int64)
    vals = f.evaluate_many(ts)
    for t in range(50):
        assert vals[t] == f.evaluate(t)
