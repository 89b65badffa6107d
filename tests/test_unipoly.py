import random

import pytest

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


def test_exact_div():
    f = UniPoly(K, [1, 1])  # 1 + t
    g = UniPoly(K, [2, 3, 1])  # (1 + t)(2 + t)
    assert g.exact_div(f) == UniPoly(K, [2, 1])
    with pytest.raises(ValueError):
        UniPoly(K, [1, 0, 1]).exact_div(f)


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
