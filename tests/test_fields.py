import time
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from qplanes import fields, linalg
from qplanes.fields import (DEFAULT_PRIME, PRIME_BOUND, PrimeField,
                            RationalField, is_prime)


def test_default_prime_is_prime():
    assert is_prime(DEFAULT_PRIME)


@pytest.mark.parametrize("n,expect", [
    (2, True), (3, True), (4, False), (11, True), (32003, True),
    (32001, False), (1, False), (0, False),
])
def test_is_prime(n, expect):
    assert is_prime(n) is expect


def _trial_division_sieve(limit):
    """Primality of every n < limit by trial division, one divisor at a
    time over the whole range: the oracle."""
    ns = np.arange(limit)
    prime = ns >= 2
    for d in range(2, isqrt(limit - 1) + 1):
        prime &= (ns % d != 0) | (ns == d)
    return prime


def test_is_prime_agrees_with_trial_division_below_2e5():
    want = _trial_division_sieve(2 * 10 ** 5)
    assert [is_prime(n) for n in range(len(want))] == want.tolist()


def test_is_prime_on_the_image_primes():
    assert len(linalg._PRIMES) == 32
    assert all(is_prime(p) for p in linalg._PRIMES)


@pytest.mark.parametrize("n", [
    561, 41041, 825265,  # Carmichael numbers
    2047, 1373653, 25326001,  # strong pseudoprimes to 2, to 2 and 3, to 2, 3 and 5
    3215031751,  # to 2, 3, 5 and 7: decided by the exact route
])
def test_is_prime_refuses_pseudoprimes(n):
    assert is_prime(n) is False


@pytest.mark.parametrize("n,expect", [
    (4294967311, True), (3215031751 + 2, False), (2 ** 32 + 1, False),
])
def test_is_prime_past_the_miller_rabin_bound(n, expect):
    assert fields._MR_BOUND <= n
    assert is_prime(n) is expect


def test_prime_field_rejects_bad_moduli():
    with pytest.raises(ValueError):
        PrimeField(32001)
    with pytest.raises(ValueError):
        PrimeField(7)


@pytest.mark.parametrize("p", [4294967311, 18446744073709551557])
def test_prime_field_refuses_primes_past_the_bound_promptly(p):
    """Both are prime, but residue products overflow int64; the refusal
    must come before trial division, which would take minutes."""
    start = time.perf_counter()
    with pytest.raises(ValueError, match="2\\^31"):
        PrimeField(p)
    assert time.perf_counter() - start < 1.0


def test_prime_field_accepts_the_largest_prime_below_the_bound():
    assert PRIME_BOUND == 2 ** 31
    assert PrimeField(2147483647).p == PRIME_BOUND - 1


def test_prime_field_arithmetic():
    k = PrimeField(11)
    assert k.add(7, 8) == 4
    assert k.sub(3, 8) == 6
    assert k.mul(5, 9) == 1
    assert k.inv(5) == 9
    assert k.div(1, 5) == 9
    assert k.neg(4) == 7
    assert k.of(-1) == 10
    assert k.of(Fraction(1, 5)) == 9


def test_prime_field_inverse_of_zero():
    k = PrimeField(11)
    with pytest.raises(ZeroDivisionError):
        k.inv(0)


def test_inverse_round_trip():
    k = PrimeField(32003)
    for a in [1, 2, 17, 31999]:
        assert k.mul(a, k.inv(a)) == 1


def test_rational_field():
    k = RationalField()
    assert k.of(3) == Fraction(3)
    assert k.div(k.of(1), k.of(3)) == Fraction(1, 3)
    assert k.inv(Fraction(2, 5)) == Fraction(5, 2)
    with pytest.raises(ZeroDivisionError):
        k.inv(Fraction(0))


def test_array_helpers():
    k = PrimeField(11)
    a = k.array([[12, -1], [5, 22]])
    assert a.tolist() == [[1, 10], [5, 0]]
    q = RationalField()
    b = q.array([[1, 2]])
    assert b[0, 1] == Fraction(2)
