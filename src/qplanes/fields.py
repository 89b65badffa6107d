"""Coefficient fields: prime fields F_p and the rationals.

Elements of a prime field are plain Python ints in ``[0, p)``; rational
elements are ``fractions.Fraction``.  Both field objects expose the same
small interface so the rest of the library can stay field-agnostic.
Matrices use numpy arrays: ``int64`` for prime fields, ``object`` dtype
for the rationals.  Rational arrays hold Fractions, or Python ints where a
product is built from rows scaled to a common denominator (the jump
matrix); every operation of ``RationalField`` accepts either.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from operator import index

import numpy as np

DEFAULT_PRIME = 32003
# every prime modulus lies below this: residues then multiply within int64
PRIME_BOUND = 2 ** 31


# Miller-Rabin with these bases is exact below _MR_BOUND: 3215031751 =
# 151 * 751 * 28351 is the least strong pseudoprime to all four
# (Jaeschke, Math. Comp. 61, 1993), and PRIME_BOUND lies below it
_MR_BASES = (2, 3, 5, 7)
_MR_BOUND = 3215031751


def is_prime(n: int) -> bool:
    """Whether n is prime: deterministic Miller-Rabin below _MR_BOUND,
    trial division from there on."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:  # trial division, O(sqrt n)
        return all(n % d for d in range(11, isqrt(n) + 1, 2))
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """F_p for a prime 11 <= p < PRIME_BOUND.

    The lower bound keeps every factorial used by polynomial contraction
    (degrees up to 8) invertible; the upper bound keeps the product of
    two residues within int64.
    """

    kind = "prime"

    def __init__(self, p: int = DEFAULT_PRIME):
        if p >= PRIME_BOUND:  # refused for its size before the primality test
            raise ValueError(f"prime field needs p < 2^31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        if p < 11:
            raise ValueError(f"prime field needs p >= 11, got {p}")
        self.p = p

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            return (x.numerator * pow(x.denominator, -1, self.p)) % self.p
        return index(x) % self.p  # refuses floats rather than truncate them

    zero = 0
    one = 1

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a = int(a) % self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero in F_p")
        return pow(a, -1, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    # -- array helpers ------------------------------------------------

    dtype = np.int64

    def array(self, data) -> np.ndarray:
        """int64 residues of the entries, each as ``of`` gives it."""
        arr = np.asarray(data)
        if arr.dtype.kind in "biu":
            return (arr % self.p).astype(np.int64, copy=False)
        # Fractions and ints past 64 bits, which numpy may read as floats
        return np.vectorize(self.of, otypes=[np.int64])(
            np.asarray(data, dtype=object))

    def zeros(self, shape) -> np.ndarray:
        return np.zeros(shape, dtype=np.int64)

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr % self.p

    def random_element(self, rng) -> int:
        return rng.randrange(self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """Exact rationals via ``fractions.Fraction`` (no overflow possible)."""

    kind = "rationals"
    p = None

    def of(self, x) -> Fraction:
        return Fraction(x)

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def div(self, a, b):
        return a / b

    dtype = object

    def array(self, data) -> np.ndarray:
        arr = np.empty(np.shape(data), dtype=object)
        flat = arr.reshape(-1)
        src = np.asarray(data, dtype=object).reshape(-1)
        for i, v in enumerate(src):
            flat[i] = Fraction(v)
        return arr

    def zeros(self, shape) -> np.ndarray:
        arr = np.empty(shape, dtype=object)
        arr[...] = Fraction(0)
        return arr

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return arr

    def random_element(self, rng) -> Fraction:
        return Fraction(rng.randrange(-50, 51))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "RationalField()"


Field = PrimeField | RationalField
