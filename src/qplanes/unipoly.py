"""Univariate polynomials: interpolation, k-th roots, roots.

These realize the pencil-degree experiments: determinants along a pencil
are recovered by evaluation and interpolation, which is one solve of the
Vandermonde system of the samples, and the cube structure of the
resulting degree-36 polynomial is detected by taking the monic cube root
off its top coefficients and checking it by one exact product (valid
since p exceeds every degree in play).  The root scans evaluate on all
of F_p, so their memory grows with p.  No code in the package calls gcd,
resultant or the root scans: roots_in_field is the scan oracle of the
tests, and all of them stay while the perfbench tracer wraps them by
name.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, PrimeField
from .linalg import Matrix


class UniPoly:
    """Coefficients low to high; leading coefficient nonzero unless zero."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        self.field = field
        cs = [field.of(c) for c in coeffs]
        while cs and cs[-1] == field.zero:
            cs.pop()
        self.coeffs = cs

    @classmethod
    def zero(cls, field):
        return cls(field, [])

    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self):
        if not self.coeffs:
            return self.field.zero
        return self.coeffs[-1]

    def __eq__(self, other):
        return (isinstance(other, UniPoly) and self.field == other.field
                and self.coeffs == other.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "UniPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == self.field.zero:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{i}")
        return "UniPoly(" + " + ".join(terms) + ")"

    def __add__(self, other):
        f = self.field
        n = max(len(self.coeffs), len(other.coeffs))
        cs = [f.zero] * n
        for i, c in enumerate(self.coeffs):
            cs[i] = c
        for i, c in enumerate(other.coeffs):
            cs[i] = f.add(cs[i], c)
        return UniPoly(f, cs)

    def __neg__(self):
        return UniPoly(self.field, [self.field.neg(c) for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        f = self.field
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(f)
        cs = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == f.zero:
                continue
            for j, b in enumerate(other.coeffs):
                cs[i + j] = f.add(cs[i + j], f.mul(a, b))
        return UniPoly(f, cs)

    def scale(self, c):
        f = self.field
        return UniPoly(f, [f.mul(a, f.of(c)) for a in self.coeffs])

    def pow(self, k: int) -> "UniPoly":
        out = UniPoly(self.field, [self.field.one])
        for _ in range(k):
            out = out * self
        return out

    def divmod(self, other):
        f = self.field
        if other.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return UniPoly.zero(f), UniPoly(f, rem)
        q = [f.zero] * (dq + 1)
        inv_lead = f.inv(other.leading())
        for i in range(dq, -1, -1):
            c = f.mul(rem[i + other.degree()], inv_lead)
            q[i] = c
            if c != f.zero:
                for j, b in enumerate(other.coeffs):
                    rem[i + j] = f.sub(rem[i + j], f.mul(c, b))
        return UniPoly(f, q), UniPoly(f, rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero():
            return self
        return self.scale(self.field.inv(self.leading()))

    def evaluate(self, t):
        f = self.field
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, f.of(t)), c)
        return acc

    def evaluate_many(self, ts: np.ndarray) -> np.ndarray:
        """Vectorized Horner evaluation (prime field only)."""
        if not isinstance(self.field, PrimeField):
            raise ValueError("vectorized evaluation needs a prime field")
        p = self.field.p
        acc = np.zeros_like(ts)
        for c in reversed(self.coeffs):
            acc = (acc * ts + c) % p
        return acc


def gcd(a: UniPoly, b: UniPoly) -> UniPoly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def interpolate(field: Field, samples: list[tuple]) -> UniPoly:
    """Unique polynomial of degree < len(samples) through the samples:
    one Matrix.solve of the Vandermonde system, whose matrix is
    invertible exactly when the abscissae are distinct; duplicate
    abscissae are refused."""
    ts = field.array([t for t, _ in samples])
    if len(set(ts.tolist())) != len(ts):
        raise ValueError("duplicate sample abscissae")
    vander = field.zeros((len(ts), len(ts)))
    power = field.array(np.ones(len(ts), dtype=np.int64))
    for j in range(len(ts)):
        vander[:, j] = power
        power = field.reduce(power * ts)
    return UniPoly(field, Matrix(field, vander).solve([v for _, v in samples]))


def sylvester(field: Field, f: list, g: list) -> Matrix:
    """Sylvester matrix of two coefficient lists (low to high), read as
    polynomials of the formal degrees len(f) - 1 and len(g) - 1."""
    m, n = len(f) - 1, len(g) - 1
    data = field.zeros((m + n, m + n))
    for i in range(n):
        data[i, i:i + m + 1] = f[::-1]
    for i in range(m):
        data[n + i, i:i + n + 1] = g[::-1]
    return Matrix(field, data)


def resultant(f: UniPoly, g: UniPoly):
    """Sylvester-matrix resultant over F_p (Matrix.det refuses Q); zero
    iff f, g share a root in the closure."""
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    return sylvester(f.field, f.coeffs, g.coeffs).det()


def squarefree_and_power(f: UniPoly, k: int):
    """If f = c * g^k, return (g monic, c); otherwise None.

    No squarefree part is taken (the name stays for the perfbench
    tracer).  With n = deg f = k m and F(x) = x^n f(1/x) / c = 1 + F_1 x
    + ..., the reversed root G = F^(1/k) mod x^(m+1) comes from the power
    recurrence i G_i = sum_{j=1..i} ((1/k + 1) j - i) F_j G_(i-j)
    (J. C. P. Miller; Knuth, TAOCP vol. 2, section 4.7), which divides
    only by i <= m and by k, both at most n < p when m > 0.  A monic k-th
    root is unique when it exists, so g^k c == f decides.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("k-th roots implemented for prime fields")
    if field.p <= f.degree():
        raise ValueError("field too small: p must exceed the degree")
    n, c, p = f.degree(), f.leading(), field.p
    if n % k:
        return None
    rev = [field.div(a, c) for a in reversed(f.coeffs)]  # F_0 = 1, F_1, ...
    root = [1]  # G_0, G_1, ...
    for i in range(1, n // k + 1):
        acc = sum(((k + 1) * j - k * i) * rev[j] * root[i - j]
                  for j in range(1, i + 1))
        root.append(acc * pow(i * k, -1, p) % p)
    g = UniPoly(field, root[::-1])
    return (g, c) if g.pow(k).scale(c) == f else None


def roots_in_field(f: UniPoly) -> list:
    """All roots in F_p, with multiplicity, by a vectorized exhaustive scan."""
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("root scan requires a prime field")
    if f.is_zero():
        raise ValueError("zero polynomial")
    if f.degree() > 9:
        raise ValueError("root scan limited to degree <= 9")
    if f.degree() == 0:
        return []
    ts = np.arange(field.p, dtype=np.int64)
    vals = f.evaluate_many(ts)
    roots = []
    for r in ts[vals == 0]:
        r = int(r)
        g = f
        lin = UniPoly(field, [field.neg(r), field.one])
        while True:
            q, rem = g.divmod(lin)
            if not rem.is_zero():
                break
            roots.append(r)
            g = q
    return sorted(roots)


def roots_any_degree(f: UniPoly) -> list:
    """Root scan without the degree cap.  No code in the package calls
    it; the perfbench tracer wraps it by name."""
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("root scan requires a prime field")
    ts = np.arange(field.p, dtype=np.int64)
    vals = f.evaluate_many(ts)
    return [int(r) for r in ts[vals == 0]]
