"""Univariate polynomials: interpolation, squarefree structure, roots.

These realize the pencil-degree experiments: determinants along a pencil
are recovered by evaluation and interpolation, which is one solve of the
Vandermonde system of the samples, and the cube structure of the
resulting degree-36 polynomial is detected with a gcd-based squarefree
decomposition (valid since p exceeds every degree in play).  The root
scans evaluate on all of F_p, so their memory grows with p.  No code in
the package calls them: roots_in_field is the scan oracle of the tests,
and both stay while the perfbench tracer wraps them by name.
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

    def exact_div(self, other) -> "UniPoly":
        q, r = self.divmod(other)
        if not r.is_zero():
            raise ValueError("division is not exact")
        return q

    def derivative(self) -> "UniPoly":
        f = self.field
        return UniPoly(f, [f.mul(f.of(i), c)
                           for i, c in enumerate(self.coeffs)][1:])

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

    Uses Yun's squarefree decomposition, which needs a prime field with
    p > deg f so derivatives behave.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    field = f.field
    if not isinstance(field, PrimeField):
        raise ValueError("squarefree decomposition implemented for prime fields")
    if field.p <= f.degree():
        raise ValueError("field too small for derivative-based decomposition")
    c = f.leading()
    fm = f.monic()
    # Yun: fm = prod a_i^i with a_i squarefree and pairwise coprime
    parts = {}
    a = gcd(fm, fm.derivative())
    b = fm.exact_div(a)
    d = fm.derivative().exact_div(a) - b.derivative()
    i = 1
    while b.degree() > 0:
        ai = gcd(b, d)
        if ai.degree() > 0:
            parts[i] = ai
        b2 = b.exact_div(ai)
        d = d.exact_div(ai) - b2.derivative()
        b = b2
        i += 1
    for mult in parts:
        if mult % k != 0:
            return None
    g = UniPoly(field, [field.one])
    for mult, ai in parts.items():
        g = g * ai.pow(mult // k)
    # exact verification
    check = g.pow(k).scale(c)
    if check != f:
        return None
    return g, c


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
