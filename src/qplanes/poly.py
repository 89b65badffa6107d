"""Dense-ish multivariate polynomials over a configured exact field.

Terms are stored as a dict from exponent tuple to nonzero coefficient.
All degrees in this project are <= 8 in <= 7 variables, so there is no
need for anything cleverer.  The monomial order used everywhere is
graded lexicographic: degrees ascending blockwise, and inside one degree
block exponent tuples in lexicographically *descending* order (so x0^d
comes first).
"""

from __future__ import annotations

import re
from functools import lru_cache
from math import perm, prod

import numpy as np

from .fields import Field


@lru_cache(maxsize=None)
def monomial_basis(nvars: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of total degree d, graded-lex order."""
    if nvars < 1 or d < 0:
        raise ValueError("need nvars >= 1 and d >= 0")
    if nvars == 1:
        return ((d,),)
    out = []
    for e0 in range(d, -1, -1):
        for rest in monomial_basis(nvars - 1, d - e0):
            out.append((e0,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def monomial_index(nvars: int, d: int) -> dict[tuple[int, ...], int]:
    return {m: i for i, m in enumerate(monomial_basis(nvars, d))}


# ---------------------------------------------------------------------------
# Dense products over index tables
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def mult_table(nvars: int, d1: int, d2: int) -> np.ndarray:
    """Index table: (i, j) -> position of basis_d1[i] * basis_d2[j] in
    the degree-(d1+d2) basis."""
    b1, b2 = monomial_basis(nvars, d1), monomial_basis(nvars, d2)
    idx = monomial_index(nvars, d1 + d2)
    t = np.empty((len(b1), len(b2)), dtype=np.int64)
    for i, e1 in enumerate(b1):
        for j, e2 in enumerate(b2):
            t[i, j] = idx[tuple(a + b for a, b in zip(e1, e2))]
    t.flags.writeable = False  # one cached array is shared by all callers
    return t


def dense_mul(k: Field, a, b, nvars: int, d1: int, d2: int):
    """Product of dense coefficient vectors of degrees d1 and d2; leading
    axes of a and b broadcast, so stacks multiply in one call."""
    table = mult_table(nvars, d1, d2)
    # reduce each product first so the sums stay within int64
    prods = k.reduce(a[..., :, None] * b[..., None, :])
    # the dtype of the products, so that Python ints over Q stay ints
    out = np.zeros(prods.shape[:-2] + (len(monomial_basis(nvars, d1 + d2)),),
                   dtype=prods.dtype)
    np.add.at(out, (..., table), prods)
    return k.reduce(out)


# float64 holds every integer below this exactly
EXACT = 2 ** 53
# entries of a temporary in the per-product path of dot: 4 MiB of int64
_DOT_CELLS = 1 << 19


def dot(k: Field, a, b):
    """The matrix product of a and b over the field, as np.matmul: a is
    a vector, a matrix or a stack of them, b a vector, a matrix or, when
    a is a vector, a stack of matrices.  A vector b is a column that the
    result drops, as in np.matmul.

    Over F_p the operands are reduced first (for the GEMM, straight into
    its float64 copies).  While inner (p-1)^2 < 2^53, every product and
    partial sum is then a non-negative integer below 2^53, so one float64
    GEMM is exact: always at p = 32003, never at p = 2^31 - 1.
    Otherwise, and over Q, each product is reduced before it is summed,
    so that int64 sums stay exact for p < 2^31, taking the rows of a in
    blocks so that a temporary holds about _DOT_CELLS entries (at least
    one row's worth)."""
    if k.kind == "prime":
        if a.shape[-1] * (k.p - 1) ** 2 < EXACT:
            fa, fb = (np.remainder(x, k.p, out=np.empty(x.shape))
                      for x in (a, b))
            if b.ndim == 2:  # one GEMM: numpy's matmul over a stack skips BLAS
                rows = fa.reshape(prod(a.shape[:-1]), a.shape[-1])
                out = (rows @ fb).reshape(a.shape[:-1] + b.shape[-1:])
            else:
                out = fa @ fb
            return out.astype(np.int64) % k.p
        a, b = a % k.p, b % k.p
    if b.ndim == 1:
        return dot(k, a, b[:, None])[..., 0]
    if a.ndim == 1:
        return k.reduce(k.reduce(a[:, None] * b).sum(axis=-2))
    n = a.shape[-2]
    step = max(1, _DOT_CELLS * n // max(a.size * b.shape[-1], b.size, 1))
    return np.concatenate(
        [k.reduce(k.reduce(a[..., i:i + step, :, None] * b).sum(axis=-2))
         for i in range(0, max(n, 1), step)], axis=-2)


@lru_cache(maxsize=None)
def _factor_table(nvars: int, d: int) -> np.ndarray:
    """(d, C(nvars+d-1, d)) table: column j holds the indices of the d
    variables, in ascending order, whose product is
    monomial_basis(nvars, d)[j]."""
    t = np.array([[i for i in range(nvars) for _ in range(e[i])]
                  for e in monomial_basis(nvars, d)], dtype=np.int64).T
    t.flags.writeable = False
    return t


def monomial_values(k: Field, nvars: int, d: int, points) -> np.ndarray:
    """Values of the degree-d monomials at a batch of points, indexed by
    monomial_basis(nvars, d) on the last axis.  The leading axes of
    points are kept; a flat sequence is read as rows of nvars.

    Each monomial is the product of its factors in _factor_table, taken
    one factor at a time and reduced after each multiplication: over
    F_p both operands are below p < 2^31, so every product is below
    2^62.  Over Q an object array is used as it is, so Python ints stay
    ints; anything else is converted by k.array."""
    pts = np.asarray(points)
    if k.kind == "prime" or pts.dtype != object:
        pts = k.array(pts)
    if pts.ndim < 2:
        pts = pts.reshape(-1, nvars)
    if d == 0:  # the empty product
        return np.ones(pts.shape[:-1] + (1,), dtype=pts.dtype)
    table = _factor_table(nvars, d)
    vals = pts[..., table[0]]
    for col in table[1:]:
        vals = k.reduce(vals * pts[..., col])
    return vals


def power_products(forms: list["Poly"], d2: int) -> np.ndarray:
    """Dense coefficient vectors of all degree-d2 monomials in the given
    forms of one degree, as rows indexed by monomial_basis(len(forms), d2)."""
    k = forms[0].field
    n = len(forms)
    nvars = forms[0].nvars
    d = max(max(f.degree() for f in forms), 0)
    rows = [f.coeff_vector(d) for f in forms]
    if d2 == 0:
        return k.array([[k.one]])
    prev = dict(zip(monomial_basis(n, 1), rows))  # x_i -> row i
    for level in range(2, d2 + 1):
        cur = {}
        for e in monomial_basis(n, level):
            i = next(t for t, ei in enumerate(e) if ei > 0)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            cur[e] = dense_mul(k, prev[rest], rows[i], nvars, d * (level - 1), d)
        prev = cur
    return np.stack([prev[e] for e in monomial_basis(n, d2)])


def var_shift(k: Field, vec, nvars: int, d: int, var: int):
    """Multiply a dense degree-d vector by the variable x_var."""
    out = k.zeros(len(monomial_basis(nvars, d + 1)))
    out[mult_table(nvars, d, 1)[:, var]] = vec
    return out


@lru_cache(maxsize=None)
def contraction_weights(nvars: int, d1: int, d2: int) -> np.ndarray:
    """Weights over mult_table(nvars, d1, d2): the dual monomial x^alpha
    contracts x^(alpha+gamma) to (alpha+gamma)!/gamma! * x^gamma."""
    w = np.array([[prod(perm(a + g, a) for a, g in zip(alpha, gamma))
                   for gamma in monomial_basis(nvars, d2)]
                  for alpha in monomial_basis(nvars, d1)], dtype=np.int64)
    w.flags.writeable = False
    return w


def contraction_rows(k: Field, vecs, nvars: int, d1: int, d2: int):
    """Contractions of forms of degree d1 + d2 (coefficient vectors on
    the last axis of vecs) by the degree-d1 dual monomials: entry
    [..., i, j] is the coefficient of basis_d2[j] in basis_d1[i] o f."""
    weights = k.array(contraction_weights(nvars, d1, d2))
    return k.reduce(weights * vecs[..., mult_table(nvars, d1, d2)])


class Poly:
    """A multivariate polynomial; ``terms`` maps exponent tuple -> coeff."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms: dict | None = None):
        self.field = field
        self.nvars = nvars
        self.terms = {}
        if terms:
            for e, c in terms.items():
                c = field.of(c)
                if c != field.zero:
                    if len(e) != nvars:
                        raise ValueError("exponent length != nvars")
                    self.terms[tuple(e)] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field, nvars):
        return cls(field, nvars)

    @classmethod
    def variable(cls, field, nvars, i, power: int = 1):
        e = [0] * nvars
        e[i] = power
        return cls(field, nvars, {tuple(e): field.one})

    @classmethod
    def monomial(cls, field, exponents, c=1):
        return cls(field, len(exponents), {tuple(exponents): c})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "Poly":
        return Poly(self.field, self.nvars,
                    {e: c for e, c in self.terms.items() if sum(e) == d})

    def coefficient(self, exponents) -> object:
        return self.terms.get(tuple(exponents), self.field.zero)

    # -- arithmetic ---------------------------------------------------

    def _check(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        if self.field != other.field:
            raise ValueError("field mismatch")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = f.add(terms.get(e, f.zero), c)
            if s == f.zero:
                terms.pop(e, None)
            else:
                terms[e] = s
        out = Poly(f, self.nvars)
        out.terms = terms
        return out

    def __neg__(self) -> "Poly":
        f = self.field
        out = Poly(f, self.nvars)
        out.terms = {e: f.neg(c) for e, c in self.terms.items()}
        return out

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        f = self.field
        terms: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = f.add(terms.get(e, f.zero), f.mul(c1, c2))
                if s == f.zero:
                    terms.pop(e, None)
                else:
                    terms[e] = s
        out = Poly(f, self.nvars)
        out.terms = terms
        return out

    def scale(self, c) -> "Poly":
        f = self.field
        c = f.of(c)
        out = Poly(f, self.nvars)
        if c != f.zero:
            out.terms = {e: f.mul(v, c) for e, v in self.terms.items()}
        return out

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.nvars == other.nvars
                and self.field == other.field and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- evaluation and substitution ----------------------------------

    def evaluate(self, point):
        """Evaluate at a tuple of field elements."""
        f = self.field
        acc = f.zero
        for e, c in self.terms.items():
            v = c
            for xi, ei in zip(point, e):
                for _ in range(ei):
                    v = f.mul(v, xi)
            acc = f.add(acc, v)
        return acc

    def substitute_linear(self, mat) -> "Poly":
        """Substitute x_i -> sum_j mat[i][j] x_j (mat over the field)."""
        return self.substitute_polys(
            [Poly.from_coeff_vector(self.field, self.nvars, 1, mat[i])
             for i in range(self.nvars)])

    def substitute_polys(self, polys: list["Poly"]) -> "Poly":
        """Substitute x_i -> polys[i], forms of one degree in one target
        ring: each homogeneous part of degree d maps through the dense
        degree-d products of the images."""
        f, nv = polys[0].field, polys[0].nvars
        e = max(max(p.degree() for p in polys), 0)  # as power_products
        out = Poly.zero(f, nv)
        for d, vec in self.homogeneous_vectors().items():
            image = dot(f, vec, power_products(polys, d))
            out = out + Poly.from_coeff_vector(f, nv, d * e, image)
        return out

    # -- coefficient vectors ------------------------------------------

    def coeff_vector(self, d: int) -> np.ndarray:
        """Coefficient vector over the degree-d monomial basis.

        The polynomial must be homogeneous of degree d (or zero).
        """
        idx = monomial_index(self.nvars, d)
        vec = self.field.zeros(len(idx))
        for e, c in self.terms.items():
            if sum(e) != d:
                raise ValueError("not homogeneous of the requested degree")
            vec[idx[e]] = c
        return vec

    def homogeneous_vectors(self) -> dict[int, np.ndarray]:
        """Coefficient vector of each nonzero homogeneous part, by degree."""
        return {d: self.homogeneous_part(d).coeff_vector(d)
                for d in sorted({sum(e) for e in self.terms})}

    @classmethod
    def from_coeff_vector(cls, field, nvars, d, vec) -> "Poly":
        basis = monomial_basis(nvars, d)
        return cls(field, nvars, {basis[i]: vec[i] for i in range(len(basis))})

    # -- printing -----------------------------------------------------

    def format(self, varnames: list[str] | None = None) -> str:
        if not self.terms:
            return "0"
        if varnames is None:
            varnames = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for e in sorted(self.terms, key=lambda m: (sum(m), tuple(-x for x in m))):
            c = self.terms[e]
            factors = []
            for name, ei in zip(varnames, e):
                if ei == 1:
                    factors.append(name)
                elif ei > 1:
                    factors.append(f"{name}^{ei}")
            body = "*".join(factors)
            cs = str(c)
            if body and cs == "1":
                term = body
            elif body:
                term = f"{cs}*{body}"
            else:
                term = cs
            parts.append(term)
        return " + ".join(parts)

    def __repr__(self):
        return f"Poly({self.format()})"


def random_form(k: Field, nvars: int, d: int, rng) -> Poly:
    """A form of degree d with one random coefficient per monomial,
    drawn in the order of monomial_basis(nvars, d)."""
    return Poly(k, nvars, {e: k.random_element(rng)
                           for e in monomial_basis(nvars, d)})


_FACTOR_RE = re.compile(r"([a-z]+\d*)(?:\^(\d+))?")


def parse_poly(text: str, varnames: list[str], field: Field) -> Poly:
    """Parse the shared polynomial grammar.

    Terms joined by + / -; each term is an optional integer coefficient
    and '*'-separated powers like ``x1^2``.  Example: ``3*x0^2*x1 - x2^3``.
    """
    nvars = len(varnames)
    var_idx = {v: i for i, v in enumerate(varnames)}
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms
    chunks = re.split(r"(?=[+-])", s.replace(" ", ""))
    result = Poly.zero(field, nvars)
    for chunk in chunks:
        if not chunk:
            continue
        sign = 1
        while chunk and chunk[0] in "+-":
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:]
        if not chunk:
            raise ValueError(f"dangling sign in {text!r}")
        coeff = field.one
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {text!r}")
            if factor[0].isdigit():
                if "^" in factor or not factor.isdigit():
                    raise ValueError(f"bad coefficient {factor!r} in {text!r}")
                coeff = field.mul(coeff, field.of(int(factor)))
                continue
            m = _FACTOR_RE.fullmatch(factor)
            if not m or m.group(1) not in var_idx:
                raise ValueError(f"unknown variable in factor {factor!r}")
            exps[var_idx[m.group(1)]] += int(m.group(2) or 1)
        if sign < 0:
            coeff = field.neg(coeff)
        result = result + Poly(field, nvars, {tuple(exps): coeff})
    return result


# Variable name conventions shared across the CLI and file formats.
VARS_P3 = ["x0", "x1", "x2", "x3"]
VARS_P4 = ["x0", "x1", "x2", "x3", "x4"]
VARS_PLANE = ["a0", "a1", "a2"]
VARS_TARGET = ["y0", "y1", "y2", "y3", "y4", "y5", "y6"]
