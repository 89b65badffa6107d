"""Exact dense linear algebra over the configured field.

Prime-field matrices are numpy int64 arrays reduced mod p, with the
elimination loops vectorized row-wise; rational matrices hold Fractions
in object arrays and go through the same code path.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .poly import Poly, monomial_basis, mult_table


def _rref(a: np.ndarray, field: Field):
    """Reduced row echelon form; returns (rref, pivot_columns)."""
    a = a.copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = field.reduce(a[r] * field.inv(a[r, c]))
        col = a[:, c].copy()
        col[r] = field.zero
        a -= np.outer(col, a[r])
        a = field.reduce(a)
        pivots.append(c)
        r += 1
    return a, pivots


class Matrix:
    """Dense rectangular matrix over an exact field."""

    def __init__(self, field: Field, data):
        self.field = field
        if isinstance(data, np.ndarray) and data.dtype == field.dtype:
            self.data = field.reduce(data)
        else:  # e.g. an int64 table over the rationals: convert, never truncate
            self.data = field.array(data)
        if self.data.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")

    @classmethod
    def zeros(cls, field, rows, cols):
        return cls(field, field.zeros((rows, cols)))

    @classmethod
    def identity(cls, field, n):
        m = field.zeros((n, n))
        for i in range(n):
            m[i, i] = field.one
        return cls(field, m)

    @classmethod
    def from_rows(cls, field, rows):
        arr = field.zeros((len(rows), len(rows[0]) if rows else 0))
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                arr[i, j] = field.of(v)
        return cls(field, arr)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.data.shape == other.data.shape
                and bool(np.all(self.data == other.data)))

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols} over {self.field!r})"

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.data.T.copy())

    def matmul(self, other: "Matrix") -> "Matrix":
        return Matrix(self.field, self.field.reduce(self.data @ other.data))

    def rref(self):
        r, pivots = _rref(self.data, self.field)
        return Matrix(self.field, r), pivots

    def rank(self) -> int:
        _, pivots = _rref(self.data, self.field)
        return len(pivots)

    def right_kernel(self) -> "Matrix":
        """Row-reduced basis of {v : Mv = 0}, one basis vector per row."""
        field = self.field
        r, pivots = _rref(self.data, field)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = field.zeros((len(free), self.cols))
        for bi, fc in enumerate(free):
            basis[bi, fc] = field.one
            for ri, pc in enumerate(pivots):
                basis[bi, pc] = field.neg(r[ri, fc])
        # rows are already in echelon form up to ordering of free columns;
        # canonicalize anyway so kernel bases compare by equality
        red, _ = _rref(basis, field)
        return Matrix(field, red)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        field = self.field
        a = self.data.copy()
        n = self.rows
        acc = field.one
        for c in range(n):
            nz = np.nonzero(a[c:, c])[0]
            if len(nz) == 0:
                return field.zero
            pr = c + int(nz[0])
            if pr != c:
                a[[c, pr]] = a[[pr, c]]
                acc = field.neg(acc)
            acc = field.mul(acc, a[c, c])
            inv = field.inv(a[c, c])
            col = field.reduce(a[c + 1:, c] * inv)
            a[c + 1:] -= np.outer(col, a[c])
            a = field.reduce(a)
        return acc

    def inverse(self) -> "Matrix":
        n = self.rows
        if n != self.cols:
            raise ValueError("inverse of a non-square matrix")
        aug = np.concatenate([self.data, Matrix.identity(self.field, n).data],
                             axis=1)
        r, pivots = Matrix(self.field, aug).rref()
        if pivots != list(range(n)):
            raise ValueError("matrix not invertible")
        return Matrix(self.field, r.data[:, n:])

    def solve(self, rhs):
        """One solution of Mx = rhs, or None if inconsistent."""
        field = self.field
        b = field.array(rhs).reshape(-1, 1)
        aug = np.concatenate([self.data, b], axis=1)
        r, pivots = _rref(aug, field)
        if self.cols in pivots:
            return None
        x = field.zeros(self.cols)
        for ri, pc in enumerate(pivots):
            x[pc] = r[ri, self.cols]
        return x

    def is_skew(self) -> bool:
        if self.rows != self.cols:
            return False
        s = self.field.reduce(self.data + self.data.T)
        return not bool(np.any(s != self.field.zero))


def pfaffian(m: Matrix):
    """Pfaffian of an even-size skew-symmetric matrix.

    Skew Gaussian elimination with pivot tracking, O(n^3).  The sign
    convention satisfies pfaffian([[0, a], [-a, 0]]) = a.
    """
    n = m.rows
    if n != m.cols or n % 2 != 0:
        raise ValueError("pfaffian needs an even-size square matrix")
    if n > 16:
        raise ValueError("pfaffian limited to size <= 16")
    if not m.is_skew():
        raise ValueError("matrix is not skew-symmetric")
    field = m.field
    a = [[m.data[i, j] for j in range(n)] for i in range(n)]
    sign = field.one
    acc = field.one
    k = 0
    while k < n:
        # find pivot in column k below row k
        pr = None
        for i in range(k + 1, n):
            if a[i][k] != field.zero:
                pr = i
                break
        if pr is None:
            return field.zero
        if pr != k + 1:
            a[k + 1], a[pr] = a[pr], a[k + 1]
            for row in a:
                row[k + 1], row[pr] = row[pr], row[k + 1]
            sign = field.neg(sign)
        piv = a[k + 1][k]
        acc = field.mul(acc, field.neg(piv))  # pf uses a[k][k+1] = -a[k+1][k]
        inv = field.inv(piv)
        for i in range(k + 2, n):
            if a[i][k] != field.zero:
                factor = field.mul(a[i][k], inv)
                for j in range(n):
                    a[i][j] = field.sub(a[i][j], field.mul(factor, a[k + 1][j]))
                for r2 in range(n):
                    a[r2][i] = field.sub(a[r2][i], field.mul(factor, a[r2][k + 1]))
        k += 2
    return field.mul(sign, acc)


def pfaffian_matchings(m: Matrix):
    """Combinatorial Pfaffian over perfect matchings; cross-check for n <= 8."""
    n = m.rows
    if n != m.cols or n % 2 != 0:
        raise ValueError("need an even-size square matrix")
    if n > 8:
        raise ValueError("matching expansion limited to n <= 8")
    field = m.field

    def rec(remaining):
        if not remaining:
            return field.one
        i = remaining[0]
        total = field.zero
        for pos, j in enumerate(remaining[1:], start=1):
            rest = remaining[1:pos] + remaining[pos + 1:]
            term = field.mul(m.data[i, j], rec(rest))
            if pos % 2 == 0:
                term = field.neg(term)
            total = field.add(total, term)
        return total

    return rec(list(range(n)))


class FormSpace:
    """A linear space of degree-d forms in nvars variables.

    Stored as the canonical RREF coefficient matrix over the graded-lex
    monomial basis, so two FormSpaces are equal iff their matrices are.
    """

    def __init__(self, field: Field, nvars: int, degree: int, basis: Matrix):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.basis = basis  # assumed RREF with no zero rows

    @classmethod
    def from_polys(cls, polys: list[Poly], nvars=None, degree=None) -> "FormSpace":
        if not polys and (nvars is None or degree is None):
            raise ValueError("empty FormSpace needs explicit nvars and degree")
        if polys:
            nvars = polys[0].nvars
            field = polys[0].field
            degs = [p.degree() for p in polys if not p.is_zero()]
            if degree is None:
                degree = degs[0] if degs else 0
            for p in polys:
                if not p.is_zero() and (not p.is_homogeneous() or p.degree() != degree):
                    raise ValueError("forms must be homogeneous of one degree")
            rows = [p.coeff_vector(degree) for p in polys]
            return cls.from_matrix(field, nvars, degree, Matrix(field, rows))
        raise ValueError("use empty() for the zero space")

    @classmethod
    def from_matrix(cls, field, nvars, degree, mat: Matrix) -> "FormSpace":
        red, pivots = mat.rref()
        basis = Matrix(field, red.data[: len(pivots)])
        return cls(field, nvars, degree, basis)

    @classmethod
    def empty(cls, field, nvars, degree) -> "FormSpace":
        n = len(monomial_basis(nvars, degree))
        return cls(field, nvars, degree, Matrix.zeros(field, 0, n))

    @classmethod
    def full(cls, field, nvars, degree) -> "FormSpace":
        n = len(monomial_basis(nvars, degree))
        return cls(field, nvars, degree, Matrix.identity(field, n))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def polys(self) -> list[Poly]:
        return [Poly.from_coeff_vector(self.field, self.nvars, self.degree,
                                       self.basis.data[i])
                for i in range(self.dim)]

    def contains(self, p: Poly) -> bool:
        if p.is_zero():
            return True
        vec = p.coeff_vector(self.degree)
        stacked = np.concatenate([self.basis.data, vec.reshape(1, -1)], axis=0)
        return Matrix(self.field, stacked).rank() == self.dim

    def contains_space(self, other: "FormSpace") -> bool:
        stacked = np.concatenate([self.basis.data, other.basis.data], axis=0)
        return Matrix(self.field, stacked).rank() == self.dim

    def intersect(self, other: "FormSpace") -> "FormSpace":
        """Intersection via the kernel of the stacked coordinate matrix."""
        a, b = self.basis.data, other.basis.data
        # v in both spaces: v = x.a = y.b; solve [a^T | -b^T] (x, y)^T = 0
        m = np.concatenate([a.T, self.field.reduce(-b.T)], axis=1)
        ker = Matrix(self.field, m).right_kernel()
        rows = self.field.reduce(ker.data[:, : a.shape[0]] @ a)
        return FormSpace.from_matrix(self.field, self.nvars, self.degree,
                                     Matrix(self.field, rows))

    def __eq__(self, other):
        return (isinstance(other, FormSpace) and self.nvars == other.nvars
                and self.degree == other.degree and self.basis == other.basis)

    def __repr__(self):
        return (f"FormSpace(dim={self.dim}, degree={self.degree}, "
                f"nvars={self.nvars})")


def ideal_piece_dim(gens: list[Poly], d: int) -> int:
    """Dimension of the degree-d piece of the ideal generated by forms
    of one degree.

    The rows x^m * g are the coefficient vectors of g moved by the index
    table of the monomial m."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return 0
    k, nvars, e = gens[0].field, gens[0].nvars, gens[0].degree()
    table = mult_table(nvars, d - e, e)
    rows = k.zeros((len(gens), table.shape[0], len(monomial_basis(nvars, d))))
    for g, block in zip(gens, rows):
        block[np.arange(table.shape[0])[:, None], table] = g.coeff_vector(e)
    return Matrix(k, rows.reshape(-1, rows.shape[-1])).rank()
