"""Exact dense linear algebra over the configured field.

Prime-field matrices are numpy int64 arrays reduced mod p; rational
matrices are object arrays of Fractions or Python ints.  Row reduction
(behind rank, rref, right_kernel, inverse and solve) takes one of three
paths:

* the unblocked Gauss–Jordan loop over F_p, one vectorized rank-1 update
  per pivot, for every prime-field matrix of at most PANEL columns and
  for primes too large for the blocked path;
* blocked Gauss–Jordan over column panels of PANEL columns (in the style
  of FFLAS-FFPACK: Dumas, Giorgi and Pernet, ACM TOMS 35(3), 2008) for
  wider matrices over F_p with (p-1) + min(rows, cols) p (p-1) < 2^53.
  Its float64 GEMMs multiply and add non-negative integers below 2^53,
  so every result is exact.  At p = 32003 the bound holds up to ~8.8M
  rows or columns; at p = 2^31 - 1 it fails for every non-empty matrix,
  so large primes stay on the int64 loop.  poly.dot, the product of
  field matrices used here and by the callers of Matrix, makes the same
  argument for one float64 GEMM under inner (p-1)^2 < 2^53 (poly.EXACT);
* over the rationals, a multi-modular RREF (von zur Gathen and Gerhard,
  Modern Computer Algebra, ch. 5).  Each row is scaled to integers, which
  keeps the RREF; a row of ints (the jump matrix and the secant pieces
  are built in Python ints) has denominator 1 and stays as it is.  The
  integer matrix A is row-reduced by the int64 loop modulo primes below
  2^31, largest first.  Only the images of the highest rank and, among
  those, the earliest pivot columns are kept: the rank of A modulo p
  never exceeds its rank over Q.  The free-column entries of the kept
  images are combined by CRT and rebuilt by rational reconstruction with
  a common denominator D, and the candidate R is accepted only if
  D A[:, free] == A[:, pivots] (D R)[:, free] holds in Python integers.
  That puts every row of A in the row space of R, whose dimension is at
  most the rank of A, so R is the RREF of A.  An image of full column
  rank proves the RREF is the identity at once.

Determinants over F_p come from det_stack: one Gaussian elimination over
a (B, n, n) stack, with a pivot search and row swap per matrix, that
updates only the trailing block; Matrix.det passes a stack of one.  Its
reduction is delayed.  Entries start in [0, p) and each update subtracts
a product of residues, at most (p-1)^2, so s updates stay within int64
while s (p-1)^2 + p < 2^63.  The pivot column and row are reduced at
every step, the trailing block only when one more update would break
that bound: never within 84 steps at p = 32003 (s is about 9 * 10^9),
every 2 steps at p = 2^31 - 1.  No determinant is taken over the
rationals: Matrix.det refuses them.

Pfaffians come from pfaffian_stack, an elimination over a (B, n, n)
stack of skew matrices that keeps the skew Schur complement of the
leading 2x2 block at each step; pfaffian passes a stack of one.  Over
F_p every product is reduced at once: entries lie in [0, p), a product
of two residues is at most (p-1)^2 < 2^62, and an updated entry lies in
(-p, 2p), so no step leaves int64 for p < 2^31.  Over the rationals the
same steps run on object arrays.

The reduced row echelon form is canonical, so every path returns the
same matrix and pivots as plain Gauss–Jordan over the field.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

import numpy as np

from .fields import Field, PrimeField, is_prime
from .poly import EXACT, Poly, dot, monomial_basis


PANEL = 128  # column panel width of the blocked elimination
_LEAF = 32  # narrowest panel width; such panels are factored by the loop
_CHUNK = 256  # rows per GEMM in the blocked trailing update

# The largest primes below fields.PRIME_BOUND, descending: the moduli of
# the images of rational matrices, listed so that no image needs a
# primality test until they run out.
_PRIMES = (
    2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549,
    2147483543, 2147483497, 2147483489, 2147483477, 2147483423, 2147483399,
    2147483353, 2147483323, 2147483269, 2147483249, 2147483237, 2147483179,
    2147483171, 2147483137, 2147483123, 2147483077, 2147483069, 2147483059,
    2147483053, 2147483033, 2147483029, 2147482951, 2147482949, 2147482943,
    2147482937, 2147482921,
)


def _gauss_jordan(a: np.ndarray, p: int):
    """Unblocked Gauss–Jordan of a reduced int64 matrix over F_p, one
    rank-1 update per pivot.

    Returns (rref, pivot_columns, pivot_rows), where pivot_rows[t] is the
    input row that became row t of the result."""
    a = a.copy()
    rows, cols = a.shape
    order = np.arange(rows)
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
            order[[r, pr]] = order[[pr, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots, order[:r]


def _echelon(a: np.ndarray, p: int, width: int):
    """Gauss–Jordan of a reduced int64 matrix over F_p in column panels of
    the given width, on a float64 copy; returns what _gauss_jordan does.

    Rows 0..r-1 of the copy are the pivot rows found so far, in order.
    For each panel: reduce its columns mod p, factor rows r.. (new pivot
    rows S at columns J) with panels a quarter as wide, move S to rows
    r..r+k-1, row-reduce them to N = B^-1 A[S, c0:] with B = A[S, J], and
    update every row with one GEMM, A[:, c0:] += A[:, J] (p - N).  All
    terms are non-negative integers, so every partial sum is exact while
    it stays below 2^53; trailing columns are reduced only when their
    panel comes up.  The caller checks (p-1) + min(rows, cols) p (p-1)
    < 2^53, which bounds the accumulated entries; submatrices keep the
    bound.  The result is written over the float64 copy, so it is the
    only full-size array allocated."""
    rows, cols = a.shape
    if cols <= width or width < _LEAF:
        return _gauss_jordan(a, p)
    f = a.astype(np.float64)
    order = np.arange(rows)  # input row now at each row of f
    pivots = []
    r = 0
    for c0 in range(0, cols, width):
        if r >= rows:
            break
        c1 = min(c0 + width, cols)
        f[:, c0:c1] = f[:, c0:c1].astype(np.int64) % p
        js, ss = _echelon(f[r:, c0:c1].astype(np.int64), p, width // 4)[1:]
        if not js:
            continue
        k = len(js)
        # move S to rows r..r+k-1; the rows there that are not in S take
        # the places S leaves
        top = np.arange(k)
        frm = r + np.concatenate([ss, np.setdiff1d(top, ss)])
        to = r + np.concatenate([top, np.setdiff1d(ss, top)])
        f[to], order[to] = f[frm], order[frm]
        # S spans the panel's free rows, so its pivots are J and its RREF
        # is B^-1 A[S, c0:]
        new = _echelon(f[r:r + k, c0:].astype(np.int64) % p, p,
                       width // 4)[0]
        neg = p - new.astype(np.float64)
        jc = c0 + np.array(js)
        for i in range(0, rows, _CHUNK):
            f[i:i + _CHUNK, c0:] += f[i:i + _CHUNK, jc] @ neg
        f[r:r + k, c0:] = new
        pivots.extend(int(j) for j in jc)
        r += k
    out = f.view(np.int64)
    for i in range(0, r, _CHUNK):
        j = min(i + _CHUNK, r)
        out[i:j] = f[i:j].astype(np.int64) % p
    out[r:] = 0
    return out, pivots, order[:r]


def det_stack(k: PrimeField, a) -> np.ndarray:
    """Determinants over F_p of a (B, n, n) stack of int64 matrices, as
    an int64 array of B residues.

    One Gaussian elimination runs over the whole stack: at step c each
    matrix takes the first row at or below c with a nonzero entry in
    column c as its pivot row, and only the trailing block of rows and
    columns after c is updated.  A matrix without a pivot has det 0 and
    its updates are all zero.  The pivot column and row are reduced at
    every step, the trailing block only when one more update could
    leave int64 (see the module docstring)."""
    p = k.p
    a = np.asarray(a, dtype=np.int64) % p
    count, n = a.shape[:2]
    if a.shape != (count, n, n):
        raise ValueError("det_stack needs a stack of square matrices")
    # the largest s with s (p-1)^2 + p < 2^63: from entries in [0, p),
    # s updates by products in [0, (p-1)^2] stay within int64
    lazy = (2 ** 63 - 1 - p) // (p - 1) ** 2
    pending = 0  # updates since the trailing block was last reduced
    at = np.arange(count)
    det = np.ones(count, dtype=np.int64)
    for c in range(n):
        col = a[:, c:, c] % p
        r = np.argmax(col != 0, axis=1)  # 0 also when the column is zero
        piv = col[at, r]
        det = det * np.where(r > 0, p - piv, piv) % p  # a swap negates
        if c == n - 1:
            break
        # the pivot row leaves row c + r, and row c moves there
        row = a[at, c + r, c + 1:] % p
        a[at, c + r, c + 1:] = a[:, c, c + 1:]
        col[at, r] = col[:, 0]
        inv = np.array([pow(int(x), -1, p) if x else 0 for x in piv],
                       dtype=np.int64)
        if pending == lazy:
            a[:, c + 1:, c + 1:] %= p
            pending = 0
        a[:, c + 1:, c + 1:] -= (col[:, 1:] * inv[:, None] % p)[:, :, None] \
            * row[:, None, :]
        pending += 1
    return det


@lru_cache(maxsize=None)
def _prime_below(p: int) -> int:
    """The largest prime below the odd prime p."""
    p -= 2
    while not is_prime(p):
        p -= 2
    return p


def _image_primes():
    """Primes below fields.PRIME_BOUND, largest first, without end."""
    yield from _PRIMES
    p = _PRIMES[-1]
    while True:
        p = _prime_below(p)
        yield p


def _integer_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a rational matrix times the lcm of its denominators:
    an object array of Python ints with the same RREF.  Rows of Python
    ints are copied as they are."""
    out = np.empty(a.shape, dtype=object)
    for i, row in enumerate(a):
        if all(type(x) is int for x in row):
            out[i] = row
            continue
        m = lcm(*(x.denominator for x in row))
        out[i] = [x.numerator * (m // x.denominator) for x in row]
    return out


def _ratrecon_den(y: int, m: int, nbound: int, dbound: int):
    """The denominator d of a fraction n/d = y mod m with |n| <= nbound
    and 0 < d <= dbound, or None (half extended Euclid on m and y)."""
    r0, r1 = m, y % m
    t0, t1 = 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    return abs(t1) if 0 < abs(t1) <= dbound else None


def _reconstruct(res: np.ndarray, m: int):
    """A common denominator D and integers N with N = D res mod m, all of
    |N| and D at most sqrt(m/2), or None.  Each entry is multiplied by the
    denominator found so far and only the rest is reconstructed, so a
    modulus too small for the answer fails within a few entries."""
    half, bound = m // 2, isqrt(m // 2)
    den = 1
    for x in res.flat:
        y = x * den % m
        if y <= bound or m - y <= bound:
            continue
        d = _ratrecon_den(y, m, bound, bound // den)
        if d is None:
            return None
        den *= d
    num = res * den % m
    num = np.where(num > half, num - m, num)
    if np.any(np.abs(num) > bound):
        return None
    return den, num


def _rref_rationals(a: np.ndarray):
    """Multi-modular RREF of a Fraction matrix (see the module docstring);
    returns (rref, pivot_columns)."""
    rows, cols = a.shape
    out = np.full((rows, cols), Fraction(0), dtype=object)
    if rows == 0 or cols == 0:
        return out, []
    ints = _integer_rows(a)
    # int64 when every entry fits, so that each image is one vectorized %
    fits = max(abs(x) for x in ints.flat).bit_length() < 63
    src = ints.astype(np.int64) if fits else ints
    best = None  # (-rank, pivots) of the kept images
    for p in _image_primes():
        img, pivots, _ = _gauss_jordan((src % p).astype(np.int64), p)
        key = (-len(pivots), pivots)
        if best is not None and key > best:
            continue  # an unlucky prime: lower rank or later pivots
        r = len(pivots)
        if r == cols:
            out[np.arange(r), np.arange(r)] = Fraction(1)
            return out, pivots
        free = [c for c in range(cols) if c not in pivots]
        part = img[:r, free].astype(object)
        if key != best:  # the first image, or one that beats those kept
            best, res, m, kept, attempt = key, part, p, 1, 1
        else:
            res = res + m * ((part - res % p) * pow(m, -1, p) % p)
            m *= p
            kept += 1
        if kept < attempt:
            continue
        # reconstruct again once the modulus has grown by about a quarter
        attempt = kept + max(1, kept // 4)
        cand = _reconstruct(res, m)
        if cand is None:
            continue
        den, num = cand
        if np.array_equal(den * ints[:, free], ints[:, pivots].dot(num)):
            out[np.arange(r), pivots] = Fraction(1)
            out[:r, free] = np.frompyfunc(lambda n: Fraction(n, den),
                                          1, 1)(num)
            return out, pivots


def _rref(a: np.ndarray, field: Field):
    """Reduced row echelon form; returns (rref, pivot_columns).

    Rational matrices take the multi-modular path; prime-field matrices
    wider than PANEL whose entries stay exact in float64 the blocked
    path; everything else the unblocked loop."""
    if field.kind == "rationals":
        return _rref_rationals(a)
    rows, cols = a.shape
    p = field.p
    if cols > PANEL and (p - 1) + min(rows, cols) * p * (p - 1) < EXACT:
        r, pivots, _ = _echelon(a, p, PANEL)
    else:
        r, pivots, _ = _gauss_jordan(a, p)
    return r, pivots


def null_basis(field: Field, r: np.ndarray, pivots: list[int]) -> np.ndarray:
    """A basis of the kernel of a matrix, from its RREF r and pivot
    columns: for each free column, the vector with 1 there, 0 at the
    other free columns and minus that column of r at the pivots."""
    cols = r.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = field.zeros((len(free), cols))
    basis[np.arange(len(free)), free] = field.one
    basis[:, pivots] = field.reduce(-r[:len(pivots)][:, free].T)
    return basis


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
    def identity(cls, field, n):
        return cls(field, field.array(np.eye(n, dtype=np.int64)))

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
        # canonicalize, so that kernel bases compare by equality
        red, _ = _rref(null_basis(field, r, pivots), field)
        return Matrix(field, red)

    def det(self):
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        if self.field.kind != "prime":
            raise ValueError("determinant implemented for prime fields")
        return int(det_stack(self.field, self.data[None])[0])

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


def pfaffian_stack(k: Field, a) -> np.ndarray:
    """Pfaffians of a (B, n, n) stack of skew-symmetric matrices of even
    size n: int64 residues over F_p, an object array over Q.

    With A = [[P, C], [-C^T, D]] and P = [[0, a], [-a, 0]], Pf A =
    a Pf S for S = D - (u v^T - v u^T) / a, u and v the rows of C.  Each
    step first swaps the first nonzero entry of row 0 into column 1, in
    rows and columns alike, which negates Pf; a zero row 0 gives Pf 0
    and zero updates."""
    a = k.reduce(np.asarray(a, dtype=k.dtype))
    count, n = a.shape[:2]
    if a.shape != (count, n, n) or n % 2:
        raise ValueError("pfaffian_stack needs a stack of even-size square "
                         "matrices")
    pf = k.array(np.ones(count, dtype=np.int64))
    at = np.arange(count)
    for m in range(n, 0, -2):
        j = 1 + np.argmax(a[:, 0, 1:] != k.zero, axis=1)  # 1 when row 0 is 0
        piv = a[at, 0, j]
        pf = k.reduce(pf * np.where(j > 1, -piv, piv))
        # swap index j into place 1; S is the block past the pair
        perm = np.tile(np.arange(m), (count, 1))
        perm[at, j], perm[:, 1] = 1, j
        rest = perm[:, 2:]
        inv = k.array([k.inv(x) if x != k.zero else k.zero for x in piv])
        u = k.reduce(a[at[:, None], 0, rest] * inv[:, None])
        v = a[at[:, None], j[:, None], rest]
        vu = k.reduce(v[:, :, None] * u[:, None, :])
        a = k.reduce(a[at[:, None, None], rest[:, :, None], rest[:, None, :]]
                     + vu - vu.transpose(0, 2, 1))
    return pf


def pfaffian(m: Matrix):
    """Pfaffian of an even-size skew-symmetric matrix: pfaffian_stack of
    a stack of one.  The sign convention satisfies
    pfaffian([[0, a], [-a, 0]]) = a."""
    n = m.rows
    if n != m.cols or n % 2 != 0:
        raise ValueError("pfaffian needs an even-size square matrix")
    if n > 16:
        raise ValueError("pfaffian limited to size <= 16")
    if not m.is_skew():
        raise ValueError("matrix is not skew-symmetric")
    return m.field.of(pfaffian_stack(m.field, m.data[None])[0])


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
    def from_polys(cls, polys: list[Poly], degree=None) -> "FormSpace":
        if not polys:
            raise ValueError("a FormSpace is spanned by at least one form")
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

    @classmethod
    def from_matrix(cls, field, nvars, degree, mat: Matrix) -> "FormSpace":
        red, pivots = mat.rref()
        basis = Matrix(field, red.data[: len(pivots)])
        return cls(field, nvars, degree, basis)

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
        rows = dot(self.field, ker.data[:, : a.shape[0]], a)
        return FormSpace.from_matrix(self.field, self.nvars, self.degree,
                                     Matrix(self.field, rows))

    def __eq__(self, other):
        return (isinstance(other, FormSpace) and self.nvars == other.nvars
                and self.degree == other.degree and self.basis == other.basis)

    def __repr__(self):
        return (f"FormSpace(dim={self.dim}, degree={self.degree}, "
                f"nvars={self.nvars})")

