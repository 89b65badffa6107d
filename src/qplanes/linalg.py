"""Exact dense linear algebra over the configured field.

Prime-field matrices are numpy int64 arrays reduced mod p; rational
matrices are object arrays of Fractions or Python ints.  Row reduction
(behind rank, rref, inverse, solve and right_kernel, one RREF of the
matrix turned by 180 degrees) takes one of two paths:

* over F_p, the Gauss–Jordan loop (_gauss_jordan), one vectorized
  rank-1 update per pivot with delayed reduction (below), for every
  matrix and every prime below 2^31;
* over the rationals, a multi-modular RREF (von zur Gathen and Gerhard,
  Modern Computer Algebra, ch. 5) of an integer matrix A, whose images
  A mod p come from a callback (_rref_rationals).  A Matrix scales each
  row to integers, which keeps the RREF (a row of ints, as in the secant
  pieces, has denominator 1 and stays as it is), and reduces those rows
  mod p; loci.jump_dimension builds each image of its jump matrix over
  F_p from rows reduced mod p (kernel_from_images).  Each image is
  row-reduced by the int64 loop, modulo primes below 2^31, largest
  first.  Only the images of the highest rank and, among those, the
  earliest pivot columns are kept: the rank of A modulo p never exceeds
  its rank over Q.  An image of full column rank therefore proves the
  RREF is the identity at once, without A itself.  Otherwise the
  free-column entries of the kept images are combined by CRT and rebuilt
  by rational reconstruction with a common denominator D, and the
  candidate R is accepted only if D A[:, free] == A[:, pivots]
  (D R)[:, free] holds in Python integers, A being taken from a second
  callback once.  That puts every row of A in the row space of R, whose
  dimension is at most the rank of A, so R is the RREF of A.

Determinants over F_p come from eliminate_stack: one Gaussian
elimination over the first m columns of a (B, n, w) stack, with a pivot
search and row swap per matrix, that updates only the trailing block and
returns the pivot products and that block.  det_stack is its square
m = n case, and Matrix.det passes a stack of one; the pencil eliminates
the columns of its jump matrices that do not move with t once and takes
the dets of the small blocks left (loci._pencil_dets).  No determinant
is taken over the rationals: Matrix.det refuses them.

Delayed reduction, in both int64 eliminations (_gauss_jordan and
eliminate_stack), as in FFLAS-FFPACK (Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  Entries start in [0, p) and each update subtracts a
product of residues, at most (p-1)^2, so s updates stay within int64
while s (p-1)^2 + p < 2^63 (_lazy_bound).  The pivot column and row are
reduced at every step, the trailing block only when one more update
would break that bound, and the result once at the end: never within
84 steps at p = 32003 (s is about 9 * 10^9), every 8 steps at
p = 1073741789 and every 2 steps at p = 2^31 - 1.

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

from .fields import Field, PrimeField, RationalField, is_prime
from .poly import Poly, dot, monomial_basis


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


def _lazy_bound(p: int) -> int:
    """The largest s with s (p-1)^2 + p < 2^63: from entries in [0, p),
    s updates by products of residues, each in [0, (p-1)^2], stay within
    int64 (see the module docstring)."""
    return (2 ** 63 - 1 - p) // (p - 1) ** 2


def _inverses(k: Field, x: np.ndarray) -> np.ndarray:
    """The inverses over k of the entries of the vector x (residues in
    [0, p) over F_p), with 0 for 0.

    Over Q they are Fractions.  Over F_p one modular inversion gives them
    all (Montgomery's trick): with P_i the product of the nonzero x_j for
    j <= i, x_i^-1 = P_i^-1 P_(i-1), and P_(i-1)^-1 = P_i^-1 x_i, walking
    down from the one inverse of the full product."""
    xs = x.tolist()
    if k.kind != "prime":
        return k.array([k.inv(v) if v else k.zero for v in xs])
    p = k.p
    prefix = []  # the product of the nonzero x before each one
    acc = 1
    for v in xs:
        prefix.append(acc)
        if v:
            acc = acc * v % p
    inv = pow(acc, -1, p)  # of the product of the nonzero x up to i
    out = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        if xs[i]:
            out[i] = inv * prefix[i] % p
            inv = inv * xs[i] % p
    return np.array(out, dtype=np.int64)


def _gauss_jordan(a: np.ndarray, p: int):
    """Gauss–Jordan of a reduced int64 matrix over F_p, one rank-1
    update per pivot, with delayed reduction.

    An update changes only the columns after the pivot: before them the
    pivot row is zero mod p, and the pivot column is set to the unit
    vector.  The loop works on the transpose, so that those columns are
    one contiguous block.  Each step reduces the pivot column (to find
    the pivot and as the multipliers) and the pivot row (before scaling
    it); the trailing block is reduced only when one more update could
    leave int64, and the whole matrix once at the end.

    Returns (rref, pivot_columns)."""
    t = np.array(a.T, dtype=np.int64, order="C")  # t[c] is column c of a
    cols, rows = t.shape
    lazy = _lazy_bound(p)
    pending = 0  # updates since the trailing block was last reduced
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        col = t[c] % p
        nz = col[r:].nonzero()[0]
        if len(nz) == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            t[:, [r, pr]] = t[:, [pr, r]]
            col[[r, pr]] = col[[pr, r]]
        row = t[c + 1:, r] % p * pow(int(col[r]), -1, p) % p
        t[c + 1:, r] = row
        col[r] = 0
        if pending == lazy:
            t[c + 1:] %= p
            pending = 0
        t[c + 1:] -= np.multiply.outer(row, col)
        pending += 1
        t[c] = 0
        t[c, r] = 1
        pivots.append(c)
        r += 1
    return np.ascontiguousarray(t.T) % p, pivots


def eliminate_stack(k: PrimeField, a, m: int):
    """Gaussian elimination over F_p of the first m columns of a
    (B, n, w) stack of int64 matrices, m <= min(n, w).

    One elimination runs over the whole stack: at step c < m each matrix
    takes the first row at or below c with a nonzero entry in column c
    as its pivot row, and only the trailing block of rows and columns
    after c is updated.  A column without a pivot is skipped: its
    updates are all zero.  The pivot column and row are reduced at every
    step, the trailing block only when one more update could leave int64
    (see the module docstring).

    Returns (pivots, rest): the B products of the m pivots, negated once
    per row swap and 0 for a matrix with a column without a pivot, as
    int64 residues; and the reduced trailing (B, n - m, w - m) block.
    For a nonzero product, rest is the Schur complement of the leading
    m x m block after the row swaps, so a square [[A, X], [Y, D]] has
    det pivots * det(rest)."""
    p = k.p
    a = np.asarray(a, dtype=np.int64) % p
    if a.ndim != 3 or not 0 <= m <= min(a.shape[1:]):
        raise ValueError("eliminate_stack needs a stack of matrices with at "
                         "least m rows and columns")
    count, n = a.shape[:2]
    lazy = _lazy_bound(p)
    pending = 0  # updates since the trailing block was last reduced
    at = np.arange(count)
    det = np.ones(count, dtype=np.int64)
    for c in range(m):
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
        inv = _inverses(k, piv)
        if pending == lazy:
            a[:, c + 1:, c + 1:] %= p
            pending = 0
        a[:, c + 1:, c + 1:] -= (col[:, 1:] * inv[:, None] % p)[:, :, None] \
            * row[:, None, :]
        pending += 1
    return det, a[:, m:, m:] % p


def det_stack(k: PrimeField, a) -> np.ndarray:
    """Determinants over F_p of a (B, n, n) stack of int64 matrices, as
    an int64 array of B residues: eliminate_stack over all n columns."""
    a = np.asarray(a, dtype=np.int64)
    count, n = a.shape[:2]
    if a.shape != (count, n, n):
        raise ValueError("det_stack needs a stack of square matrices")
    return eliminate_stack(k, a, n)[0]


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


def _rref_rationals(shape, image, integers):
    """Multi-modular RREF of an integer matrix A of the given shape (see
    the module docstring); returns (rref, pivot_columns).

    image(p) gives A modulo p as int64 residues, and integers() gives A
    in Python ints.  That is taken only for the check of an image of rank
    below the column count, and only once."""
    rows, cols = shape
    out = np.full(shape, Fraction(0), dtype=object)
    if rows == 0 or cols == 0:
        return out, []
    ints = None
    best = None  # (-rank, pivots) of the kept images
    for p in _image_primes():
        img, pivots = _gauss_jordan(image(p), p)
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
        if ints is None:
            ints = integers()
        if np.array_equal(den * ints[:, free], ints[:, pivots].dot(num)):
            out[np.arange(r), pivots] = Fraction(1)
            out[:r, free] = np.frompyfunc(lambda n: Fraction(n, den),
                                          1, 1)(num)
            return out, pivots


def _rref(a: np.ndarray, field: Field):
    """Reduced row echelon form; returns (rref, pivot_columns).

    Rational matrices take the multi-modular path on their rows scaled
    to integers, prime-field matrices the Gauss–Jordan loop."""
    if field.kind == "rationals":
        ints = _integer_rows(a)
        # int64 when every entry fits, so that each image is one vectorized %
        fits = max((abs(x) for x in ints.flat), default=0).bit_length() < 63
        src = ints.astype(np.int64) if fits else ints
        return _rref_rationals(a.shape,
                               lambda p: (src % p).astype(np.int64),
                               lambda: ints)
    return _gauss_jordan(a, field.p)


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


def row_space_residual(field: Field, r: np.ndarray, v: np.ndarray):
    """The coordinates c = v[:, P] of the rows v in the basis of the RREF
    r with pivot columns P, and the residual v - c r, whose zero rows are
    exactly the rows of v in the row space of r: a row of r is 1 at its
    pivot and every other row is 0 there (a zero row of r adds 0)."""
    coords = v[:, np.argmax(r != field.zero, axis=1)]
    return coords, field.reduce(v - dot(field, coords, r))


def _kernel(field: Field, r: np.ndarray, pivots: list[int]) -> Matrix:
    """The RREF Matrix of the kernel of A, from the RREF r and pivot
    columns of A turned by 180 degrees, T = A[::-1, ::-1], whose kernel
    is that of A with the coordinates reversed.  The null_basis row of T
    for a free column f is 1 at f, 0 at the other free columns, and
    nonzero elsewhere only at pivot columns before f, since an RREF row
    is zero before its pivot.  Turned back, each row starts with that 1,
    the rows lead in ascending columns, and each is 0 where the others
    lead: the unique RREF of ker A, so kernel bases compare by equality."""
    return Matrix(field, null_basis(field, r, pivots)[::-1, ::-1])


def kernel_from_images(shape, image, integers) -> Matrix:
    """Row-reduced basis over Q of {v : A v = 0}, for the integer matrix
    A of the given shape with images image(p) = A mod p and, for the
    check of a rank-deficient image only, integers() = A in Python ints
    (see _rref_rationals), read off the RREF of A turned (_kernel).  An
    image of full column rank proves the kernel is 0 without A."""
    return _kernel(RationalField(), *_rref_rationals(
        shape, lambda p: image(p)[::-1, ::-1], lambda: integers()[::-1, ::-1]))


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
        """Row-reduced basis of {v : Mv = 0}, one vector per row (_kernel)."""
        return _kernel(self.field, *_rref(self.data[::-1, ::-1], self.field))

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
        inv = _inverses(k, piv)
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
        return p.is_zero() or self._spans(p.coeff_vector(self.degree)[None])

    def contains_space(self, other: "FormSpace") -> bool:
        return self._spans(other.basis.data)

    def _spans(self, rows) -> bool:
        _, off = row_space_residual(self.field, self.basis.data, rows)
        return not np.any(off != self.field.zero)

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

