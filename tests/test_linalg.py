import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplanes import linalg
from qplanes.fields import PRIME_BOUND, PrimeField, RationalField, is_prime
from qplanes.linalg import FormSpace, Matrix, pfaffian
from qplanes.poly import Poly, dot, parse_poly, VARS_P3

K = PrimeField()


def _mul(a: Matrix, b: Matrix) -> Matrix:
    return Matrix(a.field, dot(a.field, a.data, b.data))


def _random_matrix(k, rng, rows, cols):
    return Matrix(k, k.array([[rng.randrange(100) for _ in range(cols)]
                              for _ in range(rows)]))


def test_rref_rank_kernel():
    m = Matrix(K, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ker = m.right_kernel()
    assert ker.rows == 1
    v = ker.data[0]
    assert np.all(K.reduce(m.data @ v) == 0)


def test_det_known():
    m = Matrix(K, [[2, 1], [1, 2]])
    assert m.det() == 3
    s = Matrix(K, [[0, 1], [1, 0]])
    assert s.det() == K.of(-1)
    singular = Matrix(K, [[1, 2], [2, 4]])
    assert singular.det() == 0


def test_det_refuses_the_rationals():
    """det_stack is the one determinant, and it works over F_p only."""
    with pytest.raises(ValueError):
        Matrix(RationalField(), [[2, 1], [1, 2]]).det()


def test_inverse():
    rng = random.Random(20)
    for k in (K, RationalField()):
        m = _random_matrix(k, rng, 4, 4)
        assert m.rank() == 4
        assert _mul(m, m.inverse()) == Matrix.identity(k, 4)
    with pytest.raises(ValueError):
        Matrix(K, [[1, 2], [2, 4]]).inverse()


def test_solve():
    m = Matrix(K, [[1, 1], [1, 2]])
    x = m.solve([3, 5])
    assert x is not None and np.all(K.reduce(m.data @ x) == K.array([3, 5]))
    inconsistent = Matrix(K, [[1, 1], [2, 2]])
    assert inconsistent.solve([1, 3]) is None


def test_det_multiplicative():
    rng = random.Random(0)
    for _ in range(10):
        a = _random_matrix(K, rng, 5, 5)
        b = _random_matrix(K, rng, 5, 5)
        assert _mul(a, b).det() == K.mul(a.det(), b.det())


# -- stacked determinants against the pivot loop ---------------------------


def _loop_eliminate(a, field, m):
    """Gaussian elimination over F_p of the first m columns of one
    matrix, reducing the whole matrix after every pivot and skipping a
    column without a pivot: the oracle for eliminate_stack.  Returns the
    product of the pivots, negated once per row swap and 0 when a column
    has no pivot, and the trailing block past m rows and columns."""
    a = a.copy()
    acc = field.one
    for c in range(m):
        nz = np.nonzero(a[c:, c])[0]
        if len(nz) == 0:
            acc = field.zero
            continue
        pr = c + int(nz[0])
        if pr != c:
            a[[c, pr]] = a[[pr, c]]
            acc = field.neg(acc)
        acc = field.mul(acc, a[c, c])
        inv = field.inv(a[c, c])
        col = field.reduce(a[c + 1:, c] * inv)
        a[c + 1:] -= np.outer(col, a[c])
        a = field.reduce(a)
    return acc, a[m:, m:]


def _loop_det(a, field):
    """det over F_p by the one-matrix loop: the oracle for det_stack."""
    return _loop_eliminate(a, field, a.shape[0])[0]


def _det_member(k, rng, n, kind):
    """An n x n matrix over F_p: uniform, of rank < n, with a zero first
    column, or with zeros on the diagonal, which forces row swaps."""
    a = rng.integers(0, k.p, (n, n))
    if kind == "low rank" and n > 0:
        coeffs = rng.integers(0, 3, (n, n - 1))
        a = coeffs @ rng.integers(0, k.p, (n - 1, n)) % k.p
    elif kind == "zero column" and n > 0:
        a[:, 0] = 0
    elif kind == "swaps":
        a[np.arange(n), np.arange(n)] = 0
    return a


@given(st.integers(0, 10**6), st.sampled_from([11, 32003, 2147483647]),
       st.integers(0, 12), st.lists(st.sampled_from(
           ["uniform", "low rank", "zero column", "swaps"]),
           min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_det_stack_matches_loop(seed, p, n, kinds):
    """Mixed singular and nonsingular stacks, n = 0 (det 1) and n = 1
    included; p = 11 forces swaps and singular members by chance too,
    and at p = 2^31 - 1 the trailing block is reduced every 2 steps."""
    k = PrimeField(p)
    rng = np.random.default_rng(seed)
    stack = np.stack([_det_member(k, rng, n, kind) for kind in kinds])
    got = linalg.det_stack(k, stack)
    assert got.shape == (len(kinds),)
    assert [int(d) for d in got] == [_loop_det(a, k) for a in stack]
    assert [Matrix(k, a).det() for a in stack] == [int(d) for d in got]


def test_det_stack_small_cases():
    assert list(linalg.det_stack(K, np.zeros((3, 0, 0), dtype=np.int64))) \
        == [1, 1, 1]
    assert list(linalg.det_stack(K, [[[5]], [[0]], [[-1]]])) == \
        [5, 0, K.p - 1]  # entries are reduced on the way in
    # 84x84, one member singular, the others full rank with a swap
    rng = np.random.default_rng(4)
    stack = rng.integers(0, K.p, (3, 84, 84))
    stack[0, 83] = stack[0, 0]
    stack[1, 0, 0] = 0
    assert [int(d) for d in linalg.det_stack(K, stack)] == \
        [_loop_det(a, K) for a in stack]
    with pytest.raises(ValueError):
        linalg.det_stack(K, np.zeros((2, 3, 4), dtype=np.int64))


def _eliminate_member(k, rng, n, w, m, kind):
    """An n x w matrix over F_p whose first m columns are uniform, of
    rank < m, with a zero column, or with zeros on the diagonal."""
    a = rng.integers(0, k.p, (n, w))
    if kind == "low rank" and m > 0:
        coeffs = rng.integers(0, 3, (n, m - 1))
        a[:, :m] = coeffs @ rng.integers(0, k.p, (m - 1, m)) % k.p
    elif kind == "zero column" and m > 0:
        a[:, rng.integers(m)] = 0
    elif kind == "swaps":
        a[np.arange(min(n, w)), np.arange(min(n, w))] = 0
    return a


@given(st.integers(0, 10**6), st.sampled_from([11, 32003, 2147483647]),
       st.integers(0, 10), st.integers(0, 6), st.integers(0, 6),
       st.lists(st.sampled_from(
           ["uniform", "low rank", "zero column", "swaps"]),
           min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_eliminate_stack_matches_loop(seed, p, m, more_rows, more_cols,
                                      kinds):
    """m < n and m < w, and m = n and m = w; a low-rank or zero column
    leaves a column without a pivot.  The square leading block of every
    member, eliminated to its end, gives det_stack's products."""
    k = PrimeField(p)
    n, w = m + more_rows, m + more_cols
    rng = np.random.default_rng(seed)
    stack = np.stack([_eliminate_member(k, rng, n, w, m, kind)
                      for kind in kinds])
    pivots, rest = linalg.eliminate_stack(k, stack, m)
    assert rest.shape == (len(kinds), n - m, w - m)
    for a, got, block in zip(stack, pivots, rest):
        want, want_block = _loop_eliminate(a, k, m)
        assert int(got) == want
        assert np.array_equal(block, want_block)
    s = min(n, w)
    square = stack[:, :s, :s]
    assert np.array_equal(linalg.eliminate_stack(k, square, s)[0],
                          linalg.det_stack(k, square))


def test_eliminate_stack_small_cases():
    # det [[2, 1], [4, 3]] = 2 * (3 - 2 * 1), and a zero first column
    pivots, rest = linalg.eliminate_stack(K, [[[2, 1], [4, 3]],
                                              [[0, 1], [0, 3]]], 1)
    assert list(pivots) == [2, 0] and rest.tolist() == [[[1]], [[3]]]
    for shape, m in (((2, 3, 4), 4), ((2, 4, 3), 4), ((2, 3), 1),
                     ((2, 3, 3), -1)):
        with pytest.raises(ValueError):
            linalg.eliminate_stack(K, np.zeros(shape, dtype=np.int64), m)


def test_pfaffian_convention():
    m = Matrix(K, [[0, 5], [K.of(-5), 0]])
    assert pfaffian(m) == 5


def _pfaffian_matchings(m: Matrix):
    """The Pfaffian as a signed sum over perfect matchings, expanded
    along the first remaining index."""
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

    return rec(list(range(m.rows)))


def _loop_pfaffian(m: Matrix):
    """Pf by skew Gaussian elimination on one matrix, one field operation
    per entry, with the pivot of column k moved to row k + 1: the oracle
    for pfaffian_stack."""
    field = m.field
    n = m.rows
    a = [[m.data[i, j] for j in range(n)] for i in range(n)]
    acc = field.one
    for k in range(0, n, 2):
        pr = next((i for i in range(k + 1, n) if a[i][k] != field.zero),
                  None)
        if pr is None:
            return field.zero
        if pr != k + 1:
            a[k + 1], a[pr] = a[pr], a[k + 1]
            for row in a:
                row[k + 1], row[pr] = row[pr], row[k + 1]
            acc = field.neg(acc)
        piv = a[k + 1][k]
        acc = field.mul(acc, field.neg(piv))  # a[k][k+1] = -a[k+1][k]
        inv = field.inv(piv)
        for i in range(k + 2, n):
            if a[i][k] != field.zero:
                factor = field.mul(a[i][k], inv)
                for j in range(n):
                    a[i][j] = field.sub(a[i][j],
                                        field.mul(factor, a[k + 1][j]))
                for r in range(n):
                    a[r][i] = field.sub(a[r][i],
                                        field.mul(factor, a[r][k + 1]))
    return acc


def _skew_member(k, rng, n, kind):
    """An n x n skew matrix over k: dense, sparse (half its entries
    above the diagonal zero, so that pivots are swapped in), or singular
    (a sum of n/2 - 1 dense rank-2 terms u v^T - v u^T)."""
    def entries(shape):
        if k.kind == "rationals":
            return k.array(rng.integers(-50, 51, shape))
        return rng.integers(0, k.p, shape)

    if kind == "singular":
        u, v = entries((2, n // 2 - 1, n))
        a = k.reduce(dot(k, u.T, v) - dot(k, v.T, u))
    else:
        a = k.reduce(np.triu(entries((n, n)), 1))
        if kind == "sparse":
            a[rng.random((n, n)) < 0.5] = k.zero
        a = k.reduce(a - a.T)
    return Matrix(k, a)


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(11), PrimeField(32003),
                        PrimeField(2147483647), RationalField()]),
       st.sampled_from([2, 4, 6, 8, 10, 12]),
       st.lists(st.sampled_from(["dense", "sparse", "singular"]),
                min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_pfaffian_stack_matches_loop(seed, k, n, kinds):
    rng = np.random.default_rng(seed)
    members = [_skew_member(k, rng, n, kind) for kind in kinds]
    got = linalg.pfaffian_stack(k, np.stack([m.data for m in members]))
    assert got.shape == (len(kinds),)
    want = [_loop_pfaffian(m) for m in members]
    assert [k.of(x) for x in got] == want
    assert [pfaffian(m) for m in members] == want
    if n <= 8:
        assert want == [_pfaffian_matchings(m) for m in members]
    for m, kind in zip(members, kinds):
        if kind == "singular":
            assert pfaffian(m) == k.zero


def test_pfaffian_stack_small_cases():
    assert list(linalg.pfaffian_stack(K, np.zeros((3, 0, 0), dtype=np.int64))) \
        == [1, 1, 1]
    with pytest.raises(ValueError):
        linalg.pfaffian_stack(K, np.zeros((2, 3, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        linalg.pfaffian_stack(K, np.zeros((2, 4, 2), dtype=np.int64))


def test_pfaffian_against_matching_expansion():
    rng = random.Random(1)
    for n in (4, 6, 8):
        for _ in range(10):
            a = K.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = K.random_element(rng)
                    a[j][i] = K.neg(a[i][j])
            m = Matrix(K, a)
            assert pfaffian(m) == _pfaffian_matchings(m)
            assert K.mul(pfaffian(m), pfaffian(m)) == m.det()


@pytest.mark.parametrize("n", [18, 20])
def test_pfaffian_squared_is_det_above_sixteen(n):
    """pfaffian takes every even size: Pf^2 = det for random skew
    matrices past the 16 that the matchings expansion was limited to."""
    rng = random.Random(n)
    for _ in range(3):
        a = K.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = K.random_element(rng)
                a[j][i] = K.neg(a[i][j])
        m = Matrix(K, a)
        pf = pfaffian(m)
        assert pf != K.zero and K.mul(pf, pf) == m.det()


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(Matrix(K, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian(Matrix(K, [[1, 0], [0, 1]]))


def test_pfaffian_rationals():
    q = RationalField()
    m = Matrix(q, [[0, 2, 0, 0], [-2, 0, 0, 0],
                             [0, 0, 0, 3], [0, 0, -3, 0]])
    assert pfaffian(m) == q.of(6)


def test_formspace_basic():
    f1 = parse_poly("x0^2 + x1^2", VARS_P3, K)
    f2 = parse_poly("x1^2", VARS_P3, K)
    s = FormSpace.from_polys([f1, f2])
    assert s.dim == 2
    assert s.contains(f1 - f2)
    assert not s.contains(parse_poly("x0*x1", VARS_P3, K))
    assert s.contains(Poly.zero(K, 3))


def test_formspace_canonical_equality():
    f1 = parse_poly("x0^2", VARS_P3, K)
    f2 = parse_poly("x1^2", VARS_P3, K)
    a = FormSpace.from_polys([f1, f2])
    b = FormSpace.from_polys([f1 + f2, f1 - f2])
    assert a == b


def test_formspace_intersect():
    f1 = parse_poly("x0^2", VARS_P3, K)
    f2 = parse_poly("x1^2", VARS_P3, K)
    f3 = parse_poly("x2^2", VARS_P3, K)
    a = FormSpace.from_polys([f1, f2])
    b = FormSpace.from_polys([f2, f3])
    inter = a.intersect(b)
    assert inter.dim == 1
    assert inter.contains(f2)


def test_formspace_full_empty():
    assert FormSpace.full(K, 3, 2).dim == 6
    assert FormSpace.full(K, 4, 2).dim == 10
    assert FormSpace.full(K, 4, 2).contains_space(FormSpace.from_polys(
        [parse_poly("x0*x1", VARS_P3, K)]))


def test_int64_data_over_rationals_is_converted():
    q = RationalField()
    m = Matrix(q, np.array([[2, 1], [4, 2]]))
    assert m.data.dtype == object
    assert m.rank() == 1
    ker = Matrix(q, np.array([[2, 1, 0], [0, 2, 1]])).right_kernel()
    assert list(ker.data[0]) == [1, -2, 4]
    half = Matrix(q, np.array([[2]])).inverse()
    assert half.data[0, 0] == Fraction(1, 2)


def test_prime_field_rows_reduce_as_of_does():
    """Fractions and ints of 2^63 and above (which numpy reads as float64
    next to a negative int) get the residues of PrimeField.of; floats
    are refused, never truncated."""
    rows = [[Fraction(1, 2), 2 ** 70], [-1, 2 ** 63]]
    m = Matrix(K, rows)
    assert m.data.dtype == np.int64
    assert m.data.tolist() == [[K.of(x) for x in row] for row in rows]
    assert m.data[0, 0] == 16002
    with pytest.raises(TypeError):
        Matrix(K, [[0.5, 1]])


def test_products_reduce_each_term_at_large_prime():
    """Sums of (p-1)^2 terms wrap int64 at p = 2^31 - 1 unless each
    product is reduced first."""
    k = PrimeField(2147483647)
    q = k.p - 1
    m = k.array([[q] * 3] * 3)
    assert dot(k, m, m).tolist() == [[3] * 3] * 3
    assert dot(k, m[0], m).tolist() == [3] * 3
    # the intersection is spanned by (1, q, q, q) times the basis of a
    a = FormSpace.from_matrix(k, 5, 1, Matrix(
        k, [[int(i == j) for j in range(4)] + [q] for i in range(4)]))
    b = FormSpace.from_matrix(k, 5, 1, Matrix(
        k, [[1, q, q, q, q + 3 * q * q]]))
    assert a.intersect(b) == b


# -- wide matrices against the one-pivot-at-a-time loop ---------------------


def _loop_rref(a, field):
    """Gauss–Jordan in the field's own arithmetic, one pivot at a time:
    the oracle for the delayed-reduction loop on wide matrices and, on
    Fractions, for the multi-modular path over the rationals."""
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


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(11), K, PrimeField(2147483647),
                        RationalField()]),
       st.integers(1, 5), st.integers(1, 9), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_row_space_residual_matches_rank(seed, k, rows, cols, more):
    """A row lies in the row space of an RREF (zero rows allowed) exactly
    when stacking it keeps the rank, and then its coordinates rebuild it:
    combinations of the rows and random rows, over F_p and Q."""
    rng = random.Random(seed)
    base = _random_matrix(k, rng, rows, cols)
    r = base.rref()[0].data
    combos = k.array([[rng.randrange(-2, 3) for _ in range(rows)]
                      for _ in range(more)])
    v = np.concatenate([dot(k, combos, base.data),
                        _random_matrix(k, rng, more, cols).data])
    coords, off = linalg.row_space_residual(k, r, v)
    for i in range(2 * more):
        inside = Matrix(k, np.vstack([r, v[i:i + 1]])).rank() == base.rank()
        assert inside == (not np.any(off[i] != k.zero))
        if inside:
            assert np.all(dot(k, coords[i], r) == v[i])


def _test_matrix(k, rng, rows, cols, rank, zero_cols, dup_cols):
    """A rows x cols matrix of rank <= rank, with some columns zeroed and
    some copied over others."""
    basis = rng.integers(0, k.p, (rank, cols))
    coeffs = rng.integers(0, 3, (rows, rank))
    a = (coeffs @ basis) % k.p  # entries below 2^42: exact in int64
    a[:, rng.choice(cols, zero_cols, replace=False)] = 0
    for _ in range(dup_cols):
        src, dst = rng.choice(cols, 2, replace=False)
        a[:, dst] = a[:, src]
    return Matrix(k, a)


def _both_paths(fn):
    """fn() with the current _rref and with the one-pivot-at-a-time loop."""
    fast = fn()
    with mock.patch.object(linalg, "_rref", _loop_rref):
        slow = fn()
    return fast, slow


# the default prime, a prime whose lazy bound is 8 (so that wide matrices
# reduce their trailing block in mid-loop) and the largest prime allowed
WIDE_PRIMES = [32003, 1073741789, 2147483647]


@given(st.integers(0, 10**6), st.sampled_from([129, 256, 257, 300]),
       st.sampled_from(["one", "wide", "square", "tall"]),
       st.sampled_from(WIDE_PRIMES), st.floats(0, 1), st.integers(0, 4),
       st.integers(0, 4))
@settings(max_examples=30, deadline=None)
def test_wide_rref_matches_loop(seed, cols, shape, p, fill, zero_cols,
                                dup_cols):
    rng = np.random.default_rng(seed)
    rows = {"one": 1, "wide": cols // 2, "square": cols,
            "tall": cols + 37}[shape]
    k = PrimeField(p)
    rank = int(fill * min(rows, cols))
    m = _test_matrix(k, rng, rows, cols, rank, zero_cols, dup_cols)
    (red, piv), (red0, piv0) = _both_paths(m.rref)
    assert piv == piv0 and red == red0
    assert _both_paths(m.rank) == (len(piv0),) * 2
    ker, ker0 = _both_paths(m.right_kernel)
    assert ker == ker0
    # the last column as right-hand side: the augmented matrix is m itself
    lhs = Matrix(k, m.data[:, :-1])
    x, x0 = _both_paths(lambda: lhs.solve(m.data[:, -1]))
    assert (x is None) == (x0 is None) == (cols - 1 in piv0)
    if x is not None:
        assert np.array_equal(x, x0)


@given(st.integers(0, 10**6), st.sampled_from([65, 128, 150]),
       st.sampled_from(WIDE_PRIMES), st.booleans())
@settings(max_examples=12, deadline=None)
def test_wide_inverse_matches_loop(seed, n, p, singular):
    rng = np.random.default_rng(seed)
    k = PrimeField(p)
    m = _test_matrix(k, rng, n, n, n - singular, 0, 0)

    def inverse():
        try:
            return m.inverse()
        except ValueError as exc:
            return str(exc)

    inv, inv0 = _both_paths(inverse)
    assert inv == inv0
    if isinstance(inv, Matrix):
        assert _mul(m, inv) == Matrix.identity(k, n)


def test_rref_of_no_rows():
    empty = Matrix(K, np.zeros((0, 300), dtype=np.int64))
    assert empty.rref() == (empty, [])
    assert empty.right_kernel() == Matrix.identity(K, 300)


# -- the delayed-reduction loop against the loop that reduces every step ---


def _eager_gauss_jordan(a, p):
    """Gauss–Jordan over F_p that reduces the whole matrix after every
    pivot, and returns what _gauss_jordan does: the oracle for its
    delayed reduction."""
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
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivots.append(c)
        r += 1
    return a, pivots


def _extreme_matrix(p, rows, cols):
    """[[I_k, -1], [-1, k + u v^T]] with k = min(rows, cols - 1) - 1 and
    u, v = (1, 2, ...).  Each of the first k pivots is 1 and subtracts
    (p-1)^2, the most an update can take, from every entry of the
    trailing block, which ends as the rank-1 block u v^T.  So the pivots
    are 0..k, and one update past the lazy bound leaves int64 and, at
    p = 1073741789 and 2^31 - 1, makes the trailing block rank 2."""
    k = max(min(rows, cols - 1) - 1, 0)
    a = np.full((rows, cols), p - 1, dtype=np.int64)
    a[:k, :k] = np.eye(k, dtype=np.int64)
    a[k:, k:] = (k + np.outer(np.arange(1, rows - k + 1),
                              np.arange(1, cols - k + 1))) % p
    return a, k


@given(st.integers(0, 10**6),
       st.sampled_from([11, 32003, 1073741789, 2147483647]),
       st.sampled_from(["84x84", "84x35", "1xn", "nx1", "nxn"]),
       st.integers(1, 128), st.floats(0, 1), st.integers(0, 4),
       st.integers(0, 4), st.booleans())
@settings(max_examples=60, deadline=None)
def test_gauss_jordan_matches_eager_loop(seed, p, shape, n, fill, zero_cols,
                                         dup_cols, extreme):
    """At p = 1073741789 the lazy bound is 8 and at 2^31 - 1 it is 2, so
    the trailing block is reduced in mid-loop; at 11 and 32003 only the
    result is reduced.  Extreme matrices take the largest updates."""
    rows, cols = {"84x84": (84, 84), "84x35": (84, 35), "1xn": (1, n),
                  "nx1": (n, 1), "nxn": (n, n)}[shape]
    k = PrimeField(p)
    rng = np.random.default_rng(seed)
    if extreme:
        a, _ = _extreme_matrix(p, rows, cols)
    else:
        rank = int(fill * min(rows, cols))
        a = _test_matrix(k, rng, rows, cols, rank, min(zero_cols, cols),
                         dup_cols if cols > 1 else 0).data
    red, pivots = linalg._gauss_jordan(a, p)
    red0, pivots0 = _eager_gauss_jordan(a, p)
    assert pivots == pivots0 and np.array_equal(red, red0)
    loop, loop_pivots = _loop_rref(a, k)
    assert pivots == loop_pivots and np.array_equal(red, loop)
    assert red.dtype == np.int64 and red.flags.c_contiguous


def test_gauss_jordan_at_the_lazy_bound():
    for p in (11, 32003, 1073741789, 2147483647):
        for rows, cols in ((84, 84), (84, 35), (3, 128), (128, 12), (1, 5),
                           (5, 1)):
            a, k = _extreme_matrix(p, rows, cols)
            got = linalg._gauss_jordan(a, p)
            want = _eager_gauss_jordan(a, p)
            assert got[1] == want[1] == list(range(k + 1))
            assert np.array_equal(got[0], want[0])


def test_lazy_bound():
    assert [linalg._lazy_bound(p) for p in (1073741789, 2147483647)] == [8, 2]
    for p in (11, 32003, 1073741789, 2147483647):
        s = linalg._lazy_bound(p)
        assert s * (p - 1) ** 2 + p < 2 ** 63 <= (s + 1) * (p - 1) ** 2 + p


def test_inverses():
    for p in (11, 32003, 2147483647):
        k = PrimeField(p)
        x = np.array([0, 1, 2, p - 1, 0, 7, 3], dtype=np.int64)
        assert linalg._inverses(k, x).tolist() == [
            pow(int(v), -1, p) if v else 0 for v in x]
    k11 = PrimeField(11)
    assert linalg._inverses(k11, np.zeros(0, dtype=np.int64)).tolist() == []
    assert linalg._inverses(k11, np.zeros(3, dtype=np.int64)).tolist() == \
        [0, 0, 0]
    q = RationalField()
    x = q.array([0, 1, Fraction(-2, 3), 7, 0])
    assert linalg._inverses(q, x).tolist() == [0, 1, Fraction(-3, 2),
                                                Fraction(1, 7), 0]
    assert linalg._inverses(q, q.array([])).tolist() == []


# -- the multi-modular RREF over Q against the Fraction loop --------------

Q = RationalField()


def _fraction(rng, bits):
    num = rng.randrange(-2 ** bits, 2 ** bits + 1)
    return Fraction(num, rng.randrange(1, 2 ** rng.randrange(1, bits + 1) + 1))


def _rational_matrix(rng, rows, cols, rank, bits):
    """A rows x cols matrix of rank <= rank: small rational combinations
    of rank rows with entries of up to the given bits over non-trivial
    denominators."""
    basis = [[_fraction(rng, bits) for _ in range(cols)] for _ in range(rank)]
    a = Q.zeros((rows, cols))
    for i in range(rows):
        coeffs = [_fraction(rng, 3) for _ in range(rank)]
        for j in range(cols):
            a[i, j] = sum((c * row[j] for c, row in zip(coeffs, basis)),
                          Fraction(0))
    return Matrix(Q, a)


SHAPES_Q = {"zero": (4, 5), "no rows": (0, 4), "no columns": (4, 0),
            "one row": (1, 6), "tall": (7, 3), "wide": (3, 7),
            "square": (5, 5)}


@given(st.integers(0, 10**6), st.sampled_from(sorted(SHAPES_Q)),
       st.floats(0, 1), st.integers(1, 200))
@settings(max_examples=60, deadline=None)
def test_rational_rref_matches_fraction_loop(seed, shape, fill, bits):
    rng = random.Random(seed)
    rows, cols = SHAPES_Q[shape]
    rank = 0 if shape == "zero" else round(fill * min(rows, cols))
    m = _rational_matrix(rng, rows, cols, rank, bits)
    (red, piv), (red0, piv0) = _both_paths(m.rref)
    assert piv == piv0 and red == red0
    assert all(isinstance(x, Fraction) for x in red.data.flat)
    assert _both_paths(m.rank) == (len(piv0),) * 2
    ker, ker0 = _both_paths(m.right_kernel)
    assert ker == ker0
    if cols:
        lhs = Matrix(Q, m.data[:, :-1])
        x, x0 = _both_paths(lambda: lhs.solve(m.data[:, -1]))
        assert (x is None) == (x0 is None)
        if x is not None:
            assert np.array_equal(x, x0)
    if rows == cols:
        def inverse():
            try:
                return m.inverse()
            except ValueError as exc:
                return str(exc)

        inv, inv0 = _both_paths(inverse)
        assert inv == inv0


def test_image_primes_are_the_largest_below_the_bound():
    want, n = [], PRIME_BOUND - 1
    while len(want) < len(linalg._PRIMES):
        if is_prime(n):
            want.append(n)
        n -= 2
    assert linalg._PRIMES == tuple(want)


def _images_mod(run, primes):
    """run() with the images taken modulo the given primes first;
    returns its result and the primes of the images taken."""
    with mock.patch.object(linalg, "_PRIMES", tuple(primes)), \
            mock.patch.object(linalg, "_gauss_jordan",
                              wraps=linalg._gauss_jordan) as spy:
        got = run()
    return got, [call.args[1] for call in spy.call_args_list]


def _unlucky_rows(fault, q):
    """[[1, 0, x, y], row0 + q (0, 1, c, d)] or row0 + (0, q, c, d), with
    x, y of 61 bits and c, d of 41."""
    rng = random.Random(7)
    x, y = (rng.randrange(2 ** 60, 2 ** 61) for _ in range(2))
    c, d = (rng.randrange(2 ** 40, 2 ** 41) for _ in range(2))
    step = [0, q, q * c, q * d] if fault == "drops the rank" else [0, q, c, d]
    row0 = [1, 0, x, y]
    return [row0, [u + v for u, v in zip(row0, step)]]


@pytest.mark.parametrize("where", ["first", "later"])
@pytest.mark.parametrize("fault", ["drops the rank", "moves a pivot"])
def test_unlucky_prime_is_outvoted(where, fault):
    """Row 1 minus row 0 is q (0, 1, c, d) or (0, q, c, d): modulo q the
    rank drops or the second pivot moves from column 1 to column 2.  The
    entries x, y need several primes, so the image modulo q is taken
    among the lucky ones."""
    q = 1000003
    m = Matrix(Q, _unlucky_rows(fault, q))
    at = 0 if where == "first" else 1
    primes = linalg._PRIMES[:at] + (q,) + linalg._PRIMES[at:]
    (red, piv), used = _images_mod(m.rref, primes)
    # the image modulo q is taken and ignored: one image more than without q
    assert q in used and len(used) > 3
    assert len(used) == len(_images_mod(m.rref, linalg._PRIMES)[1]) + 1
    assert (red, piv) == (Matrix(Q, _loop_rref(m.data, Q)[0]), [0, 1])


def _image_source(a):
    """The callbacks of _rref_rationals for the integer matrix a: its
    images modulo p, and a in Python ints, with a record of each time
    that is taken."""
    ints = np.array(a, dtype=object)
    taken = []

    def integers():
        taken.append(1)
        return ints

    return (lambda p: (ints % p).astype(np.int64)), integers, taken


@pytest.mark.parametrize("fault", ["drops the rank", "moves a pivot"])
def test_image_source_outvotes_a_rank_deficient_first_image(fault):
    """Images from a callback, the first modulo q, where the rank of the
    unlucky rows drops or their second pivot moves: the RREF is still the
    Fraction loop's, and the integer matrix is taken once, for the check
    of the images of rank 2 < 4."""
    q = 1000003
    a = _unlucky_rows(fault, q)
    image, integers, taken = _image_source(a)
    assert Matrix(PrimeField(q), image(q)).rank() == (
        1 if fault == "drops the rank" else 2)
    (red, piv), used = _images_mod(
        lambda: linalg._rref_rationals((2, 4), image, integers),
        (q,) + linalg._PRIMES)
    assert used[0] == q and len(used) > 2
    red0, piv0 = _loop_rref(Q.array(a), Q)
    assert piv == piv0 == [0, 1] and np.array_equal(red, red0)
    assert len(taken) == 1


def test_image_of_full_column_rank_needs_no_integer_matrix():
    """A first image of rank equal to the column count proves the RREF
    is the identity: one image, and the integer matrix is never taken."""
    a = [[1, 2, 3], [4, 5, 6], [7, 8, 10 + PRIME_BOUND]]
    image, integers, taken = _image_source(a)
    (red, piv), used = _images_mod(
        lambda: linalg._rref_rationals((3, 3), image, integers),
        linalg._PRIMES)
    assert used == [linalg._PRIMES[0]]
    assert piv == [0, 1, 2] and Matrix(Q, red) == Matrix.identity(Q, 3)
    ker = linalg.kernel_from_images((3, 3), image, integers)
    assert ker.rows == 0 and ker.cols == 3
    assert taken == []


def test_rationals_past_the_literal_primes():
    """Reconstructing b/a needs a modulus above 2 a b; with a and b of
    31 (L + 4) / 2 bits that takes more than the L literal primes."""
    bits = 31 * (len(linalg._PRIMES) + 4) // 2
    a, b = 2 ** bits - 1, 2 ** bits + 1
    m = Matrix(Q, [[a, b]])
    (red, piv), used = _images_mod(m.rref, linalg._PRIMES)
    assert len(used) > len(linalg._PRIMES) + 4
    assert all(is_prime(p) and p < PRIME_BOUND for p in used)
    assert len(set(used)) == len(used)
    assert piv == [0] and list(red.data[0]) == [1, Fraction(b, a)]


def test_certificate_rejects_a_candidate_right_only_mod_the_first_prime():
    """Modulo p the RREF of (1, 1 + p) is (1, 1), and 1 is the rational
    reconstruction of its residue; only the integer check tells it from
    the true entry 1 + p, which more primes then reconstruct."""
    p = linalg._PRIMES[0]
    (red, piv), used = _images_mod(Matrix(Q, [[1, 1 + p]]).rref,
                                   linalg._PRIMES)
    assert piv == [0] and list(red.data[0]) == [1, 1 + p]
    assert len(used) > 1


# -- one elimination per kernel, against the two-step kernel ----------------


def _two_step_kernel(field, a):
    """The kernel as two eliminations take it: the RREF of a, its
    null_basis, and the RREF of that basis.  The oracle for the kernel
    read off one RREF of a turned by 180 degrees."""
    r, pivots = linalg._rref(a, field)
    red, _ = linalg._rref(linalg.null_basis(field, r, pivots), field)
    return Matrix(field, red)


KERNEL_FIELDS = {"F_11": PrimeField(11), "F_32003": K,
                 "F_2^31-1": PrimeField(2147483647), "Q": Q}
KERNEL_KINDS = ("no rows", "no columns", "zero", "full column rank",
                "deficient rank")


def _kernel_case(rng, k, kind, rows, cols):
    """A rows x cols integer matrix of the given kind, with entries that
    are residues over F_p and of up to 40 bits over Q."""
    if kind == "no rows":
        rows = 0
    if kind == "no columns":
        cols = 0
    bound = 2 ** 40 if k.kind == "rationals" else k.p

    def entry():
        return rng.randrange(-bound + 1, bound)

    if kind == "full column rank":  # an identity among random rows
        a = [[entry() for _ in range(cols)] for _ in range(rows)]
        a += [[int(i == j) for j in range(cols)] for i in range(cols)]
        rng.shuffle(a)
        return np.array(a, dtype=object).reshape(-1, cols)
    rank = 0 if kind == "zero" else rng.randrange(min(rows, cols) + 1)
    if kind == "deficient rank":
        rank = min(rank, min(rows, cols) - 1)
    left = np.array([[entry() for _ in range(rank)] for _ in range(rows)],
                    dtype=object).reshape(rows, rank)
    right = np.array([[rng.randrange(-9, 10) for _ in range(cols)]
                      for _ in range(rank)], dtype=object).reshape(rank, cols)
    return left.dot(right) if rank else np.zeros((rows, cols), dtype=object)


@given(st.integers(0, 10**6), st.sampled_from(sorted(KERNEL_FIELDS)),
       st.sampled_from(KERNEL_KINDS), st.integers(1, 9), st.integers(1, 9))
@settings(max_examples=80, deadline=None)
def test_right_kernel_is_one_elimination_of_the_turned_matrix(seed, name,
                                                              kind, rows,
                                                              cols):
    """right_kernel row-reduces the matrix turned by 180 degrees once and
    reads off the same RREF kernel that two eliminations give, over
    F_11, F_32003, F_(2^31-1) and Q."""
    k = KERNEL_FIELDS[name]
    m = Matrix(k, _kernel_case(random.Random(seed), k, kind, rows, cols))
    with mock.patch.object(linalg, "_rref", wraps=linalg._rref) as spy:
        ker = m.right_kernel()
    [(turned, field)] = [c.args for c in spy.call_args_list]
    assert field == k and np.array_equal(turned, m.data[::-1, ::-1])
    assert ker == _two_step_kernel(k, m.data)
    assert ker.rows == m.cols - m.rank()
    if kind == "full column rank":
        assert ker.rows == 0
    assert not np.any(dot(k, m.data, ker.data.T) != k.zero)


@pytest.mark.parametrize("kind", KERNEL_KINDS)
def test_kernel_from_images_is_one_elimination_of_the_turned_matrix(kind):
    """kernel_from_images hands _rref_rationals the turned images and the
    turned integer matrix, and returns the two-step kernel over Q."""
    rng = random.Random(KERNEL_KINDS.index(kind))
    a = _kernel_case(rng, Q, kind, 6, 5)
    image, integers, _ = _image_source(a)
    with mock.patch.object(linalg, "_rref", wraps=linalg._rref) as rref, \
            mock.patch.object(linalg, "_rref_rationals",
                              wraps=linalg._rref_rationals) as spy:
        ker = linalg.kernel_from_images(a.shape, image, integers)
    assert rref.call_count == 0 and spy.call_count == 1
    shape, turned_image, turned_integers = spy.call_args.args
    p = linalg._PRIMES[0]
    assert shape == a.shape
    assert np.array_equal(turned_image(p), image(p)[::-1, ::-1])
    assert np.array_equal(turned_integers(), a[::-1, ::-1])
    assert ker == _two_step_kernel(Q, Q.array(a))
