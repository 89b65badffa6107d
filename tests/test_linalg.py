import random
from fractions import Fraction

import numpy as np
import pytest

from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import FormSpace, Matrix, pfaffian, pfaffian_matchings
from qplanes.poly import Poly, parse_poly, VARS_P3

K = PrimeField()


def _random_matrix(k, rng, rows, cols):
    return Matrix(k, k.array([[rng.randrange(100) for _ in range(cols)]
                              for _ in range(rows)]))


def test_rref_rank_kernel():
    m = Matrix.from_rows(K, [[1, 2, 3], [2, 4, 6], [1, 0, 1]])
    assert m.rank() == 2
    ker = m.right_kernel()
    assert ker.rows == 1
    v = ker.data[0]
    assert np.all(K.reduce(m.data @ v) == 0)


def test_det_known():
    m = Matrix.from_rows(K, [[2, 1], [1, 2]])
    assert m.det() == 3
    s = Matrix.from_rows(K, [[0, 1], [1, 0]])
    assert s.det() == K.of(-1)
    singular = Matrix.from_rows(K, [[1, 2], [2, 4]])
    assert singular.det() == 0


def test_inverse():
    rng = random.Random(20)
    for k in (K, RationalField()):
        m = _random_matrix(k, rng, 4, 4)
        assert m.rank() == 4
        assert m.matmul(m.inverse()) == Matrix.identity(k, 4)
    with pytest.raises(ValueError):
        Matrix.from_rows(K, [[1, 2], [2, 4]]).inverse()


def test_solve():
    m = Matrix.from_rows(K, [[1, 1], [1, 2]])
    x = m.solve([3, 5])
    assert x is not None and np.all(K.reduce(m.data @ x) == K.array([3, 5]))
    inconsistent = Matrix.from_rows(K, [[1, 1], [2, 2]])
    assert inconsistent.solve([1, 3]) is None


def test_det_multiplicative():
    rng = random.Random(0)
    for _ in range(10):
        a = _random_matrix(K, rng, 5, 5)
        b = _random_matrix(K, rng, 5, 5)
        assert a.matmul(b).det() == K.mul(a.det(), b.det())


def test_pfaffian_convention():
    m = Matrix.from_rows(K, [[0, 5], [K.of(-5), 0]])
    assert pfaffian(m) == 5


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
            assert pfaffian(m) == pfaffian_matchings(m)
            assert K.mul(pfaffian(m), pfaffian(m)) == m.det()


def test_pfaffian_rejects_bad_input():
    with pytest.raises(ValueError):
        pfaffian(Matrix.from_rows(K, [[0, 1, 0], [-1, 0, 0], [0, 0, 0]]))
    with pytest.raises(ValueError):
        pfaffian(Matrix.from_rows(K, [[1, 0], [0, 1]]))


def test_pfaffian_rationals():
    q = RationalField()
    m = Matrix.from_rows(q, [[0, 2, 0, 0], [-2, 0, 0, 0],
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
    assert FormSpace.empty(K, 3, 2).dim == 0
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
