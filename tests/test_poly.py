import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qplanes.fields import PrimeField, RationalField
from qplanes.poly import (Poly, compose, dense_mul, dot, monomial_basis,
                          monomial_index, monomial_values, mult_table,
                          parse_poly, power_products, random_form, var_shift)

K = PrimeField()
V3 = ["x0", "x1", "x2"]


def test_monomial_basis_sizes():
    # binomial counts
    for nvars, d in [(3, 4), (4, 2), (4, 6), (7, 3)]:
        assert len(monomial_basis(nvars, d)) == math.comb(nvars + d - 1, d)
    assert len(monomial_basis(7, 3)) == 84
    assert len(monomial_basis(4, 6)) == 84


def test_monomial_basis_order():
    b = monomial_basis(3, 2)
    assert b[0] == (2, 0, 0)
    assert b[-1] == (0, 0, 2)
    # lexicographically descending inside the degree block
    assert list(b) == sorted(b, reverse=True)


def test_monomial_index_round_trip():
    b = monomial_basis(4, 3)
    idx = monomial_index(4, 3)
    for i, e in enumerate(b):
        assert idx[e] == i


def _random_poly(k, rng, nvars=3, maxdeg=3):
    terms = {}
    for _ in range(rng.randrange(0, 6)):
        e = tuple(rng.randrange(0, maxdeg + 1) for _ in range(nvars))
        terms[e] = k.random_element(rng)
    return Poly(k, nvars, terms)


@given(st.integers(0, 10**6))
@settings(max_examples=40, deadline=None)
def test_ring_axioms(seed):
    rng = random.Random(seed)
    f, g, h = (_random_poly(K, rng) for _ in range(3))
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == Poly.zero(K, 3)


def test_degree_and_homogeneous():
    f = parse_poly("x0^2*x1 + x2", V3, K)
    assert f.degree() == 3
    assert not f.is_homogeneous()
    assert f.homogeneous_part(3) == parse_poly("x0^2*x1", V3, K)
    assert Poly.zero(K, 3).degree() == -1
    assert Poly.zero(K, 3).is_homogeneous()


def test_evaluate():
    f = parse_poly("3*x0^2*x1 - x2^3", V3, K)
    assert f.evaluate((1, 2, 1)) == K.of(5)
    assert f.evaluate((0, 5, 1)) == K.of(-1)


def test_parse_format_round_trip():
    texts = ["3*x0^2*x1 - x2^3", "x0 + x1 + x2", "7", "x1^4 - 2*x0*x2"]
    for t in texts:
        f = parse_poly(t, V3, K)
        again = parse_poly(f.format(V3), V3, K)
        assert f == again


def test_parse_errors():
    for bad in ["", "x9", "3**x0", "x0 +", "2^3"]:
        with pytest.raises(ValueError):
            parse_poly(bad, V3, K)


def test_substitute_linear_identity_and_composition():
    rng = random.Random(5)
    f = _random_poly(K, rng)
    ident = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert f.substitute_linear(ident) == f
    a = [[K.random_element(rng) for _ in range(3)] for _ in range(3)]
    b = [[K.random_element(rng) for _ in range(3)] for _ in range(3)]
    ab = [[sum(a[i][t] * b[t][j] for t in range(3)) % K.p for j in range(3)]
          for i in range(3)]
    assert f.substitute_linear(a).substitute_linear(b) == f.substitute_linear(ab)


def test_coeff_vector_round_trip():
    rng = random.Random(9)
    f = Poly(K, 4, {e: K.random_element(rng) for e in monomial_basis(4, 2)})
    v = f.coeff_vector(2)
    assert Poly.from_coeff_vector(K, 4, 2, v) == f
    with pytest.raises(ValueError):
        parse_poly("x0 + x1^2", V3, K).coeff_vector(2)


def test_rational_coefficients():
    q = RationalField()
    f = parse_poly("x0^2 - 2*x1^2", V3, q)
    assert f.evaluate((q.of(3), q.of(1), q.of(0))) == q.of(7)


# -- the dense product kernel against dict Poly.__mul__ -----------------

FIELDS = st.sampled_from([K, RationalField()])


def _random_form(k, rng, nvars, d):
    """A homogeneous form with about half of its coefficients zero."""
    return Poly(k, nvars, {e: rng.choice([0, k.random_element(rng)])
                           for e in monomial_basis(nvars, d)})


@given(st.integers(0, 10**6), FIELDS, st.integers(1, 4), st.integers(0, 3),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_dense_mul_matches_poly_mul(seed, k, nvars, d1, d2):
    rng = random.Random(seed)
    f, g = _random_form(k, rng, nvars, d1), _random_form(k, rng, nvars, d2)
    got = dense_mul(k, f.coeff_vector(d1), g.coeff_vector(d2), nvars, d1, d2)
    assert Poly.from_coeff_vector(k, nvars, d1 + d2, got) == f * g
    var = rng.randrange(nvars)
    shifted = var_shift(k, f.coeff_vector(d1), nvars, d1, var)
    assert (Poly.from_coeff_vector(k, nvars, d1 + 1, shifted)
            == f * Poly.variable(k, nvars, var))


@pytest.mark.parametrize("k", [PrimeField(11), K, PrimeField(2147483647),
                               RationalField()], ids=repr)
def test_random_form_draws_the_coefficients_of_the_poly_build(k):
    """random_form's row holds the draws that a Poly with one draw per
    monomial of monomial_basis held, in that order."""
    for nvars, d in ((4, 1), (4, 2), (4, 3), (3, 3)):
        row = random_form(k, nvars, d, random.Random(d))
        rng = random.Random(d)
        want = Poly(k, nvars, {e: k.random_element(rng)
                               for e in monomial_basis(nvars, d)})
        assert np.array_equal(row, want.coeff_vector(d))


ORACLE_FIELDS = st.sampled_from([PrimeField(11), K, PrimeField(2147483647),
                                 RationalField()])


@given(st.integers(0, 10**6), ORACLE_FIELDS, st.integers(1, 4),
       st.integers(1, 2), st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_power_products_match_poly_mul(seed, k, nvars, d, n, d2):
    """The row products against dict Poly products; a form may be 0."""
    rng = random.Random(seed)
    forms = [_random_form(k, rng, nvars, d) for _ in range(n)]
    rows = power_products(k, np.stack([f.coeff_vector(d) for f in forms]),
                          nvars, d, d2)
    basis = monomial_basis(n, d2)
    assert rows.shape == (len(basis), len(monomial_basis(nvars, d * d2)))
    for row, e in zip(rows, basis):
        prod = Poly(k, nvars, {(0,) * nvars: 1})
        for form, ei in zip(forms, e):
            for _ in range(ei):
                prod = prod * form
        assert Poly.from_coeff_vector(k, nvars, d * d2, row) == prod


# -- the sorted reduceat product and compose against their oracles -------


def _scatter_mul(k, a, b, nvars, d1, d2):
    """dense_mul as it was: every product reduced, then scattered onto
    its target by np.add.at."""
    prods = k.reduce(a[..., :, None] * b[..., None, :])
    out = np.zeros(prods.shape[:-2] + (len(monomial_basis(nvars, d1 + d2)),),
                   dtype=prods.dtype)
    np.add.at(out, (..., mult_table(nvars, d1, d2)), prods)
    return k.reduce(out)


SUBST_FIELDS = st.sampled_from([PrimeField(11), K, PrimeField(2147483647),
                                RationalField()])


@given(st.integers(0, 10**6), SUBST_FIELDS, st.integers(1, 7),
       st.integers(0, 6), st.integers(0, 2), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_dense_mul_matches_the_scatter(seed, k, nvars, d1, d2, stack):
    """Stacks of up to 3 (one over Q, where the products are Fractions)
    times one form, at the degrees the program multiplies."""
    if k.kind == "rationals":
        stack = min(stack, 1)
    rng = random.Random(seed)
    a = k.zeros((stack, len(monomial_basis(nvars, d1))))
    for i in range(stack):
        a[i] = random_form(k, nvars, d1, rng)
    b = random_form(k, nvars, d2, rng)
    got = dense_mul(k, a, b, nvars, d1, d2)
    assert got.shape == (stack, len(monomial_basis(nvars, d1 + d2)))
    assert got.dtype == a.dtype
    assert np.array_equal(got, _scatter_mul(k, a, b, nvars, d1, d2))


@given(st.integers(0, 10**6), SUBST_FIELDS, st.integers(1, 4),
       st.integers(1, 7), st.integers(1, 2), st.integers(1, 4),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_compose_matches_the_power_products(seed, k, nvars, n, d, d2, rows):
    """compose(g, f) is dot(g, power_products(f)) entry for entry, for a
    single g and for stacks of rows, some of them zero (or none)."""
    if k.kind == "rationals" and n * d * d2 > 12:
        n = 12 // (d * d2)  # Fraction products of degree 8 are slow
    rng = random.Random(seed)
    f = np.stack([random_form(k, nvars, d, rng) for _ in range(n)])
    if rng.random() < 0.3:
        f[rng.randrange(n)] = 0  # a zero form among the images
    width = len(monomial_basis(n, d2))
    g = k.zeros((rows, width))
    for i in range(rows):
        if rng.random() < 0.7:
            g[i] = [rng.choice([0, k.random_element(rng)])
                    for _ in range(width)]
    want = dot(k, g, power_products(k, f, nvars, d, d2))
    got = compose(k, g, f, nvars, d, d2)
    assert got.shape == (rows, len(monomial_basis(nvars, d * d2)))
    assert np.array_equal(got, want)
    if rows:
        assert np.array_equal(compose(k, g[0], f, nvars, d, d2), want[0])


def test_products_of_all_p_minus_one_at_the_largest_prime():
    """Every entry p - 1 at p = 2^31 - 1, where a product is ~2^62 and
    so has to be reduced before the sums: the largest product shape the
    program reaches (the c_S8 certificate, sextic times quadric in 7
    variables) and the degree-8 substitution of seven quadrics."""
    k = PrimeField(2147483647)
    top = k.p - 1
    a = np.full((2, len(monomial_basis(7, 6))), top, dtype=np.int64)
    b = np.full(len(monomial_basis(7, 2)), top, dtype=np.int64)
    got = dense_mul(k, a, b, 7, 6, 2)
    assert np.array_equal(got, _scatter_mul(k, a, b, 7, 6, 2))
    # each target sums (-1)^2 once per split
    splits = np.bincount(mult_table(7, 6, 2).ravel())
    assert np.array_equal(got[0], splits % k.p)
    # runs of at most two, 2 (p-1)^2 < 2^63, are summed unreduced
    a = np.full(4, top, dtype=np.int64)
    assert np.array_equal(dense_mul(k, a, a, 4, 1, 1),
                          _scatter_mul(k, a, a, 4, 1, 1))
    f = np.full((7, len(monomial_basis(7, 2))), top, dtype=np.int64)
    g = np.full((7, len(monomial_basis(7, 4))), top, dtype=np.int64)
    assert np.array_equal(compose(k, g, f, 7, 2, 4),
                          dot(k, g, power_products(k, f, 7, 2, 4)))


# -- substitution through compose against term-by-term products --------

WIDE = st.sampled_from([K, PrimeField(2147483647), RationalField()])


def _reference_substitute(f, images):
    """x_i -> images[i], term by term with dict Poly products."""
    k, nv = images[0].field, images[0].nvars
    out = Poly.zero(k, nv)
    for e, c in f.terms.items():
        term = Poly(k, nv, {(0,) * nv: c})
        for img, ei in zip(images, e):
            for _ in range(ei):
                term = term * img
        out = out + term
    return out


@given(st.integers(0, 10**6), WIDE, st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_substitute_linear_matches_term_products(seed, k, nvars):
    rng = random.Random(seed)
    f = _random_poly(k, rng, nvars)
    mat = [[rng.choice([0, k.random_element(rng)]) for _ in range(nvars)]
           for _ in range(nvars)]
    images = [Poly(k, nvars, {tuple(int(t == j) for t in range(nvars)): mat[i][j]
                              for j in range(nvars)}) for i in range(nvars)]
    assert f.substitute_linear(mat) == _reference_substitute(f, images)


@given(st.integers(0, 10**6), WIDE, st.integers(1, 3), st.integers(1, 4),
       st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_substitute_polys_matches_term_products(seed, k, nvars, target, d):
    rng = random.Random(seed)
    f = _random_poly(k, rng, nvars, maxdeg=2)
    images = [_random_form(k, rng, target, d) for _ in range(nvars)]
    assert f.substitute_polys(images) == _reference_substitute(f, images)


# -- batched monomial values against the per-point loop -----------------

def _monomial_values_loop(k, nvars, d, point):
    """The values of the degree-d monomials at one point, one field
    multiplication at a time."""
    vec = k.zeros(len(monomial_basis(nvars, d)))
    for i, e in enumerate(monomial_basis(nvars, d)):
        v = k.one
        for xj, ej in zip(point, e):
            for _ in range(ej):
                v = k.mul(v, xj)
        vec[i] = v
    return vec


@given(st.integers(0, 10**6), WIDE, st.integers(1, 7), st.integers(0, 4),
       st.integers(0, 6), st.integers(2, 3))
@example(0, K, 3, 0, 0, 2)  # d = 0 on no points
@example(0, RationalField(), 7, 3, 4, 2)
@settings(max_examples=60, deadline=None)
def test_monomial_values_match_the_point_loop(seed, k, nvars, d, count,
                                              batches):
    """A flat list of points, a (batches, count, nvars) stack, and over
    Q an object array of Python ints, whose values stay ints."""
    rng = random.Random(seed)
    size = len(monomial_basis(nvars, d))
    points = [tuple(rng.choice([0, 1, k.random_element(rng)])
                    for _ in range(nvars)) for _ in range(count)]
    got = monomial_values(k, nvars, d, points)
    assert got.shape == (count, size)
    for row, point in zip(got, points):
        assert list(row) == list(_monomial_values_loop(k, nvars, d, point))
    stack = np.array([k.random_element(rng)
                      for _ in range(batches * count * nvars)],
                     dtype=object).reshape(batches, count, nvars)
    if k.kind == "prime":
        stack = stack.astype(np.int64)
    stacks = [stack]
    if k.kind == "rationals":  # random_element is integral
        stacks.append(np.frompyfunc(int, 1, 1)(stack))
    for pts in stacks:
        got = monomial_values(k, nvars, d, pts)
        assert got.shape == (batches, count, size)
        assert [list(row) for row in got.reshape(-1, size)] == \
            [list(_monomial_values_loop(k, nvars, d, point))
             for point in pts.reshape(-1, nvars)]
    if k.kind == "rationals":
        assert all(type(x) is int for x in got.flat)


# -- dot against Python integer products ----------------------------------

SHAPES = [((5,), (5, 7)), ((3, 5), (5, 7)), ((2, 3, 5), (5, 7)),
          ((5,), (4, 5, 7)), ((0, 5), (5, 3)), ((3, 0), (0, 4)),
          ((40, 30), (30, 50)), ((3, 20, 30), (30, 40))]


@given(st.integers(0, 10**6),
       st.sampled_from([11, 32003, 1000003, 2147483647]),
       st.sampled_from(SHAPES))
@settings(max_examples=60, deadline=None)
def test_dot_matches_integer_products(seed, p, shapes):
    """The GEMM at p <= 1000003 and the per-product path at 2^31 - 1;
    unreduced operands are reduced on the way in."""
    k = PrimeField(p)
    rng = np.random.default_rng(seed)
    a, b = (rng.integers(-p, 2 * p, size=s) for s in shapes)
    want = np.matmul(a.astype(object), b.astype(object)) % p
    got = dot(k, a, b)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert np.array_equal(got, want.astype(np.int64))


@pytest.mark.parametrize("p", [11, 32003, 1000003, 2147483647])
def test_dot_matrix_times_vector_matches_integer_products(p):
    """b a vector, as in np.matmul: a column that the result drops.  The
    per-product path at 2^31 - 1 once broadcast it along a's rows."""
    k = PrimeField(p)
    assert dot(k, np.array([[1, 2], [3, 4]]), np.array([5, 6])).tolist() \
        == [17 % p, 39 % p]
    rng = np.random.default_rng(p)
    for shape in [(3, 5), (2, 3, 5), (5,)]:
        a = rng.integers(-p, 2 * p, size=shape)
        b = rng.integers(-p, 2 * p, size=5)
        want = np.matmul(a.astype(object), b.astype(object)) % p
        got = dot(k, a, b)
        assert got.shape == np.shape(want)
        assert np.array_equal(got, np.asarray(want, dtype=np.int64))


def test_dot_at_the_largest_prime_holds_a_few_rows_at_a_time():
    """A (6, 75, 285) stack times a 285x210 matrix, as in the Cremona
    inverse search: one temporary of all its products would take 215 MB,
    a block of rows takes 2.9 MB (7.6 MiB peak when measured)."""
    k = PrimeField(2147483647)
    rng = np.random.default_rng(0)
    a = rng.integers(0, k.p, size=(6, 75, 285))
    b = rng.integers(0, k.p, size=(285, 210))
    tracemalloc.start()
    try:
        got = dot(k, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20
    want = np.matmul(a[1, :4].astype(object), b.astype(object)) % k.p
    assert np.array_equal(got[1, :4], want.astype(np.int64))
