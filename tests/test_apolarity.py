import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qplanes.apolarity import (DependentContractions, HilbertFunction,
                               QuadricPlane, _attempt_certificate,
                               _contraction_constraint_matrix,
                               _contraction_system, annihilator,
                               apolar_hilbert_function, contract,
                               plane_from_cubic, recover_cubic)
from qplanes.constructions import (NonGenericConfiguration, initial_system,
                                   random_affine_points)
from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import FormSpace, Matrix
from qplanes.loci import smoothable_block_matrix
from qplanes.poly import Poly, contraction_rows, dot, monomial_basis, parse_poly

K = PrimeField()
V4 = ["x0", "x1", "x2", "x3"]


def _p(s, k=K):
    return parse_poly(s, V4, k)


def _random_form(k, rng, nvars, d):
    return Poly(k, nvars, {e: k.random_element(rng)
                           for e in monomial_basis(nvars, d)})


def test_contract_basic():
    # d/dx0 of x0^3 = 3 x0^2
    assert contract(_p("x0"), _p("x0^3")) == _p("3*x0^2")
    assert contract(_p("x0*x1"), _p("x0^2*x1")) == _p("2*x0")
    assert contract(_p("x1"), _p("x0^2")) == Poly.zero(K, 4)
    assert contract(_p("x0^2"), _p("x0^2")) == _p("2")


def test_contract_bilinear():
    rng = random.Random(0)
    d1, d2 = (_random_form(K, rng, 4, 2) for _ in range(2))
    f = _random_form(K, rng, 4, 3)
    assert contract(d1 + d2, f) == contract(d1, f) + contract(d2, f)


def test_contract_composition():
    rng = random.Random(1)
    a = _random_form(K, rng, 4, 1)
    b = _random_form(K, rng, 4, 1)
    f = _random_form(K, rng, 4, 3)
    assert contract(a * b, f) == contract(a, contract(b, f))


def test_contract_rationals():
    q = RationalField()
    assert contract(_p("x0^2", q), _p("x0^4", q)) == _p("12*x0^2", q)


def test_hilbert_function_trimming():
    hf = HilbertFunction([1, 4, 3, 0, 0])
    assert hf == [1, 4, 3]
    assert sum(hf.values) == 8


def _closure_holds(ideal) -> bool:
    """Every variable times piece d lies in piece d + 1, for each stored
    pair of consecutive degrees."""
    for d, lower in ideal.items():
        upper = ideal.get(d + 1)
        if upper is None:
            continue
        for p in lower.polys():
            for i in range(p.nvars):
                if not upper.contains(Poly.variable(p.field, p.nvars, i) * p):
                    return False
    return True


def test_worked_annihilator_example():
    plane = QuadricPlane.from_polys([_p("x0^2"), _p("x1^2"), _p("x2^2 - x3^2")])
    listed = FormSpace.from_polys([_p(s) for s in (
        "x0*x1", "x0*x2", "x0*x3", "x1*x2", "x1*x3", "x2*x3",
        "x2^2 + x3^2")])
    ann = annihilator(plane.space, 3)
    assert ann[1].dim == 0
    assert ann[2] == listed
    assert ann[3].dim == 20
    assert _closure_holds(ann)
    assert apolar_hilbert_function(plane) == [1, 4, 3]


def test_apolar_hf_random_planes():
    rng = random.Random(2)
    for _ in range(10):
        try:
            plane = QuadricPlane.from_polys(
                [_random_form(K, rng, 4, 2) for _ in range(3)])
        except ValueError:
            continue
        hf = apolar_hilbert_function(plane)
        assert hf == [1, 4, 3]
        assert sum(hf.values) == 8


def test_apolar_hf_degenerate_partials():
    # partials of the plane span only <x0, x1>, so the Hilbert function
    # is smaller than (1, 4, 3)
    plane = QuadricPlane.from_polys([_p("x0^2"), _p("x0*x1"), _p("x1^2")])
    assert apolar_hilbert_function(plane) == [1, 2, 3]


def test_plane_from_cubic_and_recovery():
    rng = random.Random(3)
    for trial in range(5):
        f = _random_form(K, rng, 4, 3)
        ds = [_random_form(K, rng, 4, 1) for _ in range(3)]
        try:
            plane = plane_from_cubic(f, *ds)
        except DependentContractions:
            continue
        got = recover_cubic(plane, seed=trial)
        assert got is not None
        f2, e1, e2, e3 = got
        for op, q in zip((e1, e2, e3), plane.basis_polys()):
            assert contract(op, f2) == q


ORACLE_FIELDS = [PrimeField(11), K, PrimeField(2147483647), RationalField()]


@given(st.integers(0, 10**6), st.sampled_from(ORACLE_FIELDS))
@settings(max_examples=30, deadline=None)
def test_plane_from_cubic_matches_contract(seed, k):
    """The plane of the three contractions, one product of rows, against
    the span of contract(d_i, F); dependent contractions raise."""
    rng = random.Random(seed)
    f = _random_form(k, rng, 4, 3)
    ds = [_random_form(k, rng, 4, 1) for _ in range(3)]
    want = FormSpace.from_polys([contract(d, f) for d in ds], degree=2)
    if want.dim < 3:
        with pytest.raises(DependentContractions):
            plane_from_cubic(f, *ds)
    else:
        assert plane_from_cubic(f, *ds).space == want


def test_plane_from_cubic_refuses_a_form_of_another_degree():
    with pytest.raises(ValueError):
        plane_from_cubic(_p("x0^2"), _p("x1"), _p("x2"), _p("x3"))
    with pytest.raises(ValueError):
        plane_from_cubic(_p("x0^3"), _p("x1^2"), _p("x2"), _p("x3"))


def test_plane_from_cubic_dependent():
    f = _p("x0^3")
    with pytest.raises(DependentContractions):
        plane_from_cubic(f, _p("x1"), _p("x2"), _p("x3"))


def test_recover_cubic_absent_for_generic_plane():
    rng = random.Random(4)
    plane = QuadricPlane.from_polys(
        [_random_form(K, rng, 4, 2) for _ in range(3)])
    assert recover_cubic(plane, budget=50) is None


def test_recover_cubic_coordinate_plane():
    plane = QuadricPlane.from_polys([_p("x0^2"), _p("x1^2"), _p("x2^2")])
    got = recover_cubic(plane)
    assert got is not None
    f2, e1, e2, e3 = got
    for op, q in zip((e1, e2, e3), plane.basis_polys()):
        assert contract(op, f2) == q


# -- contraction through the weight table against the closed form -------

WIDE = [K, PrimeField(2147483647), RationalField()]


def _sparse_form(k, rng, nvars, d):
    """A homogeneous form with about half of its coefficients zero."""
    return Poly(k, nvars, {e: rng.choice([0, k.random_element(rng)])
                           for e in monomial_basis(nvars, d)})


def _reference_contract(d, f):
    """x^alpha o x^beta = beta!/(beta-alpha)! x^(beta-alpha), term by term
    on Python ints (or Fractions)."""
    k = f.field
    out = {}
    for alpha, cd in d.terms.items():
        for beta, cf in f.terms.items():
            if all(a <= b for a, b in zip(alpha, beta)):
                w = math.prod(math.perm(b, a) for a, b in zip(alpha, beta))
                gamma = tuple(b - a for a, b in zip(alpha, beta))
                out[gamma] = k.add(out.get(gamma, k.zero),
                                   k.mul(k.mul(cd, cf), k.of(w)))
    return Poly(k, f.nvars, out)


@given(st.integers(0, 10**6), st.sampled_from(WIDE), st.integers(1, 4),
       st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_contract_matches_closed_form(seed, k, nvars, a, c):
    rng = random.Random(seed)
    d = _sparse_form(k, rng, nvars, a) + _sparse_form(k, rng, nvars, c)
    f = _sparse_form(k, rng, nvars, a + c) + _sparse_form(k, rng, nvars, c)
    assert contract(d, f) == _reference_contract(d, f)


@given(st.integers(0, 10**6), st.sampled_from(WIDE), st.integers(1, 4),
       st.integers(0, 3), st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_contraction_rows_match_closed_form(seed, k, nvars, d1, d2):
    """Includes d2 = 0, the pairing row m! * coeff(m)."""
    rng = random.Random(seed)
    forms = [_sparse_form(k, rng, nvars, d1 + d2) for _ in range(2)]
    rows = contraction_rows(k, np.stack([f.coeff_vector(d1 + d2)
                                         for f in forms]), nvars, d1, d2)
    for f, block in zip(forms, rows):
        for alpha, row in zip(monomial_basis(nvars, d1), block):
            want = _reference_contract(Poly.monomial(k, alpha), f)
            assert Poly.from_coeff_vector(k, nvars, d2, row) == want


@given(st.integers(0, 10**6), st.sampled_from(WIDE), st.integers(0, 2))
@settings(max_examples=20, deadline=None)
def test_constraint_matrix_matches_closed_form(seed, k, d):
    rng = random.Random(seed)
    space = FormSpace.from_polys([_random_form(k, rng, 4, 2)
                                  for _ in range(3)])
    m = _contraction_constraint_matrix(space, d)
    cols = monomial_basis(4, d)
    want = [[_reference_contract(Poly.monomial(k, alpha), q).coefficient(g)
             for alpha in cols]
            for q in space.polys() for g in monomial_basis(4, 2 - d)]
    assert m == Matrix(k, want)


@given(st.integers(0, 10**6), st.sampled_from(WIDE))
@settings(max_examples=20, deadline=None)
def test_contraction_system_matches_closed_form(seed, k):
    rng = random.Random(seed)
    ds = [_sparse_form(k, rng, 4, 1) for _ in range(3)]
    got = _contraction_system([d.coeff_vector(1) for d in ds], k)
    for col, beta in enumerate(monomial_basis(4, 3)):
        image = [_reference_contract(d, Poly.monomial(k, beta)).coeff_vector(2)
                 for d in ds]
        assert list(got[:, col]) == list(np.concatenate(image))


# -- the certificate search is a search of one kernel ---------------------

SEARCH_FIELDS = [PrimeField(11), K, PrimeField(2147483647)]
NAMED_CUBICS = ["x0*x1*x2", "x0^3 + x1^3", "x0^2*x1 + x2^2*x3",
                "x0^3 + x1^3 + x2^3 + x3^3"]


def _operators(w):
    """The operator triple (d1, d2, d3) that a kernel vector w encodes."""
    return [w[8:12], w[4:8], w[0:4]]


def _search_plane(k, rng, family):
    """A plane of partials of a random or a named cubic by three sparse
    linear operators, or the plane of a scaled limit of 8 random points
    of A^4; None when the draw is degenerate.  The partials of x0^3 + x1^3
    span only <x0^2, x1^2>, so that cubic enters plus a random cube of a
    linear form."""
    if family == "limit":
        try:
            return initial_system(random_affine_points(k, 4, 8, rng))[2]
        except NonGenericConfiguration:
            return None
    if family == "random":
        f = _random_form(k, rng, 4, 3)
    else:
        f = _p(family, k)
        if family == "x0^3 + x1^3":
            cube = _random_form(k, rng, 4, 1)
            f = f + cube * cube * cube
    try:
        return plane_from_cubic(f, *(_sparse_form(k, rng, 4, 1)
                                     for _ in range(3)))
    except DependentContractions:
        return None


@given(st.integers(0, 10**6), st.sampled_from(SEARCH_FIELDS),
       st.sampled_from(["random", "limit"] + NAMED_CUBICS))
@settings(max_examples=60, deadline=None)
def test_kernel_vectors_with_independent_operators_are_certificates(
        seed, k, family):
    rng = random.Random(seed)
    plane = _search_plane(k, rng, family)
    assume(plane is not None)
    m = Matrix(k, smoothable_block_matrix(k, plane.space.basis.data))
    kernel = m.right_kernel()
    # the basis rows, dense random combinations and sparse 0/1 ones
    combos = list(kernel.data)
    for _ in range(4):
        for draw in (lambda: k.random_element(rng), lambda: rng.choice([0, 1])):
            coeffs = k.array([draw() for _ in range(kernel.rows)])
            combos.append(dot(k, coeffs, kernel.data))
    for w in combos:
        if Matrix(k, _operators(w)).rank() == 3:
            assert _attempt_certificate(plane, w) is not None
    got = recover_cubic(plane, seed=seed)
    if family != "limit":
        assert got is not None  # partials always have a certificate
    if got is not None:
        f, *ds = got
        for d, q in zip(ds, plane.basis_polys()):
            assert contract(d, f) == q
        w = np.concatenate([d.coeff_vector(1) for d in reversed(ds)])
        assert not dot(k, w, m.data).any()  # w.m = -(m.w), m being skew


def test_recover_cubic_at_the_smallest_prime():
    """A search that interpolates at t = 0..22 fails at p = 11, where
    those abscissae repeat; the kernel search needs no sample points."""
    k = PrimeField(11)
    f = _p("x0^2*x1 + x2^2*x3", k)
    plane = plane_from_cubic(f, *(_p(v, k) for v in V4[:3]))
    got = recover_cubic(plane)
    assert got is not None
    f2, *ds = got
    for d, q in zip(ds, plane.basis_polys()):
        assert contract(d, f2) == q


@pytest.mark.parametrize("p", [11, 32003])
def test_recover_cubic_none_without_independent_kernel_operators(p):
    """A regression fixture: no kernel vector of <x0^2, x0*x1, x1^2> has
    three independent operators, so no certificate exists."""
    k = PrimeField(p)
    plane = QuadricPlane.from_polys([_p(s, k) for s in
                                     ("x0^2", "x0*x1", "x1^2")])
    kernel = Matrix(k, smoothable_block_matrix(
        k, plane.space.basis.data)).right_kernel()
    assert kernel.rows > 0
    assert all(Matrix(k, _operators(w)).rank() < 3 for w in kernel.data)
    assert recover_cubic(plane) is None
