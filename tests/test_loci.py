import random
import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import lcm
from unittest import mock

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qplanes import loci
from qplanes.apolarity import QuadricPlane, contract, plane_from_cubic
from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import Matrix, pfaffian
from qplanes.poly import (Poly, dot, monomial_basis, monomial_values,
                          mult_table, parse_poly, power_products)

K = PrimeField()
V4 = ["x0", "x1", "x2", "x3"]


def _p(s, k=K):
    return parse_poly(s, V4, k)


def _random_form(k, rng, nvars, d):
    return Poly(k, nvars, {e: k.random_element(rng)
                           for e in monomial_basis(nvars, d)})


def _random_plane(rng, k=K):
    while True:
        try:
            return QuadricPlane.from_polys(
                [_random_form(k, rng, 4, 2) for _ in range(3)])
        except ValueError:
            continue


def _matrix_to_quadric(a, k):
    """x^T A x for a symmetric 4x4 matrix A."""
    terms = {}
    for i in range(4):
        for j in range(i, 4):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = a[i][j] if i == j else k.mul(k.of(2), a[i][j])
    return Poly(k, 4, terms)


def test_quadric_matrix_round_trip():
    rng = random.Random(0)
    for _ in range(10):
        q = _random_form(K, rng, 4, 2)
        a = loci.quadric_to_matrix(q)
        assert np.array_equal(a, a.T)
        assert _matrix_to_quadric(a, K) == q


def test_quadric_matrix_evaluation():
    # q(x) = x^T A x for a few explicit vectors
    rng = random.Random(1)
    q = _random_form(K, rng, 4, 2)
    a = loci.quadric_to_matrix(q)
    for _ in range(5):
        x = K.array([K.random_element(rng) for _ in range(4)])
        assert q.evaluate(tuple(x)) == K.reduce(x @ a @ x)


def test_symmetric_rank():
    assert loci.symmetric_rank(_p("x0^2")) == 1
    assert loci.symmetric_rank(_p("x0*x1")) == 2
    assert loci.symmetric_rank(_p("x0^2 + x1^2 + x2^2 + x3^2")) == 4


def _block_matrix_of(qs):
    """The certificate matrix of three quadrics through quadric_to_matrix
    of each, and its Pfaffian by pfaffian."""
    k = qs[0].field
    a1, a2, a3 = (loci.quadric_to_matrix(q) for q in qs)
    z = k.zeros((4, 4))
    m = Matrix(k, np.block([[z, a1, k.reduce(-a2)],
                            [k.reduce(-a1), z, a3],
                            [a2, k.reduce(-a3), z]]))
    return m, pfaffian(m)


def _rows(qs):
    return np.stack([q.coeff_vector(2) for q in qs])


def test_block_matrix_is_skew():
    """Built from coefficient rows, alone or stacked, it is the block
    matrix of the quadric_to_matrix of each quadric."""
    rng = random.Random(2)
    for k in (K, PrimeField(2147483647), RationalField()):
        triples = [[_random_form(k, rng, 4, 2) for _ in range(3)]
                   for _ in range(2)]
        stack = loci.smoothable_block_matrix(k, np.stack(
            [_rows(qs) for qs in triples]))
        assert stack.shape == (2, 12, 12)
        for qs, got in zip(triples, stack):
            m = Matrix(k, loci.smoothable_block_matrix(k, _rows(qs)))
            assert m.is_skew()
            assert m == Matrix(k, got) == _block_matrix_of(qs)[0]


def test_pfaffian_scaling_in_each_slot():
    rng = random.Random(3)
    qs = [_random_form(K, rng, 4, 2) for _ in range(3)]
    base = _block_matrix_of(qs)[1]
    lam = K.of(7)
    for slot in range(3):
        scaled = _rows(qs)
        scaled[slot] = K.reduce(lam * scaled[slot])
        assert pfaffian(Matrix(K, loci.smoothable_block_matrix(K, scaled))) \
            == K.mul(K.mul(lam, lam), base)


def test_pfaffian_vanishes_on_partial_planes():
    rng = random.Random(4)
    for _ in range(10):
        f = _random_form(K, rng, 4, 3)
        ds = [_random_form(K, rng, 4, 1) for _ in range(3)]
        try:
            plane = plane_from_cubic(f, *ds)
        except Exception:
            continue
        assert loci.smoothable_pfaffian(plane) == K.zero


def test_lperp_dimension_and_annihilation():
    rng = random.Random(5)
    plane = _random_plane(rng)
    perp = loci.lperp(plane)
    assert perp.dim == 7
    for d in perp.polys():
        for q in plane.basis_polys():
            assert contract(d, q).is_zero()


def test_jump_dimension_generic_and_divisor():
    rng = random.Random(6)
    plane = _random_plane(rng)
    assert loci.jump_dimension(plane)[0] == 0
    f = _random_form(K, rng, 4, 3)
    ds = [_random_form(K, rng, 4, 1) for _ in range(3)]
    special = plane_from_cubic(f, *ds)
    dim, cubics = loci.jump_dimension(special)
    assert dim == 3
    assert len(cubics) == 3
    # kernel cubics are genuine relations among the perpendicular quadrics
    perp = loci.lperp(special).polys()
    for c in cubics:
        assert c.substitute_polys(perp).is_zero()


def test_secant_generic_false():
    rng = random.Random(7)
    for _ in range(5):
        hit, cert = loci.secant_intersects(_random_plane(rng))
        assert not hit
        got, full = list(cert["piece_dims"].values())[-1]
        assert got == full


def _secant_plane(rng, k=K):
    """A plane through l1*l2, as criterion 4 builds it."""
    l1, l2 = (_random_form(k, rng, 4, 1) for _ in range(2))
    return QuadricPlane.from_polys(
        [l1 * l2, _random_form(k, rng, 4, 2), _random_form(k, rng, 4, 2)])


def _rank1_plane(rng, k=K):
    l1 = _random_form(k, rng, 4, 1)
    return QuadricPlane.from_polys(
        [l1 * l1, _random_form(k, rng, 4, 2), _random_form(k, rng, 4, 2)])


PLANES = {"general": _random_plane, "secant": _secant_plane,
          "rank1": _rank1_plane}


def _dict_piece_rows(gens, d):
    """The rows x^m g of the degree-d piece, built with dict Poly
    products."""
    k = gens[0].field
    return [(Poly.monomial(k, m) * g).coeff_vector(d)
            for g in gens if not g.is_zero()
            for m in monomial_basis(g.nvars, d - g.degree())]


def _dict_piece_dim(gens, d):
    """Piece dimension from rows built with dict Poly products."""
    rows = _dict_piece_rows(gens, d)
    return Matrix(gens[0].field, rows).rank() if rows else 0


def _minor_piece(plane, d):
    """The degree-d piece of all sixteen minors in point form: their
    values at the lattice points of size d, generators x points."""
    k = plane.field
    hessians = loci._hessians(k, loci.integral_rows(k, plane.space.basis.data))
    return loci.ideal_piece_values(k, 3, 3, d,
                                   loci._minor_values(k, hessians, d))


def _two_rank2_plane(rng, k=K):
    """A plane through l1*l2 and l3*l4: the minors cut two points."""
    l1, l2, l3, l4 = (_random_form(k, rng, 4, 1) for _ in range(4))
    return QuadricPlane.from_polys([l1 * l2, l3 * l4,
                                    _random_form(k, rng, 4, 2)])


def _null_minor_plane(rng, k=K):
    """<x0^2, x0 x1, x1^2>: every 3x3 minor vanishes."""
    return QuadricPlane.from_polys([_p("x0^2", k), _p("x0*x1", k),
                                    _p("x1^2", k)])


MINOR_PLANES = {**PLANES, "two": _two_rank2_plane, "null": _null_minor_plane}
FIELDS = [PrimeField(11), K, PrimeField(2147483647), RationalField()]


@given(st.integers(0, 10**6), st.sampled_from(sorted(PLANES)))
@settings(max_examples=12, deadline=None)
def test_minor_piece_rank_matches_dict_rows(seed, kind):
    plane = PLANES[kind](random.Random(seed))
    minors = _dict_minor_cubics(plane)
    for d in range(3, 10):
        assert Matrix(K, _minor_piece(plane, d)).rank() == \
            _dict_piece_dim(minors, d)


@given(st.integers(0, 10**6), st.sampled_from(sorted(MINOR_PLANES)),
       st.sampled_from(FIELDS))
@settings(max_examples=30, deadline=None)
def test_minor_piece_in_point_form_matches_the_coefficient_piece(seed, kind,
                                                                  k):
    """The piece in point form has the rank of the dict-built coefficient
    piece, and its right kernel mu gives the coefficient kernel: the RREF
    of mu V_d, V_d the degree-d monomials at the lattice points, is the
    right kernel of the dict rows."""
    try:
        plane = MINOR_PLANES[kind](random.Random(seed), k)
    except ValueError:  # dependent forms, at p = 11
        assume(False)
    minors = _dict_minor_cubics(plane)
    dims = loci.secant_intersects(plane)[1]["piece_dims"]
    for d in range(3, loci.MACAULAY_BOUND + 1):
        piece = Matrix(k, _minor_piece(plane, d))
        rank = piece.rank()
        assert rank == _dict_piece_dim(minors, d)
        if d in dims:  # the degrees secant_intersects checked
            assert dims[d] == (rank, len(monomial_basis(3, d)))
        v = monomial_values(k, 3, d, loci.lattice_points(k, 3, d))
        rows = _dict_piece_rows(minors, d)
        want = (Matrix(k, rows).right_kernel() if rows
                else Matrix.identity(k, len(v)))
        assert Matrix(k, dot(k, piece.right_kernel().data, v)).rref()[0] \
            == want


def test_ideal_piece_values_rank_rationals():
    q = RationalField()
    rng = random.Random(18)
    gens = [_random_form(q, rng, 3, 2) for _ in range(2)] + [Poly.zero(q, 3)]
    rows = np.stack([g.coeff_vector(2) for g in gens])
    for d in range(2, 6):
        values = dot(q, monomial_values(q, 3, 2, loci.lattice_points(q, 3, d)),
                     rows.T)
        piece = loci.ideal_piece_values(q, 3, 2, d, values)
        assert Matrix(q, piece).rank() == _dict_piece_dim(gens, d)


def test_secant_early_exit_matches_degrees_7_to_9():
    """The ascending check stops at the first full piece; its verdict
    must equal fullness at the Macaulay bound 7 and above."""
    rng = random.Random(19)
    for kind in ["general"] * 3 + ["secant"] * 3 + ["rank1"] * 2:
        plane = PLANES[kind](rng)
        hit, cert = loci.secant_intersects(plane)
        assert hit == (kind != "general")
        dims = cert["piece_dims"]
        assert list(dims) == list(range(3, 3 + len(dims)))
        assert all(got < full for got, full in list(dims.values())[:-1])
        minors = _dict_minor_cubics(plane)
        for d in (7, 8, 9):
            full = len(monomial_basis(3, d))
            assert hit == (_dict_piece_dim(minors, d) < full)


def test_secant_detects_rank2():
    rng = random.Random(8)
    for _ in range(5):
        l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
        q = l1 * l2
        plane = QuadricPlane.from_polys(
            [q, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)])
        hit, cert = loci.secant_intersects(plane)
        assert hit
        elem = cert["element"]
        assert elem is not None
        assert plane.space.contains(elem)
        assert loci.symmetric_rank(elem) <= 2


def test_secant_detects_rank1():
    rng = random.Random(9)
    l1 = _random_form(K, rng, 4, 1)
    plane = QuadricPlane.from_polys(
        [l1 * l1, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)])
    hit, _ = loci.secant_intersects(plane)
    assert hit


def test_rank_le2_adapted_change():
    rng = random.Random(10)
    l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
    q = l1 * l2
    got = loci.rank_le2_adapted_change(q)
    assert got is not None
    change, rank, c = got
    assert rank == 2
    moved = q.substitute_linear(change)
    assert moved == Poly(K, 4, {(1, 1, 0, 0): c})
    # rank one
    got1 = loci.rank_le2_adapted_change(l1 * l1)
    change1, rank1, c1 = got1
    assert rank1 == 1
    assert (l1 * l1).substitute_linear(change1) == Poly(K, 4, {(2, 0, 0, 0): c1})


def test_witness_sextics():
    rng = random.Random(11)
    l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
    q = l1 * l2
    plane = QuadricPlane.from_polys(
        [q, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)])
    change, _, _ = loci.rank_le2_adapted_change(q)
    witnesses = loci.rank2_sextic_witness(plane, q, change)
    assert [w.terms for w in witnesses] == [
        {(5, 1, 0, 0): 1}, {(3, 3, 0, 0): 1}, {(1, 5, 0, 0): 1}]
    assert loci.jump_dimension(plane)[0] >= 3


def test_witness_sextics_rejects_high_rank():
    rng = random.Random(12)
    plane = _random_plane(rng)
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    with pytest.raises(ValueError):
        loci.rank2_sextic_witness(plane, plane.basis_polys()[0], ident)


def test_classify_verdicts():
    rng = random.Random(13)
    assert loci.classify(_random_plane(rng)).verdict == "general"
    f = _random_form(K, rng, 4, 3)
    ds = [_random_form(K, rng, 4, 1) for _ in range(3)]
    c = loci.classify(plane_from_cubic(f, *ds))
    assert c.verdict == "smoothable-divisor"
    assert c.jump_dim == 3
    both = loci.classify(QuadricPlane.from_polys(
        [_p("x0^2"), _p("x1^2"), _p("x2^2")]))
    assert both.verdict == "both"
    l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
    sec = loci.classify(QuadricPlane.from_polys(
        [l1 * l2, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)]))
    assert sec.verdict == "secant"
    assert sec.jump_dim >= 3
    assert sec.certificates["witness_sextics"] is not None


def test_classify_consistency_invariant():
    rng = random.Random(14)
    for _ in range(10):
        c = loci.classify(_random_plane(rng))
        on_divisor = c.pfaffian_value == K.zero
        assert (c.jump_dim > 0) == (on_divisor or c.secant_hit)


def test_classify_gl_invariance():
    from qplanes.constructions import _random_gl
    rng = random.Random(15)
    for plane in [_random_plane(rng),
                  plane_from_cubic(_random_form(K, rng, 4, 3),
                                   *[_random_form(K, rng, 4, 1)
                                     for _ in range(3)])]:
        g = _random_gl(K, 4, rng)
        moved = QuadricPlane.from_polys(
            [q.substitute_linear(g) for q in plane.basis_polys()])
        c1, c2 = loci.classify(plane), loci.classify(moved)
        assert c1.verdict == c2.verdict
        assert c1.jump_dim == c2.jump_dim


def test_classify_rationals():
    q = RationalField()
    rng = random.Random(16)
    plane = QuadricPlane.from_polys(
        [_random_form(q, rng, 4, 2) for _ in range(3)])
    c = loci.classify(plane)
    assert c.verdict == "general"
    assert c.jump_dim == 0


def _integer_form(rng, d):
    return {e: rng.randrange(-50, 51) for e in monomial_basis(4, d)}


def _special_plane(kind, k, forms):
    ps = [Poly(k, 4, f) for f in forms]
    if kind == "smoothable":
        return plane_from_cubic(*ps)
    return QuadricPlane.from_polys([ps[0] * ps[1]] + ps[2:])


@pytest.mark.parametrize("kind,seed", [("smoothable", 21), ("secant", 22)])
def test_classify_rationals_on_special_planes(kind, seed):
    """Over Q the jump kernel is exact, and reduced mod p it is the
    kernel found over F_p for the reduced plane."""
    rng = random.Random(seed)
    degrees = [3, 1, 1, 1] if kind == "smoothable" else [1, 1, 2, 2]
    forms = [_integer_form(rng, d) for d in degrees]
    q = RationalField()
    plane = _special_plane(kind, q, forms)
    c = loci.classify(plane)
    assert c.jump_dim == 3
    jump = loci.jump_matrix(plane).data
    for cubic in c.certificates["cubics"]:
        assert not np.any(jump.dot(cubic.coeff_vector(3)))
    cp = loci.classify(_special_plane(kind, K, forms))
    assert (cp.verdict, cp.jump_dim) == (c.verdict, c.jump_dim)
    assert cp.verdict == ("smoothable-divisor" if kind == "smoothable"
                          else "secant")
    assert [Poly(K, 7, g.terms) for g in c.certificates["cubics"]] == \
        cp.certificates["cubics"]


def _fraction_power_products(forms, d2):
    """The Fraction build of power_products that the integer jump matrix
    replaced: the oracle.  Level 0 is [1], and every product and sum is
    taken in the forms' own Fraction coefficients."""
    k, n, nvars = forms[0].field, len(forms), forms[0].nvars
    d = max(f.degree() for f in forms)
    vecs = [f.coeff_vector(d) for f in forms]
    prev = {(0,) * n: k.array([k.one])}
    for level in range(1, d2 + 1):
        cur = {}
        for e in monomial_basis(n, level):
            i = next(t for t, ei in enumerate(e) if ei > 0)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            a, b, d1 = prev[rest], vecs[i], d * (level - 1)
            out = k.zeros(len(monomial_basis(nvars, d1 + d)))
            np.add.at(out, mult_table(nvars, d1, d), a[:, None] * b[None, :])
            cur[e] = out
        prev = cur
    return np.stack([prev[e] for e in monomial_basis(n, d2)])


def _sextic_values(k):
    """V: the 84 sextic monomials at each point of loci.sextic_points."""
    return monomial_values(k, 4, 6, monomial_basis(4, 6))


def _as_ints(a):
    """An object array of integral Fractions as Python ints."""
    assert all(x.denominator == 1 for x in a.flat)
    return np.frompyfunc(int, 1, 1)(a)


def _smoothable_plane(rng, k=K):
    return plane_from_cubic(_random_form(k, rng, 4, 3),
                            *(_random_form(k, rng, 4, 1) for _ in range(3)))


@pytest.mark.parametrize("p", [11, 2147483647])
def test_sextic_points_are_unisolvent(p):
    """V has rank 84, and its block check passes; a singular V fails it."""
    k = PrimeField(p)
    assert Matrix(k, _sextic_values(k)).rank() == 84
    quad = loci.sextic_points(k)
    assert np.array_equal(quad, monomial_values(k, 4, 2, monomial_basis(4, 6)))
    singular = _sextic_values(k)
    singular[:, 1] = 0
    with mock.patch.object(loci, "monomial_values",
                           lambda k, nvars, d, pts: singular):
        with pytest.raises(ArithmeticError):
            loci.lattice_points.__wrapped__(k, 4, 6)


# every (nvars, e) of a lattice the package evaluates at: the minor
# pieces, the ninth base point, the member check, the octic quadrics and
# the jump matrix
LATTICES = [(3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 6)]


@pytest.mark.parametrize("nvars,e", LATTICES)
@pytest.mark.parametrize("p", [11, 31, 2147483647])
def test_lattice_points_are_unisolvent(nvars, e, p):
    """The points are the exponents of monomial_basis(nvars, e), their
    V_e has full rank, and the block check accepts them."""
    k = PrimeField(p)
    pts = loci.lattice_points(k, nvars, e)
    assert pts.tolist() == [list(m) for m in monomial_basis(nvars, e)]
    v = monomial_values(k, nvars, e, pts)
    assert Matrix(k, v).rank() == len(pts)


@pytest.mark.parametrize("nvars,e", LATTICES)
def test_lattice_points_over_rationals_are_python_ints(nvars, e):
    pts = loci.lattice_points(RationalField(), nvars, e)
    assert all(type(x) is int for x in pts.flat)
    values = monomial_values(RationalField(), nvars, e, pts)
    assert all(type(x) is int for x in values.flat)


@pytest.mark.parametrize("size", [1, 2, 3])
def test_lattice_points_refuse_a_singular_block(size):
    """A V_8 in 3 variables whose diagonal block of the support
    {0, ..., size - 1} has a zero column is refused."""
    k = PrimeField(31)
    pts = np.array(monomial_basis(3, 8))
    singular = monomial_values(k, 3, 8, pts)
    on = np.all((pts > 0) == (np.arange(3) < size), axis=1)
    singular[:, np.flatnonzero(on)[0]] = 0
    with mock.patch.object(loci, "monomial_values",
                           lambda k, nvars, d, pts: singular):
        with pytest.raises(ArithmeticError):
            loci.lattice_points.__wrapped__(k, 3, 8)


@given(st.integers(0, 10**6),
       st.sampled_from(sorted(PLANES) + ["smoothable"]),
       st.sampled_from([PrimeField(11), K, PrimeField(2147483647),
                        RationalField()]))
@settings(max_examples=24, deadline=None)
def test_evaluation_jump_matrix_is_v_times_the_coefficient_build(seed, kind,
                                                                  k):
    """J_eval = V J exactly, J the coefficient build (the oracle), and
    the two have one RREF.  Over Q both sides are scaled by c^3."""
    rng = random.Random(seed)
    try:
        plane = {**PLANES, "smoothable": _smoothable_plane}[kind](rng, k)
    except ValueError:  # dependent forms, at p = 11
        assume(False)
    perp = loci.lperp(plane)
    coeff = power_products(perp.polys(), 3).T
    v = _sextic_values(k)
    if k.kind == "rationals":
        c = lcm(*(x.denominator for x in perp.basis.data.flat))
        coeff, v = _as_ints(c ** 3 * coeff), _as_ints(v)
        want = v.dot(coeff)
    else:
        want = dot(k, v, coeff)
    jump = loci.jump_matrix(plane)
    assert np.array_equal(jump.data, want)
    assert jump.rref() == Matrix(k, coeff).rref()


def _rational_plane(kind, rng):
    q = RationalField()
    while True:
        forms = [_integer_form(rng, d) for d in
                 {"general": [2, 2, 2], "secant": [1, 1, 2, 2],
                  "smoothable": [3, 1, 1, 1]}[kind]]
        try:
            if kind == "general":
                return QuadricPlane.from_polys([Poly(q, 4, f) for f in forms])
            return _special_plane(kind, q, forms)
        except ValueError:
            continue


@given(st.integers(0, 10**6), st.sampled_from(["general", "secant",
                                              "smoothable"]))
@settings(max_examples=9, deadline=None)
def test_integer_jump_matrix_matches_fraction_oracle(seed, kind):
    """Over Q the jump matrix is V c^3 J in Python ints, with V the
    sextic monomials at the points of loci.sextic_points and c the common
    denominator of the perpendicular basis, and it has the kernel of J."""
    q = RationalField()
    plane = _rational_plane(kind, random.Random(seed))
    perp = loci.lperp(plane)
    oracle = _fraction_power_products(perp.polys(), 3).T
    c = lcm(*(x.denominator for x in perp.basis.data.flat))
    jump = loci.jump_matrix(plane)
    assert all(type(x) is int for x in jump.data.flat)
    want = _as_ints(_sextic_values(q)).dot(_as_ints(c ** 3 * oracle))
    assert np.array_equal(jump.data, want)
    assert jump.right_kernel() == Matrix(RationalField(), oracle).right_kernel()


def test_pencil_experiment_degrees():
    rep = loci.pencil_experiment(K, seed=0)
    assert rep.degrees == (36, 2, 10)
    assert rep.factorization_ok
    assert rep.det_poly.degree() == 36
    assert rep.pf_poly.degree() == 2
    assert rep.s_poly.degree() == 10
    # det = c * pf^3 * s^3 exactly
    pf3 = rep.pf_poly * rep.pf_poly * rep.pf_poly
    s3 = rep.s_poly * rep.s_poly * rep.s_poly
    prod = pf3 * s3
    lead = K.div(rep.det_poly.leading(), prod.leading())
    assert prod.scale(lead) == rep.det_poly


def test_pencil_determinism():
    a = loci.pencil_experiment(K, seed=5)
    b = loci.pencil_experiment(K, seed=5)
    assert a.det_poly == b.det_poly and a.pf_poly == b.pf_poly


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pencil_pfaffians_match_one_pfaffian_per_sample(seed):
    """The stacked Pfaffians of the pencil are, at every sample t, the
    Pfaffian of the certificate matrix of q1, q2 and u + t w as Polys."""
    rng = random.Random(seed)
    drawn = None
    while drawn is None:
        drawn = loci._pencil_frame(K, rng)
    q1, q2, u, w = (Poly.from_coeff_vector(K, 4, 2, row) for row in drawn[0])
    loop = [_block_matrix_of([q1, q2, u + w.scale(t)])[1]
            for t in range(loci.PF_SAMPLES)]
    assert loci._pencil_pfaffians(K, drawn[0]) == loop


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pencil_dets_match_per_sample_jump_matrices(seed):
    """The stacked build and det_stack give, at every sample t, the det
    of the jump matrix built from the frame at t alone."""
    drawn = None
    rng = random.Random(seed)
    while drawn is None:
        drawn = loci._pencil_frame(K, rng)
    _, base, dirv = drawn
    loop = [loci.jump_matrix_from_quadrics(K, K.reduce(base + t * dirv))
            .det() for t in range(loci.DET_SAMPLES)]
    assert loci._pencil_dets(K, base, dirv) == loop


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pencil_dets_are_det_v_times_the_coefficient_dets(seed):
    """Each of the 40 dets is det V times the det of the coefficient
    build J(t), so the det polynomial is scaled by a nonzero constant."""
    rng = random.Random(seed)
    drawn = None
    while drawn is None:
        drawn = loci._pencil_frame(K, rng)
    _, base, dirv = drawn
    det_v = Matrix(K, _sextic_values(K)).det()
    assert det_v != 0
    oracle = [Matrix(K, power_products(
        [Poly.from_coeff_vector(K, 4, 2, K.reduce(b + t * d))
         for b, d in zip(base, dirv)], 3).T).det()
        for t in range(loci.DET_SAMPLES)]
    assert loci._pencil_dets(K, base, dirv) == \
        [det_v * x % K.p for x in oracle]


def test_pencil_peak_allocation_is_bounded():
    """The jump matrices are stacked DET_BATCH at a time, not all 40."""
    loci.pencil_experiment(K, seed=0)  # fill the cached index tables
    tracemalloc.start()
    try:
        loci.pencil_experiment(K, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


def test_pencil_refuses_small_fields():
    with pytest.raises(ValueError):
        loci.pencil_experiment(PrimeField(37), seed=0)
    with pytest.raises(ValueError):
        loci.pencil_experiment(RationalField(), seed=0)


# -- the dense minors against the dict Laplace expansion ----------------

def _det3(m):
    return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))


def _dict_minor_cubics(plane):
    """The sixteen minors through dict Poly products."""
    k = plane.field
    mats = [loci.quadric_to_matrix(q) for q in plane.basis_polys()]
    entry = [[Poly(k, 3, {(1, 0, 0): mats[0][i][j], (0, 1, 0): mats[1][i][j],
                          (0, 0, 1): mats[2][i][j]})
              for j in range(4)] for i in range(4)]
    triples = list(combinations(range(4), 3))
    return [_det3([[entry[i][j] for j in cols] for i in rows])
            for rows in triples for cols in triples]


@given(st.integers(0, 10**6), st.sampled_from(sorted(PLANES)),
       st.sampled_from([K, PrimeField(2147483647), RationalField()]))
@settings(max_examples=24, deadline=None)
def test_minor_values_match_dict_expansion(seed, kind, k):
    """The piece of degree 3 holds the sixteen minors at the ten lattice
    points: 8 c^3 times the dict minors there, c the common denominator
    of the basis over Q (1 over F_p)."""
    plane = PLANES[kind](random.Random(seed), k)
    basis = plane.space.basis.data
    scale = 8
    if k.kind == "rationals":
        scale *= lcm(*(x.denominator for x in basis.flat)) ** 3
    want = [[k.mul(k.of(scale), m.evaluate(tuple(pt)))
             for pt in monomial_basis(3, 3)]
            for m in _dict_minor_cubics(plane)]
    assert np.array_equal(_minor_piece(plane, 3), k.array(want))


def test_classify_witnesses_on_secant_and_rank1_planes():
    """Every secant or rank-1 plane gets an element, and witness sextics
    whenever that element has an adapted change over F_p."""
    rng = random.Random(20)
    adapted_seen = 0
    for kind in ["secant"] * 6 + ["rank1"] * 4:
        c = loci.classify(PLANES[kind](rng))
        assert c.secant_hit
        elem = c.certificates["secant"]["element"]
        assert elem is not None
        adapted = loci.rank_le2_adapted_change(elem)
        if adapted is not None:
            adapted_seen += 1
            assert c.certificates["witness_sextics"] is not None
        if kind == "rank1":
            assert adapted is not None
    assert adapted_seen >= 4


def _minor_zeros(plane):
    """The points of P^2(F_p), last nonzero coordinate 1, at which all 16
    minors vanish, found by evaluating the minors at every point."""
    p = plane.field.p
    powers = np.arange(p)[:, None] ** np.arange(4) % p
    grid = np.ones((p, p), dtype=bool)  # the points (x, y, 1)
    line = np.ones(p, dtype=bool)  # the points (x, 1, 0)
    corner = True  # the point (1, 0, 0)
    for minor in _dict_minor_cubics(plane):
        c = np.zeros((4, 4, 4), dtype=np.int64)  # c[i, j, l] at x^i y^j z^l
        for e, v in minor.terms.items():
            c[e] = v
        grid &= powers @ (c.sum(axis=2) % p) % p @ powers.T % p == 0
        line &= powers @ (c[:, :, 0].sum(axis=1) % p) % p == 0
        corner = corner and bool(c[3, 0, 0] == 0)
    return ([(int(x), int(y), 1) for x, y in np.argwhere(grid)]
            + [(int(x), 1, 0) for x in np.flatnonzero(line)]
            + [(1, 0, 0)] * corner)


@given(st.integers(0, 10**6), st.sampled_from(["secant", "rank1"]),
       st.sampled_from([101, 1009]))
@settings(max_examples=20, deadline=None)
def test_rank_le2_element_is_a_zero_of_the_minors(seed, kind, p):
    """The element read off the minor ideal is the combination of the
    plane's basis at a point of the brute-force zero set of the minors,
    and has rank <= 2.  When the minors cut one point (codimension 1 for
    a plane through l1*l2, the fat point of length 3 for one through
    l^2), the element is found and the zero set over F_p is that point."""
    k = PrimeField(p)
    plane = PLANES[kind](random.Random(seed), k)
    hit, cert = loci.secant_intersects(plane)
    assert hit
    elem, zeros = cert["element"], _minor_zeros(plane)
    got, full = cert["piece_dims"][loci.MACAULAY_BOUND]
    if full - got == {"secant": 1, "rank1": 3}[kind]:
        assert elem is not None and len(zeros) == 1
    if elem is None:
        return
    assert loci.symmetric_rank(elem) <= 2
    basis = plane.space.basis.data
    pivots = [int(np.flatnonzero(row)[0]) for row in basis]
    lam = [elem.coeff_vector(2)[c] for c in pivots]
    last = next(x for x in reversed(lam) if x != 0)
    lam = tuple(k.div(x, last) for x in lam)
    assert lam in zeros
    assert elem.scale(k.inv(last)) == Poly.from_coeff_vector(
        k, 4, 2, k.reduce(np.array(lam) @ basis))


@pytest.mark.parametrize("kind", ["secant", "rank1"])
def test_rank_le2_element_over_rationals(kind):
    """Over Q the element comes from the minor ideal as over F_p, and
    l1*l2 with rational l1, l2 and l^2 give witness sextics."""
    rng = random.Random(23)
    forms = [_integer_form(rng, d) for d in [1, 1, 2, 2]]
    if kind == "rank1":
        forms[1] = forms[0]
    plane = _special_plane("secant", RationalField(), forms)
    c = loci.classify(plane)
    assert c.secant_hit
    elem = c.certificates["secant"]["element"]
    assert elem is not None and plane.space.contains(elem)
    assert loci.symmetric_rank(elem) == (2 if kind == "secant" else 1)
    assert c.certificates["witness_sextics"] is not None


def test_rank2_element_irrational_over_q_gets_no_witness():
    """x0^2 - 2 x1^2 splits only over Q(sqrt 2): no adapted change."""
    rng = random.Random(24)
    q = RationalField()
    elem = Poly(q, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -2})
    plane = QuadricPlane.from_polys(
        [elem] + [Poly(q, 4, _integer_form(rng, 2)) for _ in range(2)])
    c = loci.classify(plane)
    assert c.secant_hit
    found = c.certificates["secant"]["element"]
    assert found is not None and loci.symmetric_rank(found) == 2
    assert loci.rank_le2_adapted_change(found) is None
    assert c.certificates["witness_sextics"] is None


@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(-30, 30),
       st.integers(-30, 30), st.integers(1, 9),
       st.sampled_from([K, RationalField()]))
@settings(max_examples=60, deadline=None)
def test_isotropic_pair_of_a_split_form(a, b, c, d, den, k):
    """q11 s^2 + 2 q12 s t + q22 t^2 = 2 (a s + b t)(c s + d t) / den with
    independent factors gets two independent isotropic vectors, also
    when q11 or q22 is 0."""
    assume(k.of(a * d - b * c) != k.zero)
    q11, q12, q22 = (k.div(k.of(x), k.of(den))
                     for x in (2 * a * c, a * d + b * c, 2 * b * d))
    pair = loci._isotropic_pair(k, q11, q12, q22)
    assert pair is not None
    for s, t in pair:
        assert k.add(k.add(k.mul(q11, k.mul(s, s)),
                           k.mul(k.of(2), k.mul(q12, k.mul(s, t)))),
                     k.mul(q22, k.mul(t, t))) == k.zero
    (s1, t1), (s2, t2) = pair
    assert k.sub(k.mul(s1, t2), k.mul(s2, t1)) != k.zero


def test_isotropic_pair_needs_a_rational_square_root():
    q = RationalField()
    assert loci._isotropic_pair(q, q.of(1), q.zero, q.of(-2)) is None
    assert loci._isotropic_pair(q, q.of(1), q.zero, q.of(1)) is None
    assert loci._isotropic_pair(q, Fraction(1, 2), q.zero, q.of(-1)) is None
    # (s - 3t)(s + 3t) / 4: the discriminant 9/16 has the root 3/4
    assert loci._isotropic_pair(q, Fraction(1, 4), q.zero,
                                Fraction(-9, 4)) == (
        ((Fraction(3), q.one), (Fraction(-3), q.one)))
