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

from qplanes import battery, constructions, linalg, loci
from qplanes.apolarity import QuadricPlane, contract, plane_from_cubic
from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import FormSpace, Matrix, pfaffian
from qplanes.poly import (Poly, compose, dense_mul, dot, monomial_basis,
                          monomial_index, monomial_values, mult_table,
                          parse_poly, power_products)
from qplanes.unipoly import interpolate

from test_linalg import _images_mod

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


def _jump_matrix(plane):
    """The jump matrix V J of the plane's perpendicular space, over Q
    c^3 V J in Python ints (integral_rows)."""
    k = plane.field
    return loci.jump_matrix_from_quadrics(
        k, loci.integral_rows(k, loci.lperp(plane).basis.data))


def test_jump_dimension_generic_and_divisor():
    rng = random.Random(6)
    plane = _random_plane(rng)
    assert loci.jump_dimension(loci.lperp(plane))[0] == 0
    f = _random_form(K, rng, 4, 3)
    ds = [_random_form(K, rng, 4, 1) for _ in range(3)]
    perp = loci.lperp(plane_from_cubic(f, *ds))
    dim, kernel = loci.jump_dimension(perp)
    assert dim == 3
    assert kernel.rows == 3 and kernel.rref()[0] == kernel
    # kernel cubics are genuine relations among the perpendicular quadrics
    for row in kernel.data:
        assert Poly.from_coeff_vector(K, 7, 3, row).substitute_polys(
            perp.polys()).is_zero()


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
        assert cert["element_row"] is not None
        elem = Poly.from_coeff_vector(K, 4, 2, cert["element_row"])
        assert plane.space.contains(elem)
        assert loci.symmetric_rank(elem) <= 2


def test_secant_detects_rank1():
    rng = random.Random(9)
    l1 = _random_form(K, rng, 4, 1)
    plane = QuadricPlane.from_polys(
        [l1 * l1, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)])
    hit, _ = loci.secant_intersects(plane)
    assert hit


def _nonzero_multiple(k, a, b):
    """Whether the row a is c * b for some nonzero c."""
    i = int(np.flatnonzero(b != k.zero)[0])
    c = k.div(a[i], b[i])
    return c != k.zero and np.array_equal(k.reduce(c * b), a)


def _adapted_product(k, coords, rank):
    """The row of C_0 * C_1 (rank 2) or C_0^2 (rank 1)."""
    return dense_mul(k, coords[0], coords[rank - 1], 4, 1, 1)


def test_rank_le2_adapted_change():
    """C is invertible and q is a nonzero multiple of C_0 * C_1 (rank 2)
    or C_0^2 (rank 1)."""
    rng = random.Random(10)
    l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
    for q, rank in [(l1 * l2, 2), (l1 * l1, 1)]:
        row = q.coeff_vector(2)
        coords, got = loci.rank_le2_adapted_change(K, row)
        assert got == rank
        assert Matrix(K, coords).rank() == 4
        assert _nonzero_multiple(K, row, _adapted_product(K, coords, rank))


def _random_change(k, rng):
    while True:
        m = k.array([[k.random_element(rng) for _ in range(4)]
                     for _ in range(4)])
        if Matrix(k, m).rank() == 4:
            return m


def _complete_basis(k, rows):
    """Extend the given independent row vectors to a basis of k^4."""
    out = list(rows)
    for i in range(4):
        cand = k.zeros(4)
        cand[i] = k.one
        if Matrix(k, out + [cand]).rank() == len(out) + 1:
            out.append(cand)
        if len(out) == 4:
            break
    return out


def _normal_coefficient(k, a, change, rank):
    """The c with q(change x) = c x0*x1 (rank 2) or c x0^2 (otherwise),
    for q(x) = x^T a x; None when q(change x) is no such nonzero
    multiple.  The matrix of q(change x) is change^T a change: c is its
    entry (0, 0), or twice its entry (0, 1)."""
    b = dot(k, dot(k, change.T, a), change)
    j = int(rank == 2)
    c = k.of(b[0, j] * (1 + j))
    b[0, j] = b[j, 0] = k.zero
    return None if c == k.zero or np.any(b != k.zero) else c


def _adapted_change_oracle(k, q):
    """A change M with q(Mx) = c x0*x1 (rank 2) or c x0^2 (rank 1), as
    (M, rank, c), built from the radical of q, a basis completed one unit
    vector at a time, and the kernels of two isotropic lines."""
    a = loci.quadric_matrices(k, q)
    am = Matrix(k, a)
    r = am.rank()
    if r > 2:
        raise ValueError("element has rank > 2")
    rad = am.right_kernel()  # dim 4 - r
    if r == 1:
        row = next(a[i] for i in range(4) if np.any(a[i] != k.zero))
        minv = Matrix(k, _complete_basis(k, [row])).inverse().data
        return minv, 1, _normal_coefficient(k, a, minv, 1)
    c1, c2 = pair = np.stack(_complete_basis(k, list(rad.data))[rad.rows:])
    gram = dot(k, dot(k, pair, a), pair.T)
    iso = loci._isotropic_pair(k, gram[0, 0], gram[0, 1], gram[1, 1])
    if iso is None:
        return None
    (s1, t1), (s2, t2) = iso
    e1 = k.reduce(s1 * c1 + t1 * c2)
    e2 = k.reduce(s2 * c1 + t2 * c2)
    u, v = (Matrix(k, np.vstack([e, rad.data])).right_kernel().data[0]
            for e in (e2, e1))
    minv = Matrix(k, _complete_basis(k, [u, v])).inverse().data
    c = _normal_coefficient(k, a, minv, 2)
    return None if c is None else (minv, 2, c)


def _non_residue(k):
    """The least non-square of F_p, or 2 over Q."""
    if k.kind == "rationals":
        return 2
    return next(n for n in range(2, k.p) if pow(n, (k.p - 1) // 2, k.p) != 1)


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(11), PrimeField(13), K,
                        PrimeField(2147483647), RationalField()]),
       st.sampled_from(["square", "split", "nonsplit"]))
@settings(max_examples=80, deadline=None)
def test_adapted_change_matches_the_completed_basis(seed, k, kind):
    """The coordinates read off one RREF agree with the completed-basis
    oracle on the rank and on which quadrics get None, are invertible,
    and have q as a nonzero multiple of C_0 * C_1 (C_0^2 at rank 1): on
    l^2, on l1*l2, and on x0^2 - n x1^2 with n a non-square, moved by a
    random invertible change."""
    rng = random.Random(seed)
    l1, l2 = (_random_form(k, rng, 4, 1) for _ in range(2))
    if kind == "square":
        q = l1 * l1
    elif kind == "split":
        q = l1 * l2
    else:
        q = Poly(k, 4, {(2, 0, 0, 0): 1, (0, 2, 0, 0): -_non_residue(k)})
        q = q.substitute_linear(_random_change(k, rng))
    assume(not q.is_zero())
    row = q.coeff_vector(2)
    got, want = (loci.rank_le2_adapted_change(k, row),
                 _adapted_change_oracle(k, row))
    assert (got is None) == (want is None)
    if kind == "nonsplit":
        assert got is None
    if got is None:
        return
    coords, rank = got
    assert rank == want[1] == loci.symmetric_rank(q)
    assert Matrix(k, coords).rank() == 4
    assert _nonzero_multiple(k, row, _adapted_product(k, coords, rank))


def _rref_calls(fn) -> int:
    """The number of linalg._rref calls that fn() makes."""
    real, calls = linalg._rref, []

    def spy(a, field):
        calls.append(a.shape)
        return real(a, field)

    with mock.patch.object(linalg, "_rref", spy):
        fn()
    return len(calls)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_each_matrix_is_row_reduced_once(seed):
    """Later steps read the RREFs already taken, the perpendicular space
    is taken once per plane, and each kernel is one elimination: classify
    row-reduces at most 3 matrices on a random plane and 9 on one through
    l1*l2 (where the probes miss), initial_system 3 on an 8-point tuple,
    criteria 4 and 6 40 each in 10 trials, and one Gale pipeline 28, whose
    containment checks read the RREFs they hold."""
    rng = random.Random(seed)
    general, secant = _random_plane(rng), _secant_plane(rng)
    pts = constructions.random_affine_points(K, 4, 8, rng)
    assert loci.classify(secant).certificates["witness_sextics"] is not None
    assert _rref_calls(lambda: loci.classify(general)) <= 3
    assert _rref_calls(lambda: loci.classify(secant)) <= 9
    assert _rref_calls(lambda: constructions.initial_system(pts)) <= 3
    for criterion in (battery.criterion_4, battery.criterion_6):
        assert _rref_calls(lambda: criterion(K, trials=10, seed=seed)) <= 40
    assert _rref_calls(lambda: constructions.gale_pipeline(K, seed)) <= 28


def test_witness_sextics():
    rng = random.Random(11)
    l1, l2 = (_random_form(K, rng, 4, 1) for _ in range(2))
    q = l1 * l2
    plane = QuadricPlane.from_polys(
        [q, _random_form(K, rng, 4, 2), _random_form(K, rng, 4, 2)])
    coords, rank = loci.rank_le2_adapted_change(K, q.coeff_vector(2))
    perp = loci.lperp(plane)
    witnesses = loci.rank2_sextic_witness(perp, coords, rank)
    assert witnesses == [(5, 1, 0, 0), (3, 3, 0, 0), (1, 5, 0, 0)]
    assert loci.jump_dimension(perp)[0] >= 3


def test_witness_sextics_rejects_high_rank():
    """A quadric of rank >= 3 gets no adapted coordinates."""
    rng = random.Random(12)
    plane = _random_plane(rng)
    for row in plane.space.basis.data:
        assert loci.symmetric_rank(Poly.from_coeff_vector(K, 4, 2, row)) >= 3
        with pytest.raises(ValueError, match="rank"):
            loci.rank_le2_adapted_change(K, row)


def _witness_oracle(plane, change, rank):
    """The witness check as it was taken with a change M sending the
    element to its normal form: M inverted back to coordinates, and the
    7^3 ordered products of the restricted duals by dense_mul."""
    k = plane.field
    if rank == 2:
        betas = [(5, 1, 0, 0), (3, 3, 0, 0), (1, 5, 0, 0)]
    else:
        betas = [(6, 0, 0, 0), (5, 1, 0, 0), (5, 0, 1, 0)]
    nv = 2 if rank == 2 else 3
    inverse = Matrix(k, change).inverse().data
    duals = compose(k, loci.integral_rows(k, loci.lperp(plane).basis.data),
                    loci.integral_rows(k, inverse[:nv].T), nv, 1, 2)
    quartics = dense_mul(k, duals[:, None], duals, nv, 2, 2)
    sextics = dense_mul(k, quartics[:, :, None], duals, nv, 4, 2)
    idx = monomial_index(nv, 6)
    if any(np.any(sextics[..., idx[b[:nv]]] != k.zero) for b in betas):
        raise AssertionError("witness sextic not annihilated")
    return betas


@given(st.integers(0, 10**6),
       st.sampled_from([PrimeField(11), PrimeField(13), K,
                        PrimeField(2147483647), RationalField()]),
       st.sampled_from(["secant", "rank1"]))
@settings(max_examples=40, deadline=None)
def test_witness_in_adapted_coordinates_matches_the_inverse(seed, k, kind):
    """On a plane through l1*l2 or l^2, the check in the coordinates C of
    the element's RREF returns the betas of the oracle fed M = C^-1; with
    a factor of C replaced by a random linear form, both raise."""
    rng = random.Random(seed)
    l1, l2 = (_random_form(k, rng, 4, 1) for _ in range(2))
    q = l1 * l2 if kind == "secant" else l1 * l1
    rank = 2 if kind == "secant" else 1
    assume(loci.symmetric_rank(q) == rank)
    try:
        plane = QuadricPlane.from_polys(
            [q, _random_form(k, rng, 4, 2), _random_form(k, rng, 4, 2)])
    except ValueError:  # dependent quadrics, at p = 11 or 13
        assume(False)
    coords, got = loci.rank_le2_adapted_change(k, q.coeff_vector(2))
    assert got == rank
    want = _witness_oracle(plane, Matrix(k, coords).inverse().data, rank)
    perp = loci.lperp(plane)
    assert loci.rank2_sextic_witness(perp, coords, rank) == want
    broken = coords.copy()
    broken[rng.randrange(rank)] = _random_form(k, rng, 4, 1).coeff_vector(1)
    # a row proportional to the one replaced leaves C adapted (1 in p^3)
    assume(Matrix(k, broken).rank() == 4 and not _nonzero_multiple(
        k, q.coeff_vector(2), _adapted_product(k, broken, rank)))
    with pytest.raises(AssertionError, match="not annihilated"):
        loci.rank2_sextic_witness(perp, broken, rank)
    with pytest.raises(AssertionError, match="not annihilated"):
        _witness_oracle(plane, Matrix(k, broken).inverse().data, rank)


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
    jump = _jump_matrix(plane).data
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
    """V has rank 84, and the quadric values are those at the exponents
    of the sextic monomials."""
    k = PrimeField(p)
    assert Matrix(k, _sextic_values(k)).rank() == 84
    quad = loci.sextic_points(k)
    assert np.array_equal(quad, monomial_values(k, 4, 2, monomial_basis(4, 6)))


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


def _integer_det(rows) -> int:
    """The determinant of a square matrix of Python ints, by Bareiss's
    fraction-free elimination."""
    m = [[int(x) for x in row] for row in rows]
    sign, prev = 1, 1
    for i in range(len(m)):
        swap = next((r for r in range(i, len(m)) if m[r][i]), None)
        if swap is None:
            return 0
        if swap != i:
            m[i], m[swap], sign = m[swap], m[i], -sign
        for r in range(i + 1, len(m)):
            for c in range(i + 1, len(m)):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def test_integer_det_matches_a_known_value():
    assert _integer_det([[2, 1], [1, 3]]) == 5
    assert _integer_det([[0, 1, 0], [1, 0, 0], [0, 0, 7]]) == -7
    assert _integer_det([[1, 2], [2, 4]]) == 0


@pytest.mark.parametrize("nvars,e", LATTICES)
def test_lattice_blocks_are_units_modulo_every_field_prime(nvars, e):
    """Each diagonal support block of V_e (the points and the monomials
    with support {0, ..., s-1}) has an integer determinant with no prime
    factor >= 11, the least prime PrimeField takes: so V_e is invertible
    over Q and modulo every prime the package uses, which lattice_points
    relies on without a rank check."""
    pts = np.array(monomial_basis(nvars, e), dtype=object)
    v = monomial_values(RationalField(), nvars, e, pts)
    for s in range(1, min(nvars, e) + 1):
        on = np.all((pts > 0) == (np.arange(nvars) < s), axis=1)
        det = abs(_integer_det(v[np.ix_(on, on)]))
        assert det != 0
        for q in (2, 3, 5, 7):
            while det % q == 0:
                det //= q
        assert det == 1, (nvars, e, s, det)


@pytest.mark.parametrize("k", [PrimeField(11), RationalField()], ids=repr)
def test_lattice_points_refuse_a_size_above_the_bound(k):
    """At e = 11 the block of {0} is 11^11, singular modulo 11."""
    assert len(loci.lattice_points(k, 3, loci.LATTICE_DEGREE_BOUND)) == 66
    with pytest.raises(ValueError):
        loci.lattice_points(k, 3, loci.LATTICE_DEGREE_BOUND + 1)


def test_lattice_points_are_cached_once_per_field_kind():
    """Image primes share one array; Q has its own, of Python ints."""
    a = loci.lattice_points(PrimeField(11), 4, 6)
    assert loci.lattice_points(PrimeField(2147483647), 4, 6) is a
    assert loci.lattice_points(RationalField(), 4, 6).dtype == object


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
    coeff = power_products(k, perp.basis.data, 4, 2, 3).T
    v = _sextic_values(k)
    if k.kind == "rationals":
        c = lcm(*(x.denominator for x in perp.basis.data.flat))
        coeff, v = _as_ints(c ** 3 * coeff), _as_ints(v)
        want = v.dot(coeff)
    else:
        want = dot(k, v, coeff)
    jump = loci.jump_matrix_from_quadrics(
        k, loci.integral_rows(k, perp.basis.data))
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
    jump = loci.jump_matrix_from_quadrics(
        q, loci.integral_rows(q, perp.basis.data))
    assert all(type(x) is int for x in jump.data.flat)
    want = _as_ints(_sextic_values(q)).dot(_as_ints(c ** 3 * oracle))
    assert np.array_equal(jump.data, want)
    assert jump.right_kernel() == Matrix(RationalField(), oracle).right_kernel()


# the nullity of the jump matrix over Q of each kind of plane
JUMP_NULLITY = {"general": 0, "smoothable": 3, "secant": 3, "rank1": 10}


@given(st.integers(0, 10**6), st.sampled_from(sorted(JUMP_NULLITY)))
@settings(max_examples=12, deadline=None)
def test_rational_jump_kernel_from_images_matches_the_integer_kernel(seed,
                                                                     kind):
    """Over Q jump_dimension reduces images of c^3 V J built over F_p from
    the integer perpendicular rows reduced mod p: each image is c^3 V J
    mod p turned by 180 degrees, and the kernel is that of c^3 V J in
    Python ints (the oracle, the path before the images)."""
    q = RationalField()
    rng = random.Random(seed)
    plane = {**PLANES, "smoothable": _smoothable_plane}[kind](rng, q)
    perp = loci.lperp(plane)
    jump = _jump_matrix(plane).data
    with mock.patch.object(linalg, "_gauss_jordan",
                           wraps=linalg._gauss_jordan) as spy:
        dim, ker = loci.jump_dimension(perp)
    images = [c.args for c in spy.call_args_list
              if c.args[0].shape == jump.shape]
    assert images
    for image, p in images:
        assert np.array_equal(image, (jump % p).astype(np.int64)[::-1, ::-1])
    assert dim == JUMP_NULLITY[kind]
    assert ker == Matrix(q, jump).right_kernel()


@pytest.mark.parametrize("kind,built", [("general", 0), ("secant", 1),
                                        ("smoothable", 1)])
def test_rational_jump_matrix_is_built_only_to_check(kind, built):
    """A general plane over Q is proved jump 0 by its first image, of rank
    84: c^3 V J is built once, over F_p, and never in Python ints.  A
    plane of nullity 3 builds it in Python ints once, for the check."""
    q = RationalField()
    perp = loci.lperp(_rational_plane(kind, random.Random(0)))
    with mock.patch.object(loci, "jump_matrix_from_quadrics",
                           wraps=loci.jump_matrix_from_quadrics) as spy:
        dim = loci.jump_dimension(perp)[0]
    fields = [c.args[0] for c in spy.call_args_list]
    assert dim == JUMP_NULLITY[kind]
    assert fields.count(q) == built
    if kind == "general":
        assert fields == [PrimeField(linalg._PRIMES[0])]


def test_rational_jump_kernel_outvotes_a_rank_deficient_first_image():
    """The plane of the partials of an integer cubic plus p times three
    integer quadrics is general over Q but smoothable mod p, so the first
    image, mod p, has rank below 84; the kernel is still the oracle's,
    0."""
    q, p = RationalField(), 1000003
    rng = random.Random(3)
    forms = [_integer_form(rng, d) for d in (3, 1, 1, 1)]
    partials = loci.integral_rows(
        q, _special_plane("smoothable", q, forms).space.basis.data)
    noise = np.array([[p * c for c in _integer_form(rng, 2).values()]
                      for _ in range(3)], dtype=object)
    plane = QuadricPlane.from_rows(q, partials + noise)
    jump = _jump_matrix(plane).data
    assert Matrix(PrimeField(p), (jump % p).astype(np.int64)).rank() < 84
    perp = loci.lperp(plane)
    (dim, ker), used = _images_mod(lambda: loci.jump_dimension(perp),
                                   (p,) + linalg._PRIMES)
    assert p in used
    assert (dim, ker) == (0, Matrix(q, jump).right_kernel())


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


def _poly_pencil_draws(k, rng):
    """The draws of _pencil_frame as it made them with dict Polys: q1, q2
    and u by a Poly per form, the pivot columns, w over the other
    columns; the four forms, or None where they span less than 4."""
    basis10 = monomial_basis(4, 2)
    q1, q2, u = (_random_form(k, rng, 4, 2) for _ in range(3))
    j_cols = sorted(rng.sample(range(10), 3))
    w = Poly(k, 4, {e: k.random_element(rng) for i, e in enumerate(basis10)
                    if i not in j_cols})
    forms = [q1, q2, u, w]
    return forms if FormSpace.from_polys(forms).dim == 4 else None


@given(st.integers(0, 10**6), st.sampled_from([11, 32003, 2147483647]))
@settings(max_examples=40, deadline=None)
def test_pencil_frame_draws_match_the_poly_draws(seed, p):
    """_pencil_frame draws its four rows as the Poly build did, from the
    same rng in the same order: same rows, same refusals, and the same
    draws consumed."""
    k = PrimeField(p)
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    drawn = loci._pencil_frame(k, rng)
    forms = _poly_pencil_draws(k, oracle_rng)
    if forms is None:
        assert drawn is None
    elif drawn is not None:
        assert np.array_equal(drawn[0], [f.coeff_vector(2) for f in forms])
    assert rng.random() == oracle_rng.random()


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


@pytest.mark.parametrize("seed, p", [
    pytest.param(seed, p, id=str(seed) if p == K.p else f"{seed}-{p}")
    for p in (K.p, 1000003, 2147483647) for seed in (0, 1, 2)])
def test_pencil_dets_match_per_sample_jump_matrices(seed, p):
    """The pencil's dets are, at every sample t, the det of the jump
    matrix built from the frame at t alone."""
    k = PrimeField(p)
    drawn = None
    rng = random.Random(seed)
    while drawn is None:
        drawn = loci._pencil_frame(k, rng)
    _, base, dirv = drawn
    loop = [loci.jump_matrix_from_quadrics(k, k.reduce(base + t * dirv))
            .det() for t in range(loci.DET_SAMPLES)]
    assert loci._pencil_dets(k, base, dirv) == loop


def _rank_one_frame(rng, a, zero_cols=()):
    """A random frame base over K with direction dirv = a b^T, b random
    but zero at zero_cols, as _pencil_frame builds its direction."""
    base = rng.integers(0, K.p, (7, 10))
    b = rng.integers(0, K.p, 10)
    b[list(zero_cols)] = 0
    return base, K.reduce(np.outer(a, b))


def _per_sample_dets(base, dirv):
    return [loci.jump_matrix_from_quadrics(K, K.reduce(base + t * dirv))
            .det() for t in range(loci.DET_SAMPLES)]


def test_pencil_dets_of_a_frame_moving_off_its_first_row():
    """With a_0 = a_1 = 0 the frame change swaps row 2 into place, and
    the first nonzero column of dirv is not column 0."""
    rng = np.random.default_rng(7)
    a = np.array([0, 0, 5, 0, 11, 1, K.p - 3])
    base, dirv = _rank_one_frame(rng, a, zero_cols=(0, 1))
    dets = loci._pencil_dets(K, base, dirv)
    assert dets == _per_sample_dets(base, dirv)
    assert interpolate(K, list(enumerate(dets))).degree() == 36


def test_pencil_dets_vanish_with_a_constant_block_of_low_rank():
    """Rows 1 and 2 of the frame, less a_j / a_0 times row 0, are equal,
    so the 56 constant columns have rank < 56 and every det is 0."""
    rng = np.random.default_rng(8)
    a = np.array([3, 4, 9, 1, 0, 2, 6])
    base, dirv = _rank_one_frame(rng, a)
    base[2] = K.reduce(base[1] + K.div(a[2] - a[1], a[0]) * base[0])
    assert loci._pencil_dets(K, base, dirv) == _per_sample_dets(base, dirv) \
        == [0] * loci.DET_SAMPLES


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
        K, K.reduce(base + t * dirv), 4, 2, 3).T).det()
        for t in range(loci.DET_SAMPLES)]
    assert loci._pencil_dets(K, base, dirv) == \
        [det_v * x % K.p for x in oracle]


def test_pencil_peak_allocation_is_bounded():
    """A pencil's dets take one 84x168 elimination and one (40, 28, 28)
    det_stack, not 84x84 jump matrices: its traced peak measured
    1.12 MiB (1.81 MiB with the jump matrices stacked 8 at a time), and
    the bound leaves a third more."""
    loci.pencil_experiment(K, seed=0)  # fill the cached index tables
    tracemalloc.start()
    try:
        loci.pencil_experiment(K, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2 ** 20


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
        adapted = loci.rank_le2_adapted_change(K, elem.coeff_vector(2))
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
    elem, zeros = cert["element_row"], _minor_zeros(plane)
    got, full = cert["piece_dims"][loci.MACAULAY_BOUND]
    if full - got == {"secant": 1, "rank1": 3}[kind]:
        assert elem is not None and len(zeros) == 1
    if elem is None:
        return
    elem = Poly.from_coeff_vector(k, 4, 2, elem)
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
    assert loci.rank_le2_adapted_change(q, found.coeff_vector(2)) is None
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
