import random
from itertools import combinations

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from qplanes import loci
from qplanes.apolarity import QuadricPlane, contract, plane_from_cubic
from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import Matrix, ideal_piece_dim
from qplanes.poly import Poly, monomial_basis, parse_poly

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


def test_quadric_matrix_round_trip():
    rng = random.Random(0)
    for _ in range(10):
        q = _random_form(K, rng, 4, 2)
        a = loci.quadric_to_matrix(q)
        assert np.array_equal(a, a.T)
        assert loci.matrix_to_quadric(a, K) == q


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


def test_block_matrix_is_skew():
    rng = random.Random(2)
    qs = [_random_form(K, rng, 4, 2) for _ in range(3)]
    m = loci.smoothable_block_matrix(qs)
    assert m.is_skew()
    assert m.rows == 12


def test_pfaffian_scaling_in_each_slot():
    rng = random.Random(3)
    qs = [_random_form(K, rng, 4, 2) for _ in range(3)]
    base = loci.smoothable_pfaffian_basis(qs)
    lam = K.of(7)
    for slot in range(3):
        scaled = list(qs)
        scaled[slot] = scaled[slot].scale(lam)
        assert loci.smoothable_pfaffian_basis(scaled) == \
            K.mul(K.mul(lam, lam), base)


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


def _dict_piece_dim(gens, d):
    """Piece dimension from rows built with dict Poly products."""
    k = gens[0].field
    rows = [(Poly.monomial(k, m) * g).coeff_vector(d)
            for g in gens if not g.is_zero()
            for m in monomial_basis(g.nvars, d - g.degree())]
    return Matrix(k, rows).rank() if rows else 0


@given(st.integers(0, 10**6), st.sampled_from(sorted(PLANES)))
@settings(max_examples=12, deadline=None)
def test_ideal_piece_dim_matches_dict_rows(seed, kind):
    minors = loci._minor_cubics(PLANES[kind](random.Random(seed)))
    for d in range(3, 10):
        assert ideal_piece_dim(minors, d) == _dict_piece_dim(minors, d)


def test_ideal_piece_dim_rationals():
    q = RationalField()
    rng = random.Random(18)
    gens = [_random_form(q, rng, 3, 2) for _ in range(2)] + [Poly.zero(q, 3)]
    for d in range(2, 6):
        assert ideal_piece_dim(gens, d) == _dict_piece_dim(gens, d)


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
        minors = loci._minor_cubics(plane)
        for d in (7, 8, 9):
            full = len(monomial_basis(3, d))
            assert hit == (ideal_piece_dim(minors, d) < full)


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
def test_minor_cubics_match_dict_expansion(seed, kind, k):
    plane = PLANES[kind](random.Random(seed), k)
    assert loci._minor_cubics(plane) == _dict_minor_cubics(plane)


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
