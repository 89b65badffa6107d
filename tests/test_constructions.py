import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qplanes import constructions as con
from qplanes.apolarity import annihilator, contract
from qplanes.fields import PrimeField, RationalField
from qplanes.linalg import FormSpace, Matrix
from qplanes.loci import (GenericityError, jump_dimension, secant_intersects,
                          smoothable_pfaffian)
from qplanes.poly import Poly, monomial_basis, parse_poly, random_form
from qplanes.unipoly import UniPoly, roots_in_field

K = PrimeField()
V3 = ["x", "y", "z"]


def _p3(s):
    return parse_poly(s, V3, K)


# ---------------------------------------------------------------------------
# Point sets and rational maps
# ---------------------------------------------------------------------------


def test_pointset_normalization():
    ps = con.PointSet(K, "projective", 2, [(2, 4, 6)])
    inv2 = K.inv(K.of(2))
    assert ps.points[0] == (K.one, K.mul(K.of(4), inv2), K.mul(K.of(6), inv2))


def test_pointset_rejects_bad_input():
    with pytest.raises(ValueError):
        con.PointSet(K, "projective", 2, [(1, 2, 3), (2, 4, 6)])  # duplicates
    with pytest.raises(ValueError):
        con.PointSet(K, "projective", 2, [(0, 0, 0)])
    with pytest.raises(ValueError):
        con.PointSet(K, "affine", 2, [(1, 2, 3)])  # wrong length
    with pytest.raises(ValueError):
        con.PointSet(K, "elsewhere", 2, [(1, 2)])


def test_dehomogenize():
    ps = con.PointSet(K, "projective", 2, [(2, 4, 2)])
    aff = con.dehomogenize(ps)
    assert aff.points == [(K.one, K.of(2))]
    inf = con.PointSet(K, "projective", 2, [(1, 1, 0)])
    with pytest.raises(con.NonGenericConfiguration):
        con.dehomogenize(inf)


def test_rational_map_invariants():
    with pytest.raises(ValueError):
        con.RationalMap([_p3("x"), _p3("x*y")])  # mixed degrees
    with pytest.raises(ValueError):
        con.RationalMap([_p3("x + x*y")])  # inhomogeneous
    with pytest.raises(ValueError):
        con.RationalMap([])


def test_apply_map():
    # quadratic Veronese of the plane
    v2 = con.RationalMap([_p3(s) for s in
                          ("x^2", "x*y", "x*z", "y^2", "y*z", "z^2")])
    assert con.apply_map(v2, (1, 0, 0)) == (1, 0, 0, 0, 0, 0)
    invol = con.RationalMap([_p3("y*z"), _p3("x*z"), _p3("x*y")])
    assert con.apply_map(invol, (1, 0, 0)) is None  # base locus
    with pytest.raises(ValueError):
        con.apply_map(invol, (1, 0))


# ---------------------------------------------------------------------------
# Linear systems and limits
# ---------------------------------------------------------------------------


def test_forms_through_dimensions():
    rng = random.Random(1)
    plane8 = con.random_projective_points(K, 2, 8, rng)
    assert con.forms_through(plane8, 3).dim == 2   # 10 - 8
    assert con.forms_through(plane8, 4).dim == 7   # 15 - 8
    p4 = con.random_projective_points(K, 4, 8, rng)
    assert con.forms_through(p4, 2).dim == 7       # 15 - 8


def test_forms_through_vanishing():
    rng = random.Random(2)
    pts = con.random_projective_points(K, 2, 8, rng)
    space = con.forms_through(pts, 3)
    for f in space.polys():
        for p in pts.points:
            assert f.evaluate(p) == K.zero


def test_initial_system_hf_143():
    rng = random.Random(3)
    pts = con.random_affine_points(K, 4, 8, rng)
    ideal, hf, plane = con.initial_system(pts)
    assert hf == [1, 4, 3]
    assert sum(hf.values) == 8
    assert ideal.piece(2).dim == 7
    assert plane is not None
    # round trip: the annihilator of the plane reproduces the degree-2 piece
    ann2 = annihilator(plane.space, 2).piece(2)
    assert ann2 == ideal.piece(2)
    # the limit plane satisfies the degeneracy conditions
    assert smoothable_pfaffian(plane) == K.zero
    assert jump_dimension(plane)[0] == 3
    assert not secant_intersects(plane)[0]


def test_initial_system_two_points():
    pts = con.PointSet(K, "affine", 4, [(0, 0, 0, 0), (1, 0, 0, 0)])
    _, hf, plane = con.initial_system(pts, require_143=False)
    assert hf == [1, 1]
    assert plane is None
    with pytest.raises(con.NonGenericConfiguration):
        con.initial_system(pts)


# ---------------------------------------------------------------------------
# Cubic pencils
# ---------------------------------------------------------------------------


GRID = [(i, j, 1) for i in range(3) for j in range(3)]


def test_ninth_base_point_grid():
    for k in (K, RationalField()):  # nothing in the colon ideal needs F_p
        def p3(text):
            return parse_poly(text, V3, k)

        c1 = p3("x") * p3("x - z") * p3("x - 2*z")
        c2 = p3("y") * p3("y - z") * p3("y - 2*z")
        for missing in [(0, 0, 1), (2, 2, 1), (1, 2, 1)]:
            known = con.PointSet(k, "projective", 2,
                                 [p for p in GRID if p != missing])
            got = con.ninth_base_point(c1, c2, known)
            assert got == con._normalize_projective(
                k, tuple(k.of(c) for c in missing))


def test_ninth_base_point_random_pencil():
    rng = random.Random(4)
    pts = con.random_projective_points(K, 2, 8, rng)
    c1, c2 = con.forms_through(pts, 3).polys()
    q = con.ninth_base_point(c1, c2, pts)
    assert c1.evaluate(q) == K.zero and c2.evaluate(q) == K.zero
    assert q not in pts.points


def _random_pencil(k, seed):
    """8 random plane points and the two cubics through them, or None
    when the cubics through them are not a pencil."""
    pts = con.random_projective_points(k, 2, 8, random.Random(seed))
    pencil = con.forms_through(pts, 3)
    return (pts, *pencil.polys()) if pencil.dim == 2 else None


@pytest.mark.parametrize("p", [13, 41, 32003, 2**31 - 1])
def test_ninth_base_point_is_a_common_zero_off_the_known_points(p):
    k = PrimeField(p)
    found = 0
    for seed in range(12):
        setup = _random_pencil(k, seed)
        if setup is None:
            continue
        pts, c1, c2 = setup
        try:
            q = con.ninth_base_point(c1, c2, pts)
        except con.NonGenericConfiguration:
            continue  # small fields: collinear points, common components
        assert c1.evaluate(q) == k.zero and c2.evaluate(q) == k.zero
        assert q not in pts.points
        found += 1
    assert found >= (3 if p < 100 else 12)


def test_ninth_base_point_needs_no_coordinate_change():
    """At p = 13 few coordinate changes separate the first coordinates of
    nine points, and a search through them gave up on this pencil."""
    k = PrimeField(13)
    pts, c1, c2 = _random_pencil(k, 3)
    assert con.ninth_base_point(c1, c2, pts) == (1, 7, 7)


def test_ninth_base_point_needs_eight():
    c1 = _p3("x^3")
    with pytest.raises(ValueError):
        con.ninth_base_point(c1, c1, con.PointSet(K, "projective", 2,
                                                  GRID[:5]))


# ---------------------------------------------------------------------------
# Gale duality and elliptic members
# ---------------------------------------------------------------------------


def _pencil_setup(seed):
    rng = random.Random(seed)
    gamma2 = con.random_projective_points(K, 2, 8, rng)
    c1, c2 = con.forms_through(gamma2, 3).polys()
    ninth = con.ninth_base_point(c1, c2, gamma2)
    return rng, gamma2, c1, c2, ninth


def test_gale_dual_basic():
    rng, gamma2, c1, c2, ninth = _pencil_setup(5)
    gamma4, proj = con.gale_dual(gamma2, ninth)
    assert len(gamma4) == 8 and gamma4.n == 4
    assert con.forms_through(gamma4, 2).dim == 7
    # the center itself maps nowhere
    assert con.apply_map(proj, ninth) is None
    with pytest.raises(ValueError):
        con.gale_dual(gamma2, gamma2.points[0])


def test_elliptic_member_quadrics():
    rng, gamma2, c1, c2, ninth = _pencil_setup(6)
    proj = con.projection_from_point(ninth, K, rng)
    members = []
    while len(members) < 3:
        try:
            members.append(con.elliptic_member(c1, c2, ninth,
                                               K.random_element(rng),
                                               projection=proj))
        except con.NonGenericConfiguration:
            continue
    inter = members[0].quadrics
    for m in members[1:]:
        assert m.quadrics.dim == 5
        inter = inter.intersect(m.quadrics)
    assert inter.dim == 3
    gamma4, _ = con.gale_dual(gamma2, ninth, projection=proj)
    seven = con.forms_through(gamma4, 2)
    for m in members:
        assert seven.contains_space(m.quadrics)
        assert m.quadrics.contains_space(inter)


# a quadric through more than 10 points of the image quintic contains it
# (Bezout)
SCANNED_IMAGES = 11


def _scanned_images(cubic, projection, k):
    """An oracle for the member quadrics: affine points of the cubic, line
    by line x = 0, 1, 2, ..., each found by trying every element of F_p
    as y, until SCANNED_IMAGES images are found."""
    images = []
    for x0 in range(k.p):
        line = [k.zero] * 4  # the cubic at (x0, y, 1), low to high in y
        for (a, b, _), c in cubic.terms.items():
            line[b] = k.add(line[b], k.mul(c, pow(x0, a, k.p)))
        for y0 in set(roots_in_field(UniPoly(k, line))):
            im = con.apply_map(projection, (x0, y0, 1))
            if im is not None and im not in images:
                images.append(im)
        if len(images) >= SCANNED_IMAGES:
            return con.PointSet(k, "projective", 4, images)
    raise AssertionError("too few affine points on the member")


@pytest.mark.parametrize("p", [13, 31, 101, 32003])
def test_member_quadrics_match_the_field_scan(p):
    k = PrimeField(p)
    rng = random.Random(p)
    checked = 0
    for seed in range(20):
        setup = _random_pencil(k, seed)
        if setup is None:
            continue
        gamma2, c1, c2 = setup
        try:
            ninth = con.ninth_base_point(c1, c2, gamma2)
            proj = con.projection_from_point(ninth, k, rng)
            s = k.random_element(rng)
            member = con.elliptic_member(c1, c2, ninth, s, proj)
        except con.NonGenericConfiguration:
            continue
        scanned = _scanned_images(c1 + c2.scale(s), proj, k)
        assert member.quadrics == con.forms_through(scanned, 2)
        checked += 1
        if checked == 3:
            return
    raise AssertionError("fewer than 3 smooth members")


def test_elliptic_member_determinism():
    rng, gamma2, c1, c2, ninth = _pencil_setup(7)
    s = K.of(11)
    a = con.elliptic_member(c1, c2, ninth, s)
    b = con.elliptic_member(c1, c2, ninth, s)
    assert a.quadrics == b.quadrics


def test_segre_cubic_span():
    res = con.gale_pipeline(K, seed=0)
    assert res.hf == [1, 4, 3]
    assert res.chain_dims == (3, 5, 7)
    assert res.segre_span_dim == 3
    # the span equals the full cubic kernel of the limit plane
    dim, cubics = jump_dimension(res.plane)
    assert dim == 3
    kernel_space = FormSpace.from_polys(cubics, degree=3)
    segres = [con.segre_cubic(m, res.plane) for m in res.members]
    union = FormSpace.from_polys(
        [c for s in segres for c in s.polys()], degree=3)
    assert union == kernel_space


def test_segre_cubic_rejects_foreign_plane():
    res = con.gale_pipeline(K, seed=1)
    rng = random.Random(99)
    while True:
        try:
            from qplanes.apolarity import QuadricPlane
            from qplanes.poly import monomial_basis
            other = QuadricPlane.from_polys(
                [Poly(K, 4, {e: K.random_element(rng)
                             for e in monomial_basis(4, 2)})
                 for _ in range(3)])
            break
        except ValueError:
            continue
    with pytest.raises(AssertionError, match="perpendicular space"):
        con.segre_cubic(res.members[0], other)


# ---------------------------------------------------------------------------
# Pieces by evaluation against the coefficient builds
# ---------------------------------------------------------------------------


def _dict_rows(gens, d):
    """The coefficient rows x^m g of the degree-d piece of the ideal of
    the nonzero plane forms gens, from dict products."""
    k = gens[0].field
    return np.array([(Poly.monomial(k, m) * g).coeff_vector(d)
                     for g in gens if not g.is_zero()
                     for m in monomial_basis(3, d - g.degree())])


def _ninth_base_point_oracle(c1, c2, known):
    """ninth_base_point on coefficient pieces: the point, or None where
    the configuration is not generic."""
    k = c1.field
    ideal4 = FormSpace.from_matrix(k, 3, 4, Matrix(k, _dict_rows([c1, c2], 4)))
    f = next(f for f in con.forms_through(known, 4).polys()
             if not ideal4.contains(f))
    rows = np.concatenate([_dict_rows([f], 5), _dict_rows([c1, c2], 5)])
    lines = Matrix(k, rows.T).right_kernel()
    point = Matrix(k, lines.data[:, :3]).right_kernel()
    if lines.rows != 2 or point.rows != 1:
        return None
    q = tuple(k.of(c) for c in point.data[0])
    return None if q in known.points else q


@pytest.mark.parametrize("p", [31, 2**31 - 1])
def test_ninth_base_point_matches_the_coefficient_build(p):
    k = PrimeField(p)
    found = 0
    for seed in range(10):
        setup = _random_pencil(k, seed)
        if setup is None:
            continue
        pts, c1, c2 = setup
        want = _ninth_base_point_oracle(c1, c2, pts)
        try:
            got = con.ninth_base_point(c1, c2, pts)
        except con.NonGenericConfiguration:
            got = None
        assert got == want
        found += want is not None
    assert found >= 5


def _line_conic_pencil(k, rng):
    """8 points, 3 on a line L and 5 on a conic C, and a basis (L C, c2)
    of the cubics through them: the member at s = 0 is singular."""
    while True:
        a, b = k.random_element(rng), k.random_element(rng)
        on_line = [(x, k.add(k.mul(a, x), b), 1) for x in range(3)]
        on_conic = con.random_projective_points(k, 2, 5, rng)
        conics = con.forms_through(on_conic, 2)
        try:
            known = con.PointSet(k, "projective", 2,
                                 on_line + on_conic.points)
        except ValueError:  # a point on both
            continue
        cubics = con.forms_through(known, 3)
        if conics.dim != 1 or cubics.dim != 2:
            continue
        line = Poly(k, 3, {(1, 0, 0): a, (0, 1, 0): k.neg(1),
                           (0, 0, 1): b})
        c1 = line * conics.polys()[0]
        c2 = next(c for c in cubics.polys()
                  if not FormSpace.from_polys([c1]).contains(c))
        return known, c1, c2


@pytest.mark.parametrize("p", [31, 2**31 - 1])
def test_member_smoothness_check_matches_the_coefficient_build(p):
    """elliptic_member refuses a member as singular exactly when the
    dict-built degree-4 piece of its partials is not full."""
    k = PrimeField(p)
    rng = random.Random(p)
    seen = set()
    for _ in range(3):
        known, c1, c2 = _line_conic_pencil(k, rng)
        try:
            q = con.ninth_base_point(c1, c2, known)
        except con.NonGenericConfiguration:
            continue
        for s in range(p) if p < 100 else [0, 1, 2, 3]:
            cs = c1 + c2.scale(s)
            grad = [contract(Poly.variable(k, 3, i), cs) for i in range(3)]
            smooth = Matrix(k, _dict_rows(grad, 4)).rank() == 15
            try:
                con.elliptic_member(c1, c2, q, s)
                refused = False
            except con.NonGenericConfiguration as exc:
                refused = "singular" in str(exc)
            assert refused == (not smooth)
            seen.add(smooth)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [31, 2**31 - 1])
def test_octic_quadrics_match_the_coefficient_build(p):
    """The quadrics through the octic surface are the kernel of Sym^2 of
    the quartics, built from dict products."""
    k = PrimeField(p)
    checked = 0
    for seed in range(6):
        z = con.random_projective_points(k, 2, 8, random.Random(seed))
        quartics = con.forms_through(z, 4).polys()
        prods = np.array([
            (quartics[i] * quartics[j]).coeff_vector(8)
            for i, j in ([t for t in range(7) for _ in range(e[t])]
                         for e in monomial_basis(7, 2))])
        want = FormSpace.from_matrix(
            k, 7, 2, Matrix(k, prods.T).right_kernel())
        try:
            got = con.octic_surface(z)[1]
        except con.NonGenericConfiguration:
            assert len(quartics) != 7 or want.dim != 7
            continue
        assert got == want
        checked += 1
    assert checked >= 4


# ---------------------------------------------------------------------------
# Octic surface and Cremona inverses
# ---------------------------------------------------------------------------


def test_octic_surface():
    rng = random.Random(8)
    z = con.random_projective_points(K, 2, 8, rng)
    embed, quadrics, cremona = con.octic_surface(z)
    assert embed.target_vars == 7 and embed.degree == 4
    assert quadrics.dim == 7
    assert cremona.degree == 2
    # every quadric vanishes on 100 fresh image points
    count = 0
    while count < 100:
        p = tuple(K.random_element(rng) for _ in range(3))
        im = con.apply_map(embed, p) if any(p) else None
        if im is None:
            continue
        count += 1
        for q in quadrics.polys():
            assert q.evaluate(im) == K.zero


def test_octic_surface_collinear_points():
    pts = [(i, 0, 1) for i in range(5)] + [(1, 1, 1), (2, 3, 1), (4, 5, 1)]
    z = con.PointSet(K, "projective", 2, pts)
    with pytest.raises(con.NonGenericConfiguration):
        con.octic_surface(z)


def test_find_inverse_involution():
    f = con.RationalMap([_p3("y*z"), _p3("x*z"), _p3("x*y")])
    got = con.find_inverse(f, 2)
    assert got is not None
    g, lam = got
    # up to one scalar: g = (yz, xz, xy), lambda = xyz
    c = g.forms[0].coefficient((0, 1, 1))
    assert c != K.zero
    assert [h.scale(K.inv(c)) for h in g.forms] == f.forms
    assert lam.scale(K.inv(c)) == _p3("x*y*z")
    # no linear inverse exists
    assert con.find_inverse(f, 1) is None


@pytest.mark.parametrize("d2", [3, 4])
def test_find_inverse_on_a_kernel_of_several_rows(d2):
    """Above degree 2 the kernel of the involution's system is
    {h (yz, xz, xy) : deg h = d2 - 2}, of 3 and 6 rows: the inverse found
    is one of its vectors, and g(f(x)) = lambda x."""
    f = con.RationalMap([_p3("y*z"), _p3("x*z"), _p3("x*y")])
    ker = con._proportionality_kernel(K, *con._inverse_samples(f, d2, 0))
    assert ker.rows == math.comb(d2, 2)
    g, lam = con.find_inverse(f, d2)
    h = Poly(K, 3, {(a, b - 1, c - 1): v
                    for (a, b, c), v in g.forms[0].terms.items()})
    assert not h.is_zero() and h.degree() == d2 - 2
    assert [h * fi for fi in f.forms] == g.forms
    for i, gi in enumerate(g.forms):
        assert gi.substitute_polys(f.forms) == lam * Poly.variable(K, 3, i)


def test_find_inverse_round_trips():
    f = con.RationalMap([_p3("y*z"), _p3("x*z"), _p3("x*y")])
    g, _ = con.find_inverse(f, 2)
    rng = random.Random(9)
    checked = 0
    while checked < 20:
        p = tuple(K.random_element(rng) for _ in range(3))
        im = con.apply_map(f, p) if any(p) else None
        if im is None:
            continue
        back = con.apply_map(g, im)
        assert back == con._normalize_projective(K, p)
        checked += 1


def test_find_inverse_at_the_largest_prime():
    """The involution moved by two random changes of coordinates: its
    certification sums products of residues, which wrap int64 at
    p = 2^31 - 1 unless each product is reduced first."""
    k = PrimeField(2147483647)
    for seed in range(3):
        rng = random.Random(seed)
        g1, g2 = con._random_gl(k, 3, rng), con._random_gl(k, 3, rng)
        sigma = [parse_poly(s, V3, k).substitute_linear(g1)
                 for s in ("y*z", "x*z", "x*y")]
        f = con.RationalMap([sum((sigma[j].scale(g2[i][j]) for j in range(3)),
                                 Poly.zero(k, 3)) for i in range(3)])
        g, lam = con.find_inverse(f, 2)
        assert g.degree == 2 and lam.degree() == 3


# -- the block solve of the inverse system against the dense rows --------

def _samples_loop(f, d2, seed):
    """The sample points one try at a time, each value by Poly.evaluate."""
    k, nv = f.forms[0].field, f.source_vars
    rng = random.Random(seed)
    samples = nv * len(monomial_basis(nv, d2)) // (nv - 1) + 40
    xs, rows = [], []
    tries = 0
    while len(xs) < samples and tries < 50 * samples:
        tries += 1
        x = tuple([k.one] + [k.random_element(rng) for _ in range(nv - 1)])
        y = tuple(form.evaluate(x) for form in f.forms)
        if any(v != k.zero for v in y):
            xs.append(x)
            rows.append([Poly.monomial(k, e).evaluate(y)
                         for e in monomial_basis(nv, d2)])
    return np.array(xs, dtype=np.int64), np.array(rows, dtype=np.int64)


def _dense_inverse_system(k, xs, m):
    """The proportionality system as find_inverse built it before the
    block solve: per point and i = 1..n-1, m(y) in block i and -x_i m(y)
    in block 0."""
    size, nv = m.shape[1], xs.shape[1]
    rows = []
    for x, my in zip(xs, m):
        for i in range(1, nv):
            row = k.zeros(nv * size)
            row[i * size:(i + 1) * size] = my
            row[:size] = k.reduce(-int(x[i]) * my)
            rows.append(row)
    return Matrix(k, np.stack(rows))


def _moved(k, rng, forms):
    """The map x -> g2 forms(g1 x) for random invertible g1, g2."""
    g1, g2 = (con._random_gl(k, len(forms), rng) for _ in range(2))
    moved = [f.substitute_linear(g1) for f in forms]
    nv = len(forms)
    return con.RationalMap([sum((moved[j].scale(g2[i][j]) for j in range(nv)),
                                Poly.zero(k, nv)) for i in range(nv)])


def _test_map(k, rng, nv, kind):
    """A self-map of P^(nv-1): "linear" (invertible, so every d2 has an
    inverse times forms of degree d2 - 1), "quadrics" (random, so no
    inverse of low degree), "involution" (the standard Cremona
    involution, of degree nv - 1), "on a quadric" (image on the quadric
    y0 y2 = y1^2 before the move, so m loses rank from d2 = 2) or
    "common factor" (a base locus with a hyperplane, so tries fail)."""
    if kind == "linear":
        return _moved(k, rng, [Poly.variable(k, nv, i) for i in range(nv)])
    if kind == "quadrics":
        return con.RationalMap([random_form(k, nv, 2, rng) for _ in range(nv)])
    if kind == "involution":
        return _moved(k, rng, [
            Poly(k, nv, {tuple(int(j != i) for j in range(nv)): 1})
            for i in range(nv)])
    if kind == "on a quadric":
        u, v = (random_form(k, nv, 1, rng) for _ in range(2))
        rest = [random_form(k, nv, 2, rng) for _ in range(nv - 3)]
        return _moved(k, rng, [u * u, u * v, v * v] + rest)
    assert kind == "common factor"
    line = random_form(k, nv, 1, rng)
    return con.RationalMap([line * random_form(k, nv, 1, rng)
                            for _ in range(nv)])


KINDS = ["linear", "quadrics", "involution", "on a quadric", "common factor"]


@given(st.integers(0, 10**6), st.sampled_from([11, 32003, 2147483647]),
       st.sampled_from([3, 4]), st.integers(1, 3), st.sampled_from(KINDS))
@settings(max_examples=60, deadline=None)
def test_block_kernel_matches_the_dense_kernel(seed, p, nv, d2, kind):
    k = PrimeField(p)
    rng = random.Random(seed)
    f = _test_map(k, rng, nv, kind)
    try:
        xs, m = con._inverse_samples(f, d2, seed)
    except GenericityError:  # a degenerate map over a small field
        assume(False)
    want = _dense_inverse_system(k, xs, m).right_kernel()
    assert con._proportionality_kernel(k, xs, m) == want


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("p", [11, 32003])
def test_inverse_samples_match_the_point_loop(kind, p):
    k = PrimeField(p)
    for seed in range(3):
        f = _test_map(k, random.Random(seed), 3, kind)
        xs, m = con._inverse_samples(f, 2, seed)
        want_xs, want_m = _samples_loop(f, 2, seed)
        assert np.array_equal(xs, want_xs) and np.array_equal(m, want_m)


def test_block_kernel_covers_empty_and_rank_deficient_systems():
    """The kinds of test maps reach what they are meant to: an empty
    kernel, a rank-deficient m, a kernel of several vectors."""
    k = K
    rng = random.Random(4)
    quadrics = _test_map(k, rng, 3, "quadrics")
    assert con._proportionality_kernel(
        k, *con._inverse_samples(quadrics, 3, 0)).rows == 0
    on_quadric = _test_map(k, rng, 4, "on a quadric")
    xs, m = con._inverse_samples(on_quadric, 2, 0)
    assert Matrix(k, m).rank() == m.shape[1] - 1
    assert con._proportionality_kernel(k, xs, m) == \
        _dense_inverse_system(k, xs, m).right_kernel()
    linear = _test_map(k, rng, 3, "linear")
    assert con._proportionality_kernel(
        k, *con._inverse_samples(linear, 2, 0)).rows == 3


def test_find_inverse_of_the_octic_cremona_in_bounded_memory():
    """The dense 1710x1470 system alone took 20 MiB, and the search
    peaked at 66.5 MiB; the block solve peaks at 10.1 MiB (measured with
    numpy 2.4)."""
    z = con.random_projective_points(K, 2, 8, random.Random(0))
    _, _, cs8 = con.octic_surface(z)
    con.find_inverse(cs8, 4, seed=0)  # build the cached tables first
    tracemalloc.start()
    try:
        got = con.find_inverse(cs8, 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is not None and got[0].degree == 4
    assert peak <= 12 * 2 ** 20


def test_cremona_pipeline_fast():
    res = con.cremona_pipeline(K, seed=0)
    assert res.ce.degree == 2 and res.ce_inverse.degree == 3
    assert res.ce_lambda.degree() == 5  # 2*3 - 1
    rng = random.Random(10)
    checked = 0
    while checked < 20:
        p = tuple(K.random_element(rng) for _ in range(5))
        im = con.apply_map(res.ce, p) if any(p) else None
        if im is None:
            continue
        assert con.apply_map(res.ce_inverse, im) == \
            con._normalize_projective(K, p)
        checked += 1
    assert res.octic_quadrics.dim == 7
    assert res.cs8_inverse is None  # fast mode skips the degree-4 search


@pytest.mark.slow
def test_cremona_pipeline_slow():
    res = con.cremona_pipeline(K, seed=0, slow=True)
    assert res.cs8_inverse is not None
    assert res.cs8_inverse.degree == 4
    assert res.cs8_absent_deg3 is True


def test_resampling_samples_draw_distinct_configurations():
    """Samples of one command run at seeds SUBSEED_STRIDE apart; with
    attempts at the same stride, sample i's attempt a would redraw
    sample i + 1's attempt a - 1.  At p = 11 from seed 0, samples 0 and
    1 resample."""
    runs = [con.gale_pipeline(PrimeField(11), con.subseed(0, i))
            for i in range(3)]
    assert any(r.resamples for r in runs)
    assert len({tuple(r.gamma2.points) for r in runs}) == 3


def test_subseed_determinism():
    assert con.subseed(5, 2) == 5 + 2 * con.SUBSEED_STRIDE
    a = con.gale_pipeline(K, seed=3)
    b = con.gale_pipeline(K, seed=3)
    assert a.ninth == b.ninth
    assert a.gamma4.points == b.gamma4.points
    assert a.chain_dims == b.chain_dims
