"""Point configurations, limits, Gale duality, and Cremona maps.

The constructive pipeline: 8 points in the plane determine a cubic
pencil with a ninth base point; Veronese reembedding and projection
from that point produce 8 points in P^4 whose scaled limit is a
degree-8 scheme with Hilbert function (1, 4, 3); elliptic members of
the pencil supply the special cubics through the projected Veronese.
Quadrics through an elliptic quintic or through the octic surface give
Cremona transformations whose inverses are computed and certified
exactly.  Nothing here scans the field or samples a curve: the ninth
base point is read off a colon ideal of the pencil, and the quadrics
through a member's image off one kernel at the lattice points of plane
quartics, so every accepted prime works.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .apolarity import HilbertFunction, QuadricPlane, annihilator_piece
from .fields import Field, PrimeField
from .linalg import FormSpace, Matrix, null_basis, row_space_residual
from .loci import (GenericityError, ideal_piece_values, integral_rows,
                   jump_matrix_from_quadrics, lattice_points)
from .poly import (Poly, compose, contraction_rows, dot, monomial_basis,
                   monomial_values, mult_table, var_shift)
from .unipoly import interpolate  # noqa: F401  (importable from here, as before)


class NonGenericConfiguration(ValueError):
    """A construction hit a degenerate configuration; the caller resamples."""


SUBSEED_STRIDE = 1000003


def subseed(master: int, counter: int) -> int:
    """Derived seed for the counter-th independent sub-task."""
    return master + SUBSEED_STRIDE * counter


# ---------------------------------------------------------------------------
# Point sets
# ---------------------------------------------------------------------------


@dataclass
class PointSet:
    """Points in affine or projective space over the configured field.

    Projective points are normalized so the first nonzero coordinate is
    1; duplicates are rejected.
    """

    field: Field
    ambient: str  # "affine" or "projective"
    n: int  # dimension of the ambient space
    points: list[tuple]

    def __post_init__(self):
        if self.ambient not in ("affine", "projective"):
            raise ValueError("ambient must be 'affine' or 'projective'")
        ncoords = self.n if self.ambient == "affine" else self.n + 1
        pts = []
        for p in self.points:
            p = tuple(self.field.of(c) for c in p)
            if len(p) != ncoords:
                raise ValueError("wrong coordinate count")
            if self.ambient == "projective":
                p = _normalize_projective(self.field, p)
            pts.append(p)
        if len(set(pts)) != len(pts):
            raise ValueError("duplicate points")
        self.points = pts

    def __len__(self):
        return len(self.points)


def _normalize_projective(k: Field, p: tuple) -> tuple:
    for c in p:
        if c != k.zero:
            inv = k.inv(c)
            return tuple(k.mul(x, inv) for x in p)
    raise ValueError("projective point cannot be zero")


def random_projective_points(k: Field, n: int, count: int, rng) -> PointSet:
    pts = []
    seen = set()
    while len(pts) < count:
        p = tuple(k.random_element(rng) for _ in range(n + 1))
        if all(c == k.zero for c in p):
            continue
        p = _normalize_projective(k, p)
        if p in seen:
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(k, "projective", n, pts)


def random_affine_points(k: Field, n: int, count: int, rng) -> PointSet:
    pts = []
    seen = set()
    while len(pts) < count:
        p = tuple(k.random_element(rng) for _ in range(n))
        if p in seen:
            continue
        seen.add(p)
        pts.append(p)
    return PointSet(k, "affine", n, pts)


def dehomogenize(points: PointSet) -> PointSet:
    """Affine chart at the last coordinate; errors if a point lies on
    the hyperplane at infinity."""
    if points.ambient != "projective":
        raise ValueError("need projective points")
    k = points.field
    pts = []
    for p in points.points:
        if p[-1] == k.zero:
            raise NonGenericConfiguration("point at infinity in the chart")
        inv = k.inv(p[-1])
        pts.append(tuple(k.mul(c, inv) for c in p[:-1]))
    return PointSet(k, "affine", points.n, pts)


# ---------------------------------------------------------------------------
# Rational maps
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RationalMap:
    """A rational map between projective spaces: the coefficient rows
    (one per target coordinate) of forms of one common degree in
    source_vars variables (the fixed lift at the cone level)."""

    field: Field
    source_vars: int
    degree: int
    rows: np.ndarray

    @property
    def target_vars(self) -> int:
        return len(self.rows)

    @cached_property
    def forms(self) -> list[Poly]:
        """The forms as Polys, built on the first read."""
        return [Poly.from_coeff_vector(self.field, self.source_vars,
                                       self.degree, row) for row in self.rows]


def apply_map(f: RationalMap, p) -> tuple | None:
    """Image of a projective point; None when p is in the base locus."""
    k = f.field
    p = tuple(k.of(c) for c in p)
    if len(p) != f.source_vars:
        raise ValueError("point dimension mismatch")
    vals = tuple(map(k.of, dot(k, f.rows, monomial_values(
        k, f.source_vars, f.degree, p)[0])))
    if all(v == k.zero for v in vals):
        return None
    return _normalize_projective(k, vals)


# ---------------------------------------------------------------------------
# Linear systems through points
# ---------------------------------------------------------------------------


def forms_through(points: PointSet, d: int) -> FormSpace:
    """Degree-d forms vanishing at every point (kernel of evaluation)."""
    if points.ambient != "projective":
        raise ValueError("forms_through expects projective points")
    k = points.field
    nvars = points.n + 1
    return FormSpace(k, nvars, d, Matrix(
        k, monomial_values(k, nvars, d, points.points)).right_kernel())


# ---------------------------------------------------------------------------
# Scaled limits of point tuples
# ---------------------------------------------------------------------------


def initial_system(points: PointSet, require_143: bool = True):
    """The scaled limit of an affine point tuple: the degree-2 piece of
    its ideal, its Hilbert function in degrees 0..3, and its plane.

    Scaling the points toward the origin turns every polynomial
    vanishing on them into its top-degree form, so the degree-d piece of
    the limit ideal is the image in Sym^d of the polynomials of degree
    at most d vanishing on the points.  One RREF of the values
    [V_0 | V_1 | V_2 | V_3] of the monomials of degrees 0..3 there gives
    the Hilbert function, at d the number of pivots in block d, and the
    degree-2 piece: the null_basis rows of the free columns in block 2,
    which vanish after their own column, cut to block 2.

    Returns (perp, hilbert_function, plane) with perp the degree-2 piece
    and the plane L its contraction-perp.  The contraction pairing on
    quadrics is perfect for p >= 11 and over Q, so L⊥⊥ = L and perp is
    L⊥ = lperp(plane): the caller hands it to jump_dimension and
    segre_cubics without taking it again.  With ``require_143`` a
    Hilbert function other than (1, 4, 3) raises NonGenericConfiguration,
    otherwise the plane comes back as None.
    """
    if points.ambient != "affine":
        raise ValueError("initial_system expects affine points")
    k = points.field
    nvars = points.n
    red, pivots = Matrix(k, np.concatenate(
        [monomial_values(k, nvars, d, points.points) for d in range(4)],
        axis=1)).rref()
    null = null_basis(k, red.data, pivots)
    bounds = np.cumsum([0] + [len(monomial_basis(nvars, d)) for d in range(4)])
    before = np.searchsorted(pivots, bounds)  # the pivots before each block
    cut = bounds - before  # the free columns, so null_basis rows, before it
    perp = FormSpace.from_matrix(k, nvars, 2, Matrix(
        k, null[cut[2]:cut[3], bounds[2]:bounds[3]]))
    hf = HilbertFunction(np.diff(before).tolist())
    plane = None
    if hf == [1, 4, 3]:
        plane = QuadricPlane(annihilator_piece(perp, 2))
    elif require_143:
        raise NonGenericConfiguration(
            f"limit Hilbert function is {hf}, not (1, 4, 3)")
    return perp, hf, plane


# ---------------------------------------------------------------------------
# Cubic pencils and the ninth base point
# ---------------------------------------------------------------------------


def _random_gl(k: Field, n: int, rng) -> np.ndarray:
    while True:
        m = k.array([[k.random_element(rng) for _ in range(n)]
                     for _ in range(n)])
        if Matrix(k, m).rank() == n:
            return m


def _plane_values(k: Field, rows, e: int, d: int) -> np.ndarray:
    """Values at lattice_points(k, 3, d) of plane forms of degree e."""
    return dot(k, monomial_values(k, 3, e, lattice_points(k, 3, d)), rows.T)


def _plane_piece(k: Field, rows, e: int, d: int) -> np.ndarray:
    """ideal_piece_values of the plane forms of degree e with these rows."""
    return ideal_piece_values(k, 3, e, d, _plane_values(k, rows, e, d))


def ninth_base_point(k: Field, cubics, known: PointSet):
    """The residual ninth common zero of two plane cubics c1, c2 (the
    coefficient rows ``cubics``) through 8 known points.

    (c1, c2) is the saturated ideal of the nine base points, so a quartic
    f through the 8 known points outside (c1, c2) misses the ninth, and
    l*f lies in (c1, c2) exactly for the lines l through it
    (Cayley-Bacharach).  Those lines are the first three coordinates of
    the kernel of [x_i*f | m*c1 | m*c2] over the quadric monomials m;
    when they do not meet in one point off the known ones, the
    configuration is not generic.
    """
    if len(known) != 8:
        raise ValueError("need exactly 8 known points")
    ideal4 = Matrix(k, _plane_piece(k, cubics, 3, 4)).rref()[0].data
    # the quartics through the known points have dimension at least 7,
    # (c1, c2) at most 6, so one of them lies outside
    quartics = forms_through(known, 4).basis.data
    _, off = row_space_residual(k, ideal4, _plane_piece(k, quartics, 4, 4))
    f = quartics[np.flatnonzero(np.any(off != k.zero, axis=1))[0]]
    rows = np.concatenate([_plane_piece(k, f[None], 4, 5),
                           _plane_piece(k, cubics, 3, 5)])
    lines = Matrix(k, rows.T).right_kernel()
    point = Matrix(k, lines.data[:, :3]).right_kernel()
    if lines.rows != 2 or point.rows != 1:
        raise NonGenericConfiguration(
            "the pencil's base locus is not 9 points")
    q = tuple(k.of(c) for c in point.data[0])  # RREF: leading coordinate 1
    if q in known.points:
        raise NonGenericConfiguration(
            "ninth base point coincides with a known point")
    return q


# ---------------------------------------------------------------------------
# Gale duality
# ---------------------------------------------------------------------------


def projection_from_point(q, k: Field, rng=None) -> RationalMap:
    """The composite of the quadratic Veronese of the plane with the
    projection from the image of q: a basis of the 5-space of plane
    conics through q.

    The canonical row-reduced basis contains a reducible conic (a line
    pair), which makes the hyperplane at infinity of the resulting
    coordinates special; passing an rng mixes the basis by a random
    invertible matrix so all five target functionals are generic.
    """
    pts = PointSet(k, "projective", 2, [q])
    conics = forms_through(pts, 2)
    if conics.dim != 5:
        raise NonGenericConfiguration("conics through the point are degenerate")
    rows = conics.basis.data
    if rng is not None:
        rows = dot(k, _random_gl(k, 5, rng), rows)
    return RationalMap(k, 3, 2, rows)


def gale_dual(gamma2: PointSet, q, projection: RationalMap) -> PointSet:
    """8 points in P^4: images of the plane points under the Veronese
    followed by the projection from the image of q (projection_from_point)."""
    k = gamma2.field
    q = _normalize_projective(k, tuple(k.of(c) for c in q))
    if q in gamma2.points:
        raise ValueError("projection center among the points")
    images = []
    for p in gamma2.points:
        im = apply_map(projection, p)
        if im is None:
            raise NonGenericConfiguration("point maps to the center")
        images.append(im)
    return PointSet(k, "projective", 4, images)


# ---------------------------------------------------------------------------
# Elliptic members of the cubic pencil
# ---------------------------------------------------------------------------


@dataclass
class EllipticMember:
    s: object
    quadrics: FormSpace


def elliptic_member(k: Field, cubics, q, s,
                    projection: RationalMap | None = None) -> EllipticMember:
    """The 5 quadrics through the image of a smooth member c = c1 + s*c2
    of the pencil of plane cubics with coefficient rows ``cubics`` =
    (c1, c2), under the projection from q, a base point of the pencil.

    A smooth plane cubic is irreducible, so its ideal is (c), and a
    quadric Q contains the image curve exactly when Q(proj) = l*c for a
    linear form l.  Both sides are plane quartics, which agree exactly
    when they agree at the 15 points of lattice_points(k, 3, 4); so the
    quadrics are the Q-parts of the kernel of [Q(proj) | x_j*c] evaluated
    there, a 15 x 18 matrix (l = 0 when Q = 0, so each row of the RREF
    kernel leads in its Q-part, and those parts are already an RREF).

    One pipeline run must use one projection throughout; pass the same
    map that produced the point configuration."""
    cs = k.reduce(cubics[0] + k.of(s) * cubics[1])
    # the partials have no common zero iff they fill degree 4 (15
    # monomials), the Macaulay bound
    partials = contraction_rows(k, cs, 3, 1, 2)
    if Matrix(k, _plane_piece(k, partials, 2, 4)).rank() != 15:
        raise NonGenericConfiguration(f"member at s={s} is singular")
    proj = projection_from_point(q, k) if projection is None else projection
    pulled = monomial_values(k, 5, 2, _plane_values(k, proj.rows, 2, 4))
    times_c = _plane_piece(k, cs[None], 3, 4).T
    ker = Matrix(k, np.concatenate([pulled, times_c], axis=1)).right_kernel()
    quadrics = FormSpace(k, 5, 2, Matrix(k, ker.data[:, :15]))
    if quadrics.dim != 5:
        raise NonGenericConfiguration(
            f"member quadrics have dimension {quadrics.dim}, not 5")
    return EllipticMember(s, quadrics)


# ---------------------------------------------------------------------------
# Segre cubics
# ---------------------------------------------------------------------------


def segre_cubics(members: list[EllipticMember],
                 perp: FormSpace) -> list[FormSpace]:
    """For each member, the cubic relations among its quadrics restricted
    to the hyperplane at infinity of the limit chart, expressed in the 7
    coordinates dual to the canonical basis of perp = L⊥, the degree-2
    piece of the limit ideal that initial_system returns (L⊥⊥ = L, since
    the contraction pairing on quadrics is perfect for p >= 11 and over
    Q).

    The restrictions are the coefficients free of x4.  In the RREF basis
    of perp a form's coordinates are its coefficients at the pivots, so
    one product checks that the restrictions lie in it.  Every output
    cubic is checked to lie in the kernel of the jump matrix of perp,
    which is built once for all members.
    """
    k = perp.field
    free = [i for i, e in enumerate(monomial_basis(5, 2)) if e[4] == 0]
    rows = perp.basis.data
    jump = jump_matrix_from_quadrics(k, integral_rows(k, rows)).data
    out = []
    for member in members:
        restricted = member.quadrics.basis.data[:, free]
        incl, off = row_space_residual(k, rows, restricted)
        if np.any(off != k.zero):
            raise AssertionError(
                "restricted quadrics do not land in the perpendicular "
                "space; the chart identifications are inconsistent")
        # relations among the 5 restricted quadrics: kernel of the 84x35
        # multiplication matrix
        ker = jump_matrix_from_quadrics(k, restricted).right_kernel()
        if ker.rows < 1:
            raise NonGenericConfiguration("no cubic relation for this member")
        # substitute the coordinates z_i = incl[i] . y into each relation
        lifts = compose(k, ker.data, incl, 7, 1, 3)
        if np.any(dot(k, lifts, jump.T) != k.zero):
            raise AssertionError("Segre cubic not in the jump kernel")
        out.append(FormSpace.from_matrix(k, 7, 3, Matrix(k, lifts)))
    return out


# ---------------------------------------------------------------------------
# The octic surface and its Cremona quadrics
# ---------------------------------------------------------------------------


def octic_surface(z: PointSet):
    """Embedding of the plane blown up in 8 points by quartics, the 7
    quadrics through the image surface, and the induced self-map of P^6."""
    if z.ambient != "projective" or z.n != 2 or len(z) != 8:
        raise ValueError("need 8 points in the projective plane")
    k = z.field
    quartics = forms_through(z, 4)
    if quartics.dim != 7:
        raise NonGenericConfiguration(
            f"quartics through the points have dimension {quartics.dim}, not 7")
    embed = RationalMap(k, 3, 4, quartics.basis.data)
    # quadrics through the image: kernel of Sym^2 of the quartic space
    # into degree-8 plane forms, evaluated at the 45 lattice points of
    # degree 8, which multiplies it by an invertible matrix
    values = monomial_values(k, 7, 2, _plane_values(
        k, quartics.basis.data, 4, 8))
    quadrics = FormSpace(k, 7, 2, Matrix(k, values).right_kernel())
    if quadrics.dim != 7:
        raise NonGenericConfiguration(
            f"quadrics through the octic surface: dim {quadrics.dim}, not 7")
    cremona = RationalMap(k, 7, 2, quadrics.basis.data)
    return embed, quadrics, cremona


# ---------------------------------------------------------------------------
# Inverses of Cremona transformations
# ---------------------------------------------------------------------------


def find_inverse(f: RationalMap, d2: int, seed: int = 0):
    """Inverse of degree d2 for a Cremona transformation, or None.

    Candidate coefficient vectors g = (g_0, ..., g_{n-1}) come from a
    sampled proportionality system (a necessary condition, so an empty
    kernel proves absence): g(y) is proportional to x at y = f(x), that
    is m(y).g_i = x_i m(y).g_0 for i = 1..n-1, with m(y) the values of
    the N degree-d2 monomials and x_0 = 1.  Over S sample points this is
    M g_i = D_i M g_0 with M the S x N matrix of the m(y) and
    D_i = diag(x_i), and it is solved in that form, never as the dense
    (n-1)S x nN matrix (1710 x 1470 for the octic Cremona at d2 = 4):

    * the RREF of [M | I_S] is [R | E_top] over [0 | E_bot], so
      E M = [R; 0] with E invertible.  M g_i = b_i is solvable iff
      E_bot b_i = 0, and then g_i is E_top b_i at the pivot columns of R
      and 0 elsewhere, plus any v in ker M;
    * so g_0 runs over the kernel of C, the blocks E_bot D_i M stacked
      over i, and each g_0 in a basis of it gives one kernel vector, with
      g_i = E_top D_i M g_0 at the pivots.  Each v in ker M, put in block
      i >= 1, gives another (v in block 0 is already there: C v = 0, and
      its g_i vanish).

    These vectors are independent and span the kernel of the dense
    system, and the RREF of a subspace is unique, so their RREF is the
    dense matrix's right_kernel, row for row.

    Each kernel row is then certified symbolically: g(f(x)) = lambda(x)*x
    as an exact polynomial identity, with lambda of degree
    deg(f)*d2 - 1 extracted by exact division.  g(f) comes from compose,
    which builds the power products of f only to degree d2 - 1 (84
    sextics, not 210 octics, for the octic Cremona at d2 = 4).  Returns
    (g, lambda) for the first row that certifies, else None.  If f is
    dominant and g is an inverse of least degree e <= d2, the exact
    kernel is {h g : deg h = d2 - e}, and every nonzero vector of it
    certifies.  So a row that
    fails means the sampled kernel is larger than the exact one: the
    samples were unlucky, and the pipelines resample when they need an
    inverse.
    """
    k = f.field
    if not isinstance(k, PrimeField):
        raise ValueError("inverse search implemented for prime fields")
    nv = f.source_vars
    if f.target_vars != nv:
        raise ValueError("inverse search needs a self-map")
    d1 = f.degree
    ker = _proportionality_kernel(k, *_inverse_samples(f, d2, seed))
    if ker.rows == 0:
        return None
    for coeffs in ker.data:
        comp = compose(k, coeffs.reshape(nv, -1), f.rows, nv, d1, d2)
        lam = _exact_var_quotient(k, comp[0], nv, d1 * d2, 0)
        if lam is None or not np.any(lam != k.zero):
            continue
        if all(np.all(k.reduce(var_shift(k, lam, nv, d1 * d2 - 1, i)
                              - comp[i]) == k.zero) for i in range(1, nv)):
            g = RationalMap(k, nv, d2, coeffs.reshape(nv, -1))
            return g, Poly.from_coeff_vector(k, nv, d1 * d2 - 1, lam)
    return None


def _inverse_samples(f: RationalMap, d2: int, seed: int):
    """The sample points of find_inverse and the degree-d2 monomial
    values at their images: (xs, m), one row per point.

    Each try draws x = (1, x_1, ..., x_{n-1}) from random.Random(seed);
    a point in the base locus (f(x) = 0) is skipped, and at most 50 tries
    are made per sample.  Tries are evaluated in batches no larger than
    the samples still missing, so the points are those a one-at-a-time
    loop accepts."""
    k = f.field
    nv = f.source_vars
    rng = random.Random(seed)
    samples = nv * len(monomial_basis(nv, d2)) // max(nv - 1, 1) + 40
    xs, ys = [], []
    have = tries = 0
    while have < samples and tries < 50 * samples:
        batch = min(samples - have, 50 * samples - tries)
        tries += batch
        x = np.ones((batch, nv), dtype=np.int64)
        x[:, 1:] = np.reshape([k.random_element(rng)
                               for _ in range(batch * (nv - 1))],
                              (batch, nv - 1))
        y = dot(k, monomial_values(k, nv, f.degree, x), f.rows.T)
        keep = np.any(y != k.zero, axis=1)
        xs.append(x[keep])
        ys.append(y[keep])
        have += int(keep.sum())
    if have < samples:
        raise GenericityError("could not sample enough points off the base locus")
    ys = np.concatenate(ys)
    return np.concatenate(xs), monomial_values(k, nv, d2, ys)


def _proportionality_kernel(k: PrimeField, xs: np.ndarray,
                            m: np.ndarray) -> Matrix:
    """RREF basis of the g = (g_0, ..., g_{n-1}), concatenated, with
    m g_i = D_i m g_0 for i = 1..n-1, where D_i = diag(xs[:, i]): the
    block solve described in find_inverse."""
    count, size = m.shape
    nv = xs.shape[1]
    red, pivots = Matrix(k, np.concatenate(
        [m, np.eye(count, dtype=np.int64)], axis=1)).rref()
    pivots = [c for c in pivots if c < size]  # those of R
    rank = len(pivots)
    top, e_top, e_bot = (red.data[:rank, :size], red.data[:rank, size:],
                         red.data[rank:, size:])
    scaled = xs.T[1:, None, :]  # E D_i: the columns of E scaled by x_i
    # g_0 over the kernel of C; g_i = E_top D_i M g_0 at the pivots of R
    g0 = Matrix(k, dot(k, k.reduce(e_bot * scaled), m).reshape(-1, size)
                ).right_kernel().data
    at_pivots = dot(k, k.reduce(e_top * scaled), dot(k, m, g0.T))
    blocks = k.zeros((len(g0), nv, size))
    blocks[:, 0] = g0
    blocks[:, 1:, pivots] = at_pivots.transpose(2, 0, 1)
    # and ker M in each block i >= 1
    free = null_basis(k, top, pivots)
    extra = k.zeros((nv - 1, len(free), nv, size))
    for i in range(1, nv):
        extra[i - 1, :, i] = free
    basis = np.concatenate([blocks, extra.reshape(-1, nv, size)])
    red, pivots = Matrix(k, basis.reshape(-1, nv * size)).rref()
    return Matrix(k, red.data[:len(pivots)])


def _exact_var_quotient(k: Field, vec, nvars: int, d: int, var: int):
    """Quotient of a dense degree-d vector by x_var, or None when the
    division is not exact."""
    shifted = mult_table(nvars, d - 1, 1)[:, var]
    rest = np.ones(len(vec), dtype=bool)
    rest[shifted] = False
    if np.any(vec[rest] != k.zero):
        return None
    return vec[shifted]


# ---------------------------------------------------------------------------
# End-to-end pipelines
# ---------------------------------------------------------------------------


PIPELINE_ATTEMPTS = 10
GALE_MEMBERS = 3


def _retry(name: str, once, k: Field, seed: int, *args):
    """Run once(k, rng, attempt, *args) on derived sub-seeds until a
    configuration is generic, so that a fixed seed stays deterministic.
    Attempts are SUBSEED_STRIDE^2 apart, so that no attempt of one sample
    (samples are SUBSEED_STRIDE apart) redraws one of another."""
    last = None
    for attempt in range(PIPELINE_ATTEMPTS):
        rng = random.Random(subseed(seed, SUBSEED_STRIDE * attempt))
        try:
            return once(k, rng, attempt, *args)
        except (NonGenericConfiguration, GenericityError) as exc:
            last = exc
    raise GenericityError(f"{name} pipeline: retries exhausted ({last})")


def _cubic_pencil(k: Field, rng):
    """8 random plane points, the coefficient rows of the pencil of cubics
    through them and its ninth base point: (gamma2, cubics, ninth)."""
    gamma2 = random_projective_points(k, 2, 8, rng)
    pencil = forms_through(gamma2, 3)
    if pencil.dim != 2:
        raise NonGenericConfiguration("cubics through the 8 points: dim != 2")
    cubics = pencil.basis.data
    # this draw feeds nothing; it keeps every later draw, and so every
    # result pinned to a seed, where it was
    rng.randrange(1 << 30)
    return gamma2, cubics, ninth_base_point(k, cubics, gamma2)


def _smooth_members(k: Field, rng, pencil, wanted: int, projection=None):
    """``wanted`` smooth members of the pencil at distinct random
    parameters, from at most 30 draws; a repeated draw is skipped."""
    _, cubics, ninth = pencil
    members = []
    drawn = set()
    for _ in range(30):
        s = k.random_element(rng)
        if s in drawn:
            continue
        drawn.add(s)
        try:
            members.append(elliptic_member(k, cubics, ninth, s, projection))
        except NonGenericConfiguration:
            continue
        if len(members) == wanted:
            return members
    raise NonGenericConfiguration("not enough smooth pencil members")


@dataclass
class GalePipelineResult:
    gamma2: PointSet
    ninth: tuple
    gamma4: PointSet
    projection: RationalMap
    hf: HilbertFunction
    perp: FormSpace
    plane: QuadricPlane
    members: list[EllipticMember]
    chain_dims: tuple[int, int, int]
    segre_span_dim: int
    resamples: int


def gale_pipeline(k: Field, seed: int) -> GalePipelineResult:
    """8 random plane points -> Gale dual -> limit plane -> Segre cubics."""
    return _retry("gale", _gale_once, k, seed)


def _gale_once(k: Field, rng, attempt: int) -> GalePipelineResult:
    pencil = _cubic_pencil(k, rng)
    gamma2, _, ninth = pencil
    proj = projection_from_point(ninth, k, rng)
    gamma4 = gale_dual(gamma2, ninth, projection=proj)
    quads = forms_through(gamma4, 2)
    if quads.dim != 7:
        raise NonGenericConfiguration("quadrics through the dual points: dim != 7")
    affine = dehomogenize(gamma4)
    perp, hf, plane = initial_system(affine)
    mems = _smooth_members(k, rng, pencil, GALE_MEMBERS, proj)
    spaces = [m.quadrics for m in mems]
    inter = spaces[0]
    for sp in spaces[1:]:
        inter = inter.intersect(sp)
    chain = (inter.dim, spaces[0].dim, quads.dim)
    for sp in spaces:
        if not quads.contains_space(sp):
            raise NonGenericConfiguration("member quadrics not inside the 7")
    span = Matrix(k, np.concatenate(
        [sp.basis.data for sp in segre_cubics(mems, perp)])).rank()
    return GalePipelineResult(gamma2, ninth, gamma4, proj, hf, perp, plane,
                              mems, chain, span, attempt)


@dataclass
class CremonaResult:
    z: PointSet
    octic_quadrics: FormSpace
    ce: RationalMap
    ce_inverse: RationalMap
    ce_lambda: Poly
    cs8: RationalMap
    cs8_inverse: RationalMap | None
    cs8_absent_deg3: bool | None
    resamples: int


def cremona_pipeline(k: Field, seed: int, slow: bool = False) -> CremonaResult:
    """Build c_E from an elliptic quintic and c_{S8} from the octic
    surface; certify the inverse of c_E (degree 3) and, in slow mode,
    the (2, 4) type of c_{S8}."""
    return _retry("cremona", _cremona_once, k, seed, slow)


def _cremona_once(k: Field, rng, attempt: int, slow: bool) -> CremonaResult:
    member, = _smooth_members(k, rng, _cubic_pencil(k, rng), 1)
    ce = RationalMap(k, 5, 2, member.quadrics.basis.data)
    inv = find_inverse(ce, 3, seed=rng.randrange(1 << 30))
    if inv is None:
        raise NonGenericConfiguration("c_E inverse not found at degree 3")
    ce_inv, lam = inv
    z = random_projective_points(k, 2, 8, rng)
    _, octq, cs8 = octic_surface(z)
    cs8_inv = None
    absent3 = None
    if slow:
        got = find_inverse(cs8, 4, seed=rng.randrange(1 << 30))
        if got is None:
            raise NonGenericConfiguration("c_S8 inverse not found at degree 4")
        cs8_inv = got[0]
        absent3 = find_inverse(cs8, 3, seed=rng.randrange(1 << 30)) is None
    return CremonaResult(z, octq, ce, ce_inv, lam, cs8, cs8_inv, absent3,
                         attempt)
