"""Point configurations, limits, Gale duality, and Cremona maps.

The constructive pipeline: 8 points in the plane determine a cubic
pencil with a ninth base point; Veronese reembedding and projection
from that point produce 8 points in P^4 whose scaled limit is a
degree-8 scheme with Hilbert function (1, 4, 3); elliptic members of
the pencil supply the special cubics through the projected Veronese.
Quadrics through an elliptic quintic or through the octic surface give
Cremona transformations whose inverses are computed and certified
exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .apolarity import (GradedIdeal, HilbertFunction, QuadricPlane,
                        annihilator, contract)
from .fields import Field, PrimeField
from .linalg import FormSpace, Matrix, ideal_piece_dim
from .loci import (GenericityError, jump_matrix, jump_matrix_from_quadrics,
                   lperp)
from .poly import (Poly, dot, line_restriction, monomial_basis, mult_table,
                   parse_poly, power_products, var_shift)
from .unipoly import UniPoly, chart_resultant, gcd, roots_in_field
from .unipoly import interpolate  # noqa: F401  (importable from here, as before)


class NonGenericConfiguration(ValueError):
    """A construction hit a degenerate configuration; carries data
    useful for deciding whether to resample."""

    def __init__(self, message, hf=None):
        super().__init__(message)
        self.hf = hf


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

    def save(self, path: str):
        with open(path, "w") as fh:
            for p in self.points:
                fh.write(",".join(str(c) for c in p) + "\n")

    @classmethod
    def load(cls, path: str, field: Field, ambient: str, n: int) -> "PointSet":
        pts = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                pts.append(tuple(field.of(int(c)) for c in line.split(",")))
        return cls(field, ambient, n, pts)


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


@dataclass
class RationalMap:
    """A rational map between projective spaces, as a list of forms of
    one common degree (the fixed lift at the cone level)."""

    forms: list[Poly]

    def __post_init__(self):
        if not self.forms:
            raise ValueError("need at least one form")
        degs = {f.degree() for f in self.forms if not f.is_zero()}
        if not degs:
            raise ValueError("all forms are zero")
        if len(degs) != 1:
            raise ValueError("forms must share one degree")
        for f in self.forms:
            if not f.is_homogeneous():
                raise ValueError("forms must be homogeneous")

    @property
    def source_vars(self) -> int:
        return self.forms[0].nvars

    @property
    def target_vars(self) -> int:
        return len(self.forms)

    @property
    def degree(self) -> int:
        return max(f.degree() for f in self.forms)

    def save(self, path: str, varnames=None):
        names = varnames or [f"x{i}" for i in range(self.source_vars)]
        with open(path, "w") as fh:
            for f in self.forms:
                fh.write(f.format(names) + "\n")

    @classmethod
    def load(cls, path: str, field: Field, varnames: list[str]) -> "RationalMap":
        forms = []
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                forms.append(parse_poly(line, varnames, field))
        return cls(forms)


def apply_map(f: RationalMap, p) -> tuple | None:
    """Image of a projective point; None when p is in the base locus."""
    k = f.forms[0].field
    p = tuple(k.of(c) for c in p)
    if len(p) != f.source_vars:
        raise ValueError("point dimension mismatch")
    vals = tuple(form.evaluate(p) for form in f.forms)
    if all(v == k.zero for v in vals):
        return None
    return _normalize_projective(k, vals)


# ---------------------------------------------------------------------------
# Linear systems through points
# ---------------------------------------------------------------------------


def _monomial_values(k: Field, nvars: int, d: int, point) -> np.ndarray:
    basis = monomial_basis(nvars, d)
    vec = k.zeros(len(basis))
    for i, e in enumerate(basis):
        v = k.one
        for xj, ej in zip(point, e):
            for _ in range(ej):
                v = k.mul(v, xj)
        vec[i] = v
    return vec


def forms_through(points: PointSet, d: int) -> FormSpace:
    """Degree-d forms vanishing at every point (kernel of evaluation)."""
    if points.ambient != "projective":
        raise ValueError("forms_through expects projective points")
    k = points.field
    nvars = points.n + 1
    rows = [_monomial_values(k, nvars, d, p) for p in points.points]
    ker = Matrix(k, rows).right_kernel()
    return FormSpace.from_matrix(k, nvars, d, ker)


# ---------------------------------------------------------------------------
# Scaled limits of point tuples
# ---------------------------------------------------------------------------


def initial_system(points: PointSet, require_143: bool = True):
    """Graded ideal of the scaled limit of an affine point tuple.

    Scaling the points toward the origin turns every polynomial
    vanishing on them into its top-degree form, so the degree-d piece of
    the limit ideal is the image in Sym^d of the polynomials of degree
    at most d vanishing on the points.

    Returns (ideal, hilbert_function, plane) where the plane is the
    contraction-perp of the degree-2 piece; with ``require_143`` a
    Hilbert function other than (1, 4, 3) raises NonGenericConfiguration,
    otherwise the plane comes back as None.
    """
    if points.ambient != "affine":
        raise ValueError("initial_system expects affine points")
    k = points.field
    nvars = points.n
    pieces = {}
    hf_vals = []
    for d in range(4):
        # evaluation on all monomials of degree <= d, then project to
        # the top-degree block
        cols = []
        sizes = []
        for e in range(d + 1):
            cols.append(e)
            sizes.append(len(monomial_basis(nvars, e)))
        rows = []
        for p in points.points:
            rows.append(np.concatenate(
                [_monomial_values(k, nvars, e, p) for e in cols]))
        ker = Matrix(k, rows).right_kernel()
        top = ker.data[:, sum(sizes[:-1]):]
        pieces[d] = FormSpace.from_matrix(k, nvars, d, Matrix(k, top))
        hf_vals.append(sizes[-1] - pieces[d].dim)
    ideal = GradedIdeal(pieces)
    hf = HilbertFunction(hf_vals)
    plane = None
    if hf == [1, 4, 3]:
        plane = QuadricPlane(annihilator(pieces[2], 2).piece(2))
    elif require_143:
        raise NonGenericConfiguration(
            f"limit Hilbert function is {hf}, not (1, 4, 3)", hf=hf)
    return ideal, hf, plane


# ---------------------------------------------------------------------------
# Cubic pencils and the ninth base point
# ---------------------------------------------------------------------------


def _random_gl(k: Field, n: int, rng) -> np.ndarray:
    while True:
        m = k.array([[k.random_element(rng) for _ in range(n)]
                     for _ in range(n)])
        if Matrix(k, m).rank() == n:
            return m


def ninth_base_point(c1: Poly, c2: Poly, known: PointSet, seed: int = 0):
    """The residual ninth common zero of two plane cubics through 8
    known points.

    Works in a random coordinate change: the resultant in the second
    variable is a degree-9 univariate polynomial whose roots are the
    first coordinates of the 9 intersection points; dividing out the 8
    known roots leaves a linear factor.
    """
    if len(known) != 8:
        raise ValueError("need exactly 8 known points")
    k = c1.field
    if not isinstance(k, PrimeField):
        raise ValueError("ninth_base_point implemented for prime fields")
    rng = random.Random(seed)
    for _ in range(10):
        g = _random_gl(k, 3, rng)
        ginv = Matrix(k, g).inverse().data
        # c(g x) = 0 at y iff c = 0 at g y; known points move by g^{-1}
        t1, t2 = c1.substitute_linear(g), c2.substitute_linear(g)
        if (t1.coefficient((0, 3, 0)) == k.zero
                or t2.coefficient((0, 3, 0)) == k.zero):
            continue
        moved = []
        ok = True
        for p in known.points:
            q = tuple(k.reduce(np.asarray(ginv) @ k.array(p)))
            if q[2] == k.zero:
                ok = False
                break
            inv = k.inv(q[2])
            moved.append((k.mul(q[0], inv), k.mul(q[1], inv)))
        if not ok or len({m[0] for m in moved}) != 8:
            continue
        v1, v2 = t1.coeff_vector(3), t2.coeff_vector(3)
        res = chart_resultant(k, v1, v2, 2)
        if res.degree() != 9:
            continue
        rem = res
        bad = False
        for m in moved:
            lin = UniPoly(k, [k.neg(m[0]), k.one])
            q, r = rem.divmod(lin)
            if not r.is_zero():
                bad = True
                break
            rem = q
        if bad or rem.degree() != 1:
            continue
        x9 = k.div(k.neg(rem.coeffs[0]), rem.coeffs[1])
        line = line_restriction(k, 3, 2, x9)
        common = gcd(UniPoly(k, dot(k, v1, line)),
                     UniPoly(k, dot(k, v2, line)))
        if common.degree() != 1:
            continue
        y9 = k.div(k.neg(common.coeffs[0]), common.coeffs[1])
        q = tuple(k.reduce(np.asarray(g) @ k.array([x9, y9, k.one])))
        q = tuple(k.of(c) for c in _normalize_projective(k, q))
        if c1.evaluate(q) != k.zero or c2.evaluate(q) != k.zero:
            continue
        if q in known.points:
            raise NonGenericConfiguration(
                "ninth base point coincides with a known point")
        return q
    raise GenericityError("ninth_base_point: no usable coordinate change")


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
    basis = conics.polys()
    if rng is None:
        return RationalMap(basis)
    g = _random_gl(k, 5, rng)
    mixed = []
    for i in range(5):
        f = Poly.zero(k, 3)
        for j in range(5):
            f = f + basis[j].scale(g[i][j])
        mixed.append(f)
    return RationalMap(mixed)


def gale_dual(gamma2: PointSet, q,
              projection: RationalMap | None = None) -> tuple[PointSet, RationalMap]:
    """8 points in P^4: images of the plane points under the Veronese
    followed by projection from the image of q."""
    k = gamma2.field
    q = _normalize_projective(k, tuple(k.of(c) for c in q))
    if q in gamma2.points:
        raise ValueError("projection center among the points")
    proj = projection_from_point(q, k) if projection is None else projection
    images = []
    for p in gamma2.points:
        im = apply_map(proj, p)
        if im is None:
            raise NonGenericConfiguration("point maps to the center")
        images.append(im)
    return PointSet(k, "projective", 4, images), proj


# ---------------------------------------------------------------------------
# Elliptic members of the cubic pencil
# ---------------------------------------------------------------------------


@dataclass
class EllipticMember:
    s: object
    samples: PointSet
    quadrics: FormSpace

    def __post_init__(self):
        if self.quadrics.dim != 5:
            raise ValueError("member quadrics must have dimension 5")
        for quadric in self.quadrics.polys():
            for p in self.samples.points:
                if quadric.evaluate(p) != self.quadrics.field.zero:
                    raise ValueError("quadric fails to vanish at a sample")


def _cubic_is_smooth(c: Poly) -> bool:
    """Base-point-freeness of the partials, certified at the Macaulay
    bound degree 4."""
    k = c.field
    partials = [contract(Poly.variable(k, 3, i), c) for i in range(3)]
    return ideal_piece_dim(partials, 4) == len(monomial_basis(3, 4))


def elliptic_member(c1: Poly, c2: Poly, q, s, count: int = 40,
                    projection: RationalMap | None = None) -> EllipticMember:
    """Sample a smooth member c1 + s*c2 of the pencil, push the samples
    through the projection from q, and fit the 5 quadrics through the
    image curve.

    One pipeline run must use one projection throughout; pass the same
    map that produced the point configuration."""
    k = c1.field
    if not isinstance(k, PrimeField):
        raise ValueError("point sampling needs a prime field")
    cs = c1 + c2.scale(s)
    if not _cubic_is_smooth(cs):
        raise NonGenericConfiguration(f"member at s={s} is singular")
    proj = projection_from_point(q, k) if projection is None else projection
    images = []
    seen = set()
    vec = cs.coeff_vector(3)
    for x0 in range(k.p):
        f = UniPoly(k, dot(k, vec, line_restriction(k, 3, 2, x0)))
        if f.is_zero():
            continue
        for y0 in set(roots_in_field(f)):
            pt = (k.of(x0), k.of(y0), k.one)
            im = apply_map(proj, pt)
            if im is None or im in seen:
                continue
            seen.add(im)
            images.append(im)
        if len(images) >= count:
            break
    if len(images) < count:
        raise NonGenericConfiguration("too few rational points on the member")
    samples = PointSet(k, "projective", 4, images)
    quadrics = forms_through(samples, 2)
    if quadrics.dim != 5:
        raise NonGenericConfiguration(
            f"member quadrics have dimension {quadrics.dim}, not 5")
    return EllipticMember(s, samples, quadrics)


# ---------------------------------------------------------------------------
# Segre cubics
# ---------------------------------------------------------------------------


def segre_cubic(member: EllipticMember, plane: QuadricPlane) -> FormSpace:
    """Cubic relations among the member's quadrics restricted to the
    hyperplane at infinity of the limit chart, expressed in the 7
    coordinates dual to the canonical basis of the perpendicular space.

    Every output cubic is checked to lie in the kernel of the jump
    matrix of the plane.
    """
    k = plane.field
    restricted = [q.set_var_zero(4) for q in member.quadrics.polys()]
    perp = lperp(plane)
    for r in restricted:
        if not perp.contains(r):
            raise ValueError(
                "restricted quadrics do not land in the perpendicular space; "
                "the chart identifications are inconsistent")
    # relations among the 5 restricted quadrics: kernel of the 84x35
    # multiplication matrix
    m = jump_matrix_from_quadrics(restricted)
    ker = m.right_kernel()
    if ker.rows < 1:
        raise NonGenericConfiguration("no cubic relation for this member")
    # inclusion of the 5-space into the 7-dim perpendicular space
    incl = []
    for r in restricted:
        sol = perp.basis.transpose().solve(r.coeff_vector(2))
        incl.append(sol)
    lifts = []
    z_subs = [Poly(k, 7, {tuple(1 if t == j else 0 for t in range(7)): incl[i][j]
                          for j in range(7)}) for i in range(5)]
    jm = jump_matrix(plane)
    for r_i in range(ker.rows):
        cubic5 = Poly.from_coeff_vector(k, 5, 3, ker.data[r_i])
        cubic7 = cubic5.substitute_polys(z_subs)
        vec = cubic7.coeff_vector(3)
        if np.any(k.reduce(jm.data @ vec) != k.zero):
            raise AssertionError("Segre cubic not in the jump kernel")
        lifts.append(cubic7)
    return FormSpace.from_polys(lifts, nvars=7, degree=3)


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
    embed = RationalMap(quartics.polys())
    # quadrics through the image: kernel of Sym^2 of the quartic space
    # into degree-8 plane forms
    ker = Matrix(k, power_products(quartics.polys(), 2).T).right_kernel()
    quadrics = FormSpace.from_matrix(k, 7, 2, ker)
    if quadrics.dim != 7:
        raise NonGenericConfiguration(
            f"quadrics through the octic surface: dim {quadrics.dim}, not 7")
    cremona = RationalMap(quadrics.polys())
    return embed, quadrics, cremona


# ---------------------------------------------------------------------------
# Inverses of Cremona transformations
# ---------------------------------------------------------------------------


def find_inverse(f: RationalMap, d2: int, seed: int = 0,
                 samples: int | None = None):
    """Inverse of degree d2 for a Cremona transformation, or None.

    Candidate coefficient vectors come from a sampled proportionality
    system (a necessary condition, so an empty kernel proves absence);
    each candidate is then certified symbolically: g(f(x)) = lambda(x)*x
    as an exact polynomial identity, with lambda of degree
    deg(f)*d2 - 1 extracted by exact division.  Returns (g, lambda) on
    success.
    """
    k = f.forms[0].field
    if not isinstance(k, PrimeField):
        raise ValueError("inverse search implemented for prime fields")
    nv = f.source_vars
    if f.target_vars != nv:
        raise ValueError("inverse search needs a self-map")
    d1 = f.degree
    rng = random.Random(seed)
    mono_y = monomial_basis(nv, d2)
    ncols = nv * len(mono_y)
    if samples is None:
        samples = (ncols // max(nv - 1, 1)) + 40
    rows = []
    tries = 0
    while len(rows) < samples * (nv - 1) and tries < 50 * samples:
        tries += 1
        x = tuple([k.one] + [k.random_element(rng) for _ in range(nv - 1)])
        y = tuple(form.evaluate(x) for form in f.forms)
        if all(v == k.zero for v in y):
            continue
        my = _monomial_values(k, nv, d2, y)
        for i in range(1, nv):
            row = k.zeros(ncols)
            row[i * len(mono_y):(i + 1) * len(mono_y)] = my  # g_i * x_0
            row[0:len(mono_y)] = k.reduce(-x[i] * my)  # -g_0 * x_i
            rows.append(row)
    if len(rows) < samples * (nv - 1):
        raise GenericityError("could not sample enough points off the base locus")
    ker = Matrix(k, np.stack(rows)).right_kernel()
    if ker.rows == 0:
        return None
    prods = power_products(f.forms, d2)  # len(mono_y) x dim Sym^{d1 d2}

    def composites(coeffs):
        out = []
        for i in range(nv):
            gi = coeffs[i * len(mono_y):(i + 1) * len(mono_y)]
            out.append(k.reduce(gi @ prods))
        return out

    def certify(coeffs):
        comp = composites(coeffs)
        lam = _exact_var_quotient(k, comp[0], nv, d1 * d2, 0)
        if lam is None:
            return None
        for i in range(1, nv):
            if np.any(k.reduce(var_shift(k, lam, nv, d1 * d2 - 1, i)
                               - comp[i]) != k.zero):
                return None
        if not np.any(lam != k.zero):
            return None
        g = RationalMap([Poly.from_coeff_vector(
            k, nv, d2, coeffs[i * len(mono_y):(i + 1) * len(mono_y)])
            for i in range(nv)])
        return g, Poly.from_coeff_vector(k, nv, d1 * d2 - 1, lam)

    for r in range(ker.rows):
        got = certify(ker.data[r])
        if got is not None:
            return got
    if ker.rows == 1:
        return None
    # the kernel mixes the inverse with forms vanishing on the image:
    # impose proportionality symbolically on the kernel coordinates
    comp_basis = [composites(ker.data[r]) for r in range(ker.rows)]
    big_rows = []
    for i in range(1, nv):
        block = []
        for r in range(ker.rows):
            col = k.reduce(var_shift(k, comp_basis[r][i], nv, d1 * d2, 0)
                           - var_shift(k, comp_basis[r][0], nv, d1 * d2, i))
            block.append(col)
        big_rows.append(np.stack(block, axis=1))
    small_ker = Matrix(k, np.concatenate(big_rows, axis=0)).right_kernel()
    for r in range(small_ker.rows):
        coeffs = k.reduce(small_ker.data[r] @ ker.data)
        got = certify(coeffs)
        if got is not None:
            return got
    return None


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


@dataclass
class GalePipelineResult:
    gamma2: PointSet
    ninth: tuple
    gamma4: PointSet
    projection: RationalMap
    hf: HilbertFunction
    plane: QuadricPlane
    members: list[EllipticMember]
    chain_dims: tuple[int, int, int]
    segre_span_dim: int
    resamples: int


def gale_pipeline(k: Field, seed: int, members: int = 3) -> GalePipelineResult:
    """8 random plane points -> Gale dual -> limit plane -> Segre cubics.

    Retries with derived sub-seeds when a non-generic configuration
    shows up, preserving determinism.
    """
    last = None
    for attempt in range(10):
        rng = random.Random(subseed(seed, attempt))
        try:
            return _gale_once(k, rng, members, attempt)
        except (NonGenericConfiguration, GenericityError) as exc:
            last = exc
    raise GenericityError(f"gale pipeline: retries exhausted ({last})")


def _gale_once(k: Field, rng, members: int, attempt: int) -> GalePipelineResult:
    gamma2 = random_projective_points(k, 2, 8, rng)
    pencil = forms_through(gamma2, 3)
    if pencil.dim != 2:
        raise NonGenericConfiguration("cubics through the 8 points: dim != 2")
    c1, c2 = pencil.polys()
    ninth = ninth_base_point(c1, c2, gamma2, seed=rng.randrange(1 << 30))
    proj = projection_from_point(ninth, k, rng)
    gamma4, proj = gale_dual(gamma2, ninth, projection=proj)
    quads = forms_through(gamma4, 2)
    if quads.dim != 7:
        raise NonGenericConfiguration("quadrics through the dual points: dim != 7")
    affine = dehomogenize(gamma4)
    _, hf, plane = initial_system(affine)
    mems = []
    s_tried = 0
    while len(mems) < members and s_tried < 30:
        s = k.random_element(rng)
        s_tried += 1
        try:
            mems.append(elliptic_member(c1, c2, ninth, s, projection=proj))
        except NonGenericConfiguration:
            continue
    if len(mems) < members:
        raise NonGenericConfiguration("not enough smooth pencil members")
    spaces = [m.quadrics for m in mems]
    inter = spaces[0]
    for sp in spaces[1:]:
        inter = inter.intersect(sp)
    chain = (inter.dim, spaces[0].dim, quads.dim)
    for sp in spaces:
        if not quads.contains_space(sp):
            raise NonGenericConfiguration("member quadrics not inside the 7")
        if not sp.contains_space(inter):
            raise AssertionError("intersection not inside a member space")
    segres = [segre_cubic(m, plane) for m in mems]
    all_cubics = [c for s_sp in segres for c in s_sp.polys()]
    span_space = FormSpace.from_polys(all_cubics, nvars=7, degree=3)
    span = span_space.dim
    return GalePipelineResult(gamma2, ninth, gamma4, proj, hf, plane, mems,
                              chain, span, attempt)


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
    last = None
    for attempt in range(10):
        rng = random.Random(subseed(seed, attempt))
        try:
            return _cremona_once(k, rng, slow, attempt)
        except (NonGenericConfiguration, GenericityError) as exc:
            last = exc
    raise GenericityError(f"cremona pipeline: retries exhausted ({last})")


def _cremona_once(k: Field, rng, slow: bool, attempt: int) -> CremonaResult:
    gamma2 = random_projective_points(k, 2, 8, rng)
    pencil = forms_through(gamma2, 3)
    if pencil.dim != 2:
        raise NonGenericConfiguration("cubic pencil degenerate")
    c1, c2 = pencil.polys()
    ninth = ninth_base_point(c1, c2, gamma2, seed=rng.randrange(1 << 30))
    member = None
    for _ in range(30):
        try:
            member = elliptic_member(c1, c2, ninth, k.random_element(rng))
            break
        except NonGenericConfiguration:
            continue
    if member is None:
        raise NonGenericConfiguration("no smooth member found")
    ce = RationalMap(member.quadrics.polys())
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
