"""The three divisorial conditions on planes of quadrics.

A 3-plane L of quadrics in four variables is classified through:

* the 12x12 skew certificate matrix whose Pfaffian cuts the locus of
  planes spanned by partials of a cubic (equivalently, with smoothable
  associated scheme);
* the 84x84 multiplication matrix Sym^3 of the perpendicular 7-space
  into sextics, whose kernel is the space of cubics through the
  projected Veronese image.  It is built by evaluation: row i holds the
  cubic monomials in the values of the 7 quadrics at the i-th of 84
  points on which no nonzero sextic vanishes, which multiplies the
  matrix by an invertible one and keeps its kernel;
* detection of rank <= 2 quadrics in the plane (the secant condition),
  from the ideal of the sixteen 3x3 minors.  Its pieces, like every
  ideal piece, are values at lattice_points: an invertible matrix times
  the coefficient piece, with its rank and kernel, and no form product.

The pencil experiment reproduces the degree bookkeeping 36 = 3*(10+2)
by interpolation along a pencil of planes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import isqrt, lcm

import numpy as np

from .apolarity import QuadricPlane, annihilator_piece
from .apolarity import annihilator  # noqa: F401  (perfbench patches it here by name)
from .fields import Field, PrimeField
from .linalg import (FormSpace, Matrix, det_stack, eliminate_stack,
                     kernel_from_images, null_basis, pfaffian, pfaffian_stack)
from .poly import (Poly, compose, contraction_rows, dot, monomial_basis,
                   monomial_index, monomial_values, mult_table, power_products,
                   random_form)
from .unipoly import UniPoly, interpolate, squarefree_and_power


class GenericityError(RuntimeError):
    """Random resampling failed to reach a generic configuration."""


# ---------------------------------------------------------------------------
# Symmetric matrices of quadrics
# ---------------------------------------------------------------------------


def quadric_matrices(k: Field, rows) -> np.ndarray:
    """The symmetric matrices A (..., 4, 4) with q(x) = x^T A x of the
    quadrics with the given coefficient rows: half their Hessians."""
    return k.reduce(_hessians(k, rows) * k.inv(k.of(2)))


def quadric_to_matrix(q: Poly) -> np.ndarray:
    """Symmetric 4x4 matrix A with q(x) = x^T A x (off-diagonals halved)."""
    if q.nvars != 4 or (not q.is_zero() and (not q.is_homogeneous() or q.degree() != 2)):
        raise ValueError("need a homogeneous quadric in 4 variables")
    return quadric_matrices(q.field, q.coeff_vector(2))


def symmetric_rank(q: Poly) -> int:
    return Matrix(q.field, quadric_to_matrix(q)).rank()


def smoothable_block_matrix(k: Field, rows) -> np.ndarray:
    """The 12x12 skew matrices [[0, A1, -A2], [-A1, 0, A3], [A2, -A3, 0]]
    (..., 12, 12) of the quadrics with coefficient rows (..., 3, 10),
    A_i the quadric_to_matrix of the i-th: half its Hessian."""
    a = quadric_matrices(k, rows)
    a1, a2, a3 = a[..., 0, :, :], a[..., 1, :, :], a[..., 2, :, :]
    z = k.zeros(a1.shape)
    return np.block([[z, a1, k.reduce(-a2)],
                     [k.reduce(-a1), z, a3],
                     [a2, k.reduce(-a3), z]])


def smoothable_pfaffian(plane: QuadricPlane):
    """Pfaffian for the canonical row-reduced basis of the plane.

    The value depends on the basis (it scales by det^2 under GL_3 basis
    changes) but its vanishing does not.
    """
    k = plane.field
    return pfaffian(Matrix(k, smoothable_block_matrix(
        k, plane.space.basis.data)))


# ---------------------------------------------------------------------------
# Perpendicular space and the jump matrix
# ---------------------------------------------------------------------------


def lperp(plane: QuadricPlane) -> FormSpace:
    """The 7-dimensional space L⊥ of dual quadrics annihilating the plane
    L.  The contraction pairing on quadrics is perfect for p >= 11 and
    over Q (Iarrobino and Kanev, Power Sums, Gorenstein Algebras, and
    Determinantal Loci, 1999, 1.1), so L⊥⊥ = L."""
    return annihilator_piece(plane.space, 2)


# the largest e for which lattice_points takes the lattice of size e
LATTICE_DEGREE_BOUND = 10


def lattice_points(k: Field, nvars: int, e: int) -> np.ndarray:
    """The exponents of monomial_basis(nvars, e) as points: the lattice
    points of the simplex of size e, unisolvent for forms of degree e
    (Chung and Yao, SIAM J. Numer. Anal. 14, 1977); det V_6 = 2^294 3^189
    5^12 for the degree-e monomial values V_e in 4 variables.  V_e is block
    triangular over supports, and the diagonal block of the support
    {0, ..., s-1} has an integer determinant whose prime factors are at
    most e at every (nvars, e) the package reaches (the tests compute
    them), so it is a unit over Q and modulo every prime p >= 11 that
    PrimeField takes.  Past e = 10 the block of {0}, e^e, would vanish
    modulo a prime that PrimeField takes (11^11 at e = 11), so a larger e
    raises ValueError.  Over Q the points are Python ints."""
    return _lattice_points(nvars, e, k.kind == "rationals")


@lru_cache(maxsize=None)
def _lattice_points(nvars: int, e: int, python_ints: bool) -> np.ndarray:
    if e > LATTICE_DEGREE_BOUND:
        raise ValueError(f"lattice points of size {e} > "
                         f"{LATTICE_DEGREE_BOUND} are not proved unisolvent")
    pts = np.array(monomial_basis(nvars, e),
                   dtype=object if python_ints else np.int64)
    pts.flags.writeable = False  # one cached array is shared by all callers
    return pts


def ideal_piece_values(k: Field, nvars: int, e: int, d: int,
                       values) -> np.ndarray:
    """The degree-d piece of the ideal of forms of degree e, from their
    values (points x forms) at lattice_points(k, nvars, d): row (g, m)
    holds x^m g there, m over monomial_basis(nvars, d - e).  It is the
    coefficient piece times V_d^T: one rank, the same row relations, and
    a right kernel that times V_d spans the coefficient one."""
    pts = lattice_points(k, nvars, d)
    m = monomial_values(k, nvars, d - e, pts)
    return k.reduce(values.T[:, None, :] * m.T[None, :, :]).reshape(
        -1, len(pts))


@lru_cache(maxsize=None)
def sextic_points(k: Field) -> np.ndarray:
    """The values (84 x 10) of the quadric monomials at the 84 points of
    lattice_points(k, 4, 6), on which no nonzero sextic vanishes.  Over
    Q the values, at most 36, are Python ints."""
    quad = monomial_values(k, 4, 2, lattice_points(k, 4, 6))
    quad.flags.writeable = False  # one cached array is shared by all callers
    return quad


def jump_matrix_from_quadrics(k: Field, rows) -> Matrix:
    """Multiplication matrix of the cubic monomials in the quadrics of
    P^3 with the given coefficient rows, evaluated at the points of
    sextic_points: V J, with V the invertible 84x84 matrix of sextic
    monomial values there and J the expansion of the cubics over the
    sextic monomials.  V J has the RREF and the kernel of J.  Rows
    scaled by a common c give c^3 V J; over Q, rows of Python ints give
    it in Python ints."""
    return Matrix(k, monomial_values(k, len(rows), 3,
                                     dot(k, sextic_points(k), rows.T)))


def integral_rows(k: Field, rows) -> np.ndarray:
    """Over Q, rows times the lcm of all their denominators, as Python
    ints (one common scale keeps coordinates in the span); else the rows."""
    if k.kind != "rationals":
        return rows
    c = lcm(*(x.denominator for x in rows.flat))
    return np.frompyfunc(lambda x: x.numerator * (c // x.denominator),
                         1, 1)(rows)


def jump_dimension(perp: FormSpace):
    """Dimension of the space of cubics through the projected image of a
    plane L, and the RREF kernel Matrix whose rows are a basis of those
    cubics in the 7 target coordinates y0..y6, dual to the canonical
    basis of perp = L⊥ (lperp), which it takes: the contraction pairing
    on quadrics is perfect for p >= 11 and over Q, so L⊥⊥ = L.

    The kernel is that of V J (jump_matrix_from_quadrics) of the rows of
    perp, over Q scaled to Python ints by the lcm c of their
    denominators (integral_rows).  There it comes from the images of
    c^3 V J modulo primes p, each built over F_p from the integer rows
    reduced mod p (kernel_from_images).  The rank mod p never exceeds
    the rank over Q, so an image of rank 84 proves the kernel is 0, and
    c^3 V J is built in Python ints only to check a rank-deficient
    image."""
    k = perp.field
    rows = integral_rows(k, perp.basis.data)
    if k.kind != "rationals":
        ker = jump_matrix_from_quadrics(k, rows).right_kernel()
        return ker.rows, ker
    ker = kernel_from_images(
        (len(sextic_points(k)), len(monomial_basis(len(rows), 3))),
        lambda p: jump_matrix_from_quadrics(
            PrimeField(p), (rows % p).astype(np.int64)).data,
        lambda: jump_matrix_from_quadrics(k, rows).data)
    return ker.rows, ker


# ---------------------------------------------------------------------------
# Secant detection
# ---------------------------------------------------------------------------


def _hessians(k: Field, rows) -> np.ndarray:
    """The Hessians (..., 4, 4) of the quadrics with the given coefficient
    rows: twice their quadric_to_matrix, integral for integral rows."""
    return k.reduce(rows[..., mult_table(4, 1, 1)]
                    * (1 + np.eye(4, dtype=np.int64)))


def _minor_values(k: Field, hessians, d: int) -> np.ndarray:
    """The sixteen 3x3 minors of a H1 + b H2 + c H3 at the points of
    lattice_points(k, 3, d), points x minors (_minors_at)."""
    return _minors_at(k, hessians, lattice_points(k, 3, d))


def _minors_at(k: Field, hessians, pts) -> np.ndarray:
    """The sixteen 3x3 minors of a H1 + b H2 + c H3 at the points (a, b, c)
    of pts, points x minors: 8 times those of the matrices, expanded along
    the first row with every product reduced, so that over F_p no
    intermediate reaches 2^62."""
    m = dot(k, pts, hessians.reshape(3, 16)).reshape(-1, 4, 4)
    t = np.array(list(combinations(range(4), 3)))  # rows, and columns
    sub = m[:, t[:, None, :, None], t[None, :, None, :]]
    i, j = [1, 0, 0], [2, 2, 1]  # the columns of the first row's cofactors
    cof = (k.reduce(sub[..., 1, i] * sub[..., 2, j])
           - k.reduce(sub[..., 1, j] * sub[..., 2, i]))
    terms = k.reduce(sub[..., 0, :] * cof)
    return k.reduce(terms[..., 0] - terms[..., 1]
                    + terms[..., 2]).reshape(len(pts), 16)


# Three general combinations of cubics in 3 variables without a common
# zero form a regular sequence, whose quotient vanishes from degree
# 3 * (3 - 1) + 1 on.
MACAULAY_BOUND = 7


def secant_intersects(plane: QuadricPlane):
    """Whether the plane contains a rank <= 2 quadric over the closure.

    The rank <= 2 locus in the plane is the common zero set of the 16
    cubic minors; the plane misses it iff those cubics generate the
    full degree-d piece for d at the Macaulay bound 7.  The degrees
    3, 4, ..., 7 are checked in turn, stopping at the first full piece,
    since I_d = S_d implies I_{d+1} = S_{d+1}.  Over F_p this certifies
    emptiness over the closure of F_p.

    The minors are taken at lattice points (_minor_values), over Q from
    integral_rows, so no Fraction is multiplied.  Those independent at
    the ten points of degree 3 span I_3 and generate the ideal; each
    piece is built from them alone, generators x points (at most 36
    columns at d = 7), and row-reduced once: its dimension is the pivot
    count, and _find_rank_le2 reads its kernel off the same RREF.

    Returns (hit, certificate) where the certificate records the piece
    dimensions of the degrees checked ("piece_dims") and, on a hit, the
    coefficient row of an explicit rank <= 2 element of the plane when
    _find_rank_le2 finds one ("element_row", otherwise None), which
    classify turns into the Poly of its certificate's "element".
    """
    k = plane.field
    hessians = _hessians(k, integral_rows(k, plane.space.basis.data))
    _, keep = Matrix(k, _minor_values(k, hessians, 3)).rref()
    dims, reduced = {3: (len(keep), 10)}, {}
    d = 3
    while dims[d][0] < dims[d][1] and d < MACAULAY_BOUND:
        d += 1
        piece = ideal_piece_values(k, 3, 3, d,
                                   _minor_values(k, hessians, d)[:, keep])
        reduced[d] = Matrix(k, piece).rref()
        dims[d] = (len(reduced[d][1]), piece.shape[1])
    hit = dims[d][0] < dims[d][1]
    cert = {"piece_dims": dims, "element_row": None}
    if hit:
        cert["element_row"] = _find_rank_le2(plane, hessians, reduced, dims)
    return hit, cert


# A plane meeting the rank <= 2 locus (degree 10 in P^9) in finitely
# many points meets it in a scheme of length at most 10; a larger
# codimension is not such a length, and r <= 10 < p keeps r invertible.
SECANT_DEGREE = 10


# The basis coefficients probed first: e_i, then e_i + c e_j, i < j, c <= 3
_PROBES = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1]] + [
    row for c in (1, 2, 3) for row in ([1, c, 0], [1, 0, c], [0, 1, c])])


def _find_rank_le2(plane: QuadricPlane, hessians, reduced: dict, dims: dict):
    """The coefficient row of an explicit rank <= 2 element of the plane,
    or None, from the Hessians of its basis (integral over Q) and the
    RREFs (Matrix, pivots) of the minor ideal's pieces in point form that
    secant_intersects took.

    A combination with coefficients lam has rank <= 2 exactly when the
    sixteen minors vanish at lam: the _PROBES are checked first, by one
    _minors_at.  Then the zero scheme Z of the minors is read off by
    linear algebra, without roots.  At the lowest d >= 4 where the piece
    codimension r is the same at d - 1 and d, the kernel K of the
    degree-d piece is dual to the coordinate ring of Z, and r is its
    length.  If Z is one point P, B_j = K[:, x_j * S_{d-1}] has rank r
    exactly when P_c != 0, and X_j B_c = B_j defines X_j with the one
    eigenvalue P_j / P_c, so P_j / P_c = tr(X_j) / r.  c is the last
    coordinate with rank B_c = r, so the last nonzero coordinate of P is
    1.  Several points or a curve give a lam at which some minor does
    not vanish, hence None.

    K = mu V_d, mu the null_basis of the piece's RREF, spans the
    coefficient kernel; row operations on K keep the pivots of B_c and
    the traces, so K need not be reduced."""
    k = plane.field
    rows = plane.space.basis.data
    probes = _PROBES.astype(object) if k.kind == "rationals" else _PROBES
    rank_le2 = ~np.any(_minors_at(k, hessians, probes) != k.zero, axis=1)
    if rank_le2.any():
        return dot(k, probes[np.argmax(rank_le2)], rows)
    codim = {d: full - got for d, (got, full) in dims.items()}
    d = next((d for d in range(4, MACAULAY_BOUND + 1)
              if codim[d - 1] == codim[d] <= SECANT_DEGREE), None)
    if d is None:
        return None
    red, pivots = reduced[d]
    mu = null_basis(k, red.data, pivots)
    ker = dot(k, mu, monomial_values(k, 3, d, lattice_points(k, 3, d)))
    r = ker.shape[0]
    blocks = [ker[:, col] for col in mult_table(3, d - 1, 1).T]
    for c in (2, 1, 0):
        _, cols = Matrix(k, blocks[c]).rref()
        if len(cols) == r:
            break
    else:
        return None
    inv = Matrix(k, blocks[c][:, cols]).inverse().data
    lam = k.array([k.div(k.of(sum(np.diagonal(dot(k, b[:, cols], inv)))),
                         k.of(r)) for b in blocks])
    at_lam = _minors_at(k, hessians, integral_rows(k, lam[None]))
    return None if np.any(at_lam != k.zero) else dot(k, lam, rows)


# ---------------------------------------------------------------------------
# Witness sextics for secant planes
# ---------------------------------------------------------------------------


def rank_le2_adapted_change(k: Field, q):
    """Coordinates adapted to the quadric with coefficient row q: an
    invertible 4x4 matrix C whose rows are linear forms, with q a nonzero
    multiple of C_0 * C_1 (rank 2) or of C_0^2 (rank 1); None when q
    splits only over an extension.  Raises ValueError at any other rank.

    With B the r nonzero rows of the RREF of the matrix A of q and J its
    pivots, A = A[:, J] B, so A = B^T G B with G = A[J, J]: q is G in
    s = B_0 x and t = B_1 x, with factors l_i = t_i B_0 - s_i B_1 for the
    isotropic (s_i, t_i) of G (at rank 1, q = G_00 s^2).  The rows of C
    are l_1, l_2 (B_0) and the units at the free columns: l_1, l_2 span
    the rows of B, and B with those units is invertible.

    Returns (C, rank)."""
    a = quadric_matrices(k, q)
    red, pivots = Matrix(k, a).rref()
    r = len(pivots)
    if r not in (1, 2):
        raise ValueError(f"element has rank {r}, not 1 or 2")
    forms = red.data[:r]
    if r == 2:
        g = a[np.ix_(pivots, pivots)]
        iso = _isotropic_pair(k, g[0, 0], g[0, 1], g[1, 1])
        if iso is None:
            return None
        forms = np.stack([k.reduce(t * forms[0] - s * forms[1])
                          for s, t in iso])
    units = np.delete(Matrix.identity(k, 4).data, pivots, axis=0)
    return np.vstack([forms, units]), r


def _sqrt_mod(k: PrimeField, a):
    a = a % k.p
    if a == 0:
        return 0
    if pow(a, (k.p - 1) // 2, k.p) != 1:
        return None
    if k.p % 4 == 3:
        return pow(a, (k.p + 1) // 4, k.p)
    # Tonelli-Shanks for p = 1 mod 4
    q, s = k.p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (k.p - 1) // 2, k.p) != k.p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, k.p), pow(a, q, k.p), pow(a, (q + 1) // 2, k.p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % k.p
            i += 1
        b = pow(c, 1 << (m - i - 1), k.p)
        m, c = i, b * b % k.p
        t, r = t * c % k.p, r * b % k.p
    return r


def _sqrt(k: Field, a):
    """A square root of a in k, or None.  A rational in lowest terms is a
    square exactly when its numerator and denominator are."""
    if isinstance(k, PrimeField):
        return _sqrt_mod(k, a)
    if a < 0:
        return None
    n, d = isqrt(a.numerator), isqrt(a.denominator)
    if n * n != a.numerator or d * d != a.denominator:
        return None
    return Fraction(n, d)


def _isotropic_pair(k, q11, q12, q22):
    """Two independent isotropic (s, t) for the nonsingular binary form
    q11 s^2 + 2 q12 s t + q22 t^2, or None if anisotropic over k.  Its
    discriminant q12^2 - q11 q22 is minus its determinant, so not 0."""
    q11, q12, q22 = k.of(q11), k.of(q12), k.of(q22)
    if q11 == k.zero and q22 == k.zero:
        return ((k.one, k.zero), (k.zero, k.one))
    if q11 == k.zero:
        # t = 0 is one root; the other satisfies 2 q12 s + q22 t = 0
        return ((k.one, k.zero), (q22, k.neg(k.mul(k.of(2), q12))))
    root = _sqrt(k, k.sub(k.mul(q12, q12), k.mul(q11, q22)))
    if root is None:
        return None
    inv = k.inv(q11)
    s1 = k.mul(k.sub(root, q12), inv)
    s2 = k.mul(k.neg(k.add(q12, root)), inv)
    return ((s1, k.one), (s2, k.one))


def rank2_sextic_witness(perp: FormSpace, coords, rank: int):
    """Witness sextics annihilated by all cubic products of perp = L⊥
    (lperp; L⊥⊥ = L, since the contraction pairing on quadrics is
    perfect for p >= 11 and over Q), in the coordinates y = coords x and
    with the rank that rank_le2_adapted_change returns for a rank <= 2
    element of L: the element is a multiple of y0*y1 (rank 2) or y0^2
    (rank 1).

    Returns the exponents beta of the witnesses y^beta; raises
    AssertionError if one is not annihilated, which adapted coordinates
    exclude: that check is the certificate."""
    k = perp.field
    if rank == 2:
        betas = [(5, 1, 0, 0), (3, 3, 0, 0), (1, 5, 0, 0)]
    else:
        betas = [(6, 0, 0, 0), (5, 1, 0, 0), (5, 0, 1, 0)]
    # a cubic product of the perpendicular quadrics sends y^beta to
    # beta! times its y^beta coefficient, and beta! is a unit (p > 6):
    # y^beta is annihilated by all 84 products iff those coefficients
    # vanish.  They depend only on the factors restricted to the variables
    # of supp(beta), y2 = y3 = 0 (rank 2) or y3 = 0 (rank 1).  The
    # quadrics in y are q(coords^-1 y), so their duals move by coords^T:
    # the restriction sends x_i to sum_j coords[j, i] y_j over j < nv.
    # Over Q the quadrics in those forms and the perpendicular rows are
    # scaled to integers (integral_rows), which scales each sextic by a
    # nonzero constant, so that the products multiply no Fraction
    nv = 2 if rank == 2 else 3
    duals = compose(k, integral_rows(k, perp.basis.data),
                    integral_rows(k, coords[:nv].T), nv, 1, 2)
    sextics = power_products(k, duals, nv, 2, 3)
    idx = monomial_index(nv, 6)
    if any(np.any(sextics[:, idx[b[:nv]]] != k.zero) for b in betas):
        raise AssertionError("witness sextic not annihilated")
    return betas


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------


@dataclass
class Classification:
    pfaffian_value: object
    secant_hit: bool
    jump_dim: int
    verdict: str
    certificates: dict


def classify(plane: QuadricPlane) -> Classification:
    """Run all three conditions and assemble the verdict.  The
    perpendicular space is taken once, for the jump and the witness."""
    pf = smoothable_pfaffian(plane)
    k = plane.field
    hit, secant_cert = secant_intersects(plane)
    perp = lperp(plane)
    dim, kernel = jump_dimension(perp)
    on_divisor = pf == k.zero
    if on_divisor and hit:
        verdict = "both"
    elif on_divisor:
        verdict = "smoothable-divisor"
    elif hit:
        verdict = "secant"
    else:
        verdict = "general"
    cubics = [Poly.from_coeff_vector(k, 7, 3, row) for row in kernel.data]
    secant = {"piece_dims": secant_cert["piece_dims"], "element": None}
    certs = {"cubics": cubics, "secant": secant, "witness_sextics": None}
    elem = secant_cert["element_row"]
    if elem is not None:
        secant["element"] = Poly.from_coeff_vector(k, 4, 2, elem)
        adapted = rank_le2_adapted_change(k, elem)
        if adapted is not None:
            betas = rank2_sextic_witness(perp, *adapted)
            certs["witness_sextics"] = [Poly.monomial(k, b) for b in betas]
    return Classification(pf, hit, dim, verdict, certs)


# ---------------------------------------------------------------------------
# The pencil experiment
# ---------------------------------------------------------------------------


@dataclass
class PencilReport:
    det_poly: UniPoly
    pf_poly: UniPoly
    s_poly: UniPoly | None
    degrees: tuple[int, int, int]
    factorization_ok: bool
    resamples: int


# det along the pencil has degree 36: 37 samples fix it, 40 leave a check
DET_SAMPLES = 40
# Pf along the pencil has degree 2: 3 samples fix it, 7 leave a check
PF_SAMPLES = 7
PENCIL_RETRIES = 10


def check_pencil_field(k: Field):
    """Refuse a field the pencil experiment cannot run over."""
    if not isinstance(k, PrimeField) or k.p <= 40:
        raise ValueError("pencil experiment needs a prime field with p > 40")


def pencil_experiment(k: Field, seed: int) -> PencilReport:
    """Interpolate det and Pfaffian along a random pencil of planes.

    The pencil is L(t) = <q1, q2, u + t w>.  The frame of the
    perpendicular space is built from a fixed 3-column pivot set J on
    which the pairing row of w vanishes, so the frame varies linearly
    in t with a constant transition determinant, and only in one
    direction: after a change of frame of det +-1 (_pencil_dets) one
    frame quadric y0 moves with t and six are constant.  Of the 84 cubic
    monomials, those with y0 to the power 1, 2 and 3 (21, 6 and 1 of
    them) have degree 1, 2 and 3 in t and the other 56 are constant, so
    det(jump matrix) is a polynomial of degree at most 21 + 2*6 + 3 = 36,
    and of degree 36 for a general pencil (a draw of lower degree
    resamples).
    """
    check_pencil_field(k)
    rng = random.Random(seed)
    resamples = 0
    while resamples <= PENCIL_RETRIES:
        report = _pencil_once(k, rng)
        if report is not None:
            report.resamples = resamples
            return report
        resamples += 1
    raise GenericityError("pencil experiment: degeneracy persisted "
                          f"after {PENCIL_RETRIES} resamples")


def _pencil_frame(k: PrimeField, rng):
    """A random pencil <q1, q2, u + t w> and the frame of its
    perpendicular spaces, v_i(t) = base[i] + t * dirv[i], as
    (quads, base, dirv) with the (4, 10) coefficient rows quads of q1,
    q2, u and w and (7, 10) arrays base and dirv; None for a degenerate
    draw."""
    quads = k.zeros((4, 10))
    quads[:3] = [random_form(k, 4, 2, rng) for _ in range(3)]
    j_cols = sorted(rng.sample(range(10), 3))
    free_cols = [c for c in range(10) if c not in j_cols]
    quads[3, free_cols] = [k.random_element(rng) for _ in free_cols]
    if Matrix(k, quads).rank() != 4:
        return None
    # contraction pairing against the dual quadric monomials: m! * coeff
    pairing = contraction_rows(k, quads, 4, 2, 0)
    rows0, row_w = pairing[:3, :, 0], pairing[3, :, 0]
    mj = Matrix(k, rows0[:, j_cols])
    detj = mj.det()
    if detj == 0:  # rank below 3
        return None
    mj_inv_t = mj.inverse().data.T
    # frame vectors: v_c(t) = base_c + t * dir_c, with v_c[c] = det(M_J)
    base, dirv = k.zeros((7, 10)), k.zeros((7, 10))
    base[np.arange(7), free_cols] = detj
    col1 = k.zeros((7, 3))
    col1[:, 2] = row_w[free_cols]
    base[:, j_cols] = k.reduce(-detj * dot(k, rows0[:, free_cols].T, mj_inv_t))
    dirv[:, j_cols] = k.reduce(-detj * dot(k, col1, mj_inv_t))
    return quads, base, dirv


def _pencil_dets(k: PrimeField, base, dirv) -> list:
    """det of the jump matrix V J(t) of the frame base + t * dirv at
    t = 0, 1, ..., DET_SAMPLES - 1: det V times det J(t), a nonzero
    constant times the det polynomial.

    dirv has rank 1 (_pencil_frame): its rows are a_j b, with a != 0
    since w != 0.  With i the first row where a_i != 0, the frame change
    G subtracts a_j / a_i times row i from every other row j and swaps
    row i into row 0, so that only row 0 moves with t; det G = +-1, and
    det Sym^3 G = (det G)^36 = 1 keeps every det.  monomial_basis lists
    the 28 cubic monomials with y0 first, so J(t) = [R(t) | C]: the 56
    columns of C are constant and R(t) has degree at most 3 in t.
    Moving C to the front takes 28 * 56 column swaps, an even number.
    One eliminate_stack of
    [C | R(0) | R(1) | R(2) | R(3)] over the columns of C gives the
    product delta of its pivots and the Schur complements S(0..3), which
    take the same row operations.  S(t) is cubic in t, so the Lagrange
    weights on 0..3 (Vandermonde rows at t times the inverse at 0..3)
    give every S(t) from those four, and det J(t) = delta det S(t): one
    det_stack of (DET_SAMPLES, 28, 28).  A C of rank below 56 gives
    delta = 0, and every det is 0, as it must be."""
    i, c = np.argwhere(dirv)[0]  # a_i != 0 and b_c != 0
    ratios = k.reduce(dirv[:, c] * k.inv(dirv[i, c]))
    frame = k.reduce(base - k.reduce(ratios[:, None] * base[i]))
    frame[i] = base[i]
    frame[[0, i]] = frame[[i, 0]]
    quad = sextic_points(k)
    nodes = np.arange(4)
    vals = np.repeat(dot(k, quad, frame.T)[None], len(nodes), axis=0)
    vals[:, :, 0] = k.reduce(vals[:, :, 0]
                             + nodes[:, None] * dot(k, quad, dirv[i]))
    jumps = monomial_values(k, 7, 3, vals)
    still = len(monomial_basis(6, 3))
    moving = jumps.shape[-1] - still
    delta, rest = eliminate_stack(
        k, np.concatenate([jumps[0, :, moving:], *jumps[:, :, :moving]],
                          axis=1)[None], still)
    schur = rest[0].reshape(moving, len(nodes), moving).swapaxes(0, 1)
    weights = dot(k, np.vander(np.arange(DET_SAMPLES), len(nodes),
                               increasing=True),
                  Matrix(k, np.vander(nodes, increasing=True)).inverse().data)
    stack = dot(k, weights, schur.reshape(len(nodes), -1))
    return (det_stack(k, stack.reshape(-1, moving, moving)) * int(delta[0])
            % k.p).tolist()


def _pencil_pfaffians(k: PrimeField, quads) -> list:
    """Pf of the certificate matrix of <q1, q2, u + t w> at t = 0, 1,
    ..., PF_SAMPLES - 1, from the coefficient rows quads of q1, q2, u, w,
    as one pfaffian_stack."""
    rows = np.repeat(quads[None, :3], PF_SAMPLES, axis=0)
    ts = np.arange(PF_SAMPLES)[:, None]
    rows[:, 2] = k.reduce(quads[2] + ts * quads[3])
    return pfaffian_stack(k, smoothable_block_matrix(k, rows)).tolist()


def _pencil_once(k: PrimeField, rng) -> PencilReport | None:
    drawn = _pencil_frame(k, rng)
    if drawn is None:
        return None
    quads, base, dirv = drawn
    det_poly = interpolate(k, list(enumerate(_pencil_dets(k, base, dirv))))
    if det_poly.degree() != 36:
        return None
    pf_poly = interpolate(k, list(enumerate(_pencil_pfaffians(k, quads))))
    if pf_poly.degree() != 2:
        return None
    quotient, rem = det_poly.divmod(pf_poly.pow(3))
    sp = squarefree_and_power(quotient, 3) if rem.is_zero() else None
    if sp is None:
        return PencilReport(det_poly, pf_poly, None,
                            (det_poly.degree(), pf_poly.degree(), -1),
                            False, 0)
    s_poly, _ = sp
    ok = s_poly.degree() == 10
    return PencilReport(det_poly, pf_poly, s_poly,
                        (det_poly.degree(), pf_poly.degree(), s_poly.degree()),
                        ok, 0)
