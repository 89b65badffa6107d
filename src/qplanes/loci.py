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
from .linalg import FormSpace, Matrix, det_stack, pfaffian, pfaffian_stack
from .poly import (Poly, contraction_rows, dense_mul, dot, monomial_basis,
                   monomial_index, monomial_values, mult_table, power_products,
                   random_form)
from .unipoly import UniPoly, interpolate, squarefree_and_power


class GenericityError(RuntimeError):
    """Random resampling failed to reach a generic configuration."""


# ---------------------------------------------------------------------------
# Symmetric matrices of quadrics
# ---------------------------------------------------------------------------


def quadric_to_matrix(q: Poly) -> np.ndarray:
    """Symmetric 4x4 matrix A with q(x) = x^T A x (off-diagonals halved)."""
    k = q.field
    if q.nvars != 4 or (not q.is_zero() and (not q.is_homogeneous() or q.degree() != 2)):
        raise ValueError("need a homogeneous quadric in 4 variables")
    return k.reduce(_hessians(k, q.coeff_vector(2)) * k.inv(k.of(2)))


def symmetric_rank(q: Poly) -> int:
    return Matrix(q.field, quadric_to_matrix(q)).rank()


def smoothable_block_matrix(k: Field, rows) -> np.ndarray:
    """The 12x12 skew matrices [[0, A1, -A2], [-A1, 0, A3], [A2, -A3, 0]]
    (..., 12, 12) of the quadrics with coefficient rows (..., 3, 10),
    A_i the quadric_to_matrix of the i-th: half its Hessian."""
    a = k.reduce(_hessians(k, rows) * k.inv(k.of(2)))
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
    """The 7-dimensional space of dual quadrics annihilating the plane."""
    return annihilator_piece(plane.space, 2)


@lru_cache(maxsize=None)
def lattice_points(k: Field, nvars: int, e: int) -> np.ndarray:
    """The exponents of monomial_basis(nvars, e) as points: the lattice
    points of the simplex of size e, unisolvent for forms of degree e
    (Chung and Yao, SIAM J. Numer. Anal. 14, 1977); det V_6 = 2^294 3^189
    5^12 for the degree-e monomial values V_e in 4 variables.  V_e is block
    triangular over supports, with equal diagonal blocks for supports of
    one size; a singular block of {0}, {0, 1}, ... raises ArithmeticError.
    Over Q the points are Python ints, and full rank mod one prime proves
    it over Q."""
    if k.kind == "rationals":
        pts = lattice_points(PrimeField(), nvars, e).astype(object)
    else:
        pts = np.array(monomial_basis(nvars, e))
        v = monomial_values(k, nvars, e, pts)
        for s in range(1, min(nvars, e) + 1):
            on = np.all((pts > 0) == (np.arange(nvars) < s), axis=1)
            if Matrix(k, v[np.ix_(on, on)]).rank() != np.count_nonzero(on):
                raise ArithmeticError(
                    f"the lattice points of size {e} in {nvars} variables "
                    f"are not unisolvent over {k!r}")
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


def jump_matrix(plane: QuadricPlane) -> Matrix:
    """The 84x84 matrix of Sym^3 of the perpendicular space, evaluated at
    the sextic points: V J (see jump_matrix_from_quadrics), built from
    the rows of the perpendicular basis.

    Over Q it is c^3 V J in Python ints, with c the lcm of the
    denominators of the perpendicular basis (integral_rows): J has the
    same kernel, and no Fraction is multiplied on the way."""
    k = plane.field
    rows = integral_rows(k, lperp(plane).basis.data)
    return jump_matrix_from_quadrics(k, rows)


def jump_dimension(plane: QuadricPlane):
    """Dimension of the space of cubics through the projected image,
    together with a kernel basis expressed in the 7 target coordinates
    y0..y6 (dual basis to the canonical basis of the perpendicular
    space)."""
    ker = jump_matrix(plane).right_kernel()
    k = plane.field
    cubics = [Poly.from_coeff_vector(k, 7, 3, ker.data[i])
              for i in range(ker.rows)]
    return ker.rows, cubics


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
    lattice_points(k, 3, d), points x minors: 8 times those of the
    matrices, expanded along the first row with every product reduced,
    so that over F_p no intermediate reaches 2^62."""
    pts = lattice_points(k, 3, d)
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
    piece is built from them alone, generators x points, so that its rank
    stays on the unblocked elimination (36 columns at d = 7).

    Returns (hit, certificate) where the certificate records the piece
    dimensions of the degrees checked and, on a hit, an explicit rank
    <= 2 element of the plane when _find_rank_le2 finds one.
    """
    k = plane.field
    hessians = _hessians(k, integral_rows(k, plane.space.basis.data))
    _, keep = Matrix(k, _minor_values(k, hessians, 3)).rref()
    dims, pieces = {3: (len(keep), 10)}, {}
    d = 3
    while dims[d][0] < dims[d][1] and d < MACAULAY_BOUND:
        d += 1
        pieces[d] = ideal_piece_values(
            k, 3, 3, d, _minor_values(k, hessians, d)[:, keep])
        dims[d] = (Matrix(k, pieces[d]).rank(), pieces[d].shape[1])
    hit = dims[d][0] < dims[d][1]
    cert = {"piece_dims": dims, "element": None}
    if hit:
        cert["element"] = _find_rank_le2(plane, pieces, dims)
    return hit, cert


# A plane meeting the rank <= 2 locus (degree 10 in P^9) in finitely
# many points meets it in a scheme of length at most 10; a larger
# codimension is not such a length, and r <= 10 < p keeps r invertible.
SECANT_DEGREE = 10


def _find_rank_le2(plane: QuadricPlane, pieces: dict, dims: dict):
    """Explicit rank <= 2 element of the plane, or None.

    Basis vectors and small combinations are probed first.  Then the
    zero scheme Z of the minors is read off by linear algebra, without
    roots.  At the lowest d >= 4 where the piece codimension r is the
    same at d - 1 and d, the kernel K of the degree-d piece is dual to
    the coordinate ring of Z, and r is its length.  If Z is one point P,
    B_j = K[:, x_j * S_{d-1}] has rank r exactly when P_c != 0, and
    X_j B_c = B_j defines X_j with the one eigenvalue P_j / P_c, so
    P_j / P_c = tr(X_j) / r.  c is the last coordinate with rank B_c =
    r, so the last nonzero coordinate of P is 1.  Several points or a
    curve give an element that fails the rank check, hence None.

    K = mu V_d, mu the right kernel of the piece in point form, spans the
    coefficient kernel; row operations on K keep the pivots of B_c and
    the traces, so K need not be reduced."""
    k = plane.field
    rows = plane.space.basis.data
    candidates = list(rows) + [k.reduce(rows[i] + k.of(c1) * rows[j])
                               for c1 in (1, 2, 3) for i in range(3)
                               for j in range(i + 1, 3)]
    for q in candidates:
        if Matrix(k, _hessians(k, q)).rank() <= 2:
            return Poly.from_coeff_vector(k, 4, 2, q)
    codim = {d: full - got for d, (got, full) in dims.items()}
    d = next((d for d in range(4, MACAULAY_BOUND + 1)
              if codim[d - 1] == codim[d] <= SECANT_DEGREE), None)
    if d is None:
        return None
    mu = Matrix(k, pieces[d]).right_kernel().data
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
    q = dot(k, lam, rows)
    if Matrix(k, _hessians(k, q)).rank() <= 2:
        return Poly.from_coeff_vector(k, 4, 2, q)
    return None


# ---------------------------------------------------------------------------
# Witness sextics for secant planes
# ---------------------------------------------------------------------------


def rank_le2_adapted_change(q: Poly):
    """A coordinate substitution sending q to x0*x1 (rank 2) or x0^2
    (rank 1), up to scalar; None when q splits only over an extension.

    Returns (change matrix M with q.substitute_linear(M) = c * normal
    form, rank, c)."""
    k = q.field
    a = quadric_to_matrix(q)
    am = Matrix(k, a)
    r = am.rank()
    if r > 2:
        raise ValueError("element has rank > 2")
    rad = am.right_kernel()  # dim 4 - r
    if r == 1:
        # q = c * l^2 with l spanning the row space
        row = next(a[i] for i in range(4) if np.any(a[i] != k.zero))
        minv = Matrix(k, _complete_basis(k, [row])).inverse().data
        return minv, 1, q.substitute_linear(minv).coefficient((2, 0, 0, 0))
    # rank 2: find two independent isotropic vectors in a complement of rad
    c1, c2 = pair = np.stack(_complete_basis(k, list(rad.data))[rad.rows:])
    gram = dot(k, dot(k, pair, a), pair.T)
    iso = _isotropic_pair(k, gram[0, 0], gram[0, 1], gram[1, 1])
    if iso is None:
        return None
    (s1, t1), (s2, t2) = iso
    e1 = k.reduce(s1 * c1 + t1 * c2)
    e2 = k.reduce(s2 * c1 + t2 * c2)
    # linear forms vanishing on <e2, rad> and <e1, rad> respectively
    u, v = (Matrix(k, np.vstack([e, rad.data])).right_kernel().data[0]
            for e in (e2, e1))
    minv = Matrix(k, _complete_basis(k, [u, v])).inverse()
    qn = q.substitute_linear(minv.data)
    c = qn.coefficient((1, 1, 0, 0))
    if c == k.zero or qn != Poly(k, 4, {(1, 1, 0, 0): c}):
        return None
    return minv.data, 2, c


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
    """Two independent isotropic (s, t) for the binary form
    q11 s^2 + 2 q12 s t + q22 t^2, or None if anisotropic over k."""
    q11, q12, q22 = k.of(q11), k.of(q12), k.of(q22)
    if q11 == k.zero and q22 == k.zero:
        return ((k.one, k.zero), (k.zero, k.one))
    if q11 == k.zero:
        # t = 0 is one root; the other satisfies 2 q12 s + q22 t = 0
        return ((k.one, k.zero), (q22, k.neg(k.mul(k.of(2), q12))))
    root = _sqrt(k, k.sub(k.mul(q12, q12), k.mul(q11, q22)))
    if root is None or root == k.zero:
        return None
    inv = k.inv(q11)
    s1 = k.mul(k.sub(root, q12), inv)
    s2 = k.mul(k.neg(k.add(q12, root)), inv)
    return ((s1, k.one), (s2, k.one))


def rank2_sextic_witness(plane: QuadricPlane, element: Poly, change):
    """Witness sextics annihilated by all cubic products of the
    perpendicular space, in coordinates adapted to the supplied
    rank <= 2 element.

    ``change`` must send the element to x0*x1 (rank 2) or x0^2 (rank 1)
    up to scalar.  Returns the witnesses; raises if the element has
    rank > 2 or the adapted-coordinate check fails."""
    k = plane.field
    rank = symmetric_rank(element)
    if rank > 2:
        raise ValueError("supplied element has rank > 2")
    if not plane.space.contains(element):
        raise ValueError("element does not lie in the plane")
    moved = element.substitute_linear(change)
    if rank == 2:
        expect = (1, 1, 0, 0)
        betas = [(5, 1, 0, 0), (3, 3, 0, 0), (1, 5, 0, 0)]
    else:
        expect = (2, 0, 0, 0)
        betas = [(6, 0, 0, 0), (5, 1, 0, 0), (5, 0, 1, 0)]
    c = moved.coefficient(expect)
    if c == k.zero or moved != Poly(k, 4, {expect: c}):
        raise ValueError("change does not normalize the element")
    # a cubic product of the perpendicular quadrics sends x^beta to
    # beta! times its x^beta coefficient, and beta! is a unit (p > 6):
    # x^beta is annihilated by all 84 products iff those coefficients
    # vanish.  They depend only on the factors restricted to the variables
    # of supp(beta), x2 = x3 = 0 (rank 2) or x3 = 0 (rank 1); the ordered
    # triples of the 7 restricted duals cover the 84 products.  The duals
    # of the moved plane are those of the plane moved by change^-T, so
    # the restriction sends x_i to sum_j change^-1[j, i] x_j over j < nv.
    # Over Q the quadrics in those forms and the perpendicular rows are
    # scaled to integers (integral_rows), which scales each sextic by a
    # nonzero constant, so that the products multiply no Fraction
    nv = 2 if rank == 2 else 3
    inverse = Matrix(k, change).inverse().data
    coordinate_forms = [Poly.from_coeff_vector(k, nv, 1, inverse[:nv, i])
                        for i in range(4)]
    duals = dot(k, integral_rows(k, lperp(plane).basis.data),
                integral_rows(k, power_products(coordinate_forms, 2)))
    quartics = dense_mul(k, duals[:, None], duals, nv, 2, 2)
    sextics = dense_mul(k, quartics[:, :, None], duals, nv, 4, 2)
    idx = monomial_index(nv, 6)
    if any(np.any(sextics[..., idx[b[:nv]]] != k.zero) for b in betas):
        raise AssertionError("witness sextic not annihilated")
    return [Poly.monomial(k, b) for b in betas]


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
    """Run all three conditions and assemble the verdict."""
    pf = smoothable_pfaffian(plane)
    k = plane.field
    hit, secant_cert = secant_intersects(plane)
    dim, cubics = jump_dimension(plane)
    on_divisor = pf == k.zero
    if on_divisor and hit:
        verdict = "both"
    elif on_divisor:
        verdict = "smoothable-divisor"
    elif hit:
        verdict = "secant"
    else:
        verdict = "general"
    certs = {"cubics": cubics, "secant": secant_cert, "witness_sextics": None}
    elem = secant_cert.get("element")
    if hit and elem is not None:
        adapted = rank_le2_adapted_change(elem)
        if adapted is not None:
            certs["witness_sextics"] = rank2_sextic_witness(
                plane, elem, adapted[0])
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
# jump matrices per det_stack call: with 8 stacked 84x84 matrices a
# pencil's peak traced allocation is 1.8 MiB, with all 40 it is 6.7 MiB
DET_BATCH = 8
PENCIL_RETRIES = 10


def check_pencil_field(k: Field):
    """Refuse a field the pencil experiment cannot run over."""
    if not isinstance(k, PrimeField) or k.p <= 40:
        raise ValueError("pencil experiment needs a prime field with p > 40")


def pencil_experiment(k: Field, seed: int) -> PencilReport:
    """Interpolate det and Pfaffian along a random pencil of planes.

    The pencil is L(t) = <q1, q2, u + t w>.  The frame of the
    perpendicular space is built from a fixed 3-column pivot set J on
    which the pairing row of w vanishes, so the frame varies
    polynomially in t with a constant transition determinant and
    det(jump matrix) is an honest polynomial of degree 36.
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
    basis10 = monomial_basis(4, 2)
    q1, q2, u = (random_form(k, 4, 2, rng) for _ in range(3))
    j_cols = sorted(rng.sample(range(10), 3))
    w_terms = {e: k.random_element(rng) for i, e in enumerate(basis10)
               if i not in j_cols}
    w = Poly(k, 4, w_terms)
    span = FormSpace.from_polys([q1, q2, u, w], degree=2)
    if span.dim != 4:
        return None
    quads = np.stack([q.coeff_vector(2) for q in (q1, q2, u, w)])
    # contraction pairing against the dual quadric monomials: m! * coeff
    pairing = contraction_rows(k, quads, 4, 2, 0)
    rows0, row_w = pairing[:3, :, 0], pairing[3, :, 0]
    mj = Matrix(k, rows0[:, j_cols])
    if mj.rank() != 3:
        return None
    mj_inv_t = mj.inverse().data.T
    detj = mj.det()
    free_cols = [c for c in range(10) if c not in j_cols]
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
    constant times the det polynomial.  The frame's values at the sextic
    points are linear in t; DET_BATCH samples at a time, monomial_values
    takes the cubic monomials in them as one stack for det_stack, as
    jump_matrix_from_quadrics takes them for one sample."""
    quad = sextic_points(k)
    vb, vd = dot(k, quad, base.T), dot(k, quad, dirv.T)
    ts = np.arange(DET_SAMPLES)[:, None, None]
    dets = []
    for t0 in range(0, DET_SAMPLES, DET_BATCH):
        jumps = monomial_values(k, 7, 3, vb + ts[t0:t0 + DET_BATCH] * vd)
        dets.extend(det_stack(k, jumps).tolist())
    return dets


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
