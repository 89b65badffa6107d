"""The three divisorial conditions on planes of quadrics.

A 3-plane L of quadrics in four variables is classified through:

* the 12x12 skew certificate matrix whose Pfaffian cuts the locus of
  planes spanned by partials of a cubic (equivalently, with smoothable
  associated scheme);
* the 84x84 multiplication matrix Sym^3 of the perpendicular 7-space
  into sextics, whose kernel is the space of cubics through the
  projected Veronese image;
* detection of rank <= 2 quadrics in the plane (the secant condition).

The pencil experiment reproduces the degree bookkeeping 36 = 3*(10+2)
by interpolation along a pencil of planes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .apolarity import QuadricPlane, annihilator
from .fields import Field, PrimeField
from .linalg import FormSpace, Matrix, ideal_piece_dim, pfaffian
from .poly import (Poly, contraction_rows, dense_mul, dot, line_restriction,
                   monomial_basis, monomial_index, power_products)
from .unipoly import (UniPoly, chart_resultant, gcd, interpolate,
                      roots_any_degree, squarefree_and_power)


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
    half = k.inv(k.of(2))
    a = k.zeros((4, 4))
    for e, c in q.terms.items():
        idx = [i for i in range(4) for _ in range(e[i])]
        i, j = idx
        if i == j:
            a[i, i] = c
        else:
            a[i, j] = k.mul(c, half)
            a[j, i] = a[i, j]
    return a


def matrix_to_quadric(a, k: Field) -> Poly:
    terms = {}
    for i in range(4):
        for j in range(i, 4):
            e = [0, 0, 0, 0]
            e[i] += 1
            e[j] += 1
            c = a[i][j] if i == j else k.mul(k.of(2), a[i][j])
            terms[tuple(e)] = c
    return Poly(k, 4, terms)


def symmetric_rank(q: Poly) -> int:
    return Matrix(q.field, quadric_to_matrix(q)).rank()


def smoothable_block_matrix(quadrics: list[Poly]) -> Matrix:
    """The 12x12 skew matrix [[0, A1, -A2], [-A1, 0, A3], [A2, -A3, 0]]."""
    if len(quadrics) != 3:
        raise ValueError("need exactly three quadrics")
    k = quadrics[0].field
    a1, a2, a3 = (quadric_to_matrix(q) for q in quadrics)
    z = k.zeros((4, 4))
    m = np.block([[z, a1, k.reduce(-a2)],
                  [k.reduce(-a1), z, a3],
                  [a2, k.reduce(-a3), z]])
    return Matrix(k, m)


def smoothable_pfaffian_basis(quadrics: list[Poly]):
    """Pfaffian of the certificate matrix for an explicit basis."""
    return pfaffian(smoothable_block_matrix(quadrics))


def smoothable_pfaffian(plane: QuadricPlane):
    """Pfaffian for the canonical row-reduced basis of the plane.

    The value depends on the basis (it scales by det^2 under GL_3 basis
    changes) but its vanishing does not.
    """
    return smoothable_pfaffian_basis(plane.basis_polys())


# ---------------------------------------------------------------------------
# Perpendicular space and the jump matrix
# ---------------------------------------------------------------------------


def lperp(plane: QuadricPlane) -> FormSpace:
    """The 7-dimensional space of dual quadrics annihilating the plane."""
    return annihilator(plane.space, 2).piece(2)


def jump_matrix_from_quadrics(duals: list[Poly]) -> Matrix:
    """Multiplication matrix: cubic monomials in the given quadrics,
    expanded over the 84 sextic monomials in 4 variables."""
    return Matrix(duals[0].field, power_products(duals, 3).T)


def jump_matrix(plane: QuadricPlane) -> Matrix:
    """The 84x84 matrix of Sym^3 of the perpendicular space into sextics."""
    return jump_matrix_from_quadrics(lperp(plane).polys())


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


def _minor_cubics(plane: QuadricPlane) -> list[Poly]:
    """The sixteen 3x3 minors of a*A1 + b*A2 + c*A3 as cubics in (a,b,c).

    Each minor is expanded along its first row on dense vectors; only
    the 2x2 cofactors on the rows below a first row are built."""
    k = plane.field
    # entry (i, j) of the pencil matrix as a linear form in (a, b, c)
    e = np.stack([quadric_to_matrix(q) for q in plane.basis_polys()], axis=-1)
    low = list(combinations(range(1, 4), 2))
    pairs = list(combinations(range(4), 2))
    j, l = np.array(low).T[:, :, None]
    b, c = np.array(pairs).T[:, None, :]
    m2 = k.reduce(dense_mul(k, e[j, b], e[l, c], 3, 1, 1)
                  - dense_mul(k, e[j, c], e[l, b], 3, 1, 1))
    triples = list(combinations(range(4), 3))
    lead, cofactor = [], []
    for rows in triples:
        for cols in triples:
            for s in range(3):
                lead.append(e[rows[0], cols[s]])
                cofactor.append(m2[low.index(rows[1:]),
                                   pairs.index(cols[:s] + cols[s + 1:])])
    terms = dense_mul(k, np.stack(lead).reshape(16, 3, 3),
                      np.stack(cofactor).reshape(16, 3, 6), 3, 1, 2)
    minors = k.reduce(terms[:, 0] - terms[:, 1] + terms[:, 2])
    return [Poly.from_coeff_vector(k, 3, 3, v) for v in minors]


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

    Returns (hit, certificate) where the certificate records the piece
    dimensions of the degrees checked and, when one is found among
    basis elements and a small probe set, an explicit rank <= 2 element
    of the plane.
    """
    minors = _minor_cubics(plane)
    dims = {}
    for d in range(3, MACAULAY_BOUND + 1):
        got, full = ideal_piece_dim(minors, d), len(monomial_basis(3, d))
        dims[d] = (got, full)
        if got == full:
            break
    hit = got < full
    cert = {"piece_dims": dims, "element": None}
    if hit:
        cert["element"] = _find_rank_le2(plane, minors)
    return hit, cert


def _find_rank_le2(plane: QuadricPlane, minors: list[Poly]):
    """Explicit rank <= 2 element of the plane, if one exists over the
    ground field.

    Basis vectors and small combinations are probed first; over a prime
    field the minor system is then solved chart by chart through
    resultants, so an element defined over F_p is always found."""
    k = plane.field
    basis = plane.basis_polys()
    candidates = list(basis)
    for c1 in (k.one, k.of(2), k.of(3)):
        for i in range(3):
            for j in range(i + 1, 3):
                candidates.append(basis[i] + basis[j].scale(c1))
    for q in candidates:
        if not q.is_zero() and symmetric_rank(q) <= 2:
            return q
    if not isinstance(k, PrimeField):
        return None
    vecs = np.stack([m.coeff_vector(3) for m in minors if not m.is_zero()])
    for chart in (2, 1, 0):
        got = _rank_le2_on_chart(plane, vecs, chart)
        if got is not None:
            return got
    return None


def _rank_le2_on_chart(plane: QuadricPlane, minors: np.ndarray, chart: int):
    """Rank <= 2 element on the chart lambda_chart = 1 of the plane's
    coordinates, from the dense vectors of the nonzero minors."""
    k: PrimeField = plane.field
    basis = plane.basis_polys()
    u1, u2 = [i for i in range(3) if i != chart]
    rng = random.Random(97)

    def element_at(a0, b0):
        lam = [k.zero] * 3
        lam[chart] = k.one
        lam[u1] = k.of(a0)
        lam[u2] = k.of(b0)
        q = Poly.zero(k, 4)
        for li, bq in zip(lam, basis):
            q = q + bq.scale(li)
        if not q.is_zero() and symmetric_rank(q) <= 2:
            return q
        return None

    def common_b_roots(a0):
        restricted = dot(k, minors, line_restriction(k, 3, chart, a0))
        g = None
        for row in restricted:
            f = UniPoly(k, row)
            if f.is_zero():
                continue
            g = f.monic() if g is None else gcd(g, f)
        if g is None:
            return list(range(4))  # whole fiber vanishes; probe a few
        if g.degree() == 0:
            return []
        return roots_any_degree(g)

    for _ in range(6):
        c1 = k.array([k.random_element(rng) for _ in minors])
        c2 = k.array([k.random_element(rng) for _ in minors])
        res = chart_resultant(k, dot(k, c1, minors), dot(k, c2, minors),
                              chart)
        if res.is_zero():
            continue
        for a0 in roots_any_degree(res):
            for b0 in common_b_roots(a0):
                got = element_at(a0, b0)
                if got is not None:
                    return got
        return None
    # the formal resultant vanished for every combination tried: scan a
    # few fibers directly
    for a0 in range(8):
        for b0 in common_b_roots(a0):
            got = element_at(a0, b0)
            if got is not None:
                return got
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
        u = row
        minv = Matrix(k, _complete_basis(k, [u])).inverse()
        qn = q.substitute_linear(minv.data)
        c = qn.coefficient((2, 0, 0, 0))
        return minv.data, 1, c
    # rank 2: find two independent isotropic vectors in a complement of rad
    c1, c2 = _complete_basis(k, list(rad.data))[rad.rows:]
    q11 = _eval_form(k, a, c1, c1)
    q12 = _eval_form(k, a, c1, c2)
    q22 = _eval_form(k, a, c2, c2)
    iso = _isotropic_pair(k, q11, q12, q22)
    if iso is None:
        return None
    (s1, t1), (s2, t2) = iso
    e1 = k.reduce(s1 * c1 + t1 * c2)
    e2 = k.reduce(s2 * c1 + t2 * c2)
    # linear forms vanishing on <e2, rad> and <e1, rad> respectively
    span2 = np.concatenate([e2.reshape(1, -1), rad.data], axis=0)
    span1 = np.concatenate([e1.reshape(1, -1), rad.data], axis=0)
    u = Matrix(k, span2).right_kernel().data[0]
    v = Matrix(k, span1).right_kernel().data[0]
    minv = Matrix(k, _complete_basis(k, [u, v])).inverse()
    qn = q.substitute_linear(minv.data)
    c = qn.coefficient((1, 1, 0, 0))
    expected = Poly(k, 4, {(1, 1, 0, 0): c})
    if c == k.zero or qn != expected:
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


def _eval_form(k, a, x, y):
    acc = k.zero
    for i in range(4):
        for j in range(4):
            acc = k.add(acc, k.mul(k.mul(a[i][j], x[i]), y[j]))
    return acc


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


def _isotropic_pair(k, q11, q12, q22):
    """Two independent isotropic (s, t) for the binary form
    q11 s^2 + 2 q12 s t + q22 t^2, or None if anisotropic over k."""
    if not isinstance(k, PrimeField):
        return None  # rationals mode: no general square roots
    q11, q12, q22 = int(q11) % k.p, int(q12) % k.p, int(q22) % k.p
    if q11 == 0 and q22 == 0:
        return ((k.one, k.zero), (k.zero, k.one))
    if q11 == 0:
        # t = 0 is one root; the other satisfies 2 q12 s + q22 t = 0
        return ((k.one, k.zero), (q22 % k.p, (-2 * q12) % k.p))
    disc = (q12 * q12 - q11 * q22) % k.p
    root = _sqrt_mod(k, disc)
    if root is None or root == 0:
        return None
    inv = k.inv(q11)
    s1 = ((-q12 + root) * inv) % k.p
    s2 = ((-q12 - root) * inv) % k.p
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
    moved_plane = QuadricPlane.from_polys(
        [q.substitute_linear(change) for q in plane.basis_polys()])
    # a cubic product of the perpendicular quadrics sends x^beta to
    # beta! times its x^beta coefficient, and beta! is a unit (p > 6):
    # x^beta is annihilated by all 84 products iff row beta is zero
    jm = jump_matrix(moved_plane).data
    idx = monomial_index(4, 6)
    if any(np.any(jm[idx[b]] != k.zero) for b in betas):
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


def random_quadric(k: Field, rng) -> Poly:
    basis = monomial_basis(4, 2)
    return Poly(k, 4, {e: k.random_element(rng) for e in basis})


def pencil_experiment(k: Field, seed: int, det_samples: int = 40,
                      retries: int = 10) -> PencilReport:
    """Interpolate det and Pfaffian along a random pencil of planes.

    The pencil is L(t) = <q1, q2, u + t w>.  The frame of the
    perpendicular space is built from a fixed 3-column pivot set J on
    which the pairing row of w vanishes, so the frame varies
    polynomially in t with a constant transition determinant and
    det(jump matrix) is an honest polynomial of degree 36.
    """
    if not isinstance(k, PrimeField) or k.p <= 40:
        raise ValueError("pencil experiment needs a prime field with p > 40")
    rng = random.Random(seed)
    resamples = 0
    while resamples <= retries:
        report = _pencil_once(k, rng, det_samples)
        if report is not None:
            report.resamples = resamples
            return report
        resamples += 1
    raise GenericityError("pencil experiment: degeneracy persisted "
                          f"after {retries} resamples")


def _pencil_once(k: PrimeField, rng, det_samples: int) -> PencilReport | None:
    basis10 = monomial_basis(4, 2)
    q1, q2, u = (random_quadric(k, rng) for _ in range(3))
    j_cols = sorted(rng.sample(range(10), 3))
    w_terms = {e: k.random_element(rng) for i, e in enumerate(basis10)
               if i not in j_cols}
    w = Poly(k, 4, w_terms)
    span = FormSpace.from_polys([q1, q2, u, w], nvars=4, degree=2)
    if span.dim != 4:
        return None
    # contraction pairing against the dual quadric monomials: m! * coeff
    pairing = contraction_rows(
        k, np.stack([q.coeff_vector(2) for q in (q1, q2, u, w)]), 4, 2, 0)
    rows0, row_w = pairing[:3, :, 0], pairing[3, :, 0]
    mj = Matrix(k, rows0[:, j_cols])
    if mj.rank() != 3:
        return None
    mj_inv = mj.inverse()
    detj = mj.det()
    free_cols = [c for c in range(10) if c not in j_cols]
    # frame vectors: v_c(t) = base_c + t * dir_c, with v_c[c] = det(M_J)
    frames = []
    for c in free_cols:
        base = k.zeros(10)
        dirv = k.zeros(10)
        base[c] = detj
        col0 = rows0[:, c]
        col1 = k.zeros(3)
        col1[2] = row_w[c]
        sol0 = k.reduce(-detj * (mj_inv.data @ col0))
        sol1 = k.reduce(-detj * (mj_inv.data @ col1))
        for jj, colidx in enumerate(j_cols):
            base[colidx] = sol0[jj]
            dirv[colidx] = sol1[jj]
        frames.append((base, dirv))

    def perp_polys_at(t):
        return [Poly.from_coeff_vector(k, 4, 2, k.reduce(b + t * d))
                for b, d in frames]

    det_points = []
    for t in range(det_samples):
        m = jump_matrix_from_quadrics(perp_polys_at(t))
        det_points.append((t, m.det()))
    det_poly = interpolate(k, det_points)
    if det_poly.degree() != 36:
        return None
    pf_points = []
    for t in range(7):
        q3 = u + w.scale(t)
        pf_points.append((t, smoothable_pfaffian_basis([q1, q2, q3])))
    pf_poly = interpolate(k, pf_points)
    if pf_poly.degree() != 2:
        return None
    try:
        quotient = det_poly.exact_div(pf_poly * pf_poly * pf_poly)
    except ValueError:
        return PencilReport(det_poly, pf_poly, None,
                            (det_poly.degree(), pf_poly.degree(), -1),
                            False, 0)
    sp = squarefree_and_power(quotient, 3)
    if sp is None:
        return PencilReport(det_poly, pf_poly, None,
                            (det_poly.degree(), pf_poly.degree(), -1),
                            False, 0)
    s_poly, _ = sp
    ok = s_poly.degree() == 10
    return PencilReport(det_poly, pf_poly, s_poly,
                        (det_poly.degree(), pf_poly.degree(), s_poly.degree()),
                        ok, 0)
