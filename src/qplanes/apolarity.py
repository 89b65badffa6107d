"""Contraction action of dual polynomials, annihilators, apolar algebras.

Dual polynomials act on polynomials by iterated true partial
derivatives (not divided powers); with p >= 11 every factorial that can
appear is a unit, so the two conventions differ only by unit scalars.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from .fields import Field, PrimeField
from .linalg import FormSpace, Matrix
from .poly import Poly, contraction_rows, dot, monomial_basis


class DependentContractions(ValueError):
    """The three contractions d_i(F) failed to be linearly independent."""


def contract(d: Poly, f: Poly) -> Poly:
    """Apply the dual polynomial d to f as a constant-coefficient
    differential operator.  Linear in both arguments; each pair of
    homogeneous parts contracts through the weight table."""
    if d.nvars != f.nvars:
        raise ValueError("variable count mismatch")
    if d.field != f.field:
        raise ValueError("field mismatch")
    k, n = f.field, f.nvars
    if isinstance(k, PrimeField) and k.p <= f.degree():
        raise ValueError("field too small: p must exceed deg f")
    out = Poly.zero(k, n)
    fparts = f.homogeneous_vectors()
    for a, dvec in d.homogeneous_vectors().items():
        for b, fvec in fparts.items():
            if b >= a:
                vec = dot(k, dvec, contraction_rows(k, fvec, n, a, b - a))
                out = out + Poly.from_coeff_vector(k, n, b - a, vec)
    return out


@dataclass
class HilbertFunction:
    """Non-negative values with trailing zeros trimmed; sums to the
    length of the scheme."""

    values: list[int]

    def __post_init__(self):
        vals = list(self.values)
        while vals and vals[-1] == 0:
            vals.pop()
        self.values = vals

    def __eq__(self, other):
        if isinstance(other, (list, tuple)):
            return self.values == list(other)
        return isinstance(other, HilbertFunction) and self.values == other.values

    def __repr__(self):
        return f"HF{tuple(self.values)}"


@dataclass
class QuadricPlane:
    """A 3-dimensional space of quadrics in four variables."""

    space: FormSpace

    def __post_init__(self):
        if self.space.nvars != 4 or self.space.degree != 2:
            raise ValueError("QuadricPlane needs quadrics in 4 variables")
        if self.space.dim != 3:
            raise ValueError(f"QuadricPlane needs dimension 3, got {self.space.dim}")

    @property
    def field(self) -> Field:
        return self.space.field

    def basis_polys(self) -> list[Poly]:
        return self.space.polys()

    @classmethod
    def from_polys(cls, quadrics: list[Poly]) -> "QuadricPlane":
        return cls(FormSpace.from_polys(quadrics, degree=2))

    @classmethod
    def from_rows(cls, k: Field, rows) -> "QuadricPlane":
        return cls(FormSpace.from_matrix(k, 4, 2, Matrix(k, rows)))


def _contraction_constraint_matrix(space: FormSpace, d: int) -> Matrix:
    """Rows = linear constraints on a degree-d dual operator D from
    requiring D(q) = 0 for every q in the space: one row per basis form
    and monomial of degree deg(q) - d."""
    rows = contraction_rows(space.field, space.basis.data, space.nvars, d,
                            space.degree - d)
    return Matrix(space.field,
                  rows.swapaxes(-1, -2).reshape(-1, rows.shape[-2]))


def annihilator_piece(space: FormSpace, d: int) -> FormSpace:
    """The degree-d dual operators annihilating the given space of forms:
    one kernel, or every operator above the degree of the space."""
    k = space.field
    if d > space.degree:
        return FormSpace.full(k, space.nvars, d)
    return FormSpace(k, space.nvars, d,
                     _contraction_constraint_matrix(space, d).right_kernel())


def annihilator(space: FormSpace, up_to: int) -> dict[int, FormSpace]:
    """Graded pieces of the ideal of dual operators annihilating the
    given space of forms: degree -> FormSpace, degrees 0..up_to."""
    if up_to < space.degree:
        raise ValueError("up_to must be at least the degree of the space")
    return {d: annihilator_piece(space, d) for d in range(up_to + 1)}


def apolar_hilbert_function(plane: QuadricPlane) -> HilbertFunction:
    """Hilbert function of the apolar algebra of the plane: (1, 4, 3)
    unless the first partials of the plane span a proper subspace."""
    ann = annihilator(plane.space, 3)
    dims = [len(monomial_basis(4, d)) for d in range(4)]
    return HilbertFunction([dims[d] - ann[d].dim for d in range(4)])


def plane_of_contractions(k: Field, f, ds) -> QuadricPlane:
    """The plane spanned by the contractions d_i(F) of the cubic row f by
    the rows ds of three linear dual operators."""
    try:
        return QuadricPlane.from_rows(
            k, dot(k, ds, contraction_rows(k, f, 4, 1, 2)))
    except ValueError:
        raise DependentContractions(
            "contractions are dependent; resample the operators or the cubic"
        ) from None


def plane_from_cubic(f: Poly, d1: Poly, d2: Poly, d3: Poly) -> QuadricPlane:
    """The plane spanned by the three contractions d_i(F)."""
    return plane_of_contractions(
        f.field, f.coeff_vector(3),
        np.stack([d.coeff_vector(1) for d in (d1, d2, d3)]))


# ---------------------------------------------------------------------------
# Recovering a cubic certificate
# ---------------------------------------------------------------------------


def _contraction_system(ds: list, k: Field):
    """Matrix of F -> (d_1 F, d_2 F, d_3 F) in coefficient coordinates.

    ds are length-4 coefficient vectors of linear dual operators; the
    30x20 result maps cubic coefficients to three quadric coefficient
    vectors stacked."""
    # contractions of every basis cubic by the four dual variables
    rows = contraction_rows(k, k.array(np.eye(20, dtype=np.int64)), 4, 1, 2)
    return np.concatenate([dot(k, d, rows).T for d in ds])


def _attempt_certificate(plane: QuadricPlane, w) -> tuple | None:
    """Try the kernel vector w = (w1, w2, w3); candidate operators are
    (w3, w2, w1).  Returns (F, d1, d2, d3) or None."""
    k = plane.field
    ds = [w[8:12], w[4:8], w[0:4]]
    if Matrix(k, ds).rank() < 3:
        return None
    a = _contraction_system(ds, k)
    b = plane.space.basis.data.reshape(-1)
    sol = Matrix(k, a).solve(b)
    if sol is None:
        return None
    f = Poly.from_coeff_vector(k, 4, 3, sol)
    return (f, *(Poly.from_coeff_vector(k, 4, 1, d) for d in ds))


def recover_cubic(plane: QuadricPlane, seed: int = 0, budget: int = 200):
    """Search for (F, d1, d2, d3) with d_i F = q_i exactly.

    The kernel of the 12x12 skew certificate matrix is exactly the set of
    operator triples (d1, d2, d3) with d_j q_i = d_i q_j.  Every
    certificate lies in it, since d_j q_i = d_j d_i F = d_i q_j, and its
    operators are independent, since the q_i are.  Conversely, when the
    d_i are independent, complete them to coordinates y_1..y_4 in which
    d_i = d/dy_i: the relations say that the 1-form sum q_i dy_i in
    y_1, y_2, y_3, with y_4 as a parameter, is closed.  By the polynomial
    Poincare lemma (dividing only by 1, 2 and 3, units for p >= 11) it has
    a primitive, a cubic F.  So every kernel vector whose three operators
    have rank 3 is a certificate.

    The search tries the kernel basis rows in order, then seeded random
    combinations of them, up to ``budget`` attempts in total.  When some
    kernel vector has independent operators, one of their 3x3 minors is a
    nonzero cubic in the combination's coefficients, and by Schwartz-Zippel
    a random combination over F_p misses with probability at most 3/p.
    Returns None when no kernel vector has independent operators, and then
    no certificate exists, or when every attempt missed.
    """
    from .loci import smoothable_block_matrix

    k = plane.field
    kernel = Matrix(k, smoothable_block_matrix(
        k, plane.space.basis.data)).right_kernel()
    if kernel.rows == 0:
        return None
    rng = random.Random(seed)
    for tried in range(budget):
        if tried < kernel.rows:
            w = kernel.data[tried]
        else:
            coeffs = k.array([k.random_element(rng)
                              for _ in range(kernel.rows)])
            w = dot(k, coeffs, kernel.data)
        got = _attempt_certificate(plane, w)
        if got is not None:
            return got
    return None
