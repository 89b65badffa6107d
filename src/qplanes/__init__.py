"""Exact-arithmetic toolkit for 3-dimensional planes of quadrics in
four variables: smoothability Pfaffians, cubic jump conditions, secant
detection, Gale duality, and the associated Cremona transformations."""

__version__ = "0.1.0"
