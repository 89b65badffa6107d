"""Time the rational path of classify: row reduction and the jump build.

Captures the rational matrices the library row-reduces while classifying
a random plane over Q: every shape that comes up (the FormSpace and
ideal-piece matrices), and the 84x84 jump matrices c^3 V J of that plane,
of a secant plane (through l1*l2) and of a smoothable plane (the
partials of a cubic), whose kernels have dimension 0, 3 and 3.  Times on
each the Fraction Gauss-Jordan loop, the only path over Q before, against
``linalg._rref``, and counts the images modulo word-size primes the
modular path takes.  Then, for each of those planes and one through l^2,
times the 84x84 jump build of the perpendicular space from Fraction
products (before) against ``loci.jump_matrix_from_quadrics`` of its rows
scaled to integers (``loci.integral_rows``), which builds V c^3 J in
Python ints (after, V the invertible matrix of sextic monomial values at
the points of ``loci.sextic_points``), checking the two equal up to
V c^3, and one whole ``loci.classify`` with the kernel of the Fraction
build (before) and as the library takes it (after).  Writes
BENCH_rationals.json at the repository root.

    PYTHONPATH=src python3 bench/rationals.py [--seed 3] [--repeat 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import sys
import time
from math import lcm
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import linalg, loci
from qplanes.apolarity import QuadricPlane, plane_from_cubic
from qplanes.fields import RationalField
from qplanes.linalg import Matrix
from qplanes.poly import Poly, monomial_basis, monomial_values

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_linalg import _loop_rref  # noqa: E402  (the Fraction oracles)
from test_loci import _fraction_power_products  # noqa: E402


def _form(k, rng, d):
    return Poly(k, 4, {e: k.random_element(rng) for e in monomial_basis(4, d)})


def _through_square(k, rng) -> QuadricPlane:
    lin = _form(k, rng, 1)
    return QuadricPlane.from_polys([lin * lin, _form(k, rng, 2),
                                    _form(k, rng, 2)])


def planes(k: RationalField, seed: int) -> dict:
    """A random plane, a secant one (through l1*l2), a smoothable one and
    one through l^2, with coefficients in [-50, 50], resampled until the
    forms are independent."""
    rng = random.Random(seed)
    makers = {
        "general": lambda: QuadricPlane.from_polys(
            [_form(k, rng, 2) for _ in range(3)]),
        "secant": lambda: QuadricPlane.from_polys(
            [_form(k, rng, 1) * _form(k, rng, 1), _form(k, rng, 2),
             _form(k, rng, 2)]),
        "smoothable": lambda: plane_from_cubic(
            _form(k, rng, 3), *[_form(k, rng, 1) for _ in range(3)]),
        "square": lambda: _through_square(k, rng),
    }
    out = {}
    for kind, make in makers.items():
        while kind not in out:
            try:
                out[kind] = make()
            except ValueError:
                continue
    return out


def capture(k: RationalField, seed: int) -> list[tuple[str, np.ndarray]]:
    """(label, matrix): the first matrix of each non-empty shape reduced
    while classifying the random plane, then the jump matrices of the
    random, secant and smoothable planes."""
    found = {}
    rref = linalg._rref

    def spy(a, field):  # the sextic points' rank check is over F_p
        if field.kind == "rationals" and a.size and a.shape not in found:
            found[a.shape] = a.copy()
        return rref(a, field)

    ps = planes(k, seed)
    with mock.patch.object(linalg, "_rref", spy):
        loci.classify(ps["general"])
    out = [(f"general {r}x{c}", a) for (r, c), a in sorted(found.items())]
    for kind in ("general", "secant", "smoothable"):
        out.append((f"{kind} jump 84x84",
                    integer_jump(loci.lperp(ps[kind])).data))
    return out


def images_taken(a: np.ndarray, k: RationalField) -> int:
    with mock.patch.object(linalg, "_gauss_jordan",
                           wraps=linalg._gauss_jordan) as spy:
        linalg._rref(a, k)
    return spy.call_count


def fraction_jump(perp) -> Matrix:
    """J from Fraction products of the perpendicular quadrics."""
    return Matrix(perp.field, _fraction_power_products(perp.polys(), 3).T)


def integer_jump(perp) -> Matrix:
    """V c^3 J in Python ints, c the lcm of the denominators of the rows
    of the perpendicular space: the build jump_dimension checks with."""
    k = perp.field
    return loci.jump_matrix_from_quadrics(
        k, loci.integral_rows(k, perp.basis.data))


def classify_with(jump_matrix, plane):
    """classify, with the jump kernel the right_kernel of the given
    build of the perpendicular space."""
    def jump_dimension(perp):
        ker = jump_matrix(perp).right_kernel()
        return ker.rows, ker

    with mock.patch.object(loci, "jump_dimension", jump_dimension):
        return loci.classify(plane)


def jump_rows(ps: dict) -> list[tuple[str, dict]]:
    """(label, {name: callable}) per plane kind: the jump build and one
    classify, each with the Fraction build (before) and the integer build
    (after).  The integer build is checked to be V c^3 times the Fraction
    one, c the common denominator of the perpendicular basis, and both
    classifications to give the same kernel cubics."""
    out = []
    v = monomial_values(RationalField(), 4, 6, monomial_basis(4, 6))
    for kind, plane in ps.items():
        perp = loci.lperp(plane)
        c = lcm(*(x.denominator for x in perp.basis.data.flat))
        if not np.array_equal(integer_jump(perp).data,
                              v.dot(c ** 3 * fraction_jump(perp).data)):
            raise SystemExit(f"{kind}: the integer jump matrix is not "
                             "V c^3 times the Fraction one")
        if (classify_with(fraction_jump, plane).certificates["cubics"]
                != loci.classify(plane).certificates["cubics"]):
            raise SystemExit(f"{kind}: classify finds other kernel cubics")
        out.append((f"{kind} jump build 84x84",
                    {"before": lambda p=perp: fraction_jump(p),
                     "after": lambda p=perp: integer_jump(p)}))
        out.append((f"{kind} classify",
                    {"before": lambda p=plane: classify_with(fraction_jump, p),
                     "after": lambda p=plane: loci.classify(p)}))
    return out


def timed(fns: dict, repeat: int) -> dict:
    """Median and minimum seconds of each callable, the callables taken
    in turn on every repeat."""
    times = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            t = time.perf_counter()
            fn()
            times[name].append(time.perf_counter() - t)
    return {**{f"{name}_median_s": round(statistics.median(ts), 4)
               for name, ts in times.items()},
            **{f"{name}_min_s": round(min(ts), 4)
               for name, ts in times.items()}}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    k = RationalField()
    rows = []
    for label, a in capture(k, args.seed):
        stats = timed({"before": lambda: _loop_rref(a, k),
                       "after": lambda: linalg._rref(a, k)}, args.repeat)
        red, pivots = linalg._rref(a, k)
        red0, pivots0 = _loop_rref(a, k)
        if pivots != pivots0 or not np.array_equal(red, red0):
            raise SystemExit(f"{label}: the modular RREF differs from the "
                             "Fraction loop")
        rows.append({"matrix": label, "rank": len(pivots),
                     "primes_used": images_taken(a, k), **stats})
        print(json.dumps(rows[-1]), flush=True)
    for label, fns in jump_rows(planes(k, args.seed)):
        rows.append({"matrix": label, **timed(fns, args.repeat)})
        print(json.dumps(rows[-1]), flush=True)
    out = {"what": "over Q: row reduction by the Fraction loop (before) vs "
                   "_rref (after); the 84x84 jump build from Fraction "
                   "products (before) vs V c^3 J in Python ints (after); "
                   "classify with either build.  Results are checked "
                   "equal",
           "machine": {"cpu": cpu_model(),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "numpy": np.__version__, "seed": args.seed,
           "repeat": args.repeat, "results": rows}
    (ROOT / "BENCH_rationals.json").write_text(json.dumps(out, indent=2)
                                               + "\n")


if __name__ == "__main__":
    main()
