"""Time row reduction over Q: the Fraction loop against the modular path.

Captures the rational matrices the library row-reduces while classifying
three planes over Q: every shape that comes up for a random plane (the
FormSpace and ideal-piece matrices and the 84x84 jump matrix), and the
84x84 jump matrices of a secant plane (through l1*l2) and of a smoothable
plane (the partials of a cubic), whose kernels have dimension 3.  Times on
each the Fraction Gauss-Jordan loop, the only path over Q before, against
``linalg._rref``, and counts the images modulo word-size primes the
modular path takes.  Writes BENCH_rationals.json at the repository root.

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
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import linalg, loci
from qplanes.apolarity import QuadricPlane, plane_from_cubic
from qplanes.fields import RationalField
from qplanes.poly import Poly, monomial_basis

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_linalg import _loop_rref  # noqa: E402  (the Fraction oracle)


def _form(k, rng, d):
    return Poly(k, 4, {e: k.random_element(rng) for e in monomial_basis(4, d)})


def planes(k: RationalField, seed: int) -> dict:
    """A random, a secant and a smoothable plane with coefficients in
    [-50, 50], resampled until the forms are independent."""
    rng = random.Random(seed)
    makers = {
        "general": lambda: QuadricPlane.from_polys(
            [_form(k, rng, 2) for _ in range(3)]),
        "secant": lambda: QuadricPlane.from_polys(
            [_form(k, rng, 1) * _form(k, rng, 1), _form(k, rng, 2),
             _form(k, rng, 2)]),
        "smoothable": lambda: plane_from_cubic(
            _form(k, rng, 3), *[_form(k, rng, 1) for _ in range(3)]),
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
    secant and smoothable planes."""
    found = {}
    rref = linalg._rref

    def spy(a, field):
        if a.size and a.shape not in found:
            found[a.shape] = a.copy()
        return rref(a, field)

    ps = planes(k, seed)
    with mock.patch.object(linalg, "_rref", spy):
        loci.classify(ps["general"])
    out = [(f"general {r}x{c}", a) for (r, c), a in sorted(found.items())]
    for kind in ("secant", "smoothable"):
        out.append((f"{kind} jump 84x84", loci.jump_matrix(ps[kind]).data))
    return out


def images_taken(a: np.ndarray, k: RationalField) -> int:
    with mock.patch.object(linalg, "_gauss_jordan",
                           wraps=linalg._gauss_jordan) as spy:
        linalg._rref(a, k)
    return spy.call_count


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    k = RationalField()
    rows = []
    for label, a in capture(k, args.seed):
        times = {"before": [], "after": []}
        for _ in range(args.repeat):
            for name, fn in (("before", _loop_rref), ("after", linalg._rref)):
                t = time.perf_counter()
                fn(a, k)
                times[name].append(time.perf_counter() - t)
        red, pivots = linalg._rref(a, k)
        red0, pivots0 = _loop_rref(a, k)
        if pivots != pivots0 or not np.array_equal(red, red0):
            raise SystemExit(f"{label}: the modular RREF differs from the "
                             "Fraction loop")
        rows.append({"matrix": label, "rank": len(pivots),
                     "primes_used": images_taken(a, k),
                     **{f"{name}_median_s": round(statistics.median(ts), 4)
                        for name, ts in times.items()},
                     **{f"{name}_min_s": round(min(ts), 4)
                        for name, ts in times.items()}})
        print(json.dumps(rows[-1]), flush=True)
    out = {"what": "row reduction over Q: Fraction loop (before) vs _rref "
                   "(after); both results are checked equal",
           "machine": {"cpu": cpu_model(),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "numpy": np.__version__, "seed": args.seed,
           "repeat": args.repeat, "results": rows}
    (ROOT / "BENCH_rationals.json").write_text(json.dumps(out, indent=2)
                                               + "\n")


if __name__ == "__main__":
    main()
