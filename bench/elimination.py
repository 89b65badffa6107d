"""Time row reduction before and after blocked elimination.

Captures the matrices the library row-reduces at two real shapes (the
84x84 jump matrix and the 448x55 degree-9 minor ideal piece of a random
plane, generators x lattice points, as the secant stage builds its pieces
up to degree 7) and builds three more (the dense 332x175, 828x588 and 1710x1470
proportionality systems of the slow Cremona pipeline, from the points it
samples; the pipeline itself now solves them block by block), then times
on each the unblocked Gauss-Jordan loop, the only path before blocked
elimination, against ``linalg._rref`` as it now chooses its path.  The
"before" column is that loop as it is now, with delayed reduction
(bench/gauss_jordan.py times it against the loop that reduced after
every pivot), so it is faster than the loop blocked elimination first
replaced.  Writes BENCH_elimination.json at the repository root.

    PYTHONPATH=src python3 bench/elimination.py [--seed 1] [--repeat 3]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import time
from pathlib import Path

import numpy as np

from qplanes import constructions, linalg, loci
from qplanes.apolarity import QuadricPlane
from qplanes.fields import DEFAULT_PRIME, PrimeField
from qplanes.poly import Poly, monomial_basis

SHAPES = [(84, 84), (448, 55), (332, 175), (828, 588), (1710, 1470)]


def dense_inverse_system(k: PrimeField, xs, m) -> np.ndarray:
    """The proportionality system of find_inverse as one matrix: per
    sample point x and i = 1..n-1, the row with m(y) in block i and
    -x_i m(y) in block 0, where m(y) is the row of m for x."""
    size, nv = m.shape[1], xs.shape[1]
    rows = np.zeros((len(m), nv - 1, nv * size), dtype=np.int64)
    for i in range(1, nv):
        rows[:, i - 1, i * size:(i + 1) * size] = m
        rows[:, i - 1, :size] = k.reduce(-xs[:, i:i + 1] * m)
    return rows.reshape(-1, nv * size)


def capture(k: PrimeField, seed: int) -> dict:
    """The first matrix of each shape in SHAPES that reaches _rref, or
    that is the dense form of a proportionality system the pipeline
    solves."""
    found = {}
    rref = linalg._rref
    solve = constructions._proportionality_kernel

    def keep(a):
        if a.shape in SHAPES and a.shape not in found:
            found[a.shape] = a.copy()

    def spy(a, field):
        keep(a)
        return rref(a, field)

    def spy_system(field, xs, m):
        keep(dense_inverse_system(field, xs, m))
        return solve(field, xs, m)

    rng = random.Random(seed)
    plane = QuadricPlane.from_polys(
        [Poly(k, 4, {e: k.random_element(rng) for e in monomial_basis(4, 2)})
         for _ in range(3)])
    linalg._rref = spy
    constructions._proportionality_kernel = spy_system
    try:
        loci.jump_matrix(plane).rank()
        hessians = loci._hessians(k, plane.space.basis.data)
        linalg.Matrix(k, loci.ideal_piece_values(
            k, 3, 3, 9, loci._minor_values(k, hessians, 9))).rank()
        constructions.cremona_pipeline(k, seed, slow=True)
    finally:
        linalg._rref = rref
        constructions._proportionality_kernel = solve
    return found


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    k = PrimeField(DEFAULT_PRIME)
    mats = capture(k, args.seed)
    rows = []
    for shape in SHAPES:
        a = mats[shape]
        times = {"before": [], "after": []}
        for _ in range(args.repeat):
            for name, fn in (("before",
                              lambda: linalg._gauss_jordan(a, k.p)),
                             ("after", lambda: linalg._rref(a, k))):
                t = time.perf_counter()
                fn()
                times[name].append(time.perf_counter() - t)
        rows.append({"shape": f"{shape[0]}x{shape[1]}",
                     "rank": len(linalg._rref(a, k)[1]),
                     **{f"{name}_median_s": round(statistics.median(ts), 4)
                        for name, ts in times.items()},
                     **{f"{name}_min_s": round(min(ts), 4)
                        for name, ts in times.items()}})
        print(json.dumps(rows[-1]), flush=True)
    out = {"what": "row reduction: unblocked loop (before) vs _rref (after)",
           "machine": {"cpu": cpu_model(),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "numpy": np.__version__, "prime": k.p, "seed": args.seed,
           "repeat": args.repeat, "panel": linalg.PANEL, "results": rows}
    path = Path(__file__).resolve().parent.parent / "BENCH_elimination.json"
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
