"""Time the unblocked Gauss-Jordan loop before and after delayed
reduction.

Before, ``linalg._gauss_jordan`` reduced the whole matrix mod p after
every pivot; that loop is the oracle ``_eager_gauss_jordan`` of
tests/test_linalg.py.  After, it reduces only the pivot column and row
at each step, the trailing block when one more update could leave
int64, and the result once at the end.  Both are timed, interleaved, on
the matrices of at most 128 columns that the program sends to the loop
(bench/elimination.py times the wider ones), captured as they reach it:

* the 84x84 jump matrices of a random, a secant and a smoothable plane
  (``loci.classify``), and the 3x10 constraint matrix behind ``lperp``
  of the random one, turned by 180 degrees as ``right_kernel`` turns it;
* the 84x35 Segre system of a Gale member (``constructions.
  gale_pipeline``);
* the 40x41 interpolation system of the pencil's determinant
  (``loci.pencil_experiment``).

at p = 32003 and p = 2^31 - 1, and every pair of outputs (the RREF and
the pivot columns) is checked equal.  Writes
BENCH_gauss_jordan.json at the repository root.

    PYTHONPATH=src python3 bench/gauss_jordan.py [--seed 1] [--repeat 20]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import constructions, linalg, loci
from qplanes.fields import PrimeField

from elimination import cpu_model
from rationals import planes

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_linalg import _eager_gauss_jordan  # noqa: E402  (the loop before)

PRIMES = (32003, 2147483647)


def capture(k: PrimeField, seed: int) -> list[tuple[str, np.ndarray]]:
    """(label, matrix) for the first matrix of each shape that reaches
    _gauss_jordan in each run below."""
    out = []
    loop = linalg._gauss_jordan

    def run(label, shape, fn):
        found = []

        def spy(a, p):
            if a.shape == shape and not found:
                found.append(a.copy())
            return loop(a, p)

        with mock.patch.object(linalg, "_gauss_jordan", spy):
            fn()
        out.append((f"{label} {shape[0]}x{shape[1]}", found[0]))

    ps = planes(k, seed)
    run("random jump", (84, 84), lambda: loci.classify(ps["general"]))
    run("secant jump", (84, 84), lambda: loci.classify(ps["secant"]))
    run("smoothable jump", (84, 84),
        lambda: loci.classify(ps["smoothable"]))
    run("lperp", (3, 10), lambda: loci.lperp(ps["general"]))
    run("Segre system", (84, 35),
        lambda: constructions.gale_pipeline(k, seed))
    run("interpolation", (40, 41), lambda: loci.pencil_experiment(k, seed))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    env = {"machine": {"cpu": cpu_model(),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "numpy": np.__version__}
    rows = []
    for p in PRIMES:
        for label, a in capture(PrimeField(p), args.seed):
            after = linalg._gauss_jordan(a, p)
            before = _eager_gauss_jordan(a, p)
            assert after[1] == before[1], label
            assert np.array_equal(after[0], before[0]), label
            times = {"before": [], "after": []}
            for _ in range(args.repeat):
                for name, fn in (("before", _eager_gauss_jordan),
                                 ("after", linalg._gauss_jordan)):
                    t = time.perf_counter()
                    fn(a, p)
                    times[name].append(time.perf_counter() - t)
            rows.append({"matrix": label, "rank": len(after[1]),
                         **{f"{name}_median_ms":
                            round(1e3 * statistics.median(ts), 3)
                            for name, ts in times.items()},
                         **{f"{name}_min_ms": round(1e3 * min(ts), 3)
                            for name, ts in times.items()},
                         "prime": p, "seed": args.seed,
                         "repeat": args.repeat, **env})
            print(json.dumps({key: rows[-1][key] for key in
                              ("prime", "matrix", "rank", "before_median_ms",
                               "after_median_ms")}), flush=True)
    out = {"what": "the unblocked Gauss-Jordan loop: the whole matrix "
                   "reduced after every pivot (before) against delayed "
                   "reduction (after), milliseconds per call",
           "results": rows}
    path = ROOT / "BENCH_gauss_jordan.json"
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
