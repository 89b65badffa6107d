"""Time the pencil's 40 jump determinants: one at a time against stacked.

For each seed, draws the pencil frame that ``loci.pencil_experiment``
draws first, then takes the det of the 84x84 jump matrix at t = 0..39 in
two ways, each split into the build and the det:

* loop: ``loci.jump_matrix_from_quadrics`` per t and the one-matrix
  pivot loop (the oracle of tests/test_linalg.py, which is what
  ``Matrix.det`` ran before det_stack);
* stacked: the cubic monomials (``poly.monomial_values``) in the
  frame's values at the sextic points of ``loci.sextic_points`` for a
  batch of samples, then
  ``linalg.det_stack`` on the batch, for batches of ``loci.DET_BATCH``
  and of all ``loci.DET_SAMPLES``.

Each path's dets are checked equal, and its tracemalloc peak is taken on
a separate untimed pass.  One whole ``loci.pencil_experiment`` per seed
is timed too.  Writes BENCH_pencil.json at the repository root.

    PYTHONPATH=src python3 bench/pencil.py [--seeds 0 1 2] [--repeat 3]
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
import tracemalloc
from pathlib import Path

import numpy as np

from qplanes import loci
from qplanes.fields import DEFAULT_PRIME, PrimeField
from qplanes.linalg import det_stack
from qplanes.poly import dot, monomial_values

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_linalg import _loop_det  # noqa: E402  (the one-matrix oracle)


def _frame(k, seed):
    rng = random.Random(seed)
    drawn = None
    while drawn is None:
        drawn = loci._pencil_frame(k, rng)
    return drawn[1:]


def _loop(k, base, dirv, clock):
    """(build seconds, det seconds, dets) of the per-sample path."""
    build = det = 0.0
    dets = []
    for t in range(loci.DET_SAMPLES):
        t0 = clock()
        m = loci.jump_matrix_from_quadrics(k, k.reduce(base + t * dirv))
        t1 = clock()
        dets.append(int(_loop_det(m.data, k)))
        build, det = build + t1 - t0, det + clock() - t1
    return build, det, dets


def _stacked(k, base, dirv, clock, batch):
    """(build seconds, det seconds, dets) of the stacked path: the body
    of loci._pencil_dets with a timer between build and det."""
    t0 = clock()
    quad = loci.sextic_points(k)
    vb, vd = dot(k, quad, base.T), dot(k, quad, dirv.T)
    ts = np.arange(loci.DET_SAMPLES)[:, None, None]
    build, det = clock() - t0, 0.0
    dets = []
    for s in range(0, loci.DET_SAMPLES, batch):
        t0 = clock()
        jumps = monomial_values(k, 7, 3, vb + ts[s:s + batch] * vd)
        t1 = clock()
        dets.extend(det_stack(k, jumps).tolist())
        build, det = build + t1 - t0, det + clock() - t1
    return build, det, dets


def _peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 2 ** 20, 2)
    finally:
        tracemalloc.stop()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    k = PrimeField(DEFAULT_PRIME)
    clock = time.perf_counter
    paths = {"loop": lambda b, d: _loop(k, b, d, clock)}
    for batch in sorted({loci.DET_BATCH, loci.DET_SAMPLES}):
        paths[f"stacked {batch}"] = (
            lambda b, d, batch=batch: _stacked(k, b, d, clock, batch))
    frames = [_frame(k, s) for s in args.seeds]
    loci.pencil_experiment(k, args.seeds[0])  # warm the cached index tables
    rows = []
    for name, fn in paths.items():
        times = {"build": [], "det": [], "total": []}
        for base, dirv in frames:
            want = loci._pencil_dets(k, base, dirv)
            for _ in range(args.repeat):
                build, det, dets = fn(base, dirv)
                if dets != want:
                    raise AssertionError(f"{name}: dets differ")
                times["build"].append(build)
                times["det"].append(det)
                times["total"].append(build + det)
        rows.append({
            "path": name,
            **{f"{key}_ms": round(statistics.median(v) * 1e3, 2)
               for key, v in times.items()},
            "peak_traced_mb": _peak_mb(lambda: fn(*frames[0])),
        })
        print(json.dumps(rows[-1]), flush=True)
    whole = []
    for s in args.seeds:
        for _ in range(args.repeat):
            t0 = clock()
            loci.pencil_experiment(k, s)
            whole.append(clock() - t0)
    rows.append({"path": "pencil_experiment",
                 "total_ms": round(statistics.median(whole) * 1e3, 2),
                 "peak_traced_mb": _peak_mb(
                     lambda: loci.pencil_experiment(k, args.seeds[0]))})
    print(json.dumps(rows[-1]), flush=True)
    out = {
        "what": "milliseconds per pencil for the 40 jump determinants, "
                "split into the 84x84 builds and the dets: one matrix at a "
                "time (loop) against stacks of the given batch size; "
                "medians over seeds and repeats, and the tracemalloc peak "
                "of one pencil's path",
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "numpy": np.__version__,
        "prime": k.p,
        "seeds": args.seeds,
        "repeat": args.repeat,
        "rows": rows,
    }
    (ROOT / "BENCH_pencil.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
