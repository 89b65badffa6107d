"""Time the pencil's 40 jump determinants: 84x84 jump matrices stacked 8
at a time (before) against one shared elimination (after).

For each seed, draws the pencil frame that ``loci.pencil_experiment``
draws first, then takes the dets at t = 0..39 in two ways:

* before: the cubic monomials (``poly.monomial_values``) in the frame's
  values at the sextic points of ``loci.sextic_points`` for 8 samples at
  a time, and ``linalg.det_stack`` of each (8, 84, 84) stack.  This is
  the path ``loci._pencil_dets`` took until it shared one elimination;
  it is kept here as ``_batched_dets`` and timed split into the builds
  and the dets;
* after: ``loci._pencil_dets``, one ``linalg.eliminate_stack`` of the
  56 columns that do not move with t and one (40, 28, 28) ``det_stack``.

Both are checked equal to the dets of the jump matrices built one sample
at a time (``loci.jump_matrix_from_quadrics``) and taken by the
one-matrix pivot loop, the oracle of tests/test_linalg.py.  Each path's
tracemalloc peak is taken on a separate untimed pass, and one whole
``loci.pencil_experiment`` per seed is timed with either path.  Writes
BENCH_pencil.json at the repository root.

    PYTHONPATH=src python3 bench/pencil.py [--seeds 0 1 2] [--repeat 3]
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import random
import statistics
import sys
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import loci
from qplanes.fields import DEFAULT_PRIME, PrimeField
from qplanes.linalg import det_stack
from qplanes.poly import dot, monomial_values

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
from test_linalg import _loop_det  # noqa: E402  (the one-matrix oracle)

BATCH = 8  # jump matrices per det_stack call on the path before


def _frame(k, seed):
    rng = random.Random(seed)
    drawn = None
    while drawn is None:
        drawn = loci._pencil_frame(k, rng)
    return drawn[1:]


def _oracle(k, base, dirv) -> list:
    """The dets of the jump matrices built one sample at a time."""
    return [int(_loop_det(loci.jump_matrix_from_quadrics(
        k, k.reduce(base + t * dirv)).data, k))
        for t in range(loci.DET_SAMPLES)]


def _batched_dets(k, base, dirv, clock=time.perf_counter):
    """(build seconds, det seconds, dets) of the path before: the frame's
    values at the sextic points are linear in t, and BATCH samples at a
    time their cubic monomials are one stack for det_stack."""
    t0 = clock()
    quad = loci.sextic_points(k)
    vb, vd = dot(k, quad, base.T), dot(k, quad, dirv.T)
    ts = np.arange(loci.DET_SAMPLES)[:, None, None]
    build, det = clock() - t0, 0.0
    dets = []
    for s in range(0, loci.DET_SAMPLES, BATCH):
        t0 = clock()
        jumps = monomial_values(k, 7, 3, vb + ts[s:s + BATCH] * vd)
        t1 = clock()
        dets.extend(det_stack(k, jumps).tolist())
        build, det = build + t1 - t0, det + clock() - t1
    return build, det, dets


def _shared_dets(k, base, dirv, clock=time.perf_counter):
    """(None, seconds, dets) of loci._pencil_dets, which has no separate
    build of 84x84 matrices to time."""
    t0 = clock()
    dets = loci._pencil_dets(k, base, dirv)
    return None, clock() - t0, dets


def _library_path(label):
    """A context in which loci.pencil_experiment takes its dets by the
    path of the label."""
    if label == "after":
        return contextlib.nullcontext()
    return mock.patch.object(loci, "_pencil_dets",
                             lambda *a: _batched_dets(*a)[2])


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
    paths = {"before": _batched_dets, "after": _shared_dets}
    names = {"before": f"84x84 jump matrices, det_stack in stacks of {BATCH}",
             "after": "eliminate_stack of the 56 constant columns, "
                      f"det_stack of ({loci.DET_SAMPLES}, 28, 28)"}
    frames = [_frame(k, s) for s in args.seeds]
    wants = [_oracle(k, base, dirv) for base, dirv in frames]
    loci.pencil_experiment(k, args.seeds[0])  # warm the cached index tables
    times = {label: {"build": [], "det": []} for label in paths}
    whole = {label: [] for label in paths}
    for (base, dirv), want, seed in zip(frames, wants, args.seeds):
        for _ in range(args.repeat):
            for label, fn in paths.items():  # interleaved
                build, det, dets = fn(k, base, dirv, clock)
                if dets != want:
                    raise AssertionError(f"{label}: dets differ from the "
                                         "per-sample oracle")
                times[label]["build"].append(build)
                times[label]["det"].append(det)
            for label in paths:
                with _library_path(label):
                    t0 = clock()
                    loci.pencil_experiment(k, seed)
                    whole[label].append(clock() - t0)
    common = {"machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                          "python": platform.python_version()},
              "numpy": np.__version__, "prime": k.p, "seeds": args.seeds,
              "repeat": args.repeat}
    rows = []
    for label, fn in paths.items():
        t = times[label]
        split = {} if t["build"][0] is None else {
            "build_ms": round(statistics.median(t["build"]) * 1e3, 2),
            "det_ms": round(statistics.median(t["det"]) * 1e3, 2)}
        totals = [(b or 0.0) + d for b, d in zip(t["build"], t["det"])]
        rows.append({"label": label, "path": names[label], **common, **split,
                     "total_ms": round(statistics.median(totals) * 1e3, 2),
                     "peak_traced_mb": _peak_mb(
                         lambda: fn(k, *frames[0], clock))})
        print(json.dumps(rows[-1]), flush=True)
    for label in paths:
        with _library_path(label):
            peak = _peak_mb(lambda: loci.pencil_experiment(k, args.seeds[0]))
        rows.append({"label": label, "path": "pencil_experiment", **common,
                     "total_ms": round(statistics.median(whole[label]) * 1e3,
                                       2),
                     "peak_traced_mb": peak})
        print(json.dumps(rows[-1]), flush=True)
    out = {
        "what": "milliseconds per pencil for the 40 jump determinants: "
                "84x84 jump matrices stacked 8 at a time (before; build "
                "and det split) against one shared elimination of the "
                "columns constant in t (after), and for a whole "
                "pencil_experiment with either; medians over seeds and "
                "interleaved repeats, and the tracemalloc peak of one "
                "pencil's path; every det checked against the per-sample "
                "oracle",
        "rows": rows,
    }
    (ROOT / "BENCH_pencil.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
