"""Time the row reductions of the slow Cremona pipeline.

Captures every matrix of more than 128 columns that
``constructions.cremona_pipeline(slow=True)`` sends to ``linalg._rref``
at each seed of ``--seeds`` (per seed: the 285x495 [M | I_S], the
450x210 and 138x222 systems, and a few matrices of at most one row), then
times ``linalg._rref`` on each, checks that its RREF and pivots equal
those of ``_loop_rref``, the one-pivot-at-a-time oracle of
tests/test_linalg.py, and records the rank and a sha256 digest of the
RREF, so that two runs can be checked to agree.  The results go into
BENCH_elimination.json at the repository root under ``--label``; other
labels already in the file are kept, so running the script once against
each of two source trees puts both side by side:

    PYTHONPATH=<other tree>/src python3 bench/elimination.py --label before
    PYTHONPATH=src python3 bench/elimination.py --label after [--repeat 5]

The other bench scripts import ``cpu_model`` and ``dense_inverse_system``
from here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import constructions, linalg
from qplanes.fields import DEFAULT_PRIME, PrimeField

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
WIDE = 128  # capture the matrices of more columns than this


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


def capture(k: PrimeField, seed: int) -> list[np.ndarray]:
    """The matrices of more than WIDE columns that reach _rref in one
    slow Cremona pipeline, in the order they reach it."""
    found = []
    rref = linalg._rref

    def spy(a, field):
        if a.shape[1] > WIDE:
            found.append(a.copy())
        return rref(a, field)

    with mock.patch.object(linalg, "_rref", spy):
        constructions.cremona_pipeline(k, seed, slow=True)
    return found


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _digest(red: np.ndarray, pivots) -> str:
    data = np.ascontiguousarray(red, dtype=np.int64).tobytes()
    return hashlib.sha256(data + repr(list(pivots)).encode()).hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. before/after")
    ap.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    # imported here, so that the scripts that import cpu_model do not
    # load the tests
    sys.path.insert(0, str(ROOT / "tests"))
    from test_linalg import _loop_rref

    k = PrimeField(DEFAULT_PRIME)
    rows = []
    for seed in args.seeds:
        for a in capture(k, seed):
            red, pivots = linalg._rref(a, k)
            red0, pivots0 = _loop_rref(a, k)
            shape = f"{a.shape[0]}x{a.shape[1]}"
            assert pivots == pivots0 and np.array_equal(red, red0), shape
            times = []
            for _ in range(args.repeat):
                t = time.perf_counter()
                linalg._rref(a, k)
                times.append(time.perf_counter() - t)
            rows.append({"seed": seed, "shape": shape, "rank": len(pivots),
                         "median_ms": round(1e3 * statistics.median(times),
                                            3),
                         "min_ms": round(1e3 * min(times), 3),
                         "digest": _digest(red, pivots)})
            print(json.dumps(rows[-1]), flush=True)
    path = ROOT / "BENCH_elimination.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out.update({
        "what": "milliseconds per linalg._rref on the matrices of more "
                f"than {WIDE} columns that cremona_pipeline(slow=True) "
                "row-reduces, one entry per source tree; every RREF "
                "equals _loop_rref's, and equal digests mean equal RREFs "
                "and pivots",
        "machine": {"cpu": cpu_model(),
                    "cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "numpy": np.__version__,
        "prime": k.p,
        "seeds": args.seeds,
        "repeat": args.repeat,
    })
    out.setdefault("runs", {})[args.label] = rows
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
