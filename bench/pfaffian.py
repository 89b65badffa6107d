"""Time Pfaffians of the 12x12 certificate matrix, interpolation, and a
pencil.

Times, on certificate matrices [[0, A1, -A2], [-A1, 0, A3], [A2, -A3, 0]]
of seeded random triples of quadrics (A_i from ``loci.quadric_to_matrix``):

* one matrix through ``linalg.pfaffian`` at p = 32003 and 2^31 - 1, and
  over Q on the canonical basis of a random plane with integer
  coefficients in [-50, 50], as classify-q draws them;
* ``loci.smoothable_pfaffian`` on such a plane at p = 32003 and over Q,
  the build included, as classify runs it;
* stacks of 7 (a pencil's Pfaffians) and 40 (criterion 9's scaling
  checks) at p = 32003: ``linalg.pfaffian_stack`` where the tree has it,
  else one ``linalg.pfaffian`` per matrix;
* ``unipoly.interpolate`` of 40 random samples at t = 0..39, as the
  pencil's det polynomial is recovered;
* one whole ``loci.pencil_experiment``.

Each row records a sha256 digest of its results, so that two runs can be
checked to agree.  The results go into BENCH_pfaffian.json at the
repository root under ``--label``, with the machine, numpy version and
seed of that run; other labels already in the file are kept, so running
the script once against each of two source trees puts both side by
side:

    PYTHONPATH=<other tree>/src python3 bench/pfaffian.py --label parent
    PYTHONPATH=src python3 bench/pfaffian.py --label change
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import time
from pathlib import Path

import numpy as np

from qplanes import linalg, loci
from qplanes.apolarity import QuadricPlane
from qplanes.fields import DEFAULT_PRIME, PrimeField, RationalField
from qplanes.linalg import Matrix, pfaffian
from qplanes.poly import Poly, monomial_basis
from qplanes.unipoly import interpolate

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
LARGE = 2147483647


def _plane(k, rng):
    """A plane of three random quadrics; over Q with integer
    coefficients in [-50, 50]."""
    while True:
        try:
            return QuadricPlane.from_polys(
                [Poly(k, 4, {e: k.random_element(rng)
                             for e in monomial_basis(4, 2)})
                 for _ in range(3)])
        except ValueError:
            continue


def _certificate(plane):
    """The 12x12 certificate matrix of the plane's basis, built the same
    way in every tree."""
    k = plane.field
    a1, a2, a3 = (loci.quadric_to_matrix(q) for q in plane.basis_polys())
    z = k.zeros((4, 4))
    return Matrix(k, np.block([[z, a1, k.reduce(-a2)],
                               [k.reduce(-a1), z, a3],
                               [a2, k.reduce(-a3), z]]))


def _stacked(k, mats):
    """The Pfaffians of a list of matrices over F_p, as one stack where
    the tree can take one."""
    stack = getattr(linalg, "pfaffian_stack", None)
    if stack is None:
        return [int(pfaffian(m)) for m in mats]
    return stack(k, np.stack([m.data for m in mats])).tolist()


def _timed(fn, repeat):
    """Median and minimum milliseconds of fn() over ``repeat`` calls after
    one warm-up call, and a digest of its result."""
    result = fn()
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return {"median_ms": round(statistics.median(times) * 1e3, 3),
            "min_ms": round(min(times) * 1e3, 3),
            "digest": hashlib.sha256(repr(result).encode()).hexdigest()[:16]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. parent/change")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--repeat", type=int, default=30)
    args = ap.parse_args()
    k, big, q = PrimeField(DEFAULT_PRIME), PrimeField(LARGE), RationalField()
    rng = random.Random(args.seed)
    plane, plane_big, plane_q = (_plane(f, rng) for f in (k, big, q))
    m, m_big, m_q = (_certificate(x) for x in (plane, plane_big, plane_q))
    mats = [_certificate(_plane(k, rng)) for _ in range(40)]
    samples = [(t, k.random_element(rng)) for t in range(40)]
    cases = {
        "pfaffian 12x12, p = 32003": lambda: int(pfaffian(m)),
        "pfaffian 12x12, p = 2^31 - 1": lambda: int(pfaffian(m_big)),
        "pfaffian 12x12, Q": lambda: str(pfaffian(m_q)),
        "smoothable_pfaffian, p = 32003":
            lambda: int(loci.smoothable_pfaffian(plane)),
        "smoothable_pfaffian, Q":
            lambda: str(loci.smoothable_pfaffian(plane_q)),
        "stack of 7, p = 32003": lambda: _stacked(k, mats[:7]),
        "stack of 40, p = 32003": lambda: _stacked(k, mats),
        "interpolate 40 samples, p = 32003":
            lambda: interpolate(k, samples).coeffs,
        "pencil_experiment, p = 32003": lambda: (
            lambda r: (r.degrees, r.pf_poly.coeffs))(
                loci.pencil_experiment(k, args.seed)),
    }
    rows = []
    for name, fn in cases.items():
        repeat = args.repeat if "pencil" not in name else max(
            args.repeat // 10, 1)
        rows.append({"case": name, "repeat": repeat,
                     **_timed(fn, repeat)})
        print(json.dumps(rows[-1]), flush=True)
    path = ROOT / "BENCH_pfaffian.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out["what"] = ("milliseconds per call (median and minimum over repeat "
                   "calls after one warm-up) of Pfaffians of 12x12 "
                   "certificate matrices, alone and in stacks, of the "
                   "interpolation of 40 samples and of one pencil, one "
                   "entry per source tree; equal digests mean equal "
                   "results")
    out.setdefault("runs", {})[args.label] = {
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "numpy": np.__version__, "prime": k.p, "seed": args.seed,
        "results": rows}
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
