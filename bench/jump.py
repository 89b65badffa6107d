"""Time the 84x84 jump build: form products (before) against evaluation
at the sextic lattice points (after); and the jump kernel over Q from the
matrix in Python ints (before) against prime images (after).

Before, the jump matrix J was built from the coefficient rows of the
perpendicular quadrics with ``poly.dense_mul``, cubic by cubic (the
build is kept here as ``_product_build``).  After,
``loci.jump_matrix_from_quadrics`` evaluates the cubic monomials in the
quadrics' values at the 84 points of ``loci.sextic_points`` and returns
V J, V the invertible matrix of sextic monomial values there.  Timed:

* the build for one random plane at p = 32003 and p = 2^31 - 1, and over
  Q from the integer-scaled rows, where both builds give Python ints;
* a pencil's 40 builds at p = 32003, in stacks of 8 as
  ``loci._pencil_dets`` took them before it shared one elimination
  (``bench/pencil.py``);
* the jump kernel over Q of a random, a secant, a smoothable and an l^2
  plane (``rationals.planes``): ``Matrix(Q, c^3 V J).right_kernel()``
  of the matrix in Python ints (before) against ``loci.jump_dimension``,
  which reduces images of c^3 V J built over F_p from the integer rows
  reduced mod p, and builds c^3 V J only to check a rank-deficient image
  (after).

Every result is checked: the evaluation build equals V times the product
build, the pencil's dets are det V times the product build's, and the
two kernels of each plane are equal.  The results go into
BENCH_jump.json at the repository root under ``--label``, with the
machine, seed and repeat count of that run; other labels already in the
file are kept.

    PYTHONPATH=src python3 bench/jump.py --label after [--seed 1] [--repeat 20]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

from qplanes import linalg, loci
from qplanes.fields import DEFAULT_PRIME, PrimeField, RationalField
from qplanes.linalg import Matrix, det_stack
from qplanes.poly import dense_mul, dot, monomial_basis, monomial_values

from elimination import cpu_model
from pencil import BATCH, _frame
from rationals import planes

ROOT = Path(__file__).resolve().parent.parent


def _product_build(k, rows):
    """J from the coefficient rows (last axis: the 10 quadric monomials)
    of n quadrics, by dense_mul cubic by cubic: a stack of 84 x C(n+2, 3)
    matrices over the leading axes of rows[0]."""
    n = len(rows)
    prev = dict(zip(monomial_basis(n, 1), rows))
    for level in (2, 3):
        cur = {}
        for e in monomial_basis(n, level):
            i = next(t for t, ei in enumerate(e) if ei > 0)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            cur[e] = dense_mul(k, prev[rest], rows[i], 4, 2 * (level - 1), 2)
        prev = cur
    return np.stack([prev[e] for e in monomial_basis(n, 3)], axis=-1)


def timed(fns: dict, repeat: int) -> dict:
    """Median and minimum milliseconds of each callable, the callables
    taken in turn on every repeat."""
    times = {name: [] for name in fns}
    for _ in range(repeat):
        for name, fn in fns.items():
            t = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - t) * 1e3)
    return {**{f"{name}_median_ms": round(statistics.median(ts), 3)
               for name, ts in times.items()},
            **{f"{name}_min_ms": round(min(ts), 3)
               for name, ts in times.items()}}


def _sextic_values(k):
    """V; over Q in Python ints, as the integer builds are."""
    v = monomial_values(k, 4, 6, monomial_basis(4, 6))
    return np.frompyfunc(int, 1, 1)(v) if k.kind == "rationals" else v


def plane_rows(seed: int, repeat: int) -> list[dict]:
    """The build for one random plane over each field."""
    out = []
    for k in (PrimeField(DEFAULT_PRIME), PrimeField(2147483647),
              RationalField()):
        plane = planes(k, seed)["general"]
        # over Q scaled by the lcm of their denominators to Python ints
        rows = loci.integral_rows(k, loci.lperp(plane).basis.data)
        before, after = (lambda: _product_build(k, rows),
                         lambda: loci.jump_matrix_from_quadrics(k, rows))
        v = _sextic_values(k)
        want = v.dot(before()) if k.kind == "rationals" else \
            dot(k, v, before())
        if not np.array_equal(after().data, want):
            raise SystemExit(f"{k!r}: the evaluation build is not V J")
        out.append({"what": "plane build 84x84",
                    "field": "Q" if k.p is None else k.p,
                    **timed({"before": before, "after": after}, repeat)})
        print(json.dumps(out[-1]), flush=True)
    return out


def pencil_row(seed: int, repeat: int) -> dict:
    """A pencil's 40 builds at p = 32003, BATCH at a time."""
    k = PrimeField(DEFAULT_PRIME)
    base, dirv = _frame(k, seed)
    ts, step = np.arange(loci.DET_SAMPLES), BATCH

    def before():
        frames = k.reduce(base[:, None] + ts[:, None] * dirv[:, None])
        return [_product_build(k, frames[:, t0:t0 + step])
                for t0 in range(0, len(ts), step)]

    def after():  # the builds of the batched path of bench/pencil.py
        quad = loci.sextic_points(k)
        vb, vd = dot(k, quad, base.T), dot(k, quad, dirv.T)
        return [monomial_values(k, 7, 3,
                                vb + ts[t0:t0 + step, None, None] * vd)
                for t0 in range(0, len(ts), step)]

    det_v = Matrix(k, _sextic_values(k)).det()
    got = [x for m in after() for x in det_stack(k, m).tolist()]
    want = [det_v * x % k.p for m in before()
            for x in det_stack(k, m).tolist()]
    if got != want or got != loci._pencil_dets(k, base, dirv):
        raise SystemExit("pencil: the dets are not det V times the "
                         "product build's")
    row = {"what": f"pencil builds, {loci.DET_SAMPLES} in stacks of "
                   f"{BATCH}", "field": k.p,
           **timed({"before": before, "after": after}, repeat)}
    print(json.dumps(row), flush=True)
    return row


def kernel_rows(seed: int, repeat: int) -> list[dict]:
    """The jump kernel over Q of each plane of rationals.planes: the
    right_kernel of c^3 V J built in Python ints (before) against
    loci.jump_dimension, which reduces images of c^3 V J built over F_p
    from the integer rows reduced mod p (after).  Both include lperp."""
    k = RationalField()
    out = []
    for kind, plane in planes(k, seed).items():
        def before(plane=plane):
            rows = loci.integral_rows(k, loci.lperp(plane).basis.data)
            return loci.jump_matrix_from_quadrics(k, rows).right_kernel()

        def after(plane=plane):
            return loci.jump_dimension(loci.lperp(plane))[1]

        ker = before()
        if after() != ker:
            raise SystemExit(f"Q {kind}: the kernels differ")
        out.append({"what": f"Q jump kernel 84x84, {kind} plane",
                    "field": "Q", "nullity": ker.rows,
                    **timed({"before": before, "after": after}, repeat)})
        print(json.dumps(out[-1]), flush=True)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. before/after")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    rows = plane_rows(args.seed, args.repeat)
    rows.append(pencil_row(args.seed, args.repeat))
    rows += kernel_rows(args.seed, args.repeat)
    path = ROOT / "BENCH_jump.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out.update({"what": "milliseconds for the jump build from form products "
                        "(before) against evaluation at the 84 sextic "
                        "lattice points (after), results checked equal up "
                        "to V; and for the Q jump kernel from c^3 V J in "
                        "Python ints (before) against prime images built "
                        "from the reduced rows (after), kernels checked "
                        "equal; one entry per run",
                "primes": [DEFAULT_PRIME, 2147483647],
                "image_primes": list(linalg._PRIMES)})
    out.setdefault("runs", {})[args.label] = {
        "machine": {"cpu": cpu_model(),
                    "cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "numpy": np.__version__, "seed": args.seed, "repeat": args.repeat,
        "results": rows}
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
