"""Time classify on planes that meet the secant locus.

Times ``loci.classify``, and its secant stage ``loci.secant_intersects``
alone, on planes through l1*l2 (secant) and through l^2 (rank 1), built
from seeded random linear forms and quadrics, at each prime of
``--primes``, and over Q on those planes and random ones (general), with
integer coefficients in [-50, 50].  It records a sha256 digest of each
verdict with its rank <= 2 element and witness sextics, so that two runs
can be checked to agree.  The results go into BENCH_secant.json at the
repository root under ``--label``; other labels already in the file are
kept, so running the script once against each of two source trees puts
both side by side:

    PYTHONPATH=<other tree>/src python3 bench/secant.py --label before
    PYTHONPATH=src python3 bench/secant.py --label after \\
        --primes 32003 1000003 2147483647

``--primes`` with no prime times the planes over Q only.

A tree that finds the element by scanning F_p needs a 16 GB array at
p = 2^31 - 1, so that prime is for trees that do not scan.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import time
from pathlib import Path

import numpy as np

from qplanes import loci
from qplanes.apolarity import QuadricPlane
from qplanes.fields import PrimeField, RationalField
from qplanes.poly import Poly, monomial_basis

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (32003, 1000003)
SEEDS = range(10)


def _form(k, d, rng):
    """The draws of poly.random_form in four variables, as a Poly: older
    trees lack random_form, and every tree takes Polys in from_polys."""
    return Poly(k, 4, {e: k.random_element(rng)
                       for e in monomial_basis(4, d)})


def _plane(k, kind, seed):
    """A plane through l1*l2 ("secant") or l^2 ("rank1"), or of three
    random quadrics ("general")."""
    rng = random.Random(seed)
    if kind == "general":
        return QuadricPlane.from_polys([_form(k, 2, rng) for _ in range(3)])
    l1 = _form(k, 1, rng)
    l2 = _form(k, 1, rng) if kind == "secant" else l1
    return QuadricPlane.from_polys([l1 * l2, _form(k, 2, rng),
                                    _form(k, 2, rng)])


def _answer(c):
    elem = c.certificates["secant"]["element"]
    sextics = c.certificates["witness_sextics"]
    return (c.verdict, c.jump_dim, None if elem is None else elem.format(),
            None if sextics is None else [w.format() for w in sextics])


def _timed(planes, repeat):
    """Median and minimum seconds per classify over ``repeat`` passes, the
    median of the secant stage alone, the planes without an element, and
    a digest of the answers."""
    per_call, per_stage = [], []
    for _ in range(repeat):
        answers = []
        for plane in planes:
            t0 = time.perf_counter()
            c = loci.classify(plane)
            per_call.append(time.perf_counter() - t0)
            answers.append(_answer(c))
            t0 = time.perf_counter()
            loci.secant_intersects(plane)
            per_stage.append(time.perf_counter() - t0)
    return {"calls": len(per_call),
            "median_s": round(statistics.median(per_call), 5),
            "min_s": round(min(per_call), 5),
            "secant_median_s": round(statistics.median(per_stage), 5),
            "no_element": sum(a[2] is None for a in answers),
            "digest": hashlib.sha256(repr(answers).encode()).hexdigest()[:16]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. before/after")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--primes", type=int, nargs="*", default=list(PRIMES))
    args = ap.parse_args()
    rows = []
    fields = [(PrimeField(p), ("secant", "rank1")) for p in args.primes]
    for k, kinds in fields + [(RationalField(), ("general", "secant",
                                                 "rank1"))]:
        for kind in kinds:
            planes = [_plane(k, kind, s) for s in SEEDS]
            loci.classify(planes[0])  # warm the cached index tables
            rows.append({"prime": k.p or "Q", "planes": kind,
                         **_timed(planes, args.repeat),
                         "max_rss_mb": round(resource.getrusage(
                             resource.RUSAGE_SELF).ru_maxrss / 1024, 1)})
            print(json.dumps(rows[-1]), flush=True)
    path = ROOT / "BENCH_secant.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out.update({
        "what": "seconds per loci.classify, and per secant stage "
                "(secant_median_s), on planes through l1*l2 and l^2 and, "
                "over Q, random planes, one entry per source tree; equal "
                "digests mean equal verdicts, elements and witnesses; "
                "max_rss_mb is the process peak so far",
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "numpy": np.__version__,
        "seeds": list(SEEDS),
        "repeat": args.repeat,
    })
    out.setdefault("runs", {})[args.label] = rows
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
