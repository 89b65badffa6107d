"""Time the ninth base point, the pencil members and the Gale and Cremona
pipelines.

Times ``ninth_base_point(k, cubics, known)`` on the cubic pencils (their
coefficient rows) through 8 random plane points, ``elliptic_member`` at seeded parameters of those
pencils, ``segre_cubics`` on the members and perpendicular spaces of
the Gale runs,
``gale_pipeline(k, seed)`` and the fast ``cremona_pipeline(k, seed)`` at
p = 31, 32003 and 1000003, and records a sha256 digest of each result
(the ninth points, the member quadric spaces or refusals, the Segre
spaces, the member quadric spaces and Segre data of the Gale runs, the
c_E inverses of the Cremona runs), so that two runs can be checked to
agree; a ninth point enters its digest as a tuple of Python ints.  The
results go into BENCH_pipelines.json at the repository root under
``--label``, with the machine, numpy version, seeds and repeat count of
that run; other labels already in the file are kept, so running the
script once against each of two source trees puts both side by side:

    PYTHONPATH=<other tree>/src python3 bench/pipelines.py --label before
    PYTHONPATH=src python3 bench/pipelines.py --label after
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

from qplanes import constructions as cons
from qplanes.fields import PrimeField
from qplanes.loci import GenericityError

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
PRIMES = (31, 32003, 1000003)
MEMBERS_PER_PENCIL = 4
PENCIL_SEEDS = range(20)
PIPELINE_SEEDS = (0, 1, 2)


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def _pencils(k, seeds):
    out = []
    for seed in seeds:
        pts = cons.random_projective_points(k, 2, 8, random.Random(seed))
        pencil = cons.forms_through(k, pts, 3)
        if pencil.dim == 2:
            out.append((k, pencil.basis.data, pts))
    return out


def _ninth(pencil):
    try:
        return tuple(cons.ninth_base_point(*pencil).tolist())
    except (cons.NonGenericConfiguration, GenericityError) as exc:
        return type(exc).__name__


def _members(k, pencils):
    """(cubics, ninth, s, projection) for MEMBERS_PER_PENCIL seeded
    parameters of each pencil with a ninth base point."""
    out = []
    for i, pencil in enumerate(pencils):
        ninth = _ninth(pencil)
        if isinstance(ninth, str):
            continue
        rng = random.Random(i)
        ninth = k.array(ninth)
        proj = cons.projection_from_point(ninth, k, rng)
        out.extend((pencil[1], ninth, k.random_element(rng), proj)
                   for _ in range(MEMBERS_PER_PENCIL))
    return out


def _member(item):
    cubics, ninth, s, proj = item
    try:
        return cons.elliptic_member(proj.field, cubics, ninth, s,
                                    proj).quadrics.basis.data.tolist()
    except cons.NonGenericConfiguration as exc:
        return str(exc)


def _segre(item):
    members, perp = item
    return [s.basis.data.tolist() for s in cons.segre_cubics(members, perp)]


def _gale(k, seed):
    res = cons.gale_pipeline(k, seed)
    return (tuple(res.ninth.tolist()), res.chain_dims, res.segre_span_dim,
            res.resamples,
            [m.quadrics.basis.data.tolist() for m in res.members])


def _cremona(k, seed):
    res = cons.cremona_pipeline(k, seed)
    return ([g.format() for g in res.ce_inverse.forms], res.resamples)


def _timed(fn, items, repeat):
    """Median and minimum seconds per call over ``repeat`` passes, and a
    digest of the results."""
    per_call = []
    for _ in range(repeat):
        results = []
        for item in items:
            t0 = time.perf_counter()
            results.append(fn(item))
            per_call.append(time.perf_counter() - t0)
    return {"calls": len(per_call),
            "median_s": round(statistics.median(per_call), 5),
            "min_s": round(min(per_call), 5),
            "digest": _digest(results)}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. before/after")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    rows = []
    for p in PRIMES:
        k = PrimeField(p)
        pencils = _pencils(k, PENCIL_SEEDS)
        gales = [cons.gale_pipeline(k, s) for s in PIPELINE_SEEDS]
        for name, fn, items in (
                ("ninth_base_point", _ninth, pencils),
                ("elliptic_member", _member, _members(k, pencils)),
                ("segre_cubics", _segre,
                 [(res.members, res.perp) for res in gales]),
                ("gale_pipeline", lambda s: _gale(k, s), PIPELINE_SEEDS),
                ("cremona_pipeline", lambda s: _cremona(k, s),
                 PIPELINE_SEEDS)):
            fn(items[0])  # warm the cached index tables
            rows.append({"prime": p, "call": name,
                         **_timed(fn, items, args.repeat)})
            print(json.dumps(rows[-1]), flush=True)
    path = ROOT / "BENCH_pipelines.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out["what"] = ("seconds per call of the ninth base point, the pencil "
                   "members, the Segre cubics and the Gale and fast "
                   "Cremona pipelines, one entry per source tree; equal "
                   "digests mean equal results")
    out.setdefault("runs", {})[args.label] = {
        "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                    "python": platform.python_version()},
        "numpy": np.__version__, "pencil_seeds": list(PENCIL_SEEDS),
        "pipeline_seeds": list(PIPELINE_SEEDS),
        "members_per_pencil": MEMBERS_PER_PENCIL, "repeat": args.repeat,
        "results": rows}
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
