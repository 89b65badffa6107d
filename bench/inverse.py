"""Time the Cremona inverse search: dense system against block solve.

For each proportionality system that ``cremona_pipeline(k, seed,
slow=True)`` solves (c_E at degree 3, c_S8 at degrees 4 and 3), times
the sampling one point at a time (the loop before batching: each image by
``Poly.evaluate``, each monomial value by field multiplications) against
the batched ``constructions._inverse_samples``, and the dense system's
``right_kernel`` (rows built from the same points) against the block
solve ``constructions._proportionality_kernel``, and checks that each
pair agrees.  Then times whole pipelines, slow and fast, at seeds 0-2
and records a digest of their results.  The results go into
BENCH_inverse.json at the repository root under ``--label``, with the
machine, numpy version, seeds and repeat count of that run; other labels
already in the file are kept, so the pipelines of two source trees can
be put side by side (a tree without the block solve times its pipelines
only):

    PYTHONPATH=<other tree>/src python3 bench/inverse.py --label before
    PYTHONPATH=src python3 bench/inverse.py --label after
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
from qplanes.fields import DEFAULT_PRIME, PrimeField
from qplanes.linalg import Matrix
from qplanes.poly import monomial_basis

from elimination import cpu_model, dense_inverse_system

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)


def sample_loop(f, d2: int, seed: int):
    """The sample points and monomial values one try at a time."""
    k, nv = f.forms[0].field, f.source_vars
    rng = random.Random(seed)
    basis = monomial_basis(nv, d2)
    samples = nv * len(basis) // (nv - 1) + 40
    xs, rows = [], []
    tries = 0
    while len(xs) < samples and tries < 50 * samples:
        tries += 1
        x = tuple([k.one] + [k.random_element(rng) for _ in range(nv - 1)])
        y = tuple(form.evaluate(x) for form in f.forms)
        if all(v == k.zero for v in y):
            continue
        row = []
        for e in basis:
            v = k.one
            for yj, ej in zip(y, e):
                for _ in range(ej):
                    v = k.mul(v, yj)
            row.append(v)
        xs.append(x)
        rows.append(row)
    return np.array(xs, dtype=np.int64), np.array(rows, dtype=np.int64)


def capture_systems(k: PrimeField, seed: int) -> list:
    """(f, d2, seed) of each inverse search of the slow pipeline."""
    calls = []
    sample = cons._inverse_samples

    def spy(f, d2, s):
        calls.append((f, d2, s))
        return sample(f, d2, s)

    cons._inverse_samples = spy
    try:
        cons.cremona_pipeline(k, seed, slow=True)
    finally:
        cons._inverse_samples = sample
    return calls


def _seconds(fn, repeat: int):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, {"median_s": round(statistics.median(times), 4),
                 "min_s": round(min(times), 4)}


def time_systems(k: PrimeField, seed: int, repeat: int) -> list:
    rows = []
    for f, d2, s in capture_systems(k, seed):
        (xs, m), loop = _seconds(lambda: sample_loop(f, d2, s), repeat)
        (bxs, bm), batched = _seconds(
            lambda: cons._inverse_samples(f, d2, s), repeat)
        dense, dense_t = _seconds(lambda: Matrix(
            k, dense_inverse_system(k, xs, m)).right_kernel(), repeat)
        block, block_t = _seconds(
            lambda: cons._proportionality_kernel(k, xs, m), repeat)
        nv, size = xs.shape[1], m.shape[1]
        rows.append({
            "system": f"{len(m) * (nv - 1)}x{nv * size}",
            "m": f"{len(m)}x{size}", "d2": d2, "kernel_rows": block.rows,
            "sampling_loop": loop, "sampling_batched": batched,
            "samples_equal": bool(np.array_equal(xs, bxs)
                                  and np.array_equal(m, bm)),
            "dense_kernel": dense_t, "block_kernel": block_t,
            "kernels_equal": block == dense})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def _digest(res) -> str:
    forms = [res.ce_inverse, res.cs8_inverse]
    text = repr([None if g is None else [h.format() for h in g.forms]
                 for g in forms] + [res.cs8_absent_deg3, res.resamples])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def time_pipelines(k: PrimeField, repeat: int) -> list:
    cons.cremona_pipeline(k, SEEDS[0], slow=True)  # warm the tables
    rows = []
    for slow in (True, False):
        for seed in SEEDS:
            res, t = _seconds(lambda: cons.cremona_pipeline(k, seed, slow=slow),
                              repeat)
            rows.append({"slow": slow, "seed": seed, **t,
                         "digest": _digest(res)})
            print(json.dumps(rows[-1]), flush=True)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run in the output, e.g. before/after")
    ap.add_argument("--seed", type=int, default=1,
                    help="pipeline seed whose systems are timed")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    k = PrimeField(DEFAULT_PRIME)
    run = {"machine": {"cpu": cpu_model(),
                       "cores": len(os.sched_getaffinity(0)),
                       "python": platform.python_version()},
           "numpy": np.__version__, "prime": k.p,
           "pipeline_seeds": list(SEEDS), "repeat": args.repeat}
    if hasattr(cons, "_proportionality_kernel"):
        run["systems"] = {"pipeline_seed": args.seed,
                          "results": time_systems(k, args.seed, args.repeat)}
        if not all(r["samples_equal"] and r["kernels_equal"]
                   for r in run["systems"]["results"]):
            raise SystemExit("batched sampling or the block solve disagrees "
                             "with its oracle")
    run["pipelines"] = time_pipelines(k, args.repeat)
    path = ROOT / "BENCH_inverse.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    out["what"] = ("Cremona inverse search: per system, the point-by-point "
                   "sampling loop against batched sampling and the dense "
                   "kernel against the block solve; seconds per call of "
                   "cremona_pipeline, one entry per source tree (equal "
                   "digests mean equal results)")
    out.setdefault("runs", {})[args.label] = run
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
