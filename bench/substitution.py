"""Time the substitution of forms: np.add.at against the sorted reduceat,
all degree-d2 power products against compose, and ``cremona --slow``.

* ``dense_mul``: every (nvars, d1, d2, shape of a, shape of b) with which
  ``cremona_pipeline(k, seed, slow=True)`` and criteria 4 (planes
  through l1*l2 and their witness sextics) and 9 call it, captured by a
  spy, timed against the np.add.at scatter that it replaced (the test
  oracle ``_scatter_mul``), and checked equal to it.
* ``find_inverse(cs8, 4)`` for the octic Cremona of the pipeline seed,
  split into its kernel (``constructions._proportionality_kernel`` of
  ``_inverse_samples``) and its certificate g(f): before, the dot of g
  with all degree-d2 power products of f, built one monomial at a time
  by the scatter as they were; after, ``poly.compose``.  The two are
  checked equal, and so is compose on a random stack of rows at degree
  3 against the dot with that build.
* ``qplanes cremona --slow --seed s`` as a fresh process per run, wall
  time and a digest of stdout, for the source tree on PYTHONPATH.

The in-process parts run only on a tree that has ``poly.compose``.  The
results go into BENCH_substitution.json at the repository root; the
command's runs go under ``--label``, and other labels already in the
file are kept, so the commands of two source trees can be put side by
side:

    PYTHONPATH=<other tree>/src python3 bench/substitution.py --label before
    PYTHONPATH=src python3 bench/substitution.py --label after
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np

from qplanes import battery, loci, poly
from qplanes import constructions as cons
from qplanes.fields import DEFAULT_PRIME, PrimeField
from qplanes.poly import dot, monomial_basis

from elimination import cpu_model

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
COMMAND_SEEDS = (0, 1, 2)


def _scatter_mul(*args):
    """The test oracle; imported on first use, since the tests import
    compose, which an older tree timed by the command runs lacks."""
    from test_poly import _scatter_mul
    return _scatter_mul(*args)


def _power_products_loop(k, rows, nvars, d, d2):
    """power_products as it was: one scatter product per monomial of
    degree 2..d2, each its first variable times the monomial below."""
    n = len(rows)
    prev = dict(zip(monomial_basis(n, 1), rows))
    for level in range(2, d2 + 1):
        cur = {}
        for e in monomial_basis(n, level):
            i = next(t for t, ei in enumerate(e) if ei > 0)
            rest = e[:i] + (e[i] - 1,) + e[i + 1:]
            cur[e] = _scatter_mul(k, prev[rest], rows[i], nvars,
                                  d * (level - 1), d)
        prev = cur
    return np.stack([prev[e] for e in monomial_basis(n, d2)])


def _seconds(fn, repeat: int):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return out, times


def _ms(times) -> dict:
    return {"median_ms": round(1e3 * statistics.median(times), 4),
            "min_ms": round(1e3 * min(times), 4)}


def capture_products(k: PrimeField, seed: int) -> dict:
    """One (a, b) per dense_mul call shape reached, with its call count."""
    seen = {}
    real = poly.dense_mul

    def spy(k, a, b, nvars, d1, d2):
        key = (nvars, d1, d2, a.shape, b.shape)
        seen.setdefault(key, [a.copy(), b.copy(), 0])[2] += 1
        return real(k, a, b, nvars, d1, d2)

    with mock.patch.object(poly, "dense_mul", spy), \
            mock.patch.object(loci, "dense_mul", spy), \
            mock.patch.object(battery, "dense_mul", spy):
        cons.cremona_pipeline(k, seed, slow=True)
        battery.criterion_4(k, trials=2, seed=seed)
        battery.criterion_9(k, trials=2, seed=seed)
    return seen


def time_products(k: PrimeField, seed: int, repeat: int) -> list:
    rows = []
    for (nvars, d1, d2, sa, sb), (a, b, calls) in sorted(
            capture_products(k, seed).items(), key=lambda kv: kv[0][:3]):
        after, t_after = _seconds(
            lambda: poly.dense_mul(k, a, b, nvars, d1, d2), repeat)
        before, t_before = _seconds(
            lambda: _scatter_mul(k, a, b, nvars, d1, d2), repeat)
        rows.append({"nvars": nvars, "d1": d1, "d2": d2, "a": list(sa),
                     "b": list(sb), "calls": calls,
                     "scatter": _ms(t_before), "reduceat": _ms(t_after),
                     "equal": bool(np.array_equal(before, after))})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def _octic_cremona(k: PrimeField, seed: int):
    """The c_S8 and the find_inverse seed of the last degree-4 search of
    cremona_pipeline(k, seed, slow=True)."""
    got = []
    real = cons.find_inverse

    def spy(f, d2, seed=0):
        if d2 == 4:
            got.append((f, seed))
        return real(f, d2, seed)

    with mock.patch.object(cons, "find_inverse", spy):
        cons.cremona_pipeline(k, seed, slow=True)
    return got[-1]


def time_inverse(k: PrimeField, seed: int, repeat: int) -> dict:
    f, s = _octic_cremona(k, seed)
    nv, d1, d2 = f.source_vars, f.degree, 4
    ker, t_kernel = _seconds(lambda: cons._proportionality_kernel(
        k, *cons._inverse_samples(f, d2, s)), repeat)
    g = ker.data[0].reshape(nv, -1)

    before, t_before = _seconds(lambda: dot(k, g, _power_products_loop(
        k, f.rows, nv, d1, d2)), repeat)
    after, t_after = _seconds(
        lambda: poly.compose(k, g, f.rows, nv, d1, d2), repeat)
    _, t_whole = _seconds(lambda: cons.find_inverse(f, d2, s), repeat)
    # compose on a random stack, against the power products it replaces
    rng = random.Random(seed)
    stack = k.array([[k.random_element(rng) for _ in monomial_basis(nv, 3)]
                     for _ in range(3)])
    oracle = dot(k, stack, _power_products_loop(k, f.rows, nv, d1, 3))
    return {"kernel_rows": ker.rows, "kernel": _ms(t_kernel),
            "certificate_power_products": _ms(t_before),
            "certificate_compose": _ms(t_after), "find_inverse": _ms(t_whole),
            "certificates_equal": bool(np.array_equal(before, after)),
            "compose_matches_power_products": bool(np.array_equal(
                poly.compose(k, stack, f.rows, nv, d1, 3), oracle))}


def time_command(repeat: int) -> list:
    rows = []
    for seed in COMMAND_SEEDS:
        cmd = [sys.executable, "-m", "qplanes.cli", "cremona", "--slow",
               "--seed", str(seed)]
        times, outs = [], set()
        for _ in range(repeat):
            t0 = time.perf_counter()
            out = subprocess.run(cmd, capture_output=True, check=True).stdout
            times.append(time.perf_counter() - t0)
            outs.add(hashlib.sha256(out).hexdigest()[:16])
        rows.append({"seed": seed,
                     "median_s": round(statistics.median(times), 4),
                     "min_s": round(min(times), 4), "stdout": sorted(outs)})
        print(json.dumps(rows[-1]), flush=True)
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True,
                    help="key of this run's command timings, "
                         "e.g. before/after")
    ap.add_argument("--seed", type=int, default=0,
                    help="pipeline seed whose products and inverse are timed")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    k = PrimeField(DEFAULT_PRIME)
    path = ROOT / "BENCH_substitution.json"
    out = json.loads(path.read_text()) if path.exists() else {}
    if hasattr(poly, "compose"):
        products = time_products(k, args.seed, args.repeat)
        inverse = time_inverse(k, args.seed, args.repeat)
        print(json.dumps(inverse), flush=True)
        ok = (all(r["equal"] for r in products)
              and inverse["certificates_equal"]
              and inverse["compose_matches_power_products"])
        if not ok:
            raise SystemExit("compose or dense_mul disagrees with its oracle")
        out.update({"dense_mul": products, "find_inverse_cs8_4": inverse})
    out.update({
        "what": "ms per dense_mul call at each shape reached, np.add.at "
                "scatter against sorted reduceat; find_inverse(cs8, 4) "
                "split into kernel and certificate, all degree-4 power "
                "products against compose; seconds of wall time per "
                "`qplanes cremona --slow` process, one entry per source tree",
        "machine": {"cpu": cpu_model(),
                    "cores": len(os.sched_getaffinity(0)),
                    "python": platform.python_version()},
        "numpy": np.__version__, "prime": k.p, "seed": args.seed,
        "command_seeds": list(COMMAND_SEEDS), "repeat": args.repeat,
    })
    out.setdefault("cremona_slow", {})[args.label] = time_command(args.repeat)
    path.write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
