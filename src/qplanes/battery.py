"""The nine verification batteries behind the `verify` command.

Each criterion function returns a record dict with at least an "ok"
flag; trial counts are parameters so the command line can run lighter
or heavier sweeps than the defaults.
"""

from __future__ import annotations

import random

import numpy as np

from . import constructions as cons
from . import loci
from .apolarity import (DependentContractions, QuadricPlane,
                        annihilator_piece, apolar_hilbert_function,
                        plane_of_contractions)
from .apolarity import annihilator  # noqa: F401  (perfbench patches it here by name)
from .fields import Field
from .linalg import FormSpace, Matrix, pfaffian, pfaffian_stack
from .poly import compose, dense_mul, parse_poly, random_form


def _random_plane(k: Field, rng) -> QuadricPlane:
    while True:
        try:
            return QuadricPlane.from_rows(
                k, [random_form(k, 4, 2, rng) for _ in range(3)])
        except ValueError:
            continue


def criterion_1(k: Field, seed: int = 0) -> dict:
    """Worked annihilator example: span{x^2, y^2, z^2 - t^2}."""
    names = ["x0", "x1", "x2", "x3"]
    plane = QuadricPlane.from_polys([
        parse_poly("x0^2", names, k),
        parse_poly("x1^2", names, k),
        # z^2 - t^2 entered as (z - t)(z + t): the one dict product on a
        # command's path, so a traced verify-sweep reaches the poly layer
        parse_poly("x2 - x3", names, k) * parse_poly("x2 + x3", names, k)])
    listed = FormSpace.from_polys([
        parse_poly(s, names, k) for s in (
            "x0*x1", "x0*x2", "x0*x3", "x1*x2", "x1*x3", "x2*x3",
            "x2^2 + x3^2")], degree=2)
    piece = annihilator_piece(plane.space, 2)
    hf = apolar_hilbert_function(plane)
    ok = piece == listed and hf.with_linear == [1, 4, 3] and hf.plain == [1, 4, 3]
    return {"criterion": 1, "ok": bool(ok),
            "annihilator_matches": piece == listed,
            "hf": hf.with_linear.values}


def criterion_2(k: Field, trials: int = 200, seed: int = 0) -> dict:
    """Planes of partials of random cubics: Pfaffian 0, jump 3."""
    rng = random.Random(seed)
    pf_zero = jump_three = 0
    resamples = 0
    for _ in range(trials):
        while True:
            f = random_form(k, 4, 3, rng)
            ds = np.stack([random_form(k, 4, 1, rng) for _ in range(3)])
            try:
                plane = plane_of_contractions(k, f, ds)
                break
            except DependentContractions:
                resamples += 1
        if loci.smoothable_pfaffian(plane) == k.zero:
            pf_zero += 1
        if loci.jump_dimension(loci.lperp(plane))[0] == 3:
            jump_three += 1
    ok = pf_zero == trials and jump_three == trials
    return {"criterion": 2, "ok": bool(ok), "trials": trials,
            "pfaffian_zero": pf_zero, "jump_three": jump_three,
            "resamples": resamples}


def criterion_3(k: Field, trials: int = 200, seed: int = 0) -> dict:
    """Random planes are generic; no consistency violations allowed."""
    rng = random.Random(seed)
    generic = 0
    violations = 0
    for _ in range(trials):
        plane = _random_plane(k, rng)
        c = loci.classify(plane)
        on_divisor = c.pfaffian_value == k.zero
        if not on_divisor and not c.secant_hit and c.jump_dim == 0:
            generic += 1
        elif c.jump_dim > 0 and not (on_divisor or c.secant_hit):
            violations += 1
        elif c.jump_dim == 0 and (on_divisor or c.secant_hit):
            violations += 1
    ok = generic >= trials - max(trials // 100, 0) and violations == 0
    return {"criterion": 3, "ok": bool(ok), "trials": trials,
            "generic": generic, "violations": violations}


def criterion_4(k: Field, trials: int = 50, seed: int = 0) -> dict:
    """Planes through a rank-2 quadric: jump >= 3 with witness sextics."""
    rng = random.Random(seed)
    good = 0
    for _ in range(trials):
        while True:
            l1, l2 = (random_form(k, 4, 1, rng) for _ in range(2))
            q = dense_mul(k, l1, l2, 4, 1, 1)
            try:
                # a product of two forms over k splits: never None
                coords, rank = loci.rank_le2_adapted_change(k, q)
                if rank != 2:
                    continue
                plane = QuadricPlane.from_rows(
                    k, [q, random_form(k, 4, 2, rng), random_form(k, 4, 2, rng)])
                break
            except ValueError:  # q = 0, or dependent quadrics
                continue
        perp = loci.lperp(plane)
        jd = loci.jump_dimension(perp)[0]
        witnesses = loci.rank2_sextic_witness(perp, coords, rank)
        if jd >= 3 and len(witnesses) == 3:
            good += 1
    ok = good == trials
    return {"criterion": 4, "ok": bool(ok), "trials": trials, "good": good}


def criterion_5(k: Field, trials: int = 10, seed: int = 0) -> dict:
    """Pencil degree bookkeeping 36 = 3 * (10 + 2)."""
    good = 0
    resamples = 0
    for i in range(trials):
        rep = loci.pencil_experiment(k, cons.subseed(seed, i))
        resamples += rep.resamples
        if rep.degrees == (36, 2, 10) and rep.factorization_ok:
            good += 1
    ok = good == trials
    return {"criterion": 5, "ok": bool(ok), "trials": trials, "good": good,
            "resamples": resamples}


def criterion_6(k: Field, trials: int = 50, seed: int = 0) -> dict:
    """Scaled limits of random 8-point tuples in A^4."""
    rng = random.Random(seed)
    good = 0
    resamples = 0
    for _ in range(trials):
        while True:
            pts = cons.random_affine_points(k, 4, 8, rng)
            try:
                perp, hf, plane = cons.initial_system(pts)
                break
            except cons.NonGenericConfiguration:
                resamples += 1
        if (hf == [1, 4, 3]
                and loci.smoothable_pfaffian(plane) == k.zero
                and loci.jump_dimension(perp)[0] == 3):
            good += 1
    ok = good == trials
    return {"criterion": 6, "ok": bool(ok), "trials": trials, "good": good,
            "resamples": resamples}


def criterion_7(k: Field, trials: int = 10, seed: int = 0) -> dict:
    """Gale/Segre pipeline: chain (3, 5, 7) and Segre span 3."""
    good = 0
    resamples = 0
    for i in range(trials):
        res = cons.gale_pipeline(k, cons.subseed(seed, i))
        resamples += res.resamples
        if res.chain_dims == (3, 5, 7) and res.segre_span_dim == 3:
            good += 1
    ok = good == trials
    return {"criterion": 7, "ok": bool(ok), "trials": trials, "good": good,
            "resamples": resamples}


def _roundtrips(k, f, g, rng, count):
    """How many of ``count`` random points p satisfy g(f(p)) = p.

    A point whose image lies on the base locus of g is skipped, and
    drawn again, up to 50 draws per point."""
    ok = 0
    done = 0
    for _ in range(50 * count):
        p = tuple(k.random_element(rng) for _ in range(f.source_vars))
        fp = cons.apply_map(f, p)
        if fp is None or all(c == k.zero for c in p):
            continue
        gp = cons.apply_map(g, fp)
        if gp is None:
            continue
        done += 1
        if gp == cons._normalize_projective(k, p):
            ok += 1
        if done == count:
            break
    return ok


def criterion_8(k: Field, seed: int = 0, slow: bool = False) -> dict:
    """Cremona types: c_E is (2, 3); with slow checks c_S8 is (2, 4)."""
    res = cons.cremona_pipeline(k, seed, slow=slow)
    rng = random.Random(seed + 1)
    ce_ok = (res.ce.degree == 2 and res.ce_inverse.degree == 3
             and res.ce_lambda.degree() == 5
             and _roundtrips(k, res.ce, res.ce_inverse, rng, 20) == 20
             and _roundtrips(k, res.ce_inverse, res.ce, rng, 20) == 20)
    record = {"criterion": 8, "ok": bool(ce_ok), "ce_type": [2, 3],
              "octic_quadrics": res.octic_quadrics.dim,
              "resamples": res.resamples, "slow": slow}
    if slow:
        cs8_ok = (res.cs8_inverse is not None
                  and res.cs8_inverse.degree == 4
                  and res.cs8_absent_deg3 is True
                  and _roundtrips(k, res.cs8, res.cs8_inverse, rng, 20) == 20)
        record["cs8_type"] = [2, 4]
        record["cs8_absent_deg3"] = res.cs8_absent_deg3
        record["ok"] = bool(ce_ok and cs8_ok)
    return record


def criterion_9(k: Field, trials: int = 100, seed: int = 0) -> dict:
    """Structural properties: Pfaffian identities and equivariance."""
    rng = random.Random(seed)
    pf_sq = 0
    for _ in range(trials):
        n = rng.choice([4, 6, 8, 10, 12])
        a = k.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                a[i][j] = k.random_element(rng)
                a[j][i] = k.neg(a[i][j])
        m = Matrix(k, a)
        pf = pfaffian(m)
        if k.mul(pf, pf) == m.det():
            pf_sq += 1
    # scaling: Pf is quadratic in each slot; each triple of quadrics is
    # followed by its copies with slot 0, 1 and 2 scaled by lam
    triples, lams = [], []
    for _ in range(10):
        qs = [random_form(k, 4, 2, rng) for _ in range(3)]
        lams.append(k.random_element(rng))
        triples += [qs] + [[k.reduce(lams[-1] * q) if i == slot else q
                            for i, q in enumerate(qs)] for slot in range(3)]
    pf = pfaffian_stack(k, loci.smoothable_block_matrix(
        k, k.array(triples))).reshape(10, 4)
    lams = k.array(lams)
    want = k.reduce(k.reduce(lams * lams)[:, None] * pf[:, :1])
    scaling_ok = bool(np.all(pf[:, 1:] == want))
    # GL-equivariance of the classification verdict
    equiv = 0
    gl_trials = max(trials // 2, 1)
    for _ in range(gl_trials):
        plane = _random_plane(k, rng)
        g = cons._random_gl(k, 4, rng)
        moved = QuadricPlane.from_rows(k, compose(
            k, plane.space.basis.data, g, 4, 1, 2))
        c1, c2 = loci.classify(plane), loci.classify(moved)
        if (c1.verdict == c2.verdict and c1.jump_dim == c2.jump_dim
                and (c1.pfaffian_value == k.zero)
                == (c2.pfaffian_value == k.zero)):
            equiv += 1
    ok = pf_sq == trials and scaling_ok and equiv == gl_trials
    return {"criterion": 9, "ok": bool(ok), "pf_squared": pf_sq,
            "trials": trials, "scaling_ok": scaling_ok,
            "gl_equivariant": equiv, "gl_trials": gl_trials}


def run_battery(k: Field, samples: int | None = None, seed: int = 0,
                slow: bool = False) -> list[dict]:
    """All criteria; with ``samples`` every multi-trial item runs that
    many trials instead of its default."""

    def n(default):
        return samples if samples is not None else default

    return [
        criterion_1(k, seed=seed),
        criterion_2(k, trials=n(200), seed=seed),
        criterion_3(k, trials=n(200), seed=seed),
        criterion_4(k, trials=n(50), seed=seed),
        criterion_5(k, trials=n(10), seed=seed),
        criterion_6(k, trials=n(50), seed=seed),
        criterion_7(k, trials=n(10), seed=seed),
        criterion_8(k, seed=seed, slow=slow),
        criterion_9(k, trials=n(100), seed=seed),
    ]
