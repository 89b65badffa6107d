"""The four workloads: seeded inputs, one operation, and its checks.

Inputs are built from the workload's own ``random.Random(seed)``
through public constructors only (``Poly``, ``QuadricPlane.from_polys``,
``plane_from_cubic``); the program under test receives nothing else.
Each workload gives

* ``inputs``: the pool the timed loop cycles through;
* ``warm_up()``: one operation run during set-up, so the ``lru_cache``
  tables (``monomial_basis``, ``_mult_table``) are filled before timing;
  it returns the index of the input it ran (``None`` when it ran a
  stand-in) and the output;
* ``run(item)``: the timed operation;
* ``check(item, out)``: ``None`` when the output is what the mathematics
  requires, else the reason it is not;
* ``record(item, out)``: the answers that must repeat exactly for the
  same input, hashed by the runner.
"""

from __future__ import annotations

import random

from qplanes import apolarity, battery, loci
from qplanes import constructions as cons
from qplanes.apolarity import DependentContractions, QuadricPlane, plane_from_cubic
from qplanes.fields import PrimeField, RationalField
from qplanes.poly import Poly, monomial_basis

PRIME = 32003


def random_form(k, nvars: int, d: int, rng) -> Poly:
    return Poly(k, nvars, {e: k.random_element(rng)
                           for e in monomial_basis(nvars, d)})


def random_plane(k, rng) -> QuadricPlane:
    while True:
        try:
            return QuadricPlane.from_polys(
                [random_form(k, 4, 2, rng) for _ in range(3)])
        except ValueError:  # the three quadrics were dependent
            continue


def smoothable_plane(k, rng) -> QuadricPlane:
    """Plane of contractions of a random cubic by three linear operators."""
    while True:
        f = random_form(k, 4, 3, rng)
        try:
            return plane_from_cubic(f, *(random_form(k, 4, 1, rng)
                                         for _ in range(3)))
        except DependentContractions:
            continue


def secant_plane(k, rng) -> QuadricPlane:
    """Plane through the rank-2 quadric l1*l2 of two independent forms."""
    while True:
        l1, l2 = (random_form(k, 4, 1, rng) for _ in range(2))
        a = [l1.coefficient(e) for e in monomial_basis(4, 1)]
        b = [l2.coefficient(e) for e in monomial_basis(4, 1)]
        if all(k.mul(a[i], b[j]) == k.mul(a[j], b[i])
               for i in range(4) for j in range(i + 1, 4)):
            continue  # proportional: l1*l2 would have rank 1
        try:
            return QuadricPlane.from_polys(
                [l1 * l2, random_form(k, 4, 2, rng), random_form(k, 4, 2, rng)])
        except ValueError:
            continue


def _forms(forms) -> list[str]:
    return [f.format() for f in forms]


class ClassifyFp:
    """Verdicts on single planes over F_p, in a fixed 3:1:1 class mix.

    Each construction forces one condition: partials of a cubic lie on
    the Pfaffian divisor, a plane through l1*l2 meets the secant locus.
    A random plane is general except with probability O(1/p), and a
    constructed plane can meet a second condition (one plane through
    l1*l2 in a few hundred here also had Pfaffian zero), so a verdict
    the construction does not force is accepted only with a certificate
    that is checked."""

    name = "classify-fp"
    MIX = ("general", "general", "general", "smoothable-divisor", "secant")
    VERDICT = {(False, False): "general", (True, False): "smoothable-divisor",
               (False, True): "secant", (True, True): "both"}
    MAKE = {"general": random_plane, "smoothable-divisor": smoothable_plane,
            "secant": secant_plane}

    def __init__(self, seed: int, quick: bool):
        self.k = PrimeField(PRIME)
        rng = random.Random(seed)
        blocks = 1 if quick else 8
        self.inputs = [(cls, self.MAKE[cls](self.k, rng))
                       for _ in range(blocks) for cls in self.MIX]
        self.params = {"prime": PRIME, "mix": "general:smoothable:secant=3:1:1",
                       "planes": len(self.inputs)}

    def warm_up(self):
        # a secant plane: it also runs the witness path
        return len(self.inputs) - 1, self.run(self.inputs[-1])

    def run(self, item):
        _, plane = item
        c = loci.classify(plane)
        cubic = (apolarity.recover_cubic(plane)
                 if c.pfaffian_value == self.k.zero else None)
        return c, cubic

    def check(self, item, out):
        cls, plane = item
        c, cubic = out
        on_divisor = c.pfaffian_value == self.k.zero
        if c.verdict != self.VERDICT[(on_divisor, bool(c.secant_hit))]:
            return f"verdict {c.verdict!r} contradicts its Pfaffian and secant test"
        jump_ok = {"general": c.jump_dim == 0, "both": c.jump_dim >= 3}
        if not jump_ok.get(c.verdict, c.jump_dim == 3):
            return f"jump_dim {c.jump_dim} with verdict {c.verdict!r}"
        if cls == "smoothable-divisor" and not on_divisor:
            return "plane of partials of a cubic has a nonzero Pfaffian"
        if cls == "secant" and not c.secant_hit:
            return "plane through a rank-2 quadric misses the secant locus"
        if on_divisor and cls != "smoothable-divisor" and cubic is None:
            return f"{cls} plane with Pfaffian zero and no recovered cubic"
        if c.secant_hit and cls != "secant":
            elem = c.certificates["secant"]["element"]
            if (elem is None or loci.symmetric_rank(elem) > 2
                    or not plane.space.contains(elem)):
                return f"{cls} plane with a secant hit and no rank <= 2 element"
        if cubic is not None:
            f, *ds = cubic
            if any(apolarity.contract(d, f) != q
                   for d, q in zip(ds, plane.basis_polys())):
                return "recover_cubic witness fails d_i(F) = q_i"
        return None

    def record(self, item, out):
        c, cubic = out
        return {"verdict": c.verdict, "jump_dim": c.jump_dim,
                "pfaffian": int(c.pfaffian_value), "secant": bool(c.secant_hit),
                "cubics": _forms(c.certificates["cubics"]),
                "witness_sextics": c.certificates["witness_sextics"] is not None,
                "recovered": cubic is not None}


class VerifySweep:
    """The verification battery at a small sample count, as ``qplanes
    verify --samples S --seed s`` runs it, without criterion 8.

    Criterion 8's round-trip check counts a point as a failure when the
    image of a valid point falls on the base locus of the inverse
    (``apply_map`` returns None), so about 0.6% of its calls report a
    correct c_E as not ok; ``criterion_8(PrimeField(32003),
    seed=335170524)`` is one.  The c_E pipeline it runs is timed and
    checked, with base-locus points skipped, on cremona-slow."""

    name = "verify-sweep"
    CRITERIA = (1, 2, 3, 4, 5, 6, 7, 9)

    def __init__(self, seed: int, quick: bool):
        self.k = PrimeField(PRIME)
        rng = random.Random(seed)
        self.samples = 1 if quick else 2
        # one battery seed per operation: a run does about a dozen
        self.inputs = [rng.randrange(1 << 31) for _ in range(1 if quick else 12)]
        self.params = {"prime": PRIME, "samples": self.samples,
                       "criteria": list(self.CRITERIA),
                       "battery_seeds": self.inputs}

    def warm_up(self):
        return 0, self.run(self.inputs[0])

    def run(self, item):
        # the arguments run_battery(k, samples=S, seed=item) passes
        return [getattr(battery, f"criterion_{i}")(self.k, seed=item)
                if i == 1 else
                getattr(battery, f"criterion_{i}")(self.k, trials=self.samples,
                                                   seed=item)
                for i in self.CRITERIA]

    def check(self, item, out):
        if [rec["criterion"] for rec in out] != list(self.CRITERIA):
            return f"battery did not report criteria {list(self.CRITERIA)}"
        bad = [rec["criterion"] for rec in out if not rec["ok"]]
        return f"criteria {bad} not ok" if bad else None

    def record(self, item, out):
        return out


def _proportional(k, u, v) -> bool:
    return all(k.mul(u[i], v[j]) == k.mul(u[j], v[i])
               for i in range(len(u)) for j in range(i + 1, len(u)))


def _inverse_holds(k, f, g, rng, points: int = 6) -> bool:
    """g(f(x)) is proportional to x at random points off the base locus,
    which by Schwartz-Zippel fails for a wrong g with probability at
    most deg/p per point."""
    good = 0
    for _ in range(50 * points):
        x = tuple(k.random_element(rng) for _ in range(f.source_vars))
        y = tuple(form.evaluate(x) for form in f.forms)
        z = tuple(form.evaluate(y) for form in g.forms)
        if all(c == k.zero for c in z):
            continue  # x on the base locus of g o f
        if not _proportional(k, x, z):
            return False
        good += 1
        if good == points:
            return True
    return False


class CremonaSlow:
    """``cremona_pipeline(k, seed, slow=True)``: certified inverses of
    c_E (type (2, 3)) and c_S8 (type (2, 4), no cubic inverse)."""

    name = "cremona-slow"

    def __init__(self, seed: int, quick: bool):
        self.k = PrimeField(PRIME)
        # quick mode skips the 1710x1470 system: the cs8 checks then see
        # no inverse and are exercised by the self-test on their own
        self.slow = not quick
        self.inputs = [random.Random(seed).randrange(1 << 31)]
        self.params = {"prime": PRIME, "slow": self.slow,
                       "pipeline_seeds": self.inputs}

    def warm_up(self):
        # the fast pipeline builds every table except the degree-4 ones;
        # a second slow pipeline would not fit in a run
        return None, cons.cremona_pipeline(self.k, self.inputs[0], slow=False)

    def run(self, item):
        return cons.cremona_pipeline(self.k, item, slow=self.slow)

    def check(self, item, res):
        k, rng = self.k, random.Random(item)
        if res.ce_inverse is None or res.ce_inverse.degree != 3:
            return "c_E has no degree-3 inverse"
        if not (_inverse_holds(k, res.ce, res.ce_inverse, rng)
                and _inverse_holds(k, res.ce_inverse, res.ce, rng)):
            return "ce_inverse is not inverse to c_E"
        if not self.slow:
            return None
        if res.cs8_inverse is None or res.cs8_inverse.degree != 4:
            return "c_S8 has no degree-4 inverse"
        if not _inverse_holds(k, res.cs8, res.cs8_inverse, rng):
            return "cs8_inverse is not inverse to c_S8"
        if res.cs8_absent_deg3 is not True:
            return "c_S8 has a degree-3 inverse"
        return None

    def record(self, item, res):
        return {"ce": _forms(res.ce.forms),
                "ce_inverse": _forms(res.ce_inverse.forms),
                "cs8_inverse": (_forms(res.cs8_inverse.forms)
                                if res.cs8_inverse else None),
                "cs8_absent_deg3": res.cs8_absent_deg3,
                "resamples": res.resamples}


class ClassifyQ:
    """One random plane over Q with integer coefficients in [-50, 50]."""

    name = "classify-q"

    def __init__(self, seed: int, quick: bool):
        self.k = RationalField()
        rng = random.Random(seed)
        self.inputs = [random_plane(self.k, rng)]
        self.warm_plane = random_plane(PrimeField(PRIME), rng)
        self.params = {"field": "rationals", "coefficients": "[-50, 50]",
                       "planes": len(self.inputs)}

    def warm_up(self):
        # the same code path over F_p: a second plane over Q would take
        # as long as the timed operation
        return None, loci.classify(self.warm_plane)

    def run(self, plane):
        return loci.classify(plane)

    def check(self, plane, c):
        if c.verdict != "general" or c.jump_dim != 0:
            return f"verdict {c.verdict!r}, jump_dim {c.jump_dim}; expected general, 0"
        return None

    def record(self, plane, c):
        return {"verdict": c.verdict, "jump_dim": c.jump_dim,
                "pfaffian": str(c.pfaffian_value), "secant": bool(c.secant_hit)}


WORKLOADS = {w.name: w for w in (ClassifyFp, VerifySweep, CremonaSlow, ClassifyQ)}
