"""Command-line front end.

Reports are JSON lines on standard output, one record per trial, each
with an "ok" flag; diagnostics go to standard error.  Exit codes:
0 all ok, 1 verification failure, 2 usage or parse error, 3 genericity
retries exhausted.  Output is byte-deterministic for a fixed command,
configuration, and input.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

from . import battery
from . import constructions as cons
from . import loci
from .apolarity import plane_from_cubic, QuadricPlane
from .fields import Field, PrimeField, RationalField, DEFAULT_PRIME
from .poly import VARS_P3, parse_poly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_GENERICITY = 3


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(record: dict, k: Field):
    """Write one report line; over a prime field other than the default
    the record names its prime, so a saved report says which field it
    checked (the default prime's reports stay as they were)."""
    if k.kind == "prime" and k.p != DEFAULT_PRIME:
        record = {**record, "prime": k.p}
    sys.stdout.write(json.dumps(record, sort_keys=True,
                                default=_json_default) + "\n")


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _load_plane(path: str, k: Field):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = [ln.split("#", 1)[0].strip()
             for ln in raw.decode("utf-8").splitlines()]
    lines = [ln for ln in lines if ln]
    forms = [parse_poly(ln, VARS_P3, k) for ln in lines]
    if len(forms) == 3:
        if any(f.degree() != 2 for f in forms):
            raise ValueError("three forms supplied: all must be quadrics")
        return QuadricPlane.from_polys(forms), _digest(raw)
    if len(forms) == 4:
        cubic, *ops = forms
        if cubic.degree() != 3 or any(op.degree() != 1 for op in ops):
            raise ValueError(
                "four forms supplied: need one cubic then three linear operators")
        return plane_from_cubic(cubic, *ops), _digest(raw)
    raise ValueError("input must contain 3 quadrics or 1 cubic + 3 operators")


def cmd_classify(args) -> int:
    k = RationalField() if args.rationals else PrimeField(args.prime)
    plane, digest = _load_plane(args.input, k)
    c = loci.classify(plane)
    on_divisor = c.pfaffian_value == k.zero
    consistent = (c.jump_dim > 0) == (on_divisor or c.secant_hit)
    _emit({"op": "classify", "seed": args.seed, "input_digest": digest,
           "verdict": c.verdict, "pfaffian_zero": on_divisor,
           "secant": c.secant_hit, "jump_dim": c.jump_dim,
           "ok": bool(consistent)}, k)
    return EXIT_OK if consistent else EXIT_FAIL


def cmd_verify(args) -> int:
    k = PrimeField(args.prime)
    try:  # criterion 5 runs pencils: refuse before any criterion runs
        loci.check_pencil_field(k)
    except ValueError as exc:
        raise ValueError(f"verify: {exc}") from None
    records = battery.run_battery(k, samples=args.samples, seed=args.seed,
                                  slow=args.slow)
    all_ok = True
    for rec in records:
        rec = {"op": "verify", "seed": args.seed, **rec}
        all_ok = all_ok and rec["ok"]
        _emit(rec, k)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_pencil(args) -> int:
    k = PrimeField(args.prime)
    all_ok = True
    for i in range(args.samples):
        sub = cons.subseed(args.seed, i)
        rep = loci.pencil_experiment(k, sub)
        ok = rep.degrees == (36, 2, 10) and rep.factorization_ok
        all_ok = all_ok and ok
        _emit({"op": "pencil", "seed": sub, "degrees": list(rep.degrees),
               "factorization_ok": rep.factorization_ok,
               "resamples": rep.resamples, "ok": bool(ok)}, k)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_gale(args) -> int:
    k = PrimeField(args.prime)
    all_ok = True
    for i in range(args.samples):
        sub = cons.subseed(args.seed, i)
        res = cons.gale_pipeline(k, sub)
        pf_zero = loci.smoothable_pfaffian(res.plane) == k.zero
        jump = loci.jump_dimension(res.perp)[0]
        ok = (res.chain_dims == (3, 5, 7) and res.segre_span_dim == 3
              and pf_zero and jump == 3)
        all_ok = all_ok and ok
        _emit({"op": "gale", "seed": sub, "hf": res.hf.values,
               "chain_dims": list(res.chain_dims),
               "segre_span": res.segre_span_dim, "pfaffian_zero": pf_zero,
               "jump_dim": jump, "resamples": res.resamples, "ok": bool(ok)},
              k)
    return EXIT_OK if all_ok else EXIT_FAIL


def cmd_cremona(args) -> int:
    k = PrimeField(args.prime)
    rec = battery.criterion_8(k, seed=args.seed, slow=args.slow)
    rec = {"op": "cremona", "seed": args.seed,
           **{kk: v for kk, v in rec.items() if kk != "criterion"}}
    _emit(rec, k)
    return EXIT_OK if rec["ok"] else EXIT_FAIL


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return n


# each command accepts exactly the flags it reads
FLAGS = {
    "--prime": dict(type=int, default=DEFAULT_PRIME,
                    help="prime modulus (default 32003)"),
    "--rationals": dict(action="store_true",
                        help="use exact rational arithmetic"),
    "--seed": dict(type=int, default=0, help="master seed for all randomness"),
    "--samples": dict(type=_at_least_one, help="number of independent trials"),
    "--slow": dict(action="store_true",
                   help="include the slow large-inversion checks"),
}
# a command may take one of these flags, but not both
EXCLUSIVE = ("--prime", "--rationals")
COMMANDS = {  # name: (handler, help, flags, default --samples)
    "classify": (cmd_classify, "classify a plane of quadrics",
                 ("--prime", "--rationals", "--seed"), None),
    "verify": (cmd_verify, "run the full verification battery",
               ("--prime", "--seed", "--samples", "--slow"), None),
    "pencil": (cmd_pencil, "degree bookkeeping along random pencils",
               ("--prime", "--seed", "--samples"), 10),
    "gale": (cmd_gale, "Gale duality / Segre cubic pipeline",
             ("--prime", "--seed", "--samples"), 3),
    "cremona": (cmd_cremona, "Cremona transformations and inverses",
                ("--prime", "--seed", "--slow"), None),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qplanes",
        description="Exact verification toolkit for planes of quadrics "
                    "in four variables")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags, samples) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        if name == "classify":
            sp.add_argument(
                "input", help="file with 3 quadrics or 1 cubic + 3 operators")
        either = (sp.add_mutually_exclusive_group()
                  if set(EXCLUSIVE) <= set(flags) else sp)
        for flag in flags:
            (either if flag in EXCLUSIVE else sp).add_argument(
                flag, **FLAGS[flag])
        sp.set_defaults(func=func, samples=samples)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except loci.GenericityError as exc:
        sys.stderr.write(f"genericity failure: {exc}\n")
        return EXIT_GENERICITY


if __name__ == "__main__":
    sys.exit(main())
