"""Span tracer that instruments qplanes from outside the package.

Wrappers are installed on the public functions and methods of each
layer (the package modules) in every namespace that a caller reads them
from: ``loci`` imports ``pfaffian`` and ``annihilator`` by name, and
``classify`` resolves ``secant_intersects`` and ``jump_dimension`` as
module globals, so patching only the defining module would miss calls.
Spans stay in memory and are written out once, after the traced phase;
``uninstall`` puts every original object back.
"""

from __future__ import annotations

import functools
import gzip
import json
import statistics
import sys
import time
from collections import defaultdict

LAYERS = ("fields", "poly", "linalg", "unipoly", "apolarity", "loci",
          "constructions", "battery", "cli")

# span record layout (a list per span, so the wrapper can fill it in place)
ID, PARENT, OP, NAME, LAYER, START, END, OUTER, ATTRS = range(9)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.paused = False
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------

    def wrap(self, fn, name: str, layer: str, shape=None, outcome=None):
        """Wrapper recording one span per call of ``fn``.

        ``shape(args)`` gives attributes known before the call (matrix
        sizes, the field) and ``outcome(result)`` those of its result."""
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            rec = [len(spans), stack[-1] if stack else None, self.op, name,
                   layer, 0.0, 0.0, depth[layer] == 0,
                   shape(args) if shape else None]
            spans.append(rec)
            stack.append(rec[ID])
            depth[layer] += 1
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[ATTRS] = {**(rec[ATTRS] or {}), "error": type(exc).__name__}
                raise
            finally:
                rec[END] = clock()
                stack.pop()
                depth[layer] -= 1
            if outcome:
                rec[ATTRS] = {**(rec[ATTRS] or {}), **outcome(result)}
            return result

        return wrapper

    # -- patching -----------------------------------------------------

    def patch_function(self, fn, name, layer, shape=None, outcome=None):
        """Replace ``fn`` in every loaded qplanes module that holds it."""
        wrapper = self.wrap(fn, name, layer, shape, outcome)
        found = False
        for mod_name, mod in sorted(sys.modules.items()):
            if mod_name != "qplanes" and not mod_name.startswith("qplanes."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no qplanes module holds {fn.__qualname__}")

    def patch_method(self, cls, attr, name, layer, shape=None, outcome=None):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            inner_shape = (lambda args: shape(args[1:])) if shape else None
            wrapped = classmethod(self.wrap(raw.__func__, name, layer,
                                            inner_shape, outcome))
        else:
            wrapped = self.wrap(raw, name, layer, shape, outcome)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------

    def write(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps({
                    "id": rec[ID], "parent": rec[PARENT], "op": rec[OP],
                    "name": rec[NAME], "layer": rec[LAYER],
                    "start": rec[START], "end": rec[END],
                    "outermost_in_layer": rec[OUTER],
                    "attrs": rec[ATTRS]}, default=str) + "\n")


# ---------------------------------------------------------------------------
# What gets traced
# ---------------------------------------------------------------------------


def _field_kind(obj):
    if isinstance(obj, list):
        obj = obj[0] if obj else None
    field = obj if hasattr(obj, "kind") else getattr(obj, "field", None)
    return field.kind if field is not None else None


def _matrix_shape(args):
    m = args[0]
    return {"rows": m.rows, "cols": m.cols, "field": m.field.kind}


def _field_shape(args):
    return {"field": _field_kind(args[0])}


def _classify_outcome(result):
    return {"secant_hit": bool(result.secant_hit),
            "witness": result.certificates.get("witness_sextics") is not None}


def _found_outcome(result):
    return {"found": result is not None}


def _resamples_outcome(result):
    return {"resamples": int(result.resamples)}


def install(tracer: Tracer):
    """Wrap the layer boundaries of every qplanes module."""
    from qplanes import (apolarity, battery, cli, constructions, fields,
                         linalg, loci, poly, unipoly)

    for cls in (fields.PrimeField, fields.RationalField):
        tracer.patch_method(cls, "array", "fields.array", "fields")
    Poly, Matrix, FormSpace = poly.Poly, linalg.Matrix, linalg.FormSpace
    tracer.patch_method(Poly, "__mul__", "poly.mul", "poly")
    tracer.patch_method(Poly, "substitute_linear", "poly.subst", "poly")
    tracer.patch_method(Poly, "substitute_polys", "poly.subst", "poly")
    for attr, name in (("rank", "rank"), ("right_kernel", "kernel"),
                       ("det", "det"), ("rref", "rref"), ("solve", "solve")):
        tracer.patch_method(Matrix, attr, f"linalg.{name}", "linalg",
                            _matrix_shape)
    tracer.patch_function(linalg.pfaffian, "linalg.pfaffian", "linalg",
                          _matrix_shape)
    for attr in ("from_polys", "from_matrix", "contains", "contains_space",
                 "intersect"):
        tracer.patch_method(FormSpace, attr, f"linalg.formspace.{attr}",
                            "linalg", _field_shape)
    for fn in (unipoly.interpolate, unipoly.gcd, unipoly.resultant,
               unipoly.squarefree_and_power):
        tracer.patch_function(fn, f"unipoly.{fn.__name__}", "unipoly")
    for fn in (unipoly.roots_in_field, unipoly.roots_any_degree):
        tracer.patch_function(fn, "unipoly.roots", "unipoly")
    tracer.patch_function(apolarity.annihilator, "apolarity.annihilator",
                          "apolarity")
    tracer.patch_function(apolarity.recover_cubic, "apolarity.recover_cubic",
                          "apolarity", outcome=_found_outcome)
    tracer.patch_function(apolarity.contract, "apolarity.contract",
                          "apolarity")
    tracer.patch_function(loci.classify, "loci.classify", "loci",
                          outcome=_classify_outcome)
    tracer.patch_function(loci.smoothable_pfaffian, "loci.pfaffian", "loci")
    tracer.patch_function(loci.secant_intersects, "loci.secant", "loci")
    tracer.patch_function(loci.jump_dimension, "loci.jump", "loci")
    tracer.patch_function(loci.jump_matrix_from_quadrics, "loci.jump_build",
                          "loci")
    tracer.patch_function(loci.rank_le2_adapted_change, "loci.witness.adapt",
                          "loci")
    tracer.patch_function(loci.rank2_sextic_witness, "loci.witness.sextics",
                          "loci")
    tracer.patch_function(loci.pencil_experiment, "loci.pencil", "loci",
                          outcome=_resamples_outcome)
    tracer.patch_function(constructions.gale_pipeline, "constructions.gale",
                          "constructions", outcome=_resamples_outcome)
    tracer.patch_function(constructions.cremona_pipeline,
                          "constructions.cremona", "constructions",
                          outcome=_resamples_outcome)
    for fn in (constructions.find_inverse, constructions.ninth_base_point,
               constructions.elliptic_member, constructions.forms_through,
               constructions.initial_system):
        tracer.patch_function(fn, f"constructions.{fn.__name__}",
                              "constructions")
    for i in range(1, 10):
        tracer.patch_function(getattr(battery, f"criterion_{i}"),
                              f"battery.criterion_{i}", "battery")
    tracer.patch_function(battery.run_battery, "battery.run", "battery")
    tracer.patch_function(cli.main, "cli.main", "cli")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

_ELIMINATIONS = {"linalg.rank", "linalg.kernel", "linalg.det", "linalg.rref",
                 "linalg.solve", "linalg.pfaffian"}


def _dur(rec) -> float:
    return rec[END] - rec[START]


def layer_metrics(spans: list[list], ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase of ``ops`` operations.

    ``*.calls`` and busy times count only spans with no enclosing span
    of the same layer, so nested calls (``right_kernel`` inside
    ``FormSpace.intersect``, ``classify`` inside a criterion) are not
    counted twice.  ``*.ms`` and per-call ``*.s`` values are medians
    over calls; a layer the workload never reaches reads 0.  Spans
    outside the operations (``op`` < 0) count only for ``cli``."""
    cli_calls = [r for r in spans if r[NAME] == "cli.main"]
    spans = [r for r in spans if r[OP] >= 0]
    by_name: dict[str, list[list]] = defaultdict(list)
    for rec in spans:
        by_name[rec[NAME]].append(rec)

    def outer(pred) -> list[list]:
        return [r for r in spans if r[OUTER] and pred(r)]

    def per_op(values) -> float:
        return sum(values) / ops

    def median(name, pred=lambda r: True, scale=1.0) -> float:
        ds = [_dur(r) for r in by_name[name] if pred(r)]
        return statistics.median(ds) * scale if ds else 0.0

    def shape(rows, cols):
        return lambda r: (r[ATTRS]["rows"], r[ATTRS]["cols"]) == (rows, cols)

    def ratio(hits, total) -> float:
        return hits / total if total else 0.0

    out: dict[str, float] = {}
    for kind in ("mul", "subst"):
        calls = outer(lambda r: r[NAME] == f"poly.{kind}")
        out[f"poly.{kind}.calls"] = per_op([1] * len(calls))
        out[f"poly.{kind}.s"] = per_op(map(_dur, calls))
    fp = outer(lambda r: r[LAYER] == "linalg" and r[ATTRS]["field"] == "prime")
    out["linalg.fp.calls"] = per_op([1] * len(fp))
    out["linalg.fp.busy_s"] = per_op(map(_dur, fp))
    out["linalg.q.busy_s"] = per_op(map(_dur, outer(
        lambda r: r[LAYER] == "linalg" and r[ATTRS]["field"] == "rationals")))
    out["linalg.elim_cells"] = per_op(
        r[ATTRS]["rows"] * r[ATTRS]["cols"] * min(r[ATTRS]["rows"], r[ATTRS]["cols"])
        for r in spans if r[NAME] in _ELIMINATIONS)
    out["linalg.pfaffian_12x12.ms"] = median("linalg.pfaffian", shape(12, 12), 1e3)
    out["linalg.rank_448x55.ms"] = median("linalg.rank", shape(448, 55), 1e3)
    out["linalg.kernel_84x84.ms"] = median("linalg.kernel", shape(84, 84), 1e3)
    out["linalg.det_84x84.ms"] = median("linalg.det", shape(84, 84), 1e3)
    out["linalg.kernel_1710x1470.s"] = median("linalg.kernel", shape(1710, 1470))

    uni = outer(lambda r: r[LAYER] == "unipoly")
    out["unipoly.calls"] = per_op([1] * len(uni))
    out["unipoly.busy_s"] = per_op(map(_dur, uni))
    out["unipoly.interpolate.ms"] = median("unipoly.interpolate", scale=1e3)
    out["unipoly.roots.ms"] = median("unipoly.roots", scale=1e3)

    out["apolarity.annihilator.ms"] = median("apolarity.annihilator", scale=1e3)
    out["apolarity.recover_cubic.ms"] = median("apolarity.recover_cubic",
                                               scale=1e3)
    recover = [r for r in by_name["apolarity.recover_cubic"] if r[ATTRS]]
    out["apolarity.recover_cubic.found_ratio"] = ratio(
        sum(r[ATTRS].get("found", False) for r in recover), len(recover))

    for stage in ("pfaffian", "secant", "jump", "jump_build"):
        out[f"loci.{stage}.ms"] = median(f"loci.{stage}", scale=1e3)
    witness = _witness_totals(spans)
    out["loci.witness.ms"] = statistics.median(witness) * 1e3 if witness else 0.0
    hits = [r for r in by_name["loci.classify"]
            if r[ATTRS] and r[ATTRS].get("secant_hit")]
    out["loci.witness.found_ratio"] = ratio(
        sum(r[ATTRS]["witness"] for r in hits), len(hits))
    out["loci.pencil.s"] = median("loci.pencil")
    pencils = [r for r in by_name["loci.pencil"] if r[ATTRS]]
    out["loci.pencil.resamples"] = ratio(
        sum(r[ATTRS]["resamples"] for r in pencils), len(pencils))

    for name in ("gale", "cremona", "find_inverse"):
        out[f"constructions.{name}.s"] = median(f"constructions.{name}")
    for name in ("ninth_base_point", "elliptic_member", "forms_through",
                 "initial_system"):
        out[f"constructions.{name}.ms"] = median(f"constructions.{name}",
                                                 scale=1e3)
    pipelines = [r for name in ("constructions.gale", "constructions.cremona")
                 for r in by_name[name] if r[ATTRS]]
    out["constructions.attempt_ratio"] = ratio(
        len(pipelines),
        len(pipelines) + sum(r[ATTRS]["resamples"] for r in pipelines))
    for i in range(1, 10):
        out[f"battery.criterion_{i}.s"] = median(f"battery.criterion_{i}")
    out["cli.classify.ms"] = (statistics.median(map(_dur, cli_calls)) * 1e3
                              if cli_calls else 0.0)
    return out


def _witness_totals(spans) -> list[float]:
    """Time of each witness attempt: one adapted-coordinate change plus
    the sextic check that follows it under the same parent span."""
    totals: list[float] = []
    open_attempt: dict[int | None, int] = {}
    for rec in spans:
        if rec[NAME] == "loci.witness.adapt":
            open_attempt[rec[PARENT]] = len(totals)
            totals.append(_dur(rec))
        elif rec[NAME] == "loci.witness.sextics":
            slot = open_attempt.pop(rec[PARENT], None)
            if slot is None:
                totals.append(_dur(rec))
            else:
                totals[slot] += _dur(rec)
    return totals


def self_times(spans: list[list], ops: int) -> dict[str, float]:
    """Seconds per operation spent in each layer itself: span durations
    minus the time covered by their child spans."""
    spans = [r for r in spans if r[OP] >= 0]
    child = defaultdict(float)
    for rec in spans:
        if rec[PARENT] is not None:
            child[rec[PARENT]] += _dur(rec)
    out: dict[str, float] = defaultdict(float)
    for rec in spans:
        out[rec[LAYER]] += _dur(rec) - child[rec[ID]]
    return {layer: out[layer] / ops for layer in sorted(out)}
