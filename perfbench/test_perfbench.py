"""Self-test of the benchmark, on tiny input pools (``--quick``).

    python3 -m pytest perfbench/test_perfbench.py

It runs every workload once untraced, the traced path on the two
workloads that between them reach every layer, every output check on a
wrong answer, the answer-repeat gate, and the refusal to run without
sources.  The classify-q run takes most of its time: one plane over Q
costs about 20 s and has no smaller public entry point.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run as runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from qplanes import apolarity, linalg, loci  # noqa: E402
from qplanes.poly import Poly  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SEED = 5


def bench(workload, *extra, trace=0, cwd=ROOT):
    got = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--quick", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = got.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    report = next((json.loads(ln)["report"] for ln in lines
                   if ln.startswith('{"report"')), None)
    return got, result, report


def test_spec_matches_the_runner():
    assert NAMES == list(workloads.WORKLOADS)
    predictions = json.loads((BENCH / "predictions.json").read_text())
    assert set(predictions["workloads"]) == set(NAMES)
    assert list(predictions["per_layer"]) == [m["name"] for m in SPEC["per_layer"]]
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    got, result, report = bench(workload)
    assert got.returncode == 0, got.stderr
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert report["seed"] == SEED and report["params"]
    env = report["environment"]
    assert env["nproc"] >= 1 and env["numpy"] and env["threads"]


@pytest.mark.parametrize("workload", ["classify-fp", "verify-sweep"])
def test_traced_run_writes_spans_and_layer_metrics(workload):
    got, result, report = bench(workload, trace=1)
    assert got.returncode == 0, got.stderr
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    with gzip.open(ROOT / report["spans"]["file"], "rt") as fh:
        spans = [json.loads(line) for line in fh]
    assert len(spans) == report["spans"]["count"] > 0
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids for s in spans if s["parent"] is not None)
    assert all(s["end"] >= s["start"] for s in spans)
    layers = {s["layer"] for s in spans}
    if workload == "classify-fp":
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["cli.classify.ms"]["value"] > 0
        assert "cli" in layers
    else:
        assert set(tracing.LAYERS) - {"cli"} <= layers


def test_tracer_patches_every_caller_namespace_and_uninstalls():
    from qplanes import battery, constructions, unipoly

    before = {name: getattr(mod, name) for mod, name in (
        (loci, "pfaffian"), (linalg, "pfaffian"), (loci, "annihilator"),
        (apolarity, "annihilator"), (battery, "annihilator"),
        (loci, "secant_intersects"), (constructions, "interpolate"),
        (unipoly, "interpolate"))}
    mul, kernel = Poly.__mul__, linalg.Matrix.right_kernel
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        assert loci.pfaffian is linalg.pfaffian is not before["pfaffian"]
        assert loci.annihilator is battery.annihilator is not before["annihilator"]
        assert constructions.interpolate is not before["interpolate"]
        assert Poly.__mul__ is not mul
        k = workloads.PrimeField(workloads.PRIME)
        rng = workloads.random.Random(1)
        plane = workloads.random_plane(k, rng)
        tr.op = 0
        a = linalg.FormSpace.from_polys(plane.basis_polys())
        a.intersect(a)
    finally:
        tr.uninstall()
    assert Poly.__mul__ is mul and linalg.Matrix.right_kernel is kernel
    for name, obj in before.items():
        assert all(getattr(mod, name, obj) is obj
                   for mod in (loci, linalg, apolarity, battery, constructions,
                               unipoly))
    # the kernel inside intersect is nested in the linalg layer
    names = {(s[tracing.NAME], s[tracing.OUTER]) for s in tr.spans}
    assert ("linalg.formspace.intersect", True) in names
    assert ("linalg.kernel", False) in names
    got = tracing.layer_metrics(tr.spans, ops=1)
    assert got["linalg.fp.calls"] == 2  # from_polys and intersect


@pytest.fixture(scope="module")
def fp():
    wl = workloads.ClassifyFp(SEED, quick=True)
    return wl, {cls: (item, wl.run(item)) for item in wl.inputs
                for cls in [item[0]]}


def test_classify_fp_checks_reject_wrong_answers(fp):
    wl, outs = fp
    item, out = outs["smoothable-divisor"]
    plane = item[1]
    assert wl.check(item, out) is None
    c, cubic = out

    def changed(**kw):
        return SimpleNamespace(**{**vars(c), **kw})

    assert wl.check(item, (changed(verdict="general"), cubic)) is not None
    assert wl.check(item, (changed(jump_dim=0), cubic)) is not None
    assert wl.check(("secant", plane), out) is not None
    # Pfaffian zero on a random plane needs the recovered cubic
    assert wl.check(("general", plane), out) is None
    assert wl.check(("general", plane), (c, None)) is not None
    f, *ds = cubic
    bad = (f + Poly.monomial(f.field, (3, 0, 0, 0)), *ds)
    assert wl.check(item, (c, bad)) is not None

    item, out = outs["secant"]
    assert wl.check(item, out) is None
    assert wl.check(("smoothable-divisor", item[1]), out) is not None
    # a secant hit on a random plane needs a rank <= 2 element in it
    c, cubic = out
    assert wl.check(("general", item[1]), out) is None
    no_elem = SimpleNamespace(**{**vars(c), "certificates": {
        **c.certificates, "secant": {**c.certificates["secant"],
                                     "element": None}}})
    assert wl.check(("general", item[1]), (no_elem, cubic)) is not None


def test_other_checks_reject_wrong_answers():
    wl = workloads.VerifySweep(SEED, quick=True)
    good = [{"criterion": i, "ok": True} for i in wl.CRITERIA]
    assert wl.check(0, good) is None
    assert wl.check(0, good[:-1] + [{"criterion": 9, "ok": False}]) is not None
    assert wl.check(0, good[:-1]) is not None

    wl = workloads.CremonaSlow(SEED, quick=True)
    res = wl.run(wl.inputs[0])
    assert wl.check(wl.inputs[0], res) is None
    swapped = SimpleNamespace(**{**vars(res), "ce_inverse": res.ce})
    assert wl.check(wl.inputs[0], swapped) is not None
    wl.slow = True  # the cs8 checks, on results the quick pipeline lacks
    assert wl.check(wl.inputs[0], res) == "c_S8 has no degree-4 inverse"
    quartic = SimpleNamespace(degree=4, forms=res.ce_inverse.forms)
    fake = SimpleNamespace(**{**vars(res), "cs8": res.ce,
                              "cs8_inverse": quartic, "cs8_absent_deg3": False})
    assert wl.check(wl.inputs[0], fake) == "c_S8 has a degree-3 inverse"
    wrong = SimpleNamespace(degree=4, forms=res.ce.forms)
    fake.cs8_inverse = wrong
    assert wl.check(wl.inputs[0], fake) == "cs8_inverse is not inverse to c_S8"

    wl = workloads.ClassifyQ(SEED, quick=True)
    assert wl.check(None, SimpleNamespace(verdict="general", jump_dim=0)) is None
    assert wl.check(None, SimpleNamespace(verdict="secant", jump_dim=3))


def test_answers_must_repeat_across_runs_of_a_seed():
    got, result, report = bench("classify-fp", "--held-out")
    assert got.returncode == 0 and result["correct"]
    assert report["input_seed"] == SEED + runner.HELD_OUT_OFFSET
    path = ROOT / ".perfbench" / "verdicts.json"
    store = json.loads(path.read_text())
    wl = workloads.ClassifyFp(SEED + runner.HELD_OUT_OFFSET, quick=True)
    key = f"classify-fp|{SEED + runner.HELD_OUT_OFFSET}|{runner.digest(wl.params)}"
    store[key]["0"] = "0" * 16
    path.write_text(json.dumps(store))
    try:
        got, result, _ = bench("classify-fp", "--held-out")
        assert got.returncode == 1 and not result["correct"]
        assert result["failed"] >= 1
    finally:
        store = json.loads(path.read_text())
        store.pop(key)
        path.write_text(json.dumps(store))


def test_held_out_seed_gives_other_inputs():
    a = workloads.ClassifyFp(SEED, quick=True).inputs
    b = workloads.ClassifyFp(SEED + runner.HELD_OUT_OFFSET, quick=True).inputs
    assert [p for _, p in a] != [p for _, p in b]
    assert workloads.ClassifyFp(SEED, quick=True).inputs == a


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        got, result, _ = bench("classify-fp", cwd=bare)
        assert got.returncode != 0
        assert result is None
    finally:
        shutil.rmtree(bare, ignore_errors=True)
