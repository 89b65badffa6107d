"""Benchmark for qplanes: four exact-arithmetic workloads.

Run from the root of a source tree:

    python3 perfbench/run.py --workload classify-fp --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it wraps the layer boundaries of the
package (see tracer.py) and reports the per-layer metrics instead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give each metric with its sample count and a JSON ``report`` with the
seed, the inputs' parameters and the environment.  The exit code is 0
when every output passed its check, 1 when one did not, and 2 when the
run could not start (for instance without ``src/qplanes``).

Each workload is a closed loop with one client in one process.
Operations are timed one by one; the timed phase is their sum, so the
checks run between operations do not count.  An operation starts only
while the timed phase is expected to stay within ``--seconds``, and at
least one always runs.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"
# seeds used while the benchmark and the program are tuned stay below
# this offset; --held-out moves the inputs above it
HELD_OUT_OFFSET = 1_000_003
SETUP_REPEATS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def fail_to_start(message: str):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def cap_threads(nproc: int) -> dict:
    """Limit BLAS/OpenMP pools to the usable cores; must run before
    numpy is imported."""
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 1 <= int(cur) <= nproc:
            os.environ[var] = str(nproc)
    return {var: os.environ[var] for var in THREAD_VARS}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, default=_json_default)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _json_default(obj):
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return str(obj)


def environment(nproc: int, threads: dict, seconds: float) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = got.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qplanes").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"git_sha": sha, "src_sha256": src.hexdigest()[:16],
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": nproc, "cpu": cpu, "threads": threads,
            "run_seconds": seconds}


class Loop:
    """Outcome of a run of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.inputs: list[int] = []  # input index of each operation
        self.failures: dict[int, str] = {}  # operation number -> reason
        self.hashes: dict[int, str] = {}  # input index -> answers digest

    @property
    def busy(self) -> float:
        return sum(self.latencies)


def run_ops(wl, loop: Loop, seconds=None, count=None, whole_passes=False,
            tracer=None):
    """Cycle through the workload's inputs from the first, timing each
    operation, and add the outcomes to ``loop``.

    Stops after ``count`` operations, or when the next operation (the
    next pass over all inputs, with ``whole_passes``) is expected to end
    past ``seconds`` of timed work.  An input that ``loop`` has seen
    before must give the same answers again."""
    run = tracer.wrap(wl.run, "bench.op", "bench") if tracer else wl.run
    pool = len(wl.inputs)
    done = 0
    while True:
        n, idx = len(loop.latencies), done % pool
        item = wl.inputs[idx]
        if tracer:
            tracer.op = n
        t0 = time.perf_counter()
        try:
            out, reason = run(item), None
        except Exception as exc:  # a failed operation is a result, not a crash
            out, reason = None, f"{type(exc).__name__}: {exc}"
        loop.latencies.append(time.perf_counter() - t0)
        loop.inputs.append(idx)
        if tracer:
            tracer.paused = True
        if reason is None:
            reason = wl.check(item, out)
        if reason is None:
            h = digest(wl.record(item, out))
            if loop.hashes.setdefault(idx, h) != h:
                reason = "answers differ from an earlier repeat in this run"
        if tracer:
            tracer.paused = False
        if reason is not None:
            loop.failures[n] = f"input {idx}: {reason}"
        done += 1
        if count is not None:
            if done == count:
                return
            continue
        busy = loop.busy
        if whole_passes:
            if done % pool == 0 and busy * (done + pool) / done > seconds:
                return
        elif busy + statistics.median(loop.latencies) > seconds:
            return


def stored_hash_mismatches(key: str, hashes: dict[str, str]) -> list[str]:
    """Keys whose answers differ from an earlier run of the same seed in
    this tree; this run's answers are added to the store."""
    OUT.mkdir(exist_ok=True)
    path = OUT / "verdicts.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    known = store.setdefault(key, {})
    bad = [k for k, h in hashes.items() if known.get(k, h) != h]
    known.update({k: h for k, h in hashes.items() if k not in known})
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(store, sort_keys=True, indent=0))
    os.replace(tmp, path)
    return bad


def setup_repeats(args) -> list[dict]:
    """Set the workload up again in fresh interpreters."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-only"] + ["--held-out"] * args.held_out + \
          ["--quick"] * args.quick
    out = []
    for _ in range(SETUP_REPEATS - 1):
        got = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                             cwd=ROOT)
        if got.returncode != 0:
            raise RuntimeError(f"set-up repeat failed: {got.stderr.strip()}")
        out.append(json.loads(got.stdout.strip().splitlines()[-1]))
    return out


def cli_classify(wl, tracer) -> tuple[list[str], int]:
    """Time ``cli.main(["classify", file])`` on one plane file per class,
    with stdout captured; returns the failure reasons and the number of
    calls."""
    from qplanes import cli

    work = OUT / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    failures = []
    tracer.op = -1
    try:
        classes = list(dict.fromkeys(c for c, _ in wl.inputs))
        for cls in classes:
            plane = next(p for c, p in wl.inputs if c == cls)
            path = work / f"{cls}.txt"
            path.write_text("".join(q.format() + "\n"
                                    for q in plane.basis_polys()))
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["classify", str(path)])
            verdict = json.loads(buf.getvalue())["verdict"] if code == 0 else None
            if verdict != cls:
                failures.append(f"cli classify {cls}: exit {code}, "
                                f"verdict {verdict!r}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return failures, len(classes)


def parse_args(spec: dict):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the workload's inputs")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report per-layer metrics from a traced run")
    p.add_argument("--held-out", action="store_true",
                   help=f"draw inputs from seed + {HELD_OUT_OFFSET}, a range "
                        "no tuning run uses, to re-check a claim")
    p.add_argument("--quick", action="store_true",
                   help="tiny input pools for the self-test")
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args()


def main() -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.exists():
        fail_to_start(f"{spec_path.name} not found next to {BENCH.name}/")
    spec = json.loads(spec_path.read_text())
    args = parse_args(spec)
    if not (ROOT / "src" / "qplanes" / "__init__.py").exists():
        fail_to_start("no src/qplanes here: run from the root of a qplanes "
                      "source tree")
    nproc = len(os.sched_getaffinity(0))
    threads = cap_threads(nproc)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import numpy  # noqa: F401  (imported before the set-up clock starts)

    # set-up is timed from the import of the program on; numpy's own
    # import is left out because its time is file-cache noise the program
    # does not control
    t_setup = time.perf_counter()
    import qplanes

    if Path(qplanes.__file__).resolve().parent != ROOT / "src" / "qplanes":
        fail_to_start(f"imported qplanes from {qplanes.__file__}, not from "
                      "this tree")
    import tracer as tracing
    from workloads import WORKLOADS

    input_seed = args.seed + HELD_OUT_OFFSET * args.held_out
    wl = WORKLOADS[args.workload](input_seed, args.quick)
    warm_idx, warm_out = wl.warm_up()
    warm_hash = digest(wl.record(None, warm_out))
    setup_s = time.perf_counter() - t_setup
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "warm_hash": warm_hash}))
        return 0

    loop = Loop()
    if warm_idx is not None:  # its timed repeats must agree with the warm-up
        loop.hashes[warm_idx] = warm_hash
    side_runs = 0  # checked runs besides the timed operations
    side_failures: list[str] = []
    extra: dict = {}
    if args.trace == 0:
        setups = [setup_s]
        try:
            repeats = setup_repeats(args)
        except (RuntimeError, subprocess.SubprocessError) as exc:
            repeats, side_failures = [], [str(exc)]
        for rep in repeats:
            setups.append(rep["setup_s"])
            if rep["warm_hash"] != warm_hash:
                side_failures.append("warm-up answers differ between set-ups "
                                     "of the same seed")
        side_runs = SETUP_REPEATS - 1
        run_ops(wl, loop, seconds=args.seconds)
    else:
        tr = tracing.Tracer()
        if wl.name == "classify-fp":
            # untraced and traced passes alternate over the same inputs, so
            # drift in machine speed cancels out of the overhead ratio
            plain = Loop()
            plain.hashes = loop.hashes
            passes = 0
            while not passes or ((plain.busy + loop.busy) * (passes + 1)
                                 / passes <= args.seconds):
                run_ops(wl, plain, count=len(wl.inputs))
                tracing.install(tr)
                try:
                    run_ops(wl, loop, count=len(wl.inputs), tracer=tr)
                finally:
                    tr.uninstall()
                passes += 1
            tracing.install(tr)
            try:
                side_failures, side_runs = cli_classify(wl, tr)
            finally:
                tr.uninstall()
            side_failures += list(plain.failures.values())
            side_runs += len(plain.latencies)
            extra["trace.overhead_ratio"] = plain.busy / loop.busy
        else:
            tracing.install(tr)
            try:
                run_ops(wl, loop, seconds=args.seconds, whole_passes=True,
                        tracer=tr)
            finally:
                tr.uninstall()

    # answers must also repeat across runs of the same seed and inputs in
    # this tree, whichever commit made them
    store_key = f"{wl.name}|{input_seed}|{digest(wl.params)}"
    bad = stored_hash_mismatches(
        store_key, {**{str(i): h for i, h in loop.hashes.items()},
                    "warm-up": warm_hash})
    for n, idx in enumerate(loop.inputs):
        if str(idx) in bad:
            loop.failures.setdefault(n, f"input {idx}: answers differ from "
                                        "an earlier run with the same seed")
    if "warm-up" in bad:
        side_failures.append("warm-up answers differ from an earlier run "
                             "with the same seed")

    ops = len(loop.latencies)
    ok_ops = ops - len(loop.failures)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.trace == 0:
        lat_ms = [x * 1e3 for x in loop.latencies]
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": ok_ops / loop.busy,
            "latency_p50_ms": statistics.median(lat_ms),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        samples = {"setup_s": f"median of {len(setups)} set-ups",
                   "ops_per_s": f"{ok_ops} ok of {ops} ops in {loop.busy:.2f} s",
                   "latency_p50_ms": f"n={ops}",
                   "peak_rss_mb": "whole run"}
        # the 90th percentile is reported only with ten samples beyond it
        if ops >= 100:
            extra["latency_p90_ms"] = statistics.quantiles(lat_ms, n=10)[-1]
            samples["latency_p90_ms"] = f"n={ops}"
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        values = {**tracing.layer_metrics(tr.spans, ops), **extra}
        samples = {}
        names = [m["name"] for m in spec["per_layer"]]
        OUT.mkdir(exist_ok=True)
        span_file = OUT / f"spans-{wl.name}-seed{args.seed}.jsonl.gz"
        tr.write(span_file)
        extra["self_s_per_op"] = tracing.self_times(tr.spans, ops)
        extra["spans"] = {"file": str(span_file.relative_to(ROOT)),
                          "count": len(tr.spans),
                          "layers": sorted({r[tracing.LAYER] for r in tr.spans})}
    metrics = {n: {"value": float(values.get(n, 0.0)), "unit": units[n]}
               for n in names}
    failed = len(loop.failures) + len(side_failures)
    attempted = ops + side_runs

    print(f"perfbench {wl.name} seed={args.seed} input_seed={input_seed} "
          f"trace={args.trace} {json.dumps(wl.params, sort_keys=True)}")
    for n in names:
        print(f"  {n:36s} {metrics[n]['value']:>14.6g} {units[n]:9s} "
              f"{samples.get(n, f'{ops} ops')}")
    if "latency_p90_ms" in extra:
        print(f"  {'latency_p90_ms (report only)':36s} "
              f"{extra['latency_p90_ms']:>14.6g} {'ms':9s} n={ops}")
    print(f"  {'failed_ratio (report only)':36s} {failed}/{attempted}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == wl.name)
    report = {"workload": wl.name, "why": why, "seed": args.seed,
              "held_out": args.held_out, "input_seed": input_seed,
              "quick": args.quick, "params": wl.params,
              "environment": environment(nproc, threads, args.seconds),
              "samples": samples, "failed_ratio": failed / attempted,
              "failures": (list(loop.failures.values()) + side_failures)[:20],
              "answers_digest": digest(loop.hashes), **extra}
    print(json.dumps({"report": report}, sort_keys=True, default=_json_default))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
