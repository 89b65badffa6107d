import argparse
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import qplanes
from qplanes import constructions as cons
from qplanes import loci
from qplanes.apolarity import QuadricPlane
from qplanes.cli import build_parser, main
from qplanes.fields import PrimeField
from qplanes.poly import VARS_P3, parse_poly


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    records = [json.loads(line) for line in out.splitlines()]
    return code, out, records


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_classify_quadrics_both(tmp_path, capsys):
    path = _write(tmp_path, "plane.txt", "x0^2\nx1^2\nx2^2\n")
    code, _, recs = _run(capsys, ["classify", path])
    assert code == 0
    assert recs[0]["verdict"] == "both"
    assert recs[0]["ok"] is True


def test_classify_cubic_input(tmp_path, capsys):
    path = _write(tmp_path, "cubic.txt",
                  "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^3  # the cubic\n"
                  "x0 + 2*x1\nx1 + 3*x2\nx2 + 5*x3\n")
    code, _, recs = _run(capsys, ["classify", path])
    assert code == 0
    assert recs[0]["pfaffian_zero"] is True
    assert recs[0]["jump_dim"] >= 3


def test_classify_generic_plane(tmp_path, capsys):
    path = _write(tmp_path, "generic.txt",
                  "x0^2 + 2*x1*x2 + 7*x3^2\n"
                  "x0*x1 + 3*x2^2 + x2*x3\n"
                  "x0*x3 + 5*x1^2 + 11*x1*x3\n")
    code, _, recs = _run(capsys, ["classify", path])
    assert code == 0
    assert recs[0]["verdict"] == "general"
    assert recs[0]["jump_dim"] == 0


def test_reports_name_a_prime_other_than_the_default(tmp_path, capsys):
    path = _write(tmp_path, "plane.txt", "x0^2\nx1^2\nx2^2\n")
    recs = {}
    for flags in ([], ["--prime", "1000003"], ["--rationals"]):
        code, _, (rec,) = _run(capsys, ["classify", path, *flags])
        assert code == 0
        recs[tuple(flags)] = rec
    assert "prime" not in recs[()] and "prime" not in recs[("--rationals",)]
    named = recs[("--prime", "1000003")]
    assert named.pop("prime") == 1000003
    assert named == recs[()]


def test_classify_malformed_input(tmp_path, capsys):
    path = _write(tmp_path, "bad.txt", "x0^2\nx1^^2\nx2^2\n")
    code, _, _ = _run(capsys, ["classify", path])
    assert code == 2


def test_classify_missing_file(capsys):
    code, _, _ = _run(capsys, ["classify", "/nonexistent/input.txt"])
    assert code == 2


def test_classify_wrong_form_count(tmp_path, capsys):
    path = _write(tmp_path, "two.txt", "x0^2\nx1^2\n")
    code, _, _ = _run(capsys, ["classify", path])
    assert code == 2


@pytest.mark.parametrize("prime", ["4294967311", "18446744073709551557"])
def test_classify_refuses_primes_past_the_bound(tmp_path, capsys, prime):
    """Products of residues overflow int64 at these primes: the command
    must refuse them, not print an answer."""
    path = _write(tmp_path, "plane.txt", "x0^2\nx1^2\nx2^2\n")
    assert main(["classify", path, "--prime", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "p < 2^31" in captured.err


def test_usage_errors(capsys):
    assert main(["pencil", "--prime", "37"]) == 2  # field too small
    capsys.readouterr()
    assert main(["no-such-command"]) == 2
    capsys.readouterr()
    assert main(["verify", "--rationals"]) == 2  # battery needs a prime field
    capsys.readouterr()
    # --rationals and --prime exclude each other, whatever the prime
    for prime in ("4", "32003"):
        assert main(["classify", "plane.txt", "--rationals",
                     "--prime", prime]) == 2
        assert "not allowed with" in capsys.readouterr().err
    assert main(["gale", "--samples", "0"]) == 2
    capsys.readouterr()
    # a flag the command does not read is refused, not ignored
    assert main(["cremona", "--samples", "2"]) == 2
    capsys.readouterr()
    assert main(["gale", "--slow"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("prime", [11, 29])
@pytest.mark.parametrize("argv", [["gale"], ["cremona"],
                                  ["cremona", "--slow"]],
                         ids=["gale", "cremona", "cremona-slow"])
def test_pipelines_run_at_small_primes(capsys, argv, prime):
    """A member's quadrics come from values at 15 lattice points, not
    from points sampled on it, so the pipelines take every prime field,
    also those where a smooth cubic has 40 points or fewer."""
    code, _, recs = _run(capsys, argv + ["--prime", str(prime)])
    assert code == 0 and recs[0]["prime"] == prime and recs[0]["ok"]


def test_gale_members_are_distinct_at_a_small_prime(capsys):
    """At p = 11, seed 6, this pipeline's member draws repeat a parameter
    without a resample; the repeat is skipped, since two equal members
    would span 2 Segre cubics, not 3."""
    code, _, recs = _run(capsys, ["gale", "--prime", "11", "--seed", "6",
                                  "--samples", "1"])
    assert code == 0
    assert recs[0]["resamples"] == 0
    assert recs[0]["segre_span"] == 3 and recs[0]["ok"]


def test_gale_raises_a_broken_segre_invariant(monkeypatch):
    """Restricted member quadrics outside the perpendicular space are a
    program fault: they raise, not exit 2 as a usage error would.  The
    foreign space comes in where segre_cubics reads it, as the
    perpendicular space that initial_system returns."""
    k = PrimeField()
    other = loci.lperp(QuadricPlane.from_polys(
        [parse_poly(s, VARS_P3, k) for s in ("x0^2", "x1^2", "x2^2")]))
    real = cons.initial_system
    monkeypatch.setattr(cons, "initial_system",
                        lambda k, pts: (other, *real(k, pts)[1:]))
    with pytest.raises(AssertionError, match="perpendicular space"):
        main(["gale", "--samples", "1"])


def test_readme_lists_the_flags_of_each_command():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    listed = {}
    for line in readme.read_text().splitlines():
        m = re.match(r"\| `qplanes (\w+)", line)
        if m:
            listed[m.group(1)] = set(re.findall(r"--[a-z]+", line))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
    parsed = {name: {o for a in sp._actions for o in a.option_strings}
              - {"-h", "--help"} for name, sp in commands.items()}
    assert listed == parsed


def test_pencil_command(tmp_path, capsys):
    code, _, recs = _run(capsys, ["pencil", "--samples", "1", "--seed", "4"])
    assert code == 0
    assert recs[0]["degrees"] == [36, 2, 10]
    assert recs[0]["factorization_ok"] is True
    assert "prime" not in recs[0]


def test_pencil_at_the_largest_prime(capsys):
    """Sums of products of residues wrap int64 at p = 2^31 - 1 unless each
    product is reduced first; the pencil's frame vectors are such sums."""
    code, _, recs = _run(capsys, ["pencil", "--samples", "2",
                                  "--prime", "2147483647"])
    assert code == 0
    assert [r["degrees"] for r in recs] == [[36, 2, 10]] * 2
    assert all(r["ok"] and r["prime"] == 2147483647 for r in recs)


def _cap_address_space():
    # 4 GiB: a scan of F_p at p = 2^31 - 1 needs a 16 GiB array, and then
    # fails with MemoryError here instead of exhausting the machine
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))


def _run_at_the_largest_prime(argv):
    """The command at p = 2^31 - 1 in a subprocess with 4 GiB of address
    space."""
    src = str(Path(qplanes.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    return subprocess.run(
        [sys.executable, "-m", "qplanes.cli", *argv, "--prime", "2147483647"],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space)


@pytest.mark.parametrize("argv", [["gale", "--samples", "1"],
                                  ["cremona", "--seed", "0"],
                                  ["verify", "--samples", "1"]],
                         ids=["gale", "cremona", "verify"])
def test_pipelines_at_the_largest_prime_in_bounded_memory(argv):
    run = _run_at_the_largest_prime(argv)
    assert run.returncode == 0, run.stderr[-2000:]
    records = [json.loads(line) for line in run.stdout.splitlines()]
    assert records and all(r["ok"] is True for r in records)
    assert all(r["prime"] == 2147483647 for r in records)


def test_classify_secant_plane_at_the_largest_prime_in_bounded_memory(
        tmp_path):
    """A plane through l1*l2 whose basis probes miss the rank-2 element,
    so the element is read off the minor ideal."""
    k = PrimeField(2147483647)
    l1, l2 = (parse_poly(s, VARS_P3, k)
              for s in ("x0 + 2*x1 - x2 + 3*x3", "x1 - 4*x2 + 5*x3 + 7*x0"))
    plane = _write(tmp_path, "secant.txt", "\n".join([
        (l1 * l2).format(),
        "x0^2 + 3*x1*x2 - x2*x3 + 2*x3^2 + x0*x3",
        "x1^2 - x0*x2 + 5*x1*x3 + x2^2 + 11*x0*x1"]) + "\n")
    run = _run_at_the_largest_prime(["classify", plane])
    assert run.returncode == 0, run.stderr[-2000:]
    (record,) = [json.loads(line) for line in run.stdout.splitlines()]
    assert record["secant"] is True and record["ok"] is True
    assert record["prime"] == 2147483647


def test_gale_command(capsys):
    code, _, recs = _run(capsys, ["gale", "--samples", "1", "--seed", "2"])
    assert code == 0
    rec = recs[0]
    assert rec["hf"] == [1, 4, 3]
    assert rec["chain_dims"] == [3, 5, 7]
    assert rec["segre_span"] == 3
    assert rec["pfaffian_zero"] is True and rec["jump_dim"] == 3


def test_cremona_command(capsys):
    code, _, recs = _run(capsys, ["cremona", "--seed", "1"])
    assert code == 0
    assert recs[0]["ce_type"] == [2, 3]
    assert recs[0]["ok"] is True


def test_byte_determinism(tmp_path, capsys):
    plane = _write(tmp_path, "plane.txt", "x0^2\nx1^2\nx2^2\n")
    for argv in (["classify", plane],
                 ["pencil", "--samples", "1", "--seed", "7"],
                 ["gale", "--samples", "1", "--seed", "7"],
                 ["cremona", "--seed", "7"]):
        _, out1, _ = _run(capsys, list(argv))
        _, out2, _ = _run(capsys, list(argv))
        assert out1 == out2, f"non-deterministic output for {argv}"


def test_verify_smoke(capsys):
    # tiny trial counts: this exercises plumbing, not the full battery
    code, _, recs = _run(capsys, ["verify", "--samples", "2", "--seed", "3"])
    assert code == 0
    assert len(recs) == 9
    assert all(r["ok"] for r in recs)
    assert sorted(r["criterion"] for r in recs) == list(range(1, 10))


def test_verify_refuses_a_field_too_small_for_the_pencil(capsys):
    """Criterion 5 runs pencils, which need p > 40: verify refuses such a
    prime before any criterion runs, under its own name."""
    assert main(["verify", "--prime", "37"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "verify" in captured.err and "p > 40" in captured.err
    code, _, recs = _run(capsys, ["verify", "--prime", "41", "--samples", "1"])
    assert code == 0 and len(recs) == 9 and all(r["ok"] for r in recs)
