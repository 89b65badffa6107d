"""Golden results: sha256 digests of CLI output and of formatted library
results, pinned so that refactors of the kernels stay byte-identical.

A digest mismatch means a user-visible result changed.  If the change
is intended, record the new digests with

    PYTHONPATH=src python tests/test_golden.py

and say in the change log why the results moved.
"""

import hashlib
import io
import random
from contextlib import redirect_stdout

import pytest

from qplanes import loci
from qplanes.apolarity import QuadricPlane, plane_from_cubic
from qplanes.cli import main
from qplanes.constructions import cremona_pipeline
from qplanes.fields import PrimeField, RationalField
from qplanes.poly import Poly, monomial_basis

K = PrimeField()
Q = RationalField()

README_PLANE = "x0^2\nx1^2\nx2^2\n"
README_CUBIC = "x0^3 + x1^3 + x2^3 + x3^3\nx0\nx1\nx2\n"

CLI_RUNS = {
    "classify-plane": (README_PLANE, ["classify", "{input}"]),
    "classify-cubic": (README_CUBIC, ["classify", "{input}"]),
    "classify-cubic-rationals": (README_CUBIC,
                                 ["classify", "{input}", "--rationals"]),
    "pencil": (None, ["pencil", "--samples", "1", "--seed", "0"]),
    "gale": (None, ["gale", "--samples", "1", "--seed", "0"]),
    "cremona": (None, ["cremona", "--seed", "0"]),
    "verify": (None, ["verify", "--samples", "1", "--seed", "0"]),
}

# recorded before the contraction, minor and substitution kernels moved
# onto the index tables
GOLDEN = {
    "classify-cubic":
        "a5a4067f5ac5202354d9c272556b9c65cdc67fceecbd5fb13127a57c26b1ce34",
    "classify-cubic-rationals":
        "a5a4067f5ac5202354d9c272556b9c65cdc67fceecbd5fb13127a57c26b1ce34",
    "classify-plane":
        "afcbd47ee6e22c45e88c19a3cfa1d880a5a9559305d7a989c11424af1716ba28",
    "cremona":
        "34457c22e9afecf56ab980a5e2ce097bdc5c702dc950664bf9be63443b3aba9f",
    "gale":
        "6802e571c785da42d5003f6e8d820824daf4f1b77aad44b59893d52220242861",
    "pencil":
        "4e832f3056741790457f9884a27145f71b653704e8aeb35c4fdb9e2f339fbb22",
    "verify":
        "72cc319f80c2c93950581340ef084c1d61ca8be6568fb84ba1d8ae1962171e37",
    "classify-general-fp":
        "5d1ea71256d9cf3f073dc4a1c5d197f2185ed6ede9c58d00d7f6c86d67712bd5",
    "classify-general-q":
        "f862e4f2558acf05c40ae3cc31a936b808f444ed8f9c0d54f4cf34b5ab044ed7",
    "classify-rank1-fp":
        "32054caa5632c300e119c7f38cc97f4bd6c45522893a06142b232943e326abaa",
    "classify-secant-fp":
        "76484a3dc3ff9c2b9afa95bb0b68d2118337a1fd1ac991dc51695e281c5eecf6",
    "classify-smoothable-fp":
        "ee3b52542da6d15b88d6deba75d2986972038af5c3ff5b8959dcebd5339544a4",
    "cremona-inverse":
        "eaba62ec6891cbc3f5b2e7ed2d3e2e9cd0f6bfc12b11633c7b45b4b7ff88126a",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_stdout(name, tmp_dir) -> str:
    content, argv = CLI_RUNS[name]
    if content is not None:
        path = tmp_dir / f"{name}.txt"
        path.write_text(content)
        argv = [a.format(input=path) for a in argv]
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(argv)
    return buf.getvalue()


def _random_form(k, rng, nvars, d):
    return Poly(k, nvars, {e: k.random_element(rng)
                           for e in monomial_basis(nvars, d)})


def _general(k, rng):
    return QuadricPlane.from_polys([_random_form(k, rng, 4, 2)
                                    for _ in range(3)])


def _smoothable(k, rng):
    return plane_from_cubic(_random_form(k, rng, 4, 3),
                            *[_random_form(k, rng, 4, 1) for _ in range(3)])


def _secant(k, rng):
    l1, l2 = (_random_form(k, rng, 4, 1) for _ in range(2))
    return QuadricPlane.from_polys(
        [l1 * l2, _random_form(k, rng, 4, 2), _random_form(k, rng, 4, 2)])


def _rank1(k, rng):
    l1 = _random_form(k, rng, 4, 1)
    return QuadricPlane.from_polys(
        [l1 * l1, _random_form(k, rng, 4, 2), _random_form(k, rng, 4, 2)])


def _small_general_q(rng):
    return QuadricPlane.from_polys(
        [Poly(Q, 4, {e: rng.randrange(-5, 6) for e in monomial_basis(4, 2)})
         for _ in range(3)])


def _format_classification(c) -> str:
    certs = c.certificates
    secant = certs["secant"]
    element = secant["element"]
    witnesses = certs["witness_sextics"]
    lines = [
        f"verdict {c.verdict}",
        f"pfaffian {c.pfaffian_value}",
        f"jump_dim {c.jump_dim}",
        f"piece_dims {sorted(secant['piece_dims'].items())}",
        f"element {None if element is None else element.format()}",
        "witnesses " + ("None" if witnesses is None
                        else " | ".join(w.format() for w in witnesses)),
    ]
    lines += [f"cubic {cubic.format()}" for cubic in certs["cubics"]]
    return "\n".join(lines) + "\n"


def _classify_text(make, seeds) -> str:
    return "".join(_format_classification(loci.classify(make(random.Random(s))))
                   for s in seeds)


def _cremona_text(res) -> str:
    lines = [f"inverse {g.format()}" for g in res.ce_inverse.forms]
    return "\n".join(lines + [f"lambda {res.ce_lambda.format()}"]) + "\n"


LIBRARY_RUNS = {
    "classify-general-fp": lambda: _classify_text(
        lambda rng: _general(K, rng), [1, 2]),
    "classify-smoothable-fp": lambda: _classify_text(
        lambda rng: _smoothable(K, rng), [3, 4]),
    "classify-secant-fp": lambda: _classify_text(
        lambda rng: _secant(K, rng), [5, 6, 7]),
    "classify-rank1-fp": lambda: _classify_text(
        lambda rng: _rank1(K, rng), [8, 9]),
    "classify-general-q": lambda: _classify_text(_small_general_q, [10]),
    "cremona-inverse": lambda: _cremona_text(cremona_pipeline(K, 0)),
}


@pytest.mark.parametrize("name", sorted(CLI_RUNS))
def test_cli_stdout_digest(name, tmp_path):
    assert _sha(_cli_stdout(name, tmp_path)) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(LIBRARY_RUNS))
def test_library_result_digest(name):
    assert _sha(LIBRARY_RUNS[name]()) == GOLDEN[name]


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(CLI_RUNS):
            print(f'    "{name}":\n        '
                  f'"{_sha(_cli_stdout(name, pathlib.Path(tmp)))}",')
    for name in sorted(LIBRARY_RUNS):
        print(f'    "{name}":\n        "{_sha(LIBRARY_RUNS[name]())}",')
