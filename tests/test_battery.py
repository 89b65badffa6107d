import sys
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplanes import apolarity, battery, cli, loci
from qplanes import constructions as cons
from qplanes.apolarity import QuadricPlane
from qplanes.fields import PrimeField
from qplanes.linalg import FormSpace
from qplanes.poly import Poly


def test_criterion_8_skips_base_locus_images():
    # at this seed a round-trip point maps onto the base locus of the
    # other map; the point is redrawn instead of counted as a failure
    rec = battery.criterion_8(PrimeField(32003), seed=335170524)
    assert rec["ok"] is True


def test_criterion_4_raises_a_broken_witness_invariant():
    """A witness that fails its own check is a program fault: it raises
    instead of turning into ok: false with no reason."""
    broken = AssertionError("witness sextic not annihilated")
    with mock.patch.object(loci, "rank2_sextic_witness", side_effect=broken):
        with pytest.raises(AssertionError, match="not annihilated"):
            battery.criterion_4(PrimeField(32003), trials=1)


@given(st.integers(0, 10**6), st.sampled_from([11, 32003, 2147483647]))
@settings(max_examples=12, deadline=None)
def test_criterion_9_moves_planes_as_substitute_linear(seed, p):
    """The moved plane of criterion 9, from rows and power products, is
    the plane of the basis quadrics moved by Poly.substitute_linear."""
    k = PrimeField(p)
    gls, planes = [], []
    random_gl, classify = cons._random_gl, loci.classify

    def spy_gl(*args):
        gls.append(random_gl(*args))
        return gls[-1]

    def spy_classify(plane):
        planes.append(plane)
        return classify(plane)

    with mock.patch.object(cons, "_random_gl", spy_gl), \
            mock.patch.object(loci, "classify", spy_classify):
        battery.criterion_9(k, trials=2, seed=seed)
    (g,), (plane, moved) = gls, planes
    want = QuadricPlane.from_polys(
        [q.substitute_linear(g) for q in plane.basis_polys()])
    assert moved.space == want.space


# -- commands stay off the dict Poly path --------------------------------

# the dict routines that no command may call
DICT_PATH = [(Poly, "evaluate"), (Poly, "__mul__"),
             (Poly, "substitute_linear"), (Poly, "substitute_polys"),
             (Poly, "scale"), (FormSpace, "polys")]
# the only callers that build a Poly: the parsed input and criterion 1's
# fixture, classify's certificates and the lambda of a Cremona inverse
BUILDERS = {"parse_poly", "criterion_1", "classify", "find_inverse"}
# the one dict routine a command may call, and its only caller: criterion
# 1 multiplies two parsed linear forms of its fixture
ALLOWED = {(Poly, "__mul__"): "criterion_1"}
SECANT = ("x0*x1 + 2*x1*x2 - x0*x3 - 2*x2*x3\n"
          "x0^2 + 3*x1*x2 + x3^2 - 5*x0*x2\n"
          "x1^2 - 7*x2^2 + x0*x3 + 4*x1*x3\n")
CUBIC = ("x0^3 + 2*x0*x1*x2 - x1^2*x3 + 3*x2^3 + x0*x3^2 - x1*x2*x3\n"
         "x0 + x1\nx1 - 2*x2\nx2 + 3*x3\n")


def _refuse(name, original=None, caller=None):
    def refuse(*args, **kwargs):
        if caller is not None and sys._getframe(1).f_code.co_name == caller:
            return original(*args, **kwargs)
        raise AssertionError(f"{name} called on a command's path")
    return refuse


@pytest.fixture
def poly_builders(monkeypatch):
    """Make every dict routine raise, and record, for each Poly built,
    the innermost of BUILDERS on the stack (None for any other)."""
    for cls, attr in DICT_PATH:
        monkeypatch.setattr(cls, attr, _refuse(
            f"{cls.__name__}.{attr}", getattr(cls, attr),
            ALLOWED.get((cls, attr))))
    for name, module in list(sys.modules.items()):
        if (name.startswith("qplanes")
                and getattr(module, "contract", None) is apolarity.contract):
            monkeypatch.setattr(module, "contract", _refuse("contract"))
    builders = []
    init = Poly.__init__

    def counted_init(self, *args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name not in BUILDERS:
            frame = frame.f_back
        builders.append(frame and frame.f_code.co_name)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    return builders


@pytest.mark.parametrize("argv, built", [
    # the planes that criteria 3 and 9 classify are general: no certificate
    (["verify", "--samples", "1"],
     {"parse_poly", "criterion_1", "find_inverse"}),
    (["cremona", "--slow", "--seed", "0"], {"find_inverse"}),
    (["gale", "--samples", "1"], set()),
    (["pencil", "--samples", "1"], set()),
    (["classify", SECANT], {"parse_poly", "classify"}),
    (["classify", CUBIC], {"parse_poly", "classify"}),
], ids=["verify", "cremona", "gale", "pencil", "classify-secant",
        "classify-cubic"])
def test_commands_stay_off_the_dict_path(argv, built, poly_builders,
                                         tmp_path, capsys):
    if argv[0] == "classify":
        path = tmp_path / "plane.txt"
        path.write_text(argv[1])
        argv = ["classify", str(path)]
    assert cli.main(argv) == 0, capsys.readouterr().err
    assert set(poly_builders) == built
    if argv[0] == "cremona":  # the lambdas of c_E and of c_S8 at degree 4
        assert len(poly_builders) == 2
