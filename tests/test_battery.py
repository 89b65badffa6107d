from unittest import mock

import pytest

from qplanes import battery, loci
from qplanes.fields import PrimeField


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
