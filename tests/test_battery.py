from qplanes import battery
from qplanes.fields import PrimeField


def test_criterion_8_skips_base_locus_images():
    # at this seed a round-trip point maps onto the base locus of the
    # other map; the point is redrawn instead of counted as a failure
    rec = battery.criterion_8(PrimeField(32003), seed=335170524)
    assert rec["ok"] is True
