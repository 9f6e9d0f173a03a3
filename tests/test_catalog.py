"""Catalog: exact table constants, normal forms, homogeneity."""

import math
from fractions import Fraction

import numpy as np
import pytest

from causticlab.catalog import (CANONICAL_LABELS, FAMILIES, SingularityType, build_phase,
                                caustic_order, quasi_homogeneity_defect, threshold)

F = Fraction


def test_parse_and_labels():
    assert SingularityType.parse("A2") == SingularityType("A", 1, +1)
    assert SingularityType.parse("A3-") == SingularityType("A", 2, -1)
    assert SingularityType.parse("D4+") == SingularityType("D", 3, +1)
    assert SingularityType.parse("D4-") == SingularityType("D", 3, -1)
    assert SingularityType.parse("D5") == SingularityType("D", 4, +1)
    assert SingularityType.parse("E6-") == SingularityType("E", 6, -1)
    assert FAMILIES == ("A", "D", "E")
    # every canonical label round-trips; its kappa and delta0 are pinned by
    # test_orders_and_thresholds_exact below
    assert len(CANONICAL_LABELS) == 19
    for label in CANONICAL_LABELS:
        t = SingularityType.parse(label)
        assert t.label == label


@pytest.mark.parametrize("bad", [
    lambda: SingularityType("A", -1),          # A needs m >= 0
    lambda: SingularityType.parse("D4"),       # odd m writes its sign
    lambda: SingularityType.parse("D5+"),      # even m has no +- variants
    lambda: SingularityType("Dplus", 3, +1),   # the sign is no part of the family
    lambda: SingularityType("E", 5),
    lambda: SingularityType("E", 7, -1),       # E7 has no sign flag
    lambda: SingularityType("D", 2),
])
def test_invalid_types_rejected(bad):
    with pytest.raises(ValueError):
        bad()


def test_a2_normal_form_values():
    ph = build_phase(SingularityType.parse("A2"))
    # x*t + t^3 with weights r=(1/3), s=(1/3)
    assert ph.k == 1 and ph.k0 == 1
    assert ph.r == (F(1, 3),)
    assert ph.s == (F(1, 3),)
    assert ph.phi((2.0,), 1.5) == pytest.approx(2.0 * 1.5 + 1.5**3)


def test_a1_projectable_degenerate():
    for sign, want in ((+1, 1.21), (-1, -1.21)):
        t = SingularityType("A", 0, sign)
        ph = build_phase(t)
        assert ph.k0 == 0 and ph.k == 1
        assert ph.phi((), 1.1) == pytest.approx(want)
    assert caustic_order(SingularityType.parse("A1")) == 0
    assert threshold(SingularityType.parse("A1")) == 1


def test_d4_minus_normal_form():
    ph = build_phase(SingularityType.parse("D4-"))
    assert ph.k == 2 and ph.k0 == 3
    assert ph.r == (F(1, 3), F(1, 3))
    x = (0.5, -1.0, 2.0)
    t1, t2 = 0.7, -1.3
    want = 0.5 * t1 - 1.0 * t2 + 2.0 * t2**2 + t1**2 * t2 - t2**3
    assert ph.phi(x, t1, t2) == pytest.approx(want)


def test_e_series_base_dimensions():
    for label, k0 in (("E6", 5), ("E7", 6), ("E8", 7)):
        assert build_phase(SingularityType.parse(label)).k0 == k0


TABLE = {
    "A1": ("0", "1"), "A2": ("1/6", "1/3"), "A3": ("1/4", "1/4"),
    "A4": ("3/10", "1/5"), "A5": ("1/3", "1/6"), "A6": ("5/14", "1/7"),
    "A7": ("3/8", "1/8"), "A8": ("7/18", "1/9"),
    "D4-": ("1/3", "1/4"), "D4+": ("1/3", "1/3"), "D5": ("3/8", "1/5"),
    "D6-": ("2/5", "1/6"), "D6+": ("2/5", "1/5"), "D7": ("5/12", "1/7"),
    "D8-": ("3/7", "1/8"), "D8+": ("3/7", "1/7"),
    "E6": ("5/12", "1/6"), "E7": ("4/9", "1/7"), "E8": ("7/15", "1/8"),
}


@pytest.mark.parametrize("label", sorted(TABLE))
def test_orders_and_thresholds_exact(label):
    t = SingularityType.parse(label)
    kap_s, del_s = TABLE[label]
    assert caustic_order(t) == F(kap_s)
    assert threshold(t) == F(del_s)


def test_homogeneity_table_rows():
    e8 = build_phase(SingularityType.parse("E8"))
    assert e8.r == (F(1, 3), F(1, 5))
    assert e8.s == (F(1, 3), F(1, 5), F(2, 5), F(3, 5), F(8, 15), F(11, 15), F(14, 15))
    e7 = build_phase(SingularityType.parse("E7"))
    assert e7.s == (F(1, 3), F(2, 9), F(4, 9), F(2, 3), F(8, 9), F(5, 9))
    d6 = build_phase(SingularityType.parse("D6-"))
    assert d6.r == (F(2, 5), F(1, 5))
    assert d6.s == (F(2, 5), F(1, 5), F(2, 5), F(3, 5), F(4, 5))


def test_quasi_homogeneity_sampled():
    rng = np.random.default_rng(4242)
    for label in CANONICAL_LABELS:
        ph = build_phase(SingularityType.parse(label))
        for _ in range(100):
            lam = float(rng.uniform(0.1, 10.0))
            x = tuple(rng.uniform(-1.5, 1.5, ph.k0))
            theta = tuple(rng.uniform(-1.5, 1.5, ph.k))
            defect, ref = quasi_homogeneity_defect(ph, lam, x, theta)
            assert defect <= 1e-12 * (1.0 + abs(ref))


def test_phase_gradient_vanishes_only_at_origin():
    grid = np.linspace(-2.0, 2.0, 41)
    for label in CANONICAL_LABELS:
        ph = build_phase(SingularityType.parse(label))
        poly = ph.theta_poly((0.0,) * ph.k0)
        grad = [poly.partial(axis) for axis in range(ph.k)]
        if ph.k == 1:
            pts = [(v,) for v in grid if abs(v) > 0.15]
        else:
            pts = [(a, b) for a in grid for b in grid
                   if math.hypot(a, b) > 0.15]
        for p in pts:
            assert math.hypot(*[float(d(*p)) for d in grad]) > 1e-12, (label, p)


def test_minus_variants_share_tables():
    for plus, minus in (("A2", "A2-"), ("E6", "E6-")):
        assert caustic_order(SingularityType.parse(plus)) == \
            caustic_order(SingularityType.parse(minus))
        assert threshold(SingularityType.parse(plus)) == \
            threshold(SingularityType.parse(minus))


def test_d_even_sign_flip_rejected():
    # even-m D types have one variant (theta_2 -> -theta_2 maps the flipped
    # sign onto it), so the flipped sign is rejected like E7-
    with pytest.raises(ValueError):
        SingularityType("D", 4, -1)
