"""Amplitude families: bump properties and symbol orders."""

import math

import numpy as np
import pytest

from causticlab.amplitudes import (bump, check_symbol_order, estimate_sup_derivative,
                                   make_amplitude)
from causticlab.scaling import geometric_grid

H_GRID = geometric_grid(2.0**-4, 2.0**-11, 8)


def test_bump_plateau_and_support():
    u = np.linspace(-0.999, 0.999, 301)
    assert np.allclose(bump(u), 1.0)
    assert np.all(bump(np.array([2.0, -2.0, 2.5, -3.0, 10.0])) == 0.0)
    mid = bump(np.array([1.2, 1.5, 1.8]))
    assert np.all((0 < mid) & (mid < 1))
    assert np.all(np.diff(mid) < 0)


def bump_prime(u) -> np.ndarray:
    """Analytic chi' = -sign(u) chi (1 - chi) (1/t^2 + 1/(1-t)^2) on the band 0 < t < 1."""
    u = np.asarray(u, dtype=float)
    t = 2.0 - np.abs(u)
    s = bump(u)
    with np.errstate(divide="ignore", invalid="ignore"):
        ds = s * (1.0 - s) * (1.0 / t**2 + 1.0 / (1.0 - t) ** 2)
    return np.where((t > 0.0) & (t < 1.0), -np.sign(u) * ds, 0.0)


def test_bump_prime_matches_finite_difference():
    u = np.linspace(-2.3, 2.3, 1001)
    s = 1e-6
    fd = (bump(u + s) - bump(u - s)) / (2 * s)
    assert np.max(np.abs(fd - bump_prime(u))) < 1e-6


def _bump_two_exp(u):
    """The textbook smoothstep e^{-1/t} / (e^{-1/t} + e^{-1/(1-t)}), t = 2 - |u|."""
    t = 2.0 - np.abs(np.asarray(u, dtype=float))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        g0 = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        g1 = np.where(1.0 - t > 0.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return g0 / (g0 + g1)


def test_bump_matches_two_exp_smoothstep():
    u = np.concatenate([np.linspace(-2.5, 2.5, 20001), [1.0 + 1e-12, 2.0 - 1e-12]])
    assert np.max(np.abs(bump(u) - _bump_two_exp(u))) <= 1e-15
    inner = np.linspace(-1.0, 1.0, 2001)
    assert np.all(bump(inner) == 1.0)
    outer = np.concatenate([np.linspace(2.0, 5.0, 301), -np.linspace(2.0, 5.0, 301)])
    assert np.all(bump(outer) == 0.0)
    for u0, want in ((0.5, 1.0), (-1.0, 1.0), (2.0, 0.0), (-3.0, 0.0)):
        assert np.shape(bump(u0)) == () and float(bump(u0)) == want
    assert float(bump(1.5)) == pytest.approx(float(_bump_two_exp(1.5)), abs=1e-15)
    # t = 1/2: chi = 1/2 and chi' = -chi (1 - chi) (1/t^2 + 1/(1-t)^2) = -2
    assert float(bump_prime(1.5)) == pytest.approx(-2.0, rel=1e-14)


@pytest.mark.parametrize("kind, delta, center", [
    ("narrow_bump", 0.0, 0.0), ("narrow_bump", 0.0, 0.7), ("narrow_bump", 0.25, 0.0),
    ("narrow_bump", 1.0 / 3.0, -0.3), ("fold_saturator_above", 0.5, 0.0),
    ("fold_saturator_above", 1.0, 0.0)])
def test_l2_of_bump_kinds_is_the_scaled_bump_norm(kind, delta, center):
    # h^{-p} h^{w/2} ||chi||_2 against a trapezoid of |a|^2 over the support
    amp = make_amplitude(kind, delta, center=center)
    for e in range(2, 19):
        h = 2.0**-e
        r = amp.support_radius(h)
        u = np.linspace(center - r, center + r, 40001)
        ref = math.sqrt(np.trapezoid(np.abs(amp.axis_slow(u, h)) ** 2, u))
        assert amp.l2_theta(h) == pytest.approx(ref, rel=1e-13, abs=0.0), e


def test_fixed_bump_examples():
    a = make_amplitude("narrow_bump", 0.0)
    for h in (1.0e-1, 1.0e-3):
        assert a.value(0.0, h) == pytest.approx(1.0)
        assert a.value(2.0, h) == 0.0
        assert a.value(-3.5, h) == 0.0


def test_narrow_bump_support_scaling():
    a = make_amplitude("narrow_bump", 1.0 / 3.0)
    h = 1e-3
    assert a.support_radius(h) == pytest.approx(2.0 * h ** (1.0 / 3.0))
    assert a.support_radius(h) == pytest.approx(0.2)
    assert a.value(0.21, h) == 0.0
    assert a.value(0.05, h) == pytest.approx(1.0)


def test_narrow_bump_at_delta_zero_equals_fixed():
    # at delta = 0 the narrow bump is the fixed bump chi(theta) for every h
    narrow = make_amplitude("narrow_bump", 0.0)
    u = np.linspace(-2.5, 2.5, 501)
    for h in (0.5, 1e-2, 1e-4):
        assert np.array_equal(narrow.value(u, h), bump(u).astype(complex))


def test_fold_saturator_above_peak_height():
    a = make_amplitude("fold_saturator_above", 0.5)
    h = 1e-4
    assert abs(a.value(0.0, h)) == pytest.approx(h ** (-5.0 / 8.0))
    assert abs(a.value(0.0, h)) == pytest.approx(10**2.5)


def test_all_builtins_supported_in_fixed_ball():
    kinds = [("narrow_bump", 0.0), ("narrow_bump", 0.5), ("gaussian", 0.4),
             ("fold_saturator_above", 0.6)]
    outside = np.array([4.05, -4.05, 5.0, -7.0])
    for kind, d in kinds:
        a = make_amplitude(kind, d)
        for h in (0.5, 1e-2, 1e-4):
            assert a.support_radius(h) <= 4.0 + 1e-12
            assert np.all(a.value(outside, h) == 0.0), kind


def test_modulated_bump_composition():
    # the modulated saturator h^{-(3-d)/4} chi(t/h^{(1-d)/2}) e^{-i t^3 / h}
    a = make_amplitude("fold_saturator_above", 0.3)
    h, t = 1e-2, 0.05
    want = h**-0.675 * bump(t / h**0.35) * np.exp(-1j * t**3 / h)
    assert a.value(t, h) == pytest.approx(want)
    assert a.modulation_poly() is not None


def test_make_amplitude_rejections():
    with pytest.raises(ValueError):
        make_amplitude("mystery_kind", 0.1)
    with pytest.raises(ValueError):
        make_amplitude("narrow_bump", 1.5)
    with pytest.raises(ValueError):
        make_amplitude("custom", 0.2)  # no evaluator
    with pytest.raises(ValueError, match="1D only"):
        make_amplitude("fold_saturator_above", 0.5, dim=2)  # it cancels A2's one cubic


def test_narrow_bump_derivative_sup_against_analytic_oracle():
    # sup |d/dt chi(t/h^d)| = h^{-d} sup|chi'|
    d = 0.5
    a = make_amplitude("narrow_bump", d)
    u = np.linspace(-2.2, 2.2, 200001)
    sup_chi_prime = float(np.max(np.abs(bump_prime(u))))
    for h in (2.0**-6, 2.0**-10):
        est = estimate_sup_derivative(a, 1, h)
        assert est == pytest.approx(h**-d * sup_chi_prime, rel=1e-3)


def test_symbol_order_narrow_bump_alpha1():
    a = make_amplitude("narrow_bump", 0.5)
    rows = check_symbol_order(a, H_GRID)
    assert rows[1].fitted_order == pytest.approx(0.5, abs=0.05)


def test_symbol_order_fixed_bump_flat():
    rows = check_symbol_order(make_amplitude("narrow_bump"), H_GRID)
    for r in rows:
        assert abs(r.fitted_order) <= 0.05


def test_symbol_order_gaussian_alpha0():
    rows = check_symbol_order(make_amplitude("gaussian", 0.4), H_GRID)
    assert rows[0].fitted_order == pytest.approx(0.2, abs=0.05)


def test_symbol_order_needs_enough_h_points():
    with pytest.raises(ValueError):
        check_symbol_order(make_amplitude("narrow_bump"), (0.5, 0.25, 0.125))


def test_symbol_order_degenerate_fit():
    zero = make_amplitude("custom", 0.0, evaluator=lambda u, h: np.zeros_like(u))
    with pytest.raises(ValueError, match="degenerate"):
        check_symbol_order(zero, H_GRID)


def test_value_is_1d_only():
    with pytest.raises(ValueError):
        make_amplitude("narrow_bump", dim=2).value((0.0, 0.0), 1e-2)
