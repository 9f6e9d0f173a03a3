"""Quadrature engine: exact oracles, fixed-grid sums, symmetry, refinement behavior."""

import cmath
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import airy

from causticlab import oscint, polys, scaling
from causticlab.amplitudes import bump, make_amplitude
from causticlab.catalog import SingularityType, build_phase
from causticlab.fold import fold_plan
from causticlab.oscint import MAX_PASSES, PANEL_ORDER, IntegralSpec, evaluate
from conftest import line_offsets

A1 = build_phase(SingularityType.parse("A1"))
A2 = build_phase(SingularityType.parse("A2"))
A2_MINUS = build_phase(SingularityType.parse("A2-"))
FIXED = make_amplitude("narrow_bump")  # delta 0: the fixed bump chi(theta)

# frozen from a 10^7-point trapezoid of chi(t) e^{i t^3 / h} at h = 1e-2
AIRY_RAW_H01 = 0.33322337233970273
# 2 pi Ai(0) 3^{-1/3}: the h->0 limit of h^{-1/3} * integral chi e^{i t^3/h}
AIRY_CONST = 1.5466858841559796


def test_fresnel_oracle():
    # integral chi(t) e^{i t^2/h} dt = sqrt(pi h) e^{i pi/4} + O(h^inf), times h^{-1/2}
    h = 1e-3
    res = evaluate(IntegralSpec(A1, FIXED, (), h, rel_tol=1e-8))
    exact = h**-0.5 * math.sqrt(math.pi * h) * np.exp(1j * math.pi / 4)
    assert res.converged
    assert abs(res.value - exact) / abs(exact) < 1e-6


def test_airy_frozen_oracle():
    # I carries the h^{-1/2} prefactor
    h = 1e-2
    res = evaluate(IntegralSpec(A2, FIXED, (0.0,), h, rel_tol=1e-8))
    assert res.converged
    assert res.value.real == pytest.approx(h**-0.5 * AIRY_RAW_H01, rel=1e-9)
    assert abs(res.value.imag) < h**-0.5 * 1e-10
    # live cross-check of the frozen constant with a coarser trapezoid
    g = np.linspace(-2.05, 2.05, 2_000_001)
    oracle = np.trapezoid(bump(g) * np.exp(1j * g**3 / h), g)
    assert oracle.real == pytest.approx(AIRY_RAW_H01, rel=1e-8)
    # |I| tracks the Airy-type constant
    assert res.abs_value * h ** (1.0 / 6.0) == pytest.approx(AIRY_CONST, rel=0.05)


@pytest.mark.parametrize("label", ["A2", "A3", "A3-", "A4", "A5"])
def test_a_type_origin_against_closed_form(label):
    # h^{-1/p} integral chi(s) e^{i c s^p/h} ds = integral e^{i c u^p} du + O(h^inf),
    # which is 2 Gamma(1/p)/p |c|^{-1/p} times cos(pi/2p) (odd p) or e^{+-i pi/2p} (even p);
    # I carries h^{-1/2} besides
    phase = build_phase(SingularityType.parse(label))
    x = (0.0,) * phase.k0
    ((c, (p,)),) = phase.theta_poly(x).terms
    h = 2.0**-10
    res = evaluate(IntegralSpec(phase, FIXED, x, h, rel_tol=1e-10))
    mag = 2.0 * math.gamma(1.0 / p) / p * abs(c) ** (-1.0 / p)
    exact = h**-0.5 * mag * (math.cos(math.pi / (2 * p)) if p % 2
                             else cmath.exp(math.copysign(1.0, c) * 1j * math.pi / (2 * p)))
    assert res.converged
    assert abs(h ** (-1.0 / p) * res.value - exact) <= 1e-11 * abs(exact)


def test_zero_amplitude_is_exactly_zero():
    zero = make_amplitude("custom", 0.0, evaluator=lambda u, h: np.zeros_like(u))
    res = evaluate(IntegralSpec(A2, zero, (0.3,), 1e-2))
    assert res.value == 0.0
    assert res.converged
    # and through a coupled 2D pass
    zero = make_amplitude("custom", 0.0, dim=2, evaluator=lambda u, h: np.zeros_like(u))
    d4 = build_phase(SingularityType.parse("D4-"))
    res = evaluate(IntegralSpec(d4, zero, (0.1, -0.2, 0.05), 2.0**-6))
    assert res.value == 0.0 and res.converged


def test_spec_validation():
    with pytest.raises(ValueError):
        IntegralSpec(A2, FIXED, (0.0,), 1.5)
    with pytest.raises(ValueError):
        IntegralSpec(A2, FIXED, (0.0,), 1e-2, rel_tol=1e-2)
    with pytest.raises(ValueError):
        IntegralSpec(A2, FIXED, (0.0, 0.0), 1e-2)  # wrong x arity
    with pytest.raises(ValueError):
        IntegralSpec(A2, make_amplitude("narrow_bump", dim=2), (0.0,), 1e-2)
    for budget in (0, -5):
        with pytest.raises(ValueError):
            IntegralSpec(A2, FIXED, (0.0,), 1e-2, budget=budget)


def test_conjugation_symmetry_of_sign_variants():
    # flipping f -> -f conjugates the integral, so |I| is unchanged
    h = 1e-3
    plus = evaluate(IntegralSpec(A2, FIXED, (0.0,), h, rel_tol=1e-8))
    minus = evaluate(IntegralSpec(A2_MINUS, FIXED, (0.0,), h, rel_tol=1e-8))
    assert minus.value == pytest.approx(np.conj(plus.value), rel=1e-9)
    assert minus.abs_value == pytest.approx(plus.abs_value, rel=1e-10)


def test_refinement_monotonicity_in_budget():
    # an intentionally unconverged integral: tiny budget, tight tolerance
    spec_small = IntegralSpec(A2, FIXED, (0.0,), 2.0**-12, rel_tol=1e-10,
                              budget=3_000)
    res_small = evaluate(spec_small)
    prev = res_small.est_error
    for budget in (6_000, 12_000, 48_000, 2**22):
        res = evaluate(IntegralSpec(A2, FIXED, (0.0,), 2.0**-12, rel_tol=1e-10,
                                    budget=budget))
        assert res.est_error <= prev * (1 + 1e-12)
        prev = res.est_error
    assert res.converged


def test_unconverged_flag_with_tiny_budget():
    res = evaluate(IntegralSpec(A2, FIXED, (0.0,), 2.0**-12, rel_tol=1e-10,
                                budget=500))
    assert not res.converged
    assert res.stop == "budget"
    assert res.passes == 1 and 0 < res.nodes


def test_counters_and_stop_reasons():
    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-8, rel_tol=1e-8)
    done = evaluate(spec)
    assert done.converged and done.stop == "converged"
    # 1D: every panel of every pass holds PANEL_ORDER nodes
    assert done.passes >= 2
    assert done.nodes % PANEL_ORDER == 0
    # a step amplitude converges too slowly for rel_tol 1e-10: every pass runs
    step = make_amplitude("custom", 0.0, evaluator=lambda u, h: (u > 0.3).astype(float))
    capped = evaluate(IntegralSpec(A2, step, (0.0,), 2.0**-8, rel_tol=1e-10,
                                   budget=2**30))
    assert (capped.converged, capped.stop, capped.passes) == (False, "max_passes",
                                                              MAX_PASSES)
    assert 0.0 < capped.est_error < math.inf


def test_floor_stops_shadow_point_early():
    # on the shadow side |I| is O(h^inf): a relative test cannot be met there,
    # a floor of the origin's size stops it as soon as it is resolved to that scale
    h = 2.0**-8
    shadow = IntegralSpec(A2, FIXED, (0.5,), h, rel_tol=1e-6, budget=2**20)
    origin = evaluate(replace(shadow, x=(0.0,)))
    plain = evaluate(shadow)
    [floored] = oscint._integrate(shadow, floor=origin.abs_value)
    assert not plain.converged
    assert floored.converged and floored.nodes < plain.nodes
    assert floored.est_error <= 1e-6 * origin.abs_value
    assert oscint._integrate(shadow, floor=0.0) == [plain]
    # a floor far above |I| stops at the first pair of passes
    assert oscint._integrate(shadow, floor=3.0)[0].passes == 2


def test_k2_points_take_the_origin_as_floor():
    # 2D points are evaluated one by one, each within rel_tol * max(|I|, |I(spec.x)|);
    # x1 = 3 is on the shadow side, where only that floor lets it converge
    spec = IntegralSpec(build_phase(SingularityType.parse("E6")),
                        make_amplitude("narrow_bump", dim=2), (0.0,) * 5, 2.0**-6)
    xs = [(0.0, -0.2, 0.1, 0.0, 0.0), (3.0, 0.0, 0.0, 0.0, 0.0)]
    res = oscint.evaluate_points(spec, xs)
    assert res == [evaluate(spec)] + [
        oscint._integrate(replace(spec, x=x), floor=res[0].abs_value)[0] for x in xs]
    assert res[2].converged and not evaluate(replace(spec, x=xs[1])).converged


def test_2d_separable_equals_full_path():
    # a tiny cross coefficient forces the generic 2D path; values must agree
    ph = build_phase(SingularityType.parse("E6"))
    amp = make_amplitude("narrow_bump", dim=2)
    h = 2.0**-6
    sep = evaluate(IntegralSpec(ph, amp, (0.0,) * 5, h, rel_tol=1e-8))
    full = evaluate(IntegralSpec(ph, amp, (0.0, 0.0, 0.0, 1e-30, 0.0), h, rel_tol=1e-8))
    assert sep.value == pytest.approx(full.value, rel=1e-10)


def _fixed_grid(panels, order):
    """Nodes and weights of a Gauss-Legendre rule on ``panels`` equal panels of [-2, 2]."""
    gx, gw = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(-2.0, 2.0, panels + 1)
    half, mid = 0.5 * np.diff(edges), 0.5 * (edges[1:] + edges[:-1])
    return (mid[:, None] + half[:, None] * gx).ravel(), (half[:, None] * gw).ravel()


@pytest.mark.parametrize("label", ["A2", "A3", "A3-", "A4", "A5", "A6", "A7", "A8"])
def test_a_series_against_fixed_grid_sum(label):
    # the normal form +-t^{n+1} + x_1 t + ... + x_{n-1} t^{n-1} of A_n, written out
    # here and summed on a fixed grid fine enough to resolve it (doubling its
    # panels moves the sum by under 1e-13): independent of the engine's panels
    n, sign = int(label[1]), -1.0 if label.endswith("-") else 1.0
    x = tuple(0.2 * np.random.default_rng(sum(map(ord, label))).uniform(-1, 1, n - 1))
    h = 2.0**-5
    res = evaluate(IntegralSpec(build_phase(SingularityType.parse(label)), FIXED, x, h,
                                rel_tol=1e-10))
    t, w = _fixed_grid(4000, 48)
    phase = sign * t ** (n + 1) + sum(xj * t**j for j, xj in enumerate(x, 1))
    grid = h**-0.5 * np.sum(w * bump(t) * np.exp(1j * phase / h))
    assert res.converged
    assert abs(res.value - grid) <= 1e-11 * abs(grid)


def _tensor_gauss_legendre(phase, h, panels=120, order=24):
    """h^{-1} sum of chi(t1) chi(t2) e^{i phase(t1, t2)/h} on a uniform panel grid of [-2, 2]^2."""
    t, w = _fixed_grid(panels, order)
    a = w * bump(t)
    total = 0.0 + 0.0j
    for start in range(0, t.size, 256):
        rows = slice(start, start + 256)
        total += a[rows] @ np.exp(1j * phase(t[rows, None], t[None, :]) / h) @ a
    return total / h


@pytest.mark.parametrize("label, x, phase", [
    ("D4-", (0.1, -0.2, 0.05),
     lambda x, p, q: p * p * q - q**3 + x[0] * p + x[1] * q + x[2] * q * q),
    ("D4+", (0.1, -0.2, 0.05),
     lambda x, p, q: p * p * q + q**3 + x[0] * p + x[1] * q + x[2] * q * q),
    ("E7", (0.1, 0.0, -0.1, 0.0, 0.05, 0.2),
     lambda x, p, q: p**3 + p * q**3 + x[0] * p + x[1] * q + x[2] * q * q
     + x[3] * q**3 + x[4] * q**4 + x[5] * p * q),
    ("E6", (0.1, 0.0, 0.0, 0.2, 0.0),
     lambda x, p, q: p**3 + q**4 + x[0] * p + x[1] * q + x[2] * q * q
     + x[3] * p * q + x[4] * p * q * q),
    ("D5", (0.1, -0.2, 0.05, 0.1),
     lambda x, p, q: p * p * q + q**4 + x[0] * p + x[1] * q + x[2] * q * q + x[3] * q**3),
    ("E6-", (0.1, 0.0, -0.1, 0.2, 0.05),
     lambda x, p, q: p**3 - q**4 + x[0] * p + x[1] * q + x[2] * q * q
     + x[3] * p * q + x[4] * p * q * q),
])
def test_coupled_2d_against_brute_tensor_sum(label, x, phase):
    # the full normal form, written out here, summed on a fixed tensor grid
    # fine enough to resolve it: independent of the engine's panels and its
    # split of the phase into per-axis and mixed terms
    h = 2.0**-5
    ph = build_phase(SingularityType.parse(label))
    res = evaluate(IntegralSpec(ph, make_amplitude("narrow_bump", dim=2), x, h, rel_tol=1e-9))
    brute = _tensor_gauss_legendre(lambda p, q: phase(x, p, q), h)
    assert res.converged
    assert abs(res.value - brute) <= 1e-9 * abs(brute)


def test_fold_saturator_modulation_cancels_at_origin():
    # above-threshold family against A2's x t + t^3: at x=0 the
    # amplitude modulation cancels the phase exactly and u(0) is a pure
    # bump integral: u(0) = h^{(d-3)/4} * h^{(1-d)/2} * int chi = 3 h^{-(1+d)/4}, and
    # I(0) = h^{-1/2} u(0)
    d = 0.5
    exp = fold_plan(d)
    h = 2.0**-8
    res = evaluate(IntegralSpec(exp.phase, exp.amplitude, (0.0,), h, rel_tol=1e-8))
    assert res.value.imag == pytest.approx(0.0, abs=h**-0.5 * 1e-8)
    assert res.value.real == pytest.approx(h**-0.5 * 3.0 * h ** (-(1 + d) / 4.0), rel=1e-9)


LABELS_2D = ["D4+", "D4-", "D5", "D6+", "D6-", "D7", "D8+", "D8-", "E6", "E6-", "E7", "E8"]
TWO_PI_LONG = np.longdouble("6.283185307179586476925286766559005768")


def _dense_type3_sum(u1, a, u2, omega):
    """The coupled pass as a dense sum of every u1_i u2_j e^{i a_i omega_j}.

    Each a_i omega_j is formed and reduced mod 2 pi in long double: in double
    precision a phase of 10^5 rad is off by 1e-11 rad, which puts the dense
    sum's own round-off above the NUFFT's error bound.
    """
    a = a.astype(np.longdouble)
    total = 0.0 + 0.0j
    for start in range(0, omega.size, 512):
        cols = slice(start, start + 512)
        phase = np.fmod(np.outer(a, omega[cols].astype(np.longdouble)), TWO_PI_LONG)
        total += complex(u1 @ np.exp(1j * phase.astype(float)) @ u2[cols])
    return total


def test_type3_sum_within_its_closed_form_bound():
    # off-centre a and omega, phases up to 10^5 radians, and a cross term too
    # small to move the result (the 1e-30 cross coefficient case)
    rng = np.random.default_rng(8)
    for n1, n2, x_half, w_half in ((300, 500, 1.0, 40.0), (1500, 2500, 4.0, 2.5e4),
                                   (400, 300, 3.0, 1e-28)):
        a = rng.uniform(-x_half, x_half, n1) + rng.uniform(-2.0, 2.0)
        omega = rng.uniform(-w_half, w_half, n2) + rng.uniform(-50.0, 50.0)
        u1 = rng.normal(size=n1) + 1j * rng.normal(size=n1)
        u2 = rng.normal(size=n2) + 1j * rng.normal(size=n2)
        err = abs(oscint._type3_sum(u1, a, u2, omega) - _dense_type3_sum(u1, a, u2, omega))
        assert err <= 1e-14 * np.abs(u1).sum() * np.abs(u2).sum()


def test_gauss_spread_bits_match_the_complex_product():
    # the spread weighs each part of the values with one real array; the reference
    # forms the complex N x (2 half + 1) product, and the sums agree bit for bit,
    # also where windows wrap past either end of the grid
    rng = np.random.default_rng(5)
    for n, step, tau, half, size in ((400, 0.05, 3e-3, 10, 64), (2000, 0.3, 0.2, 12, 256)):
        x = rng.uniform(-0.6, 0.6, n) * step * size
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
        m0 = np.rint(x / step)
        k = np.arange(-half, half + 1)
        w = np.exp(((x - m0 * step)[:, None] - k * step) ** 2 / (-4.0 * tau)) * values[:, None]
        idx = ((m0.astype(np.int64)[:, None] + k) % size).ravel()
        want = np.bincount(idx, w.real.ravel(), size) + 1j * np.bincount(idx, w.imag.ravel(), size)
        got = oscint._gauss_spread(x, values, step, tau, half, size)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _type3_inputs(n, seed):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=n) + 1j * rng.normal(size=n), rng.uniform(-1.0, 1.0, n),
            rng.normal(size=n) + 1j * rng.normal(size=n), rng.uniform(-60.0, 40.0, n))


def test_type3_sum_is_the_same_in_small_slabs(monkeypatch):
    # the spreads add up slabs of SLAB_NODES points: 2000 points in one slab or in
    # eight (the last one short) differ by round-off alone
    u1, a, u2, omega = _type3_inputs(2000, 21)
    whole = oscint._type3_sum(u1, a, u2, omega)
    monkeypatch.setattr(oscint, "SLAB_NODES", 256)
    sliced = oscint._type3_sum(u1, a, u2, omega)
    assert sliced != whole  # summed in another order
    assert abs(sliced - whole) <= 1e-15 * np.abs(u1).sum() * np.abs(u2).sum()


def test_type3_sum_memory_is_bounded_by_its_slabs():
    # 4 SLAB_NODES points per side: one unsliced spread's (N, 2 half + 1) weights,
    # indices and products alone would pass 128 MiB
    args = _type3_inputs(4 * oscint.SLAB_NODES, 22)
    tracemalloc.start()
    try:
        oscint._type3_sum(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * 2**20


@pytest.mark.parametrize("label", LABELS_2D)
def test_nufft_pass_against_dense_oracle(label, monkeypatch):
    # the whole refinement loop twice: the engine, and the engine with the
    # dense sum in place of the NUFFT; same panels, passes and stop reason
    ph = build_phase(SingularityType.parse(label))
    amp = make_amplitude("narrow_bump", dim=2)
    rng = np.random.default_rng(sum(map(ord, label)))
    for x in ((0.0,) * ph.k0, tuple(rng.uniform(-0.3, 0.3, ph.k0))):
        spec = IntegralSpec(ph, amp, x, 2.0**-6, rel_tol=1e-6)
        fast = evaluate(spec)
        with monkeypatch.context() as m:
            m.setattr(oscint, "_type3_sum", _dense_type3_sum)
            dense = evaluate(spec)
        assert abs(fast.value - dense.value) <= 1e-10 * abs(dense.value), (label, x)
        assert (fast.nodes, fast.passes, fast.stop) == (dense.nodes, dense.passes, dense.stop)


@pytest.mark.parametrize("label", ["E7", "D4+"])
def test_first_pass_at_fine_h_against_dense_sum(label, monkeypatch):
    calls = []
    monkeypatch.setattr(oscint, "_type3_sum",
                        lambda *args: calls.append(args) or 0.0j)
    ph = build_phase(SingularityType.parse(label))
    res = evaluate(IntegralSpec(ph, make_amplitude("narrow_bump", dim=2), (0.0,) * ph.k0,
                                2.0**-8, budget=1))
    assert res.passes == 1 and len(calls) == 1
    monkeypatch.undo()
    fast, dense = oscint._type3_sum(*calls[0]), _dense_type3_sum(*calls[0])
    assert abs(fast - dense) <= 1e-10 * abs(dense)


BUMP_2D = make_amplitude("narrow_bump", dim=2)


def _as_custom(amp):
    """``amp`` wrapped as a custom amplitude: the same values, always on the full box."""
    return make_amplitude("custom", center=amp.center[0], dim=amp.dim,
                          evaluator=lambda u, h: amp.axis_slow(u, h))


def _origin_2d(label, h, amp=BUMP_2D, **kwargs):
    ph = build_phase(SingularityType.parse(label))
    return evaluate(IntegralSpec(ph, amp, (0.0,) * ph.k0, h, **kwargs))


@pytest.mark.parametrize("label, nodes, passes", [("E7", 5952, 2), ("D4-", 3744, 2)])
def test_quadrature_rule_pinned(label, nodes, passes):
    # the panel placement and pass count of the dense engine this one replaced, on
    # the full box: a custom amplitude is never halved
    res = _origin_2d(label, 2.0**-6, _as_custom(BUMP_2D))
    assert (res.nodes, res.passes) == (nodes, passes)


@pytest.mark.parametrize("label, e, nodes", [("D4+", 4, 768), ("E7", 6, 4224), ("D4-", 6, 1968)])
def test_half_rule_counts_pinned(label, e, nodes):
    # the same panels with each halved axis cut to its upper (n + 1) / 2: D4+- halve
    # both axes, E7 theta_1 alone (the full box's counts are 1344, 5952 and 3744)
    res = _origin_2d(label, 2.0**-e)
    assert (res.nodes, res.passes) == (nodes, 2)


def test_coupled_and_product_passes_count_alike():
    # D4+ couples its axes (a NUFFT pass), E6 does not; both place 5 x 7 and then
    # 7 x 9 panels at 2^-4, so both count PANEL_ORDER (5 + 7 + 7 + 9) axis evaluations
    # on the full box, and PANEL_ORDER (3 + 4 + 4 + 5) with both axes halved
    for amp, nodes in ((_as_custom(BUMP_2D), 1344), (BUMP_2D, 768)):
        pair = [_origin_2d(label, 2.0**-4, amp) for label in ("D4+", "E6")]
        assert [(r.nodes, r.passes) for r in pair] == [(nodes, 2)] * 2


def test_budget_counts_axis_evaluations():
    # D4+ at 2^-4 spends PANEL_ORDER (5 + 7) = 576 axis evaluations on pass 1, 768 on
    # pass 2 of the full box
    custom = _as_custom(BUMP_2D)
    done = _origin_2d("D4+", 2.0**-4, custom, budget=1344)
    short = _origin_2d("D4+", 2.0**-4, custom, budget=1343)
    assert (done.converged, done.passes, done.nodes) == (True, 2, 1344)
    assert (short.converged, short.passes, short.nodes, short.stop) == (False, 1, 576, "budget")


@pytest.mark.parametrize("label, x, halved, real", [
    ("D4-", None, 2, True),  # theta_1 even, theta_2 odd: 4 Re V
    ("D4+", None, 2, True),
    ("D4+", (0.0, 0.15, 0.0), 2, True),  # x2 theta_2 is odd too
    ("D5", None, 1, False),  # theta_2^4 against theta_1^2 theta_2: theta_1 alone, even
    ("E6", None, 2, False),  # a product pass: 2 Re S1 times the even axis's complex 2 S2
    ("E7", None, 1, True),  # theta_1 alone, odd
    ("E8", None, 2, True),  # both odd: 2 Re S1 times 2 Re S2
])
def test_mirrored_half_axes_agree_with_the_full_box_2d(label, x, halved, real):
    ph = build_phase(SingularityType.parse(label))
    spec = IntegralSpec(ph, BUMP_2D, x or (0.0,) * ph.k0, 2.0**-6, rel_tol=1e-10)
    half = evaluate(spec)
    full = evaluate(replace(spec, amplitude=_as_custom(BUMP_2D)))
    assert half.converged and full.converged
    assert abs(half.value - full.value) <= (half.est_error + full.est_error
                                            + 1e-12 * abs(full.value))
    assert half.nodes <= (0.55 if halved == 2 else 0.95) * full.nodes
    assert (half.value.imag == 0.0) == real


@pytest.mark.parametrize("label", ["D7", "D8-", "D8+"])
def test_finest_default_2d_h_converges_under_the_default_budget(label):
    res = _origin_2d(label, 2.0**-10)
    assert (res.converged, res.passes) == (True, 2)
    assert res.nodes <= oscint.DEFAULT_BUDGET[2]


FOLD_LINE = (0.5 * 2.0 ** (-16 / 3), 4)  # the fold's (dx, count) at h = 2^-8


def _line(spec, dx, count):
    """I at spec.x + k dx for k in ``line_offsets(count)`` order, on one node set per pass."""
    return oscint.evaluate_points(
        spec, [(spec.x[0] + k * dx,) for k in line_offsets(count)[1:]])


@pytest.mark.parametrize("spec", [
    IntegralSpec(A2, FIXED, (-0.4,), 1e-3, rel_tol=1e-8),
    IntegralSpec(A2, FIXED, (0.0,), 2.0**-12, rel_tol=1e-10, budget=3_000),
    IntegralSpec(A2, FIXED, (0.5,), 2.0**-8, budget=2**16),
    IntegralSpec(build_phase(SingularityType.parse("E6")), make_amplitude("narrow_bump", dim=2),
                 (0.0,) * 5, 2.0**-6),
])
def test_line_of_one_point_is_evaluate(spec):
    assert oscint.evaluate_points(spec, []) == [evaluate(spec)]


@pytest.mark.parametrize("e", [8, 12, 14, 16])
def test_line_offsets_against_airy_closed_form(e):
    # integral e^{i(x t + t^3)/h} dt = 2 pi a Ai(x a / h), a = (h/3)^{1/3} (DLMF 9.5.4);
    # the bump's edge adds O(h^inf), and I carries h^{-1/2}
    h = 2.0**-e
    dx = 0.5 * h ** (2.0 / 3.0)
    rel_tol = 1e-7
    line = _line(IntegralSpec(A2, FIXED, (0.0,), h, rel_tol=rel_tol), dx, 4)
    a = (h / 3.0) ** (1.0 / 3.0)
    for k, res in zip(line_offsets(4), line):
        exact = h**-0.5 * 2.0 * math.pi * a * float(airy(k * dx * a / h)[0])
        assert res.converged
        assert abs(res.value - exact) <= rel_tol * abs(exact), k


A3 = build_phase(SingularityType.parse("A3"))


@pytest.mark.parametrize("spec, xs", [
    (IntegralSpec(A2, FIXED, (0.0,), 2.0**-10, rel_tol=1e-10), []),  # t^3: odd
    (IntegralSpec(A3, FIXED, (0.0, 0.0), 2.0**-10, rel_tol=1e-10), []),  # t^4: even
    # the fold's delta = 0 offsets x = k dx: t^3 and the offsets k dx t, all odd
    (IntegralSpec(A2, FIXED, (0.0,), 2.0**-12, rel_tol=1e-7),
     [(k * 0.5 * 2.0 ** (-8),) for k in line_offsets(4)[1:]]),
])
def test_mirrored_half_axis_agrees_with_the_full_box(spec, xs):
    # an even amplitude centred at 0 and a phase of one parity: the panels cover [0, R]
    # alone, at half the nodes; the custom wrapper of the same bump keeps [-R, R]
    half = oscint.evaluate_points(spec, xs)
    full = oscint.evaluate_points(replace(spec, amplitude=_as_custom(spec.amplitude)), xs)
    odd = spec.phase is A2
    for a, b in zip(half, full, strict=True):
        assert a.converged and b.converged
        assert abs(a.value - b.value) <= a.est_error + b.est_error + 1e-12 * abs(b.value)
        assert a.nodes <= 0.55 * b.nodes
        assert (a.value.imag == 0.0) == odd  # 2 Re S: exactly real


@pytest.mark.parametrize("e", [14, 16])
def test_first_pass_at_the_a2_origin_against_closed_form(e):
    # h^{-1/3} integral chi(t) e^{i t^3/h} dt = (2/3) Gamma(1/3) cos(pi/6) + O(h^inf), and
    # I carries h^{-1/2}: a panel lies across the flat point t = 0, so one pass resolves
    # it on either rule
    h = 2.0**-e
    exact = h ** (1.0 / 3.0 - 0.5) * (2.0 / 3.0) * math.gamma(1.0 / 3.0) * math.cos(math.pi / 6.0)
    for amp, tol in ((FIXED, 1e-10), (_as_custom(FIXED), 1e-5)):  # half axis, full box
        res = evaluate(IntegralSpec(A2, amp, (0.0,), h, budget=1))
        assert res.passes == 1
        assert abs(res.value - exact) <= tol * exact


@settings(max_examples=200, deadline=None)
@given(lo=st.floats(-8.0, 8.0), width=st.floats(1e-6, 16.0), n=st.integers(1, 600))
def test_grid_is_linspace_bit_for_bit(lo, width, n):
    # the profile grid and the panel edges' targets: np.linspace's values, without its overhead
    assert oscint._grid(lo, lo + width, n).tobytes() == np.linspace(lo, lo + width, n + 1).tobytes()
    assert oscint._grid(0.0, width, n).tobytes() == np.linspace(0.0, width, n + 1).tobytes()


@pytest.mark.parametrize("min_panels", [2, 3, 8, 9])
@pytest.mark.parametrize("power", [0, 2, 3])
def test_axis_panels_put_a_panel_across_the_middle(power, min_panels):
    # a symmetric frequency profile |t|^power, as of an A-type phase at x = 0
    tgrid = np.linspace(-1.5, 1.5, oscint.PROFILE_SAMPLES)
    for h in (2.0**-4, 2.0**-12):
        mid, half = oscint._axis_panels(np.abs(tgrid) ** power, tgrid, h, oscint.NODES_PER_PERIOD,
                                        oscint.MIN_AXIS_NODES, min_panels)
        edges = np.append(mid - half, mid[-1] + half[-1])
        assert mid.size % 2 == 1 and mid.size >= min_panels
        assert np.min(np.abs(edges)) > 1e-12


@pytest.mark.parametrize("spec, xs", [
    (IntegralSpec(A2, make_amplitude("narrow_bump", center=0.5), (0.0,), 2.0**-10), []),
    # shell targets with x1, x2 != 0 add odd and even terms to the even t^4
    (IntegralSpec(A3, FIXED, (0.0, 0.0), 2.0**-9), [(0.01, 0.02), (-0.01, -0.02)]),
    # x1 theta_1 mixes theta_1's parities and, having no theta_2, theta_2's
    (IntegralSpec(build_phase(SingularityType.parse("D4-")), BUMP_2D, (0.1, 0.0, 0.0), 2.0**-6),
     [(-0.1, 0.0, 0.0)]),
    (IntegralSpec(build_phase(SingularityType.parse("D4+")),
                  make_amplitude("narrow_bump", center=0.5, dim=2), (0.0,) * 3, 2.0**-6), []),
    (IntegralSpec(build_phase(SingularityType.parse("E6")),
                  make_amplitude("narrow_bump", center=0.5, dim=2), (0.0,) * 5, 2.0**-6), []),
])
def test_off_centre_or_mixed_parity_keeps_the_full_box(spec, xs):
    res = oscint.evaluate_points(spec, xs)
    full = oscint.evaluate_points(replace(spec, amplitude=_as_custom(spec.amplitude)), xs)
    assert [r.nodes for r in res] == [r.nodes for r in full]
    assert res == full


@pytest.mark.parametrize("amp, h", [
    (FIXED, 2.0**-10), (make_amplitude("narrow_bump", 0.2), 2.0**-12),
    (make_amplitude("fold_saturator_above", 0.7), 2.0**-9)])
def test_line_offsets_agree_with_their_own_evaluate(amp, h):
    rel_tol, dx = 1e-7, 0.5 * h ** (2.0 / 3.0)
    spec = IntegralSpec(A2, amp, (0.0,), h, rel_tol=rel_tol)
    line = _line(spec, dx, 4)
    for k, res in zip(line_offsets(4), line):
        alone = evaluate(replace(spec, x=(k * dx,)))
        assert abs(res.value - alone.value) <= rel_tol * max(alone.abs_value, line[0].abs_value)


def test_line_panels_resolve_every_offset_as_finely_as_alone():
    # the shared profile bounds every offset's |phi'|: a pass spends at least the
    # nodes of the same pass of the costliest offset evaluated alone
    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-10, budget=1)
    dx, count = 0.1, 4
    line = _line(spec, dx, count)
    alone = [evaluate(replace(spec, x=(k * dx,))) for k in line_offsets(count)]
    assert line[0].passes == 1 and line[0].nodes >= max(r.nodes for r in alone)
    assert line[0].nodes > alone[0].nodes


def _scripted_passes(monkeypatch, values):
    """Make each pass of a count = 1 line return the next (origin, offset) pair; the
    offset at -dx repeats the one at +dx.  Returns the list the pass costs go to."""
    costs, script = [], iter(values)

    def scripted(parts, mixed, h, amp_fns, axes, chains, parities):
        costs.append(PANEL_ORDER * axes[0][0].size)
        origin, offset = next(script)
        return [origin, offset, offset]

    monkeypatch.setattr(oscint, "_pass_sums", scripted)
    return costs


def test_starved_origin_gives_offsets_floor_zero(monkeypatch):
    # the offset changes by 1e-8 a pass: within 1e-6 of the origin's |I| ~ 1 but not
    # of its own 1e-3; the origin converges at pass 4 when the budget lets it
    origin = [1.0, 1.1, 1.05, 1.025, 1.025 + 1e-7]
    offset = [1e-3 + 1e-8 * s for s in range(len(origin))]
    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-8, rel_tol=1e-6)
    costs = _scripted_passes(monkeypatch, zip(origin, offset))
    done = _line(spec, 0.01, 1)
    assert [(r.converged, r.passes) for r in done] == [(True, 5), (True, 2), (True, 2)]
    assert done[1].nodes == sum(costs[:2]) and done[0].nodes == sum(costs)

    _scripted_passes(monkeypatch, zip(origin, offset))
    starved = _line(replace(spec, budget=sum(costs[:3])), 0.01, 1)
    assert [(r.converged, r.passes, r.stop) for r in starved] == [(False, 3, "budget")] * 3
    assert starved[1].est_error == pytest.approx(2.0**4 * 1e-8)  # times h^{-1/2}


def _met_by_whole_history(history, rel_tol):
    """Each point's met pass as the whole history decides it (``_first_met`` per point):
    x_0 against its own |I|, every target against |I(x_0)| where x_0 met its rule, or 0."""
    origin = oscint._first_met([v[0] for v in history], rel_tol, 1e-300)
    floor = max(abs(history[origin][0]) if origin is not None else 0.0, 1e-300)
    return [origin] + [oscint._first_met([v[j] for v in history], rel_tol, floor)
                       for j in range(1, len(history[0]))]


@st.composite
def pass_histories(draw):
    """MAX_PASSES passes of 2 to 5 points, each changing by a drawn relative step a pass."""
    values = draw(st.lists(st.sampled_from([1.0, -2e-3, 1e-6, 3.0 + 4.0j]), min_size=2,
                           max_size=5))
    history = []
    for _ in range(MAX_PASSES):
        values = [v * (1.0 + draw(st.sampled_from([0.0, 1e-9, -1e-7, 1e-5, 0.3])))
                  for v in values]
        history.append(values)
    return history


NEVER = 0.3  # a relative step a pass that meets no rel_tol below


@settings(max_examples=80, deadline=None)
@given(history=pass_histories(), rel_tol=st.sampled_from([1e-8, 1e-6, 1e-4]),
       budget=st.one_of(st.none(), st.integers(1, 200_000)))
# x_0 never meets its rule, and each target meets its own at pass 1
@example(history=[[(1.0 + NEVER) ** s, 1e-3, 1e-3] for s in range(MAX_PASSES)],
         rel_tol=1e-6, budget=None)
# a target 1e-6 below x_0 moves by 1e-11 a pass: within rel_tol of |I(x_0)| from pass 1,
# once x_0 meets its rule at pass 3, though never within rel_tol of its own |I|
@example(history=[[(1.0 + NEVER) ** min(s, 2), 1e-6 * (1.0 + 1e-5 * s)]
                  for s in range(MAX_PASSES)], rel_tol=1e-6, budget=None)
# the budget stops that line after its first pass; and after the third (1008 + 1392 +
# 1968 nodes) one where x_0 meets its rule at pass 2, a target that never does
@example(history=[[(1.0 + NEVER) ** min(s, 2), 1e-6 * (1.0 + 1e-5 * s)]
                  for s in range(MAX_PASSES)], rel_tol=1e-6, budget=1)
@example(history=[[(1.0 + NEVER) ** min(s, 1), 1e-6 * (1.0 + 1e-5 * s), (1.0 + NEVER) ** s]
                  for s in range(MAX_PASSES)], rel_tol=1e-6, budget=4_368)
def test_incremental_met_passes_match_the_whole_history(history, rel_tol, budget):
    # the loop judges each unmet point on its last two passes alone, and every target
    # again when x_0 meets its rule; each point must stop at the pass the whole history
    # gives it, however the budget cuts that history
    costs, rows = [], iter(history)

    def scripted(parts, mixed, h, amp_fns, axes, chains, parities):
        costs.append(PANEL_ORDER * axes[0][0].size)
        return next(rows)

    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-8, rel_tol=rel_tol, budget=budget)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oscint, "_pass_sums", scripted)
        res = oscint.evaluate_points(spec, [(0.01 * j,) for j in range(1, len(history[0]))])
    run = history[:len(costs)]
    met = _met_by_whole_history(run, rel_tol)
    assert [r.passes for r in res] == [len(run) if m is None else m + 1 for m in met]
    assert [r.converged for r in res] == [m is not None for m in met]
    stop = "max_passes" if len(run) == MAX_PASSES else "budget"
    assert [r.stop for r in res] == [stop if m is None else "converged" for m in met]


def test_window_builds_its_polynomials_once_per_call():
    # no polynomial algebra is left in the pass loop: a window evaluation that takes 4
    # passes merges as many term lists (one per ThetaPoly built) as one that takes 2
    plan, h = fold_plan(0.2), 2.0**-8
    points = scaling._candidate_points(plan, h)
    merges, merge = {}, polys._merge
    for rel_tol in (1e-8, 1e-10):
        calls = []

        def counted(terms):
            calls.append(terms)
            return merge(terms)

        spec = IntegralSpec(plan.phase, plan.amplitude, points[0][1], h, rel_tol=rel_tol)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(polys, "_merge", counted)
            mp.setattr(oscint, "_merge", counted)
            res = oscint.evaluate_points(spec, [x for _, x, _ in points[1:]])
        merges[max(r.passes for r in res)] = len(calls)
    assert list(merges) == [2, 4]
    assert merges[2] == merges[4] > 0


def test_line_counters_follow_each_points_passes():
    # the delta = 0 bump's x = 0 line meets its tolerance at pass 2 at every point, so
    # the points stop apart on the narrower delta = 1/2 bump at a tighter tolerance
    line = _line(IntegralSpec(A2, make_amplitude("narrow_bump", 0.5), (-0.2,), 2.0**-12,
                              rel_tol=1e-9), 0.2, 4)
    assert len({r.passes for r in line}) > 1  # the points stop at different passes
    by_passes = {}
    for r in line:
        assert r.converged and r.nodes % PANEL_ORDER == 0
        assert by_passes.setdefault(r.passes, r.nodes) == r.nodes
    nodes = [by_passes[p] for p in sorted(by_passes)]
    assert nodes == sorted(set(nodes))  # more passes, more nodes


def test_line_sums_do_not_depend_on_the_slab_size(monkeypatch):
    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-10, rel_tol=1e-8)
    dx, count = FOLD_LINE
    whole = _line(spec, dx, count)
    monkeypatch.setattr(oscint, "SLAB_NODES", 3 * PANEL_ORDER)
    slabs = _line(spec, dx, count)
    for a, b in zip(whole, slabs):
        assert (a.nodes, a.passes) == (b.nodes, b.passes)
        assert abs(a.value - b.value) <= 1e-13 * a.abs_value


def test_points_duplicates_and_mirrors_each_get_their_own_result():
    # repeated targets, a target at spec.x and +-x pairs (one z by cos/sin, the other
    # its conjugate) each get their own result, within the scan's tolerance of evaluate
    rel_tol = 1e-8
    spec = IntegralSpec(A2, FIXED, (0.0,), 2.0**-10, rel_tol=rel_tol)
    xs = [(0.05,), (0.05,), (-0.05,), (-0.05,), (0.05,), (0.1,), (0.0,), (-0.1,)]
    res = oscint.evaluate_points(spec, xs)
    assert len(res) == 1 + len(xs)
    for x, r in zip(xs, res[1:]):
        assert r.converged
        alone = evaluate(replace(spec, x=x))
        assert abs(r.value - alone.value) <= rel_tol * max(alone.abs_value, res[0].abs_value), x
    for i, j in ((1, 2), (1, 5), (3, 4)):  # the same x, by cos/sin or as a conjugate
        assert abs(res[i].value - res[j].value) <= 1e-13 * res[0].abs_value


@settings(max_examples=12, deadline=None)
@given(e=st.floats(6.0, 13.0), ys=st.lists(st.floats(0.0, 2.5), min_size=1, max_size=5))
def test_points_against_airy_closed_form(e, ys):
    # integral chi(t) e^{i(x t + t^3)/h} dt = 2 pi a Ai(x a / h), a = (h/3)^{1/3} (DLMF 9.5),
    # up to O(h^inf) for x <= 0, where the stationary points sit on the bump's plateau,
    # and I carries h^{-1/2}; each x comes with its mirror -x, as on a shell
    h, rel_tol = 2.0**-e, 1e-7
    xs = [(sign * y * h ** (2.0 / 3.0),) for y in ys for sign in (-1.0, 1.0)]
    res = oscint.evaluate_points(IntegralSpec(A2, FIXED, (0.0,), h, rel_tol=rel_tol), xs)
    a = (h / 3.0) ** (1.0 / 3.0)
    for (x,), r in zip([(0.0,)] + xs, res):
        assert r.converged
        if x <= 0.0:
            exact = h**-0.5 * 2.0 * math.pi * a * float(airy(x * a / h)[0])
            assert abs(r.value - exact) <= rel_tol * max(abs(exact), res[0].abs_value), x


@pytest.mark.parametrize("label", ["A3", "A4"])
def test_shell_points_within_the_scan_tolerance_of_evaluate(label):
    phase = build_phase(SingularityType.parse(label))
    plan = scaling.ScanPlan(phase, FIXED, scaling.geometric_grid(2.0**-5, 2.0**-9, 5),
                            x_strategy="omega_shells")
    h = 2.0**-9
    points = scaling._candidate_points(plan, h)
    origin = IntegralSpec(phase, FIXED, points[0][1], h, rel_tol=plan.rel_tol)
    res = oscint.evaluate_points(origin, [x for _, x, _ in points[1:]])
    assert len(res) == len(points)
    for (_, x, _), r in zip(points, res):
        [alone] = oscint._integrate(replace(origin, x=x, rel_tol=1e-10), floor=res[0].abs_value)
        assert r.converged and alone.converged
        assert abs(r.value - alone.value) <= \
            plan.rel_tol * max(alone.abs_value, res[0].abs_value), x


def _line_sums_by_products(part, amp_fn, panels, h, step, count):
    """The fold line's kernel as it stood with (step, count) arguments: sum_i u_i z_i^k
    for k in ``line_offsets(count)`` order, z = e^{i step/h} and its powers by products."""
    mid, half = panels
    sums = np.zeros(2 * count + 1, dtype=complex)
    per_slab = max(1, oscint.SLAB_NODES // PANEL_ORDER)
    for lo in range(0, mid.size, per_slab):
        nodes, weights = oscint._panel_nodes(mid[lo:lo + per_slab], half[lo:lo + per_slab])
        u = oscint._weighted_factor(part, amp_fn, nodes, weights, h)
        sums[0] += u.sum()
        z = oscint._expi(step(nodes) / h)
        up, down, z_conj = u, u.copy(), z.conj()
        for k in range(1, count + 1):
            up *= z
            down *= z_conj
            sums[2 * k - 1] += up.sum()
            sums[2 * k] += down.sum()
    return sums


@settings(max_examples=15, deadline=None)
@given(e=st.floats(8.0, 14.0), count=st.integers(1, 4), delta=st.sampled_from([0.0, 0.2, 0.7]),
       slab=st.sampled_from([3 * PANEL_ORDER, oscint.SLAB_NODES]))
def test_fold_offsets_keep_the_line_bit_for_bit(e, count, delta, slab):
    # the fold's offsets k dx through evaluate_points: the panels follow bound(phi') +
    # count |dx| bound(f_1'), and every pass's sums are the line kernel's, bit for bit
    h, exp = 2.0**-e, fold_plan(delta)
    dx = 0.5 * h ** (2.0 / 3.0)
    spec = IntegralSpec(exp.phase, exp.amplitude, (0.0,), h, rel_tol=1e-7)
    phi = exp.phase.theta_poly((0.0,))
    if exp.amplitude.modulation_poly() is not None:
        phi = phi + exp.amplitude.modulation_poly()
    step = exp.phase.fj_monomials[0].scale(dx)
    checked = []

    def panels_from_the_line_profile(gprofile, tgrid, *args):
        box = [(tgrid[0], tgrid[-1])]
        line = (phi.partial(0).abs_bound_profile(0, box, tgrid)
                + count * step.partial(0).abs_bound_profile(0, box, tgrid))
        assert gprofile.tobytes() == line.tobytes()
        return axis_panels(gprofile, tgrid, *args)

    def sums_as_the_line_kernel(part, amp_fn, panels, h, chains):
        sums = axis_sums(part, amp_fn, panels, h, chains)
        assert sums.tobytes() == _line_sums_by_products(part, amp_fn, panels, h, step,
                                                        count).tobytes()
        checked.append(len(sums))
        return sums

    axis_panels, axis_sums = oscint._axis_panels, oscint._axis_sums
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oscint, "SLAB_NODES", slab)
        mp.setattr(oscint, "_axis_panels", panels_from_the_line_profile)
        mp.setattr(oscint, "_axis_sums", sums_as_the_line_kernel)
        res = oscint.evaluate_points(spec, [(k * dx,) for k in line_offsets(count)[1:]])
    assert len(res) == 2 * count + 1
    assert checked == [2 * count + 1] * max(r.passes for r in res)
