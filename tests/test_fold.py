"""Fold regime: sharp exponents, saturating families, Plancherel, lemma suite."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from causticlab import fold
from causticlab.amplitudes import make_amplitude
from causticlab.fold import (FoldCurve, FoldExperiment, FoldRun, _x_offsets, fold_curve,
                             l2_from_coefficients, lemma_62_suite, m_alpha, run_fold,
                             sharp_exponent, two_segment_breakpoint, weighted_cauchy)
from causticlab.oscint import IntegralSpec, evaluate, evaluate_points, line_offsets
from causticlab.scaling import ExponentFit, geometric_grid

QUICK_GRID = geometric_grid(2.0**-8, 2.0**-16, 7)
QUICK_REL_TOL = 1e-7  # the precision C09 runs the fold at


def test_sharp_exponent_values():
    assert sharp_exponent(Fraction(0)) == Fraction(1, 6)
    assert sharp_exponent(Fraction(1, 3)) == Fraction(1, 3)
    assert sharp_exponent(Fraction(1)) == Fraction(1, 2)
    assert sharp_exponent(0.2) == pytest.approx((1 + 0.6) / 6)
    assert sharp_exponent(0.5) == pytest.approx(0.375)
    # continuity at the regime change
    assert sharp_exponent(1 / 3 - 1e-9) == pytest.approx(sharp_exponent(1 / 3 + 1e-9),
                                                         abs=1e-8)
    with pytest.raises(ValueError):
        sharp_exponent(1.2)
    # one formula for floats and Fractions: the float 1/3 lies below 1/3, the next one above
    above = math.nextafter(1 / 3, 1)
    assert sharp_exponent(1 / 3) == (1 + 3 * (1 / 3)) / 6
    assert sharp_exponent(above) == (1 + above) / 4
    assert isinstance(sharp_exponent(0.2), float) and sharp_exponent(1) == Fraction(1, 2)


def test_experiment_side_follows_delta():
    assert [FoldExperiment(d).side for d in (0.0, 0.1, 1.0 / 3.0, 0.34, 0.5, 1.0)] == \
        ["below"] * 3 + ["above"] * 3
    assert FoldExperiment(0.2).amplitude.kind == "narrow_bump"
    assert FoldExperiment(0.5).amplitude.kind == "fold_saturator_above"


def test_l2_scaling_below():
    # ||u||_2 = (2 pi h)^{1/2} h^{d/2} ||chi||_2
    exp = FoldExperiment(0.25)
    vals = [l2_from_coefficients(exp, h) / (math.sqrt(2 * math.pi * h) * h**0.125)
            for h in (1e-2, 1e-3, 1e-4)]
    assert np.ptp(vals) / vals[0] < 1e-6
    assert vals[0] == pytest.approx(1.6767261271736364, rel=1e-5)  # ||chi||_2


def test_l2_scaling_above_is_constant():
    exp = FoldExperiment(0.5)
    vals = [l2_from_coefficients(exp, h) for h in (1e-2, 1e-3, 1e-4)]
    assert np.ptp(vals) / vals[0] < 1e-6
    assert vals[0] == pytest.approx(math.sqrt(2 * math.pi) * 1.6767261271736364,
                                    rel=1e-5)


def test_l2_zero_amplitude():
    exp = FoldExperiment(0.25)
    assert exp.amplitude.l2_theta(1e-3) > 0  # sanity: the family itself is nonzero
    # the norm is the bump kinds' closed form; a zero (custom) or gaussian amplitude has none
    zero = make_amplitude("custom", 0.0, evaluator=lambda u, h: np.zeros_like(u))
    for amp in (zero, make_amplitude("gaussian", 0.4)):
        with pytest.raises(ValueError, match="closed form"):
            amp.l2_theta(1e-3)


def test_plancherel_cross_check_x_side():
    # x-side trapezoid of |u|^2 on x = 0.005 k, |k| <= 1600, against the coefficient
    # side; the grid is one line of offsets, and a few points are evaluated alone too
    dx, count = 0.005, 1600
    order = np.argsort(line_offsets(count))
    xs = dx * np.arange(-count, count + 1)
    for d, h in ((0.5, 2.0**-6), (0.3, 2.0**-6)):
        exp = FoldExperiment(d)
        spec = IntegralSpec(exp.phase, exp.amplitude, (0.0,), h, rel_tol=1e-7,
                            includes_prefactor=False)
        results = evaluate_points(spec, [(k * dx,) for k in line_offsets(count)[1:]])
        line = [results[i] for i in order]  # by x
        assert all(r.converged for r in line)
        peak = max(r.abs_value for r in line)
        for k in (-1600, -377, 0, 21, 900):
            alone = evaluate(replace(spec, x=(k * dx,)))
            assert abs(line[k + count].value - alone.value) <= 1e-7 * peak, (d, k)
        direct = math.sqrt(np.trapezoid([r.abs_value**2 for r in line], xs))
        assert direct == pytest.approx(l2_from_coefficients(exp, h), rel=1e-6), d


def test_run_fold_below_slope():
    run = run_fold(FoldExperiment(0.2, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    assert run.fit.verdict == "pass"
    assert run.fit.slope == pytest.approx((1 + 3 * 0.2) / 6, abs=0.04)


def test_run_fold_above_slope_and_origin_saturation():
    run = run_fold(FoldExperiment(0.5, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    assert run.fit.slope == pytest.approx(0.375, abs=0.04)
    # u(0) alone achieves the h^{-(1+d)/4} growth: sup equals the origin value
    exp = FoldExperiment(0.5, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    for h in QUICK_GRID[:2]:
        origin = evaluate(IntegralSpec(exp.phase, exp.amplitude, (0.0,), h,
                                       rel_tol=1e-7, includes_prefactor=False))
        row = next(r for r in run.rows if r.h == h)
        assert origin.abs_value == pytest.approx(row.sup_abs, rel=1e-9)


def test_fold_offsets_converge_against_the_origin():
    # every offset stops once its pass-to-pass change is within rel_tol of
    # max(|I(x; h)|, |I(0; h)|), as a scan's shells do.  The offsets share one
    # node set per pass, so each sup is compared with the sup of offsets each
    # evaluated alone to rel_tol of its own size, within rel_tol of the sup
    exp = FoldExperiment(1.0, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    run = run_fold(exp)
    per_h = len(_x_offsets(QUICK_GRID[0]))
    assert run.cost["evaluations"] == per_h * len(QUICK_GRID)
    own, on_floor = [], 0
    for i, (h, row) in enumerate(zip(QUICK_GRID, run.rows)):
        line = run.evaluations[i * per_h:(i + 1) * per_h]
        floor = line[0].abs_value if line[0].converged else 0.0
        for res in line:
            assert res.converged
            assert res.est_error <= exp.rel_tol * max(res.abs_value, floor)
            on_floor += res.est_error > exp.rel_tol * res.abs_value
        alone = [evaluate(IntegralSpec(exp.phase, exp.amplitude, (x,), h,
                                       rel_tol=exp.rel_tol, includes_prefactor=False))
                 for x in _x_offsets(h)]
        assert abs(row.sup_abs - max(r.abs_value for r in alone)) <= exp.rel_tol * row.sup_abs
        own += alone
    assert on_floor > 0  # some offsets stopped on the origin's floor, not their own size
    assert run.cost["nodes"] < sum(r.nodes for r in own)


def test_origin_line_takes_the_half_axis(monkeypatch):
    # the delta = 0 bump is even about 0 and the fold's t^3 and offsets x t are odd, so
    # its line runs on [0, R]; a mixed-parity offset would send it back to [-R, R]
    exp = FoldExperiment(0.0, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    half = run_fold(exp).cost["nodes"]
    full_box = make_amplitude("custom", evaluator=lambda u, h: exp.amplitude.axis_slow(u, h))
    monkeypatch.setattr(fold, "evaluate_points",
                        lambda spec, xs: evaluate_points(replace(spec, amplitude=full_box), xs))
    assert half <= 0.55 * run_fold(exp).cost["nodes"]


def test_threshold_families_agree():
    # the above family runs from just past the side rule's 1/3 + 1e-12
    below = run_fold(FoldExperiment(1.0 / 3.0, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    above = run_fold(FoldExperiment(1.0 / 3.0 + 1e-11, QUICK_GRID,
                                  rel_tol=QUICK_REL_TOL))
    assert (below.experiment.side, above.experiment.side) == ("below", "above")
    assert abs(below.fit.slope - above.fit.slope) < 0.05


def test_breakpoint_recovers_synthetic_hinge():
    d = np.linspace(0, 1, 9)
    y = np.where(d <= 0.33, (1 + 3 * d) / 6, (1 + d) / 4)
    bp, sse = two_segment_breakpoint(d, y)
    assert 0.28 <= bp <= 0.38
    assert sse < 1e-4


def test_fold_curve_small():
    curve = fold_curve([0.0, 0.2, 1.0 / 3.0, 0.6, 1.0], QUICK_GRID, rel_tol=QUICK_REL_TOL)
    assert curve.max_slope_error <= 0.04
    assert 0.25 <= curve.breakpoint <= 0.42  # coarse delta grid, looser window


def test_lemma62_rows_and_exponents():
    eps_grid = tuple(float(v) for v in np.geomspace(0.1, 1e-3, 7))
    x_grid = (0.0, 0.5, -0.7, 1.3, 2.0, -1.9)
    rep = lemma_62_suite(eps_grid, x_grid)
    assert rep.max_rel_error < 1e-6
    assert rep.exponent_first == pytest.approx(1.5, abs=0.02)
    assert rep.exponent_second == pytest.approx(1.0, abs=0.02)
    # the x = 0, eps = 0.1 row of the second integral has the closed value
    row = next(r for r in rep.rows
               if r.name == "weighted_cauchy" and r.x == 0.0 and r.eps == 0.1)
    assert row.numeric == pytest.approx(15.707963267948966, abs=1e-5)
    # first integral at x = -eps*alpha equals eps^{-3/2} M(alpha)
    alpha, eps = 1.7, 0.05
    from causticlab.fold import _quad_first
    assert _quad_first(-eps * alpha, eps) == pytest.approx(
        eps**-1.5 * m_alpha(alpha), rel=1e-8)


def test_m_alpha_against_adaptive_quadrature():
    rng = np.random.default_rng(11)
    assert m_alpha(0.0) == pytest.approx(math.pi / math.sqrt(2), rel=1e-14)
    for alpha in list(rng.uniform(-40, 40, 12)) + [-1.0, 2.0]:
        num, _ = quad(lambda t: 1.0 / ((t * t + alpha) ** 2 + 1.0),
                      -np.inf, np.inf, limit=400)
        assert num == pytest.approx(m_alpha(alpha), rel=1e-8), alpha


def test_weighted_cauchy_values_and_bound():
    assert weighted_cauchy(0.0, 0.1) == pytest.approx(15.707963267948966, rel=1e-12)
    rng = np.random.default_rng(12)
    for x in rng.uniform(-5, 5, 20):
        for eps in (1.0, 0.1, 0.01):
            assert weighted_cauchy(x, eps) <= math.pi / eps + 1e-12


def test_lemma_62_oracle_agreement_random():
    rng = np.random.default_rng(77)
    for _ in range(20):
        x = float(rng.uniform(-2.5, 2.5))
        eps = float(np.exp(rng.uniform(math.log(1e-3), 0.0)))
        num, _ = quad(lambda t: 1.0 / ((x - t * t) ** 2 + eps * eps),
                      -np.inf, np.inf, limit=500)
        closed = eps**-1.5 * m_alpha(-x / eps)
        assert num == pytest.approx(closed, rel=1e-6)
        num2, _ = quad(lambda u: 1.0 / ((x - u) ** 2 + eps * eps),
                       0, np.inf, limit=500)
        assert num2 == pytest.approx(weighted_cauchy(x, eps), rel=1e-6)


def test_inconclusive_run_fails_the_curve_in_any_order():
    # a run with fewer than 4 converged rows has a NaN slope; it must fail the
    # verdict wherever it sits among the runs
    def run(delta, slope, verdict):
        ref = sharp_exponent(Fraction(delta).limit_denominator(10**6))
        fit = ExponentFit(slope, 0.0, 1.0, ref, 0.04, verdict, 7)
        return FoldRun(FoldExperiment(delta), (), fit)

    good, bad = run(0.0, 1.0 / 6.0, "pass"), run(0.2, math.nan, "inconclusive")
    for runs in ((good, bad), (bad, good)):
        curve = FoldCurve(runs, 1.0 / 3.0)
        assert math.isnan(curve.max_slope_error)
        assert not curve.passed
    assert FoldCurve((good, good), 1.0 / 3.0).passed
