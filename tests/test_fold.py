"""Fold regime: sharp exponents, saturating families, Plancherel, lemma suite."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from causticlab import oscint, scaling
from causticlab.amplitudes import bump, make_amplitude
from causticlab.catalog import SingularityType, build_phase
from causticlab.fold import (DEFAULT_FOLD_DELTAS, DEFAULT_FOLD_H_GRID, FOLD_TOLERANCE, fold_family,
                             fold_passed, fold_plan, l2_from_coefficients, lemma_62_suite,
                             m_alpha, max_slope_error, run_fold, sharp_exponent,
                             two_segment_breakpoint, weighted_cauchy)
from causticlab.oscint import IntegralSpec, evaluate, evaluate_points
from causticlab.polys import ThetaPoly
from causticlab.scaling import (X_POINTS, ExponentFit, ScanResult, SweepEntry, geometric_grid,
                                supnorm_scan, threshold_sweep)

QUICK_GRID = geometric_grid(2.0**-8, 2.0**-16, 7)
QUICK_REL_TOL = 1e-7  # the precision C09 runs the fold at


def line_offsets(count):
    """The multiples k of a line's step in result order: 0, 1, -1, ..., count, -count."""
    return [0] + [sign * k for k in range(1, count + 1) for sign in (1, -1)]


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
    # every plan runs the catalog's A2; the narrow bump through 1/3, the above
    # saturator after, whose modulation cancels t^3 and leaves the phase x t exactly
    plans = [fold_plan(d) for d in (0.0, 0.1, 1.0 / 3.0, 0.34, 0.5, 1.0)]
    assert [p.amplitude.kind for p in plans] == \
        ["narrow_bump"] * 3 + ["fold_saturator_above"] * 3
    assert all(p.phase == build_phase(SingularityType.parse("A2")) for p in plans)
    for p in plans[3:]:
        for x in (0.0, 0.25, -1.5):
            folded = p.phase.theta_poly((x,)) + p.amplitude.modulation_poly()
            assert folded == ThetaPoly.from_terms(1, [(x, (1,))])
    assert {(p.x_strategy, p.h_grid, p.rel_tol, p.eval_budget) for p in plans} == \
        {("caustic_window", DEFAULT_FOLD_H_GRID, 1e-6, None)}
    # every delta is judged against its sharp exponent on the normalised sup, none exploratory
    for p in plans:
        member = fold_family(p, p.amplitude.delta)
        assert member.amplitude == p.amplitude
        ref = sharp_exponent(Fraction(p.amplitude.delta).limit_denominator(10**6))
        assert member.reference == ref
        assert (member.tolerance, member.exploratory, member.l2) == \
            (FOLD_TOLERANCE, False, l2_from_coefficients)


def test_l2_scaling_below():
    # ||u||_2 = (2 pi h)^{1/2} h^{d/2} ||chi||_2
    exp = fold_plan(0.25)
    vals = [l2_from_coefficients(exp, h) / (math.sqrt(2 * math.pi * h) * h**0.125)
            for h in (1e-2, 1e-3, 1e-4)]
    assert np.ptp(vals) / vals[0] < 1e-6
    assert vals[0] == pytest.approx(1.6767261271736364, rel=1e-5)  # ||chi||_2


def test_l2_scaling_above_is_constant():
    exp = fold_plan(0.5)
    vals = [l2_from_coefficients(exp, h) for h in (1e-2, 1e-3, 1e-4)]
    assert np.ptp(vals) / vals[0] < 1e-6
    assert vals[0] == pytest.approx(math.sqrt(2 * math.pi) * 1.6767261271736364,
                                    rel=1e-5)


def test_l2_zero_amplitude():
    exp = fold_plan(0.25)
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
        exp = fold_plan(d)
        spec = IntegralSpec(exp.phase, exp.amplitude, (0.0,), h, rel_tol=1e-7)
        results = evaluate_points(spec, [(k * dx,) for k in line_offsets(count)[1:]])
        line = [results[i] for i in order]  # by x
        assert all(r.converged for r in line)
        peak = max(r.abs_value for r in line)
        for k in (-1600, -377, 0, 21, 900):
            alone = evaluate(replace(spec, x=(k * dx,)))
            assert abs(line[k + count].value - alone.value) <= 1e-7 * peak, (d, k)
        direct = math.sqrt(np.trapezoid([r.abs_value**2 for r in line], xs))  # of h^{-1/2} u
        assert direct == pytest.approx(h**-0.5 * l2_from_coefficients(exp, h), rel=1e-6), d


def test_run_fold_below_slope():
    run = run_fold(fold_plan(0.2, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    assert run.fit.verdict == "pass"
    assert run.fit.slope == pytest.approx((1 + 3 * 0.2) / 6, abs=0.04)


def test_run_fold_above_slope_and_origin_saturation():
    exp = fold_plan(0.5, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    run = run_fold(exp)
    assert run.fit.slope == pytest.approx(0.375, abs=0.04)
    # u(0) alone achieves the h^{-(1+d)/4} growth: sup equals the origin value
    for h in QUICK_GRID[:2]:
        origin = evaluate(IntegralSpec(exp.phase, exp.amplitude, (0.0,), h, rel_tol=1e-7))
        sup = next(s for s in run.scan.sup_rows if s.h == h)
        assert origin.abs_value == pytest.approx(h**-0.5 * (sup.sup_abs * math.sqrt(h)), rel=1e-9)


def test_fold_offsets_converge_against_the_origin():
    # every offset stops once its pass-to-pass change is within rel_tol of
    # max(|I(x; h)|, |I(0; h)|), as a scan's shells do.  The offsets share one
    # node set per pass, so each sup is compared with the sup of offsets each
    # evaluated alone to rel_tol of its own size, within rel_tol of the sup
    exp = fold_plan(1.0, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    run = run_fold(exp)
    per_h = 1 + 2 * X_POINTS
    assert run.scan.cost["evaluations"] == per_h * len(QUICK_GRID)
    own, on_floor = [], 0
    for i, (h, sup) in enumerate(zip(QUICK_GRID, run.scan.sup_rows)):
        line = run.scan.rows[i * per_h:(i + 1) * per_h]
        assert {r.h for r in line} == {sup.h} == {h}
        floor = line[0].abs_value if line[0].converged else 0.0
        for res in line:
            assert res.converged
            assert res.est_error <= exp.rel_tol * max(res.abs_value, floor)
            on_floor += res.est_error > exp.rel_tol * res.abs_value
        alone = [evaluate(IntegralSpec(exp.phase, exp.amplitude, r.x, h, rel_tol=exp.rel_tol))
                 for r in line]
        assert abs(sup.sup_abs - max(r.abs_value for r in alone)) <= exp.rel_tol * sup.sup_abs
        own += alone
    assert on_floor > 0  # some offsets stopped on the origin's floor, not their own size
    assert run.scan.cost["nodes"] < sum(r.nodes for r in own)


def test_origin_line_takes_the_half_axis(monkeypatch):
    # the delta = 0 bump is even about 0 and the fold's t^3 and offsets x t are odd, so
    # its line runs on [0, R]; a mixed-parity offset would send it back to [-R, R]
    exp = fold_plan(0.0, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    half = run_fold(exp).scan.cost["nodes"]
    full_box = make_amplitude("custom", evaluator=lambda u, h: exp.amplitude.axis_slow(u, h))
    monkeypatch.setattr(scaling, "evaluate_points",
                        lambda spec, xs: evaluate_points(replace(spec, amplitude=full_box), xs))
    assert half <= 0.55 * run_fold(exp).scan.cost["nodes"]


@pytest.mark.parametrize("delta", [0.2, 0.5])
def test_run_fold_is_the_window_scan_over_l2(delta):
    # each fitted row is the plan's own supnorm_scan, its sup times h^{1/2} / ||u_h||_2
    plan = fold_plan(delta, QUICK_GRID, rel_tol=QUICK_REL_TOL)
    run, scan = run_fold(plan), supnorm_scan(plan)
    assert run.scan == scan and run.delta == delta
    assert run.l2 == tuple(l2_from_coefficients(plan, s.h) for s in scan.sup_rows)
    assert [(r.h, r.sup_abs) for r in run.fitted] == [
        (s.h, s.sup_abs * math.sqrt(s.h) / l2_from_coefficients(plan, s.h)) for s in scan.sup_rows]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("delta", [0.0, 0.5])
def test_window_offsets_share_two_chains_at_every_h(monkeypatch, delta):
    # the window's offsets are exact multiples k dx of one dx, so evaluate_points takes
    # e^{ik dx t/h} as powers of one z (k > 0) and of its conjugate (k < 0)
    plan, seen = fold_plan(delta), []
    chains_of = oscint._chains

    def spy(offsets):
        seen.append(chains_of(offsets))
        raise _Stop  # the chains are all this test needs

    monkeypatch.setattr(oscint, "_chains", spy)
    for h in DEFAULT_FOLD_H_GRID:
        points = scaling._candidate_points(plan, h)
        spec = IntegralSpec(plan.phase, plan.amplitude, points[0][1], h)
        with pytest.raises(_Stop):
            evaluate_points(spec, [x for _, x, _ in points[1:]])
    assert [[(c[0], c[2]) for c in chains] for chains in seen] == \
        [[(None, [1, 3, 5, 7]), (0, [2, 4, 6, 8])]] * len(DEFAULT_FOLD_H_GRID)


def test_threshold_families_agree():
    # the above family runs from just past the side rule's 1/3 + 1e-12
    below = run_fold(fold_plan(1.0 / 3.0, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    above = run_fold(fold_plan(1.0 / 3.0 + 1e-11, QUICK_GRID, rel_tol=QUICK_REL_TOL))
    assert (below.scan.plan.amplitude.kind, above.scan.plan.amplitude.kind) == \
        ("narrow_bump", "fold_saturator_above")
    assert abs(below.fit.slope - above.fit.slope) < 0.05


@pytest.mark.parametrize("delta", [d for d in DEFAULT_FOLD_DELTAS if d > 1.0 / 3.0])
def test_above_rows_match_their_closed_form(delta):
    # C09's above side: at x = 0 the folded phase vanishes, so
    # u_h(0) = h^{(d-3)/4} integral chi(t/h^{(1-d)/2}) dt = 3 h^{-(1+d)/4}, since
    # chi(1 + s) + chi(2 - s) = 1 gives integral chi = 3, and |u_h| peaks there
    # (a >= 0); ||u_h||_2 = sqrt(2 pi) ||chi||_2 at every h
    assert quad(bump, -2.0, 2.0, points=[-1.0, 1.0])[0] == pytest.approx(3.0, rel=1e-12)
    chi_l2 = math.sqrt(quad(lambda u: bump(u) ** 2, -2.0, 2.0, points=[-1.0, 1.0],
                            epsabs=0.0, epsrel=1e-13)[0])
    run = run_fold(fold_plan(delta, rel_tol=QUICK_REL_TOL))
    assert len(run.fitted) == len(run.l2) == len(DEFAULT_FOLD_H_GRID)
    for sup, l2 in zip(run.scan.sup_rows, run.l2):
        assert sup.sup_abs * math.sqrt(sup.h) == \
            pytest.approx(3.0 * sup.h ** (-(1 + delta) / 4.0), rel=QUICK_REL_TOL)
        assert l2 == pytest.approx(math.sqrt(2.0 * math.pi) * chi_l2, rel=QUICK_REL_TOL)


def test_breakpoint_recovers_synthetic_hinge():
    d = np.linspace(0, 1, 9)
    y = np.where(d <= 0.33, (1 + 3 * d) / 6, (1 + d) / 4)
    bp, sse = two_segment_breakpoint(d, y)
    assert 0.28 <= bp <= 0.38
    assert sse < 1e-4


def _breakpoint_by_loop(deltas, slopes):
    """The hinge fit one lstsq per candidate t, as ``two_segment_breakpoint`` states it."""
    d, y = np.asarray(deltas, dtype=float), np.asarray(slopes, dtype=float)
    best_t, best_sse = math.nan, math.inf
    for t in np.arange(0.05, 0.95 + 0.01 / 2, 0.01):
        design = np.stack([np.ones_like(d), d, np.maximum(d - t, 0.0)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        sse = float(np.sum((design @ coef - y) ** 2))
        if sse < best_sse - 1e-15:
            best_sse, best_t = sse, float(t)
    return best_t, best_sse


def test_stacked_breakpoint_matches_the_loop():
    # C09's deltas with the sharp exponents, then seeded noise around them, then
    # seeded slopes with no hinge at all, and a finer random delta set
    rng = np.random.default_rng(9)
    d = np.array(DEFAULT_FOLD_DELTAS)
    sharp = np.array([float(sharp_exponent(v)) for v in d])
    cases = [(d, sharp)] + [(d, sharp + rng.normal(0.0, s, d.size)) for s in (1e-7, 1e-3, 0.02)]
    cases += [(d, rng.uniform(0.0, 0.5, d.size)) for _ in range(20)]
    cases += [(np.sort(rng.uniform(0.0, 1.0, 15)), rng.uniform(0.0, 0.5, 15)) for _ in range(10)]
    for deltas, slopes in cases:
        bp, sse = two_segment_breakpoint(deltas, slopes)
        ref_bp, ref_sse = _breakpoint_by_loop(deltas, slopes)
        assert bp == ref_bp
        assert sse == pytest.approx(ref_sse, rel=1e-9, abs=1e-20)


def test_fold_curve_small():
    entries = threshold_sweep(fold_plan(0.0, QUICK_GRID, rel_tol=QUICK_REL_TOL),
                              [0.0, 0.2, 1.0 / 3.0, 0.6, 1.0], fold_family)
    bp, _ = two_segment_breakpoint([e.delta for e in entries], [e.fit.slope for e in entries])
    assert max_slope_error(entries) <= 0.04
    assert 0.25 <= bp <= 0.42  # coarse delta grid, looser window


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
    # an entry with fewer than 4 converged rows has a NaN slope; it must fail the
    # verdict wherever it sits among the entries
    def entry(delta, slope, verdict):
        ref = sharp_exponent(Fraction(delta).limit_denominator(10**6))
        fit = ExponentFit(slope, 0.0, 1.0, ref, 0.04, verdict, 7)
        return SweepEntry(delta, fit, False, ScanResult(fold_plan(delta), (), ()), (), ())

    good, bad = entry(0.0, 1.0 / 6.0, "pass"), entry(0.2, math.nan, "inconclusive")
    for entries in ((good, bad), (bad, good)):
        assert math.isnan(max_slope_error(entries))
        assert not fold_passed(entries, 1.0 / 3.0)
    assert fold_passed((good, good), 1.0 / 3.0)
    assert not fold_passed((good, good), 0.5)  # the breakpoint outside BREAKPOINT_WINDOW
