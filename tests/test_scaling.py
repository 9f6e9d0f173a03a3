"""Scan geometry, exponent fits, sweep semantics."""

import itertools
import math
import time
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import airy

from causticlab import oscint
from causticlab.amplitudes import make_amplitude
from causticlab.catalog import CANONICAL_LABELS, SingularityType, build_phase, caustic_order
from causticlab.oscint import IntegralResult, IntegralSpec, _integrate, evaluate_points
from causticlab.scaling import (SHELL_LAMBDA_COUNT, X_POINTS, X_WINDOW, ScanPlan, ScanResult,
                                SupRow, _candidate_points, fit_exponent, geometric_grid,
                                shell_unit_samples, sup_row, supnorm_scan, threshold_sweep)


def _rows(hs, vals, conv=True):
    return [SupRow(h, v, 0, conv) for h, v in zip(hs, vals)]


def test_sup_row_takes_the_first_of_tied_maxima():
    results = [IntegralResult(v, v, 0.0, True, 2, 10, "converged")
               for v in (1.0, 3.0, 2.0, 3.0)]
    assert sup_row(0.5, results) == SupRow(0.5, 3.0, 1, True)


def test_fit_exact_power_law():
    hs = list(geometric_grid(2.0**-4, 2.0**-12, 6))
    fit = fit_exponent(_rows(hs, [h**-0.25 for h in hs]), Fraction(1, 4), 0.01)
    assert fit.slope == pytest.approx(0.25, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)
    assert fit.verdict == "pass"


def test_fit_outlier_is_inconclusive():
    hs = list(geometric_grid(2.0**-4, 2.0**-12, 6))
    vals = [h**-0.25 for h in hs]
    vals[3] *= 10.0
    fit = fit_exponent(_rows(hs, vals), Fraction(1, 4), 0.01)
    assert fit.r_squared < 0.98
    assert fit.verdict == "inconclusive"


def test_fit_wrong_slope_fails():
    hs = list(geometric_grid(2.0**-4, 2.0**-12, 6))
    fit = fit_exponent(_rows(hs, [h**-0.4 for h in hs]), Fraction(1, 4), 0.03)
    assert fit.verdict == "fail"


def test_fit_too_few_rows_inconclusive():
    hs = [0.25, 0.125, 0.0625]
    fit = fit_exponent(_rows(hs, [1, 1, 1]), Fraction(0), 0.1)
    assert fit.verdict == "inconclusive"
    assert fit.n_rows == 3


def test_fit_ignores_unconverged_rows():
    hs = list(geometric_grid(2.0**-4, 2.0**-12, 8))
    rows = _rows(hs[:5], [h**-0.25 for h in hs[:5]]) + \
        _rows(hs[5:], [1e9, 1e9, 1e9], conv=False)
    fit = fit_exponent(rows, Fraction(1, 4), 0.01)
    assert fit.verdict == "pass"
    assert fit.n_rows == 5


def test_shell_samples_1d():
    assert shell_unit_samples((Fraction(1, 3),), 1) == [(-1.0,), (1.0,)]


def test_shell_samples_on_unit_shell():
    s = (Fraction(1, 3), Fraction(1, 3), Fraction(2, 3))
    pts = shell_unit_samples(s, 3)
    assert len(pts) > 8
    for y in pts:
        total = sum(abs(v) ** (1.0 / (1.0 - float(sj))) for v, sj in zip(y, s))
        assert total == pytest.approx(1.0, abs=1e-12)


def _all_sign_patterns(s, points_per_shell):
    """The unit-shell sample as every sign pattern of every simplex point, deduplicated."""
    pts = set()
    for comp in itertools.product(range(points_per_shell + 1), repeat=len(s)):
        if sum(comp) != points_per_shell:
            continue
        for signs in itertools.product((1.0, -1.0), repeat=len(s)):
            pts.add(tuple(sign * (n / points_per_shell) ** (1.0 - float(sj))
                          for sign, n, sj in zip(signs, comp, s)))
    return sorted(pts)


@pytest.mark.parametrize("label", [lb for lb in CANONICAL_LABELS if lb != "A1"])
def test_shell_samples_flip_only_nonzero_coordinates(label):
    # a zero coordinate's two signs give one point: the same list, bit for bit
    s = build_phase(SingularityType.parse(label)).s
    for p in (1, 2, 3):
        assert [tuple(map(float.hex, y)) for y in shell_unit_samples(s, p)] == \
            [tuple(map(float.hex, y)) for y in _all_sign_patterns(s, p)], (label, p)


def test_shell_sample_work_follows_its_output():
    # A19 has k0 = 18: 2^18 sign patterns per simplex point, 36 samples at P = 1
    s = build_phase(SingularityType.parse("A19")).s
    start = time.perf_counter()
    pts = shell_unit_samples(s, 1)
    assert time.perf_counter() - start < 1.0
    assert len(pts) == 36


def test_shell_sample_count_formula():
    # sign patterns x simplex lattice, minus zero-coordinate duplicates
    s = (Fraction(1, 4), Fraction(1, 2))
    pts = shell_unit_samples(s, 2)
    # compositions of 2 into 2 parts: (2,0),(1,1),(0,2) -> 2 + 4 + 2 points
    assert len(pts) == 8


def test_scan_plan_validation():
    ph = build_phase(SingularityType.parse("A2"))
    amp = make_amplitude("narrow_bump")
    with pytest.raises(ValueError):
        ScanPlan(ph, amp, (0.5, 0.25, 0.125, 0.0625))  # too few
    with pytest.raises(ValueError):
        ScanPlan(ph, amp, (0.25, 0.5, 0.125, 0.0625, 0.03125))  # not decreasing
    with pytest.raises(ValueError):
        ScanPlan(ph, amp, geometric_grid(0.25, 0.001, 5), x_strategy="bogus")


def test_caustic_window_points_are_multiples_of_one_step():
    # A2 (s = 1/3): level k - 1 holds x = -k dx, +k dx, dx = X_WINDOW h^{2/3} / X_POINTS
    ph = build_phase(SingularityType.parse("A2"))
    plan = ScanPlan(ph, make_amplitude("narrow_bump"), geometric_grid(2.0**-8, 2.0**-18, 11),
                    x_strategy="caustic_window")
    assert (X_WINDOW, X_POINTS) == (2.0, 4)
    for h in plan.h_grid:
        dx = 2.0 * h ** (2.0 / 3.0) / 4
        assert _candidate_points(plan, h) == [(0.0, (0.0,), -1)] + [
            (h, (sign * k * dx,), i) for k in range(1, 5) for i, sign in enumerate((-1, 1))]


def test_caustic_window_sup_at_gives_the_offset():
    # a window's sup at x = k dx reads level |k| - 1 and y_index 0 for k < 0, 1 for k > 0,
    # with edge at |k| = X_POINTS, the last level; the origin reads level and y_index -1
    ph = build_phase(SingularityType.parse("A2"))
    grid = geometric_grid(2.0**-8, 2.0**-12, 5)
    plan = ScanPlan(ph, make_amplitude("narrow_bump"), grid, x_strategy="caustic_window")
    sups = tuple(SupRow(h, 1.0, argmax, True) for h, argmax in zip(grid, (0, 1, 2, 7, 8)))
    assert ScanResult(plan, (), sups).sup_at == [
        {"h": h, "level": level, "y_index": y_index, "edge": level == 3}
        for h, (level, y_index) in zip(grid, ((-1, -1), (0, 0), (0, 1), (3, 0), (3, 1)))]


class _Stop(Exception):
    pass


def test_a3_window_is_four_levels_of_unit_shell_samples():
    # k0 = 2: the four unit-shell samples (+-1, 0), (0, +-1) at x_j = c h^{1-s_j} y_j,
    # c = k X_WINDOW / X_POINTS, k = 1..4, so each sample's points are multiples of its first
    ph = build_phase(SingularityType.parse("A3"))
    plan = ScanPlan(ph, make_amplitude("narrow_bump"), geometric_grid(2.0**-5, 2.0**-9, 5),
                    x_strategy="caustic_window")
    ys = shell_unit_samples(ph.s, 1)
    assert ys == [(-1.0, 0.0), (0.0, -1.0), (0.0, 1.0), (1.0, 0.0)]
    seen, chains_of = [], oscint._chains

    def spy(offsets):
        seen.append(chains_of(offsets))
        raise _Stop  # the chains are all this part needs

    for h in plan.h_grid:
        points = _candidate_points(plan, h)
        assert len(points) == 17
        assert [tuple(map(float.hex, x)) for _, x, _ in points[1:]] == [
            tuple((k / 2 * h ** float(1 - sj) * yj).hex() for sj, yj in zip(ph.s, y))
            for k in range(1, 5) for y in ys]
        spec = IntegralSpec(ph, plan.amplitude, points[0][1], h)
        with pytest.MonkeyPatch.context() as mp, pytest.raises(_Stop):
            mp.setattr(oscint, "_chains", spy)
            evaluate_points(spec, [x for _, x, _ in points[1:]])
    # two direct chains, and two that take the conjugate z of the sample opposite them
    assert [[(c[0], c[2]) for c in chains] for chains in seen] == [[
        (None, [1, 5, 9, 13]), (None, [2, 6, 10, 14]), (1, [3, 7, 11, 15]),
        (0, [4, 8, 12, 16])]] * len(plan.h_grid)
    result = supnorm_scan(plan)
    assert len(result.rows) == 17 * len(plan.h_grid)
    assert all(r.converged for r in result.rows)
    origin = {r.h: r.abs_value for r in result.rows if r.y_index == -1}
    assert all(sup.all_converged and sup.sup_abs >= origin[sup.h] for sup in result.sup_rows)


def test_scan_includes_origin_and_dominates_it():
    ph = build_phase(SingularityType.parse("A2"))
    amp = make_amplitude("narrow_bump")
    grid = geometric_grid(2.0**-5, 2.0**-9, 5)
    plan = ScanPlan(ph, amp, grid, x_strategy="omega_shells", points_per_shell=1,
                    rel_tol=1e-6)
    result = supnorm_scan(plan)
    for h in grid:
        # the origin plus SHELL_LAMBDA_COUNT lambdas times the two unit-shell points
        assert len([r for r in result.rows if r.h == h]) == 1 + 2 * SHELL_LAMBDA_COUNT
        origin_rows = [r for r in result.rows if r.h == h and r.y_index == -1]
        assert len(origin_rows) == 1
        sup = next(s for s in result.sup_rows if s.h == h)
        assert sup.sup_abs >= origin_rows[0].abs_value


@pytest.fixture(scope="module")
def a2_shell_scan():
    # the documented `supnorm --type A2 --x-strategy omega_shells
    # --points-per-shell 2` run on a short grid (C13's config)
    ph = build_phase(SingularityType.parse("A2"))
    plan = ScanPlan(ph, make_amplitude("narrow_bump"), geometric_grid(2.0**-6, 2.0**-10, 5),
                    x_strategy="omega_shells", points_per_shell=2, rel_tol=1e-6)
    return plan, supnorm_scan(plan)


def test_a2_shell_scan_converges_and_passes(a2_shell_scan):
    plan, result = a2_shell_scan
    assert all(r.converged for r in result.rows)
    assert result.cost == {"evaluations": len(result.rows),
                           "nodes": sum(r.nodes for r in result.rows),
                           "unconverged": 0}
    fit = fit_exponent(result.sup_rows, caustic_order(plan.phase.singularity), 0.03)
    assert fit.verdict == "pass"
    assert fit.n_rows == len(plan.h_grid)


def test_a2_shell_scan_matches_airy_closed_form(a2_shell_scan):
    # integral chi(t) e^{i(xt + t^3)/h} dt = 2 pi a Ai(x a / h), a = (h/3)^{1/3}
    # (DLMF 9.5), exact up to O(h^inf) for x <= 0 where the stationary points
    # sit on the bump's plateau
    plan, result = a2_shell_scan
    checked = 0
    for r in result.rows:
        if r.x[0] > 0.0:
            continue
        a = (r.h / 3.0) ** (1.0 / 3.0)
        exact = 2.0 * math.pi * a * abs(float(airy(r.x[0] * a / r.h)[0])) / math.sqrt(r.h)
        assert abs(r.abs_value - exact) <= plan.rel_tol * exact, r
        checked += 1
    assert checked > len(result.rows) // 2


def test_a2_shell_scan_error_within_origin_floor(a2_shell_scan):
    plan, result = a2_shell_scan
    origin = {r.h: r.abs_value for r in result.rows if r.y_index == -1}
    for r in result.rows:
        if r.y_index != -1:
            assert r.est_error <= plan.rel_tol * max(r.abs_value, origin[r.h]), r


def test_a2_shell_scan_rows_match_evaluate_points_and_evaluate(a2_shell_scan):
    # each h's rows are exactly one evaluate_points call on the origin and the
    # shell points, and each point lies within the scan's tolerance of its own
    # standalone evaluation at rel_tol 1e-10 (judged, like the scan, against |I(0; h)|)
    plan, result = a2_shell_scan
    for h in plan.h_grid:
        rows = [r for r in result.rows if r.h == h]
        origin = IntegralSpec(plan.phase, plan.amplitude, rows[0].x, h, rel_tol=plan.rel_tol)
        shared = evaluate_points(origin, [r.x for r in rows[1:]])
        assert [(r.abs_value, r.est_error, r.converged, r.nodes) for r in rows] == \
            [(res.abs_value, res.est_error, res.converged, res.nodes) for res in shared]
        for r in rows:
            [alone] = _integrate(replace(origin, x=r.x, rel_tol=1e-10), floor=rows[0].abs_value)
            assert alone.converged
            assert abs(r.abs_value - alone.abs_value) <= \
                plan.rel_tol * max(alone.abs_value, rows[0].abs_value), r


def test_a2_shell_scan_evaluates_the_amplitude_once_per_pass(monkeypatch):
    # one node set per pass serves every point of an h: the amplitude is evaluated
    # once per pass, not once per point per pass (17 points an h here)
    from causticlab import oscint, scaling
    from causticlab.amplitudes import AmplitudeProfile

    calls = Counter()
    original = AmplitudeProfile.axis_slow

    def counted(self, u, h, axis=0):
        calls[h] += 1
        return original(self, u, h, axis)

    passes = {}

    def spy(spec, xs):
        results = oscint.evaluate_points(spec, xs)
        passes[spec.h] = max(r.passes for r in results)
        return results

    pass_nodes = []
    axis_sums = oscint._axis_sums

    def sized(part, amp_fn, panels, h, chains):
        pass_nodes.append(panels[0].size * oscint.PANEL_ORDER)
        return axis_sums(part, amp_fn, panels, h, chains)

    monkeypatch.setattr(AmplitudeProfile, "axis_slow", counted)
    monkeypatch.setattr(scaling, "evaluate_points", spy)
    monkeypatch.setattr(oscint, "_axis_sums", sized)
    ph = build_phase(SingularityType.parse("A2"))
    plan = ScanPlan(ph, make_amplitude("narrow_bump"), geometric_grid(2.0**-6, 2.0**-10, 5),
                    x_strategy="omega_shells", points_per_shell=2)
    result = supnorm_scan(plan)
    assert max(pass_nodes) <= oscint.SLAB_NODES  # one slab a pass
    assert len(result.rows) == len(plan.h_grid) * (1 + 2 * SHELL_LAMBDA_COUNT)
    assert calls == passes and sum(passes.values()) < len(result.rows)


def test_a1_projectable_scan_is_bounded():
    ph = build_phase(SingularityType.parse("A1"))
    grid = geometric_grid(2.0**-5, 2.0**-12, 6)
    for delta in (0.3, 1.0):
        amp = make_amplitude("narrow_bump", delta)
        result = supnorm_scan(ScanPlan(ph, amp, grid, rel_tol=1e-7))
        for row in result.sup_rows:
            assert row.sup_abs <= 1.2 * math.sqrt(math.pi)


def test_zero_amplitude_scan():
    ph = build_phase(SingularityType.parse("A2"))
    zero = make_amplitude("custom", 0.0, evaluator=lambda u, h: np.zeros_like(u))
    result = supnorm_scan(ScanPlan(ph, zero, geometric_grid(0.25, 0.01, 5)))
    assert all(r.sup_abs == 0.0 for r in result.sup_rows)


def test_fit_stability_drop_largest_h():
    # acceptance-style fixture: removing the coarsest row moves the slope
    # by less than tolerance/2
    ph = build_phase(SingularityType.parse("A2"))
    amp = make_amplitude("narrow_bump")
    grid = geometric_grid(2.0**-6, 2.0**-14, 10)
    rows = supnorm_scan(ScanPlan(ph, amp, grid, rel_tol=1e-6)).sup_rows
    tol = 0.03
    full = fit_exponent(rows, caustic_order(ph.singularity), tol)
    trimmed = fit_exponent(rows[1:], caustic_order(ph.singularity), tol)
    assert abs(full.slope - trimmed.slope) < tol / 2


def test_threshold_sweep_flags_exploratory():
    t = SingularityType.parse("A2")
    grid = geometric_grid(2.0**-5, 2.0**-10, 5)
    entries = threshold_sweep(ScanPlan(build_phase(t), make_amplitude("narrow_bump"), grid),
                              [0.2, 1.0 / 3.0, 0.8])
    assert [e.exploratory for e in entries] == [False, False, True]
    assert [e.scan.plan.amplitude.delta for e in entries] == [0.2, 1.0 / 3.0, 0.8]
    # at-threshold delta counts as in-scope (inclusive interval)
    assert entries[1].fit.verdict == "pass"
    # the narrow bump is not normalised: each fit runs on the scan's own sup rows
    assert all(e.l2 == () and e.fitted == e.scan.sup_rows for e in entries)


def test_sweep_beyond_threshold_changes_law():
    # past the threshold the narrow bump stops oscillating against the cubic
    # phase (support h^0.8 is far inside the h^{1/3} Airy scale), so |I(0)|
    # decays like 3 h^{0.3} instead of growing like h^{-1/6}: the h^{-kappa}
    # law visibly breaks, which is exactly why these entries are exploratory.
    t = SingularityType.parse("A2")
    grid = geometric_grid(2.0**-6, 2.0**-12, 6)
    entries = threshold_sweep(ScanPlan(build_phase(t), make_amplitude("narrow_bump"), grid),
                              [0.1, 0.8])
    assert entries[0].fit.slope == pytest.approx(1.0 / 6.0, abs=0.05)
    assert entries[1].fit.slope == pytest.approx(-0.3, abs=0.05)


def _scan_with_one_unconverged_point(monkeypatch, abs_share, err_share):
    """An A2 shell scan whose evaluations are scripted: |I(0; h)| = h^{-1/6}, every
    shell point converged at 1e-3 of it but the first, which is unconverged with
    |I| and est_error the given shares of it."""
    from causticlab import scaling
    grid = geometric_grid(2.0**-6, 2.0**-10, 5)
    plan = ScanPlan(build_phase(SingularityType.parse("A2")), make_amplitude("narrow_bump"),
                    grid, x_strategy="omega_shells")
    first_shell_x = {h: scaling._candidate_points(plan, h)[1][1] for h in grid}

    def scripted(spec, xs):
        top = spec.h ** (-1.0 / 6.0)
        assert spec.x == (0.0,)
        results = [IntegralResult(top, top, 1e-9 * top, True, 2, 192, "converged")]
        for x in xs:
            if x != first_shell_x[spec.h]:
                results.append(IntegralResult(1e-3 * top, 1e-3 * top, 0.0, True, 2, 192,
                                              "converged"))
                continue
            value, est = abs_share * top, err_share * top
            results.append(IntegralResult(value, value, est, False, 1, 96, "budget"))
        return results

    monkeypatch.setattr(scaling, "evaluate_points", scripted)
    result = supnorm_scan(plan)
    assert result.cost["unconverged"] == len(grid)
    return result, fit_exponent(result.sup_rows, Fraction(1, 6), 0.03)


def test_starved_point_far_below_the_sup_leaves_the_row_usable(monkeypatch):
    result, fit = _scan_with_one_unconverged_point(monkeypatch, 1e-3, 1e-2)
    assert all(r.all_converged for r in result.sup_rows)
    assert fit.verdict == "pass" and fit.n_rows == 5


@pytest.mark.parametrize("abs_share, err_share", [(0.5, 0.5), (0.9, 0.2), (1e-3, math.inf)])
def test_point_that_could_reach_the_sup_keeps_the_row_unusable(monkeypatch, abs_share,
                                                               err_share):
    result, fit = _scan_with_one_unconverged_point(monkeypatch, abs_share, err_share)
    assert not any(r.all_converged for r in result.sup_rows)
    assert fit.verdict == "inconclusive" and fit.n_rows == 0
