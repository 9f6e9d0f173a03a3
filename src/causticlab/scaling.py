"""Sup-norm scans over (x, h) grids and scaling-exponent fits.

A scan evaluates |I(x; h)| at x = 0 and, unless its x_strategy is
``origin_only``, on levels of the unit shell

    boundary of Omega(1) = { sum_j |y_j|^{1/(1-s_j)} = 1 },

sampled (``shell_unit_samples``) by sign patterns times a fixed simplex grid
in the |y_j|^{1/(1-s_j)} coordinates.  Every strategy follows one rule: the
origin, then for each level each sample y at x_j = scale_j y_j.  ``_levels``
alone knows the strategy and gives each level's lambda and scales:

* ``omega_shells``: the SHELL_LAMBDA_COUNT lambdas of a geometric ladder from
  h to 1, scale_j = lambda^{1-s_j}, the quasi-homogeneous shells;
* ``caustic_window``: lambda = h and scale_j = c h^{1-s_j} for
  c = k X_WINDOW / X_POINTS, k = 1 .. X_POINTS, so each sample's points are
  exact multiples of its first.  It is the fold experiment's window; the CLI's
  --x-strategy does not offer it.

The scan is a serial loop over h.  At each h one ``oscint.evaluate_points``
call evaluates the origin and every other point, on one node set per pass for
k = 1, and judges each other point converged once its successive-pass change
is within rel_tol * max(|I(x; h)|, |I(0; h)|) (the floor is 0 if the origin
did not converge).  The origin is always a candidate, so sup_h >= |I(0; h)|
and that floor is never looser than rel_tol times the sup, while points whose
|I| is far below it (shadow-side points where |I| is O(h^inf), window offsets
away from the caustic) stop spending their budget on digits that cannot move
it.  ``sup_row`` takes the sup, and keeps a row out of the fit only if an
unconverged point could reach it.  The fitted exponent of log(sup |I|)
against log(1/h) is then compared with a reference rational (the caustic
order, or a regime formula) to produce a pass/fail/inconclusive verdict.

``threshold_sweep`` is the one loop over delta: a family gives each delta's
amplitude, fit reference and tolerance, and, if normalised, ||u_h||_2.  The
default ``narrow_bump_family`` tests the h^{-kappa} law up to the threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import AmplitudeProfile, make_amplitude
from .catalog import PhaseFunction, caustic_order, threshold
from .oscint import IntegralSpec, evaluate_points

ORDER_TOLERANCE = {1: 0.03, 2: 0.06}  # |slope - kappa| of an order fit, by k
SHELL_LAMBDA_COUNT = 8  # lambdas of an omega_shells ladder, h to 1
# a caustic_window's X_POINTS levels reach out to X_WINDOW h^{1-s} on the unit shell
X_WINDOW, X_POINTS = 2.0, 4


def geometric_grid(start: float, stop: float, points: int) -> tuple[float, ...]:
    """Strictly decreasing geometric h-grid from start down to stop."""
    if not 0 < stop < start < 1:
        raise ValueError("need 0 < stop < start < 1")
    return tuple(float(v) for v in np.geomspace(start, stop, points))


# a scan's default h-grid, by the number of phase variables k
DEFAULT_H_GRID = {1: geometric_grid(2.0**-6, 2.0**-14, 10),
                  2: geometric_grid(2.0**-4, 2.0**-10, 10)}


@dataclass(frozen=True)
class ScanPlan:
    phase: PhaseFunction
    amplitude: AmplitudeProfile
    h_grid: tuple[float, ...]
    x_strategy: str = "origin_only"  # origin_only | omega_shells | caustic_window
    points_per_shell: int = 1
    rel_tol: float = 1e-6
    eval_budget: int | None = None

    def __post_init__(self):
        hs = self.h_grid
        if len(hs) < 5 or any(hs[i + 1] >= hs[i] for i in range(len(hs) - 1)):
            raise ValueError("h_grid must be strictly decreasing with >= 5 points")
        if self.points_per_shell < 1:
            raise ValueError("points_per_shell must be >= 1")
        if self.x_strategy not in ("origin_only", "omega_shells", "caustic_window"):
            raise ValueError(f"unknown x_strategy {self.x_strategy!r}")

    # what every h's candidates share, computed on first use, once per plan
    @cached_property
    def unit_samples(self) -> tuple[tuple[float, ...], ...]:
        """``shell_unit_samples`` of the phase's s at points_per_shell."""
        return tuple(shell_unit_samples(self.phase.s, self.points_per_shell))

    @cached_property
    def exponents(self) -> tuple[float, ...]:
        """e_j = 1 - s_j, rounded once from the catalog's Fraction."""
        return tuple(float(1 - sj) for sj in self.phase.s)


class ScanRow(NamedTuple):
    h: float
    lam: float
    y_index: int
    x: tuple[float, ...]
    abs_value: float
    est_error: float
    converged: bool
    nodes: int


class SupRow(NamedTuple):
    """One h's sup of |I| (``sup_row``): where it lies is ``argmax``, the
    position of its evaluation in the list the sup was taken over."""

    h: float
    sup_abs: float
    argmax: int
    all_converged: bool


@dataclass(frozen=True)
class ScanResult:
    plan: ScanPlan
    rows: tuple[ScanRow, ...]
    sup_rows: tuple[SupRow, ...]

    @property
    def cost(self) -> dict:
        return work_cost(self.rows)

    @property
    def sup_at(self) -> list[dict]:
        """Per h, where the sup was attained: the level of ``_levels`` (-1 at the origin) and
        the y_index of its unit-shell sample, read off the argmax, with edge on the last level."""
        plan = self.plan
        levels = len(_levels(plan, plan.h_grid[0]))  # the same at every h
        per_level = len(plan.unit_samples) if levels else 1
        out = []
        for sup in self.sup_rows:
            level, y_index = divmod(sup.argmax - 1, per_level) if sup.argmax else (-1, -1)
            out.append({"h": sup.h, "level": level, "y_index": y_index,
                        "edge": 0 <= level == levels - 1})
        return out


def work_cost(evaluations) -> dict:
    """Hardware-independent work counters of some evaluations (anything with
    ``nodes`` and ``converged``); deterministic for a fixed plan."""
    return {"evaluations": len(evaluations),
            "nodes": sum(e.nodes for e in evaluations),
            "unconverged": sum(not e.converged for e in evaluations)}


@dataclass(frozen=True)
class ExponentFit:
    slope: float
    intercept: float
    r_squared: float
    reference: Fraction
    tolerance: float
    verdict: str  # pass | fail | inconclusive
    n_rows: int


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def shell_unit_samples(s_weights, points_per_shell: int) -> list[tuple[float, ...]]:
    """Deterministic sample of the unit shell in the |y_j|^{1/(1-s_j)} coordinates.

    The lattice simplex {n/P : sum n = P} times the sign patterns of each point's
    nonzero coordinates, sorted.
    """
    s = [float(v) for v in s_weights]
    if not s:
        return [()]
    pts = set()
    for comp in _compositions(points_per_shell, len(s)):
        y = [(n / points_per_shell) ** (1.0 - sj) for n, sj in zip(comp, s)]
        pts.update(product(*[(-v, v) if v else (v,) for v in y]))
    return sorted(pts)


def _levels(plan: ScanPlan, h: float) -> list[tuple[float, tuple[float, ...]]]:
    """(lambda, per-axis scales) of each level of the plan's candidates at h: the one place
    that knows the x_strategy.  The scales are powers of the plan's ``exponents``."""
    if plan.x_strategy == "origin_only" or plan.phase.k0 == 0:
        return []
    es = plan.exponents
    if plan.x_strategy == "caustic_window":
        powers = [h**e for e in es]
        return [(h, tuple([k * X_WINDOW / X_POINTS * p for p in powers]))
                for k in range(1, X_POINTS + 1)]
    return [(lam, tuple([lam**e for e in es]))
            for lam in map(float, np.geomspace(h, 1.0, SHELL_LAMBDA_COUNT))]


def _candidate_points(plan: ScanPlan, h: float) -> list[tuple[float, tuple[float, ...], int]]:
    """(lambda, x, y_index) candidates for one h: the origin (0, 0, -1), then for each of
    ``_levels`` each unit-shell sample y at x_j = scale_j y_j."""
    points = [(0.0, (0.0,) * plan.phase.k0, -1)]
    levels = _levels(plan, h)
    if not levels:
        return points
    return points + [(lam, tuple([c * yj for c, yj in zip(scales, y)]), idx)
                     for lam, scales in levels for idx, y in enumerate(plan.unit_samples)]


def sup_row(h: float, results) -> SupRow:
    """The sup of |I| over the evaluations ``results`` at one h.

    argmax is the position in ``results`` of the first largest |I|.  The row
    is all_converged unless some unconverged point could reach the sup,
    abs_value + est_error >= sup_abs: always so for est_error = inf and for an
    unconverged sup.
    """
    values = [r.abs_value for r in results]
    sup = max(values)
    return SupRow(h, sup, values.index(sup),
                  all(r.converged or r.abs_value + r.est_error < sup for r in results))


def supnorm_scan(plan: ScanPlan) -> ScanResult:
    """Evaluate |I| on the plan's candidate set and record the sup per h."""
    rows, sup_rows = [], []
    for h in plan.h_grid:
        points = _candidate_points(plan, h)
        origin = IntegralSpec(plan.phase, plan.amplitude, points[0][1], h,
                              rel_tol=plan.rel_tol, budget=plan.eval_budget)
        results = evaluate_points(origin, [x for _, x, _ in points[1:]])
        rows += [ScanRow(h, lam, y_idx, x, res.abs_value, res.est_error,
                         res.converged, res.nodes)
                 for (lam, x, y_idx), res in zip(points, results)]
        sup_rows.append(sup_row(h, results))
    return ScanResult(plan, tuple(rows), tuple(sup_rows))


def fit_exponent(sup_rows, reference: Fraction, tolerance: float) -> ExponentFit:
    """Least-squares slope of log(sup) vs log(1/h), with a verdict.

    pass: |slope - reference| <= tolerance and r^2 >= 0.98;
    fail: r^2 >= 0.98 but the slope misses; inconclusive otherwise (including
    fewer than 4 converged rows).  Near-constant data (a zero reference) makes
    r^2 meaningless; property-style checks should be used there instead.
    """
    usable = [(r.h, r.sup_abs) for r in sup_rows
              if r.all_converged and r.sup_abs > 0.0]
    ref = Fraction(reference)
    if len(usable) < 4:
        return ExponentFit(math.nan, math.nan, math.nan, ref, tolerance,
                           "inconclusive", len(usable))
    logs = np.log([1.0 / h for h, _ in usable])
    vals = np.log([v for _, v in usable])
    slope, intercept = np.polyfit(logs, vals, 1)
    pred = slope * logs + intercept
    ss_res = float(np.sum((vals - pred) ** 2))
    ss_tot = float(np.sum((vals - np.mean(vals)) ** 2))
    if ss_tot <= 1e-24:
        r2 = 1.0 if ss_res <= 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    if r2 < 0.98:
        verdict = "inconclusive"
    elif abs(slope - float(ref)) <= tolerance:
        verdict = "pass"
    else:
        verdict = "fail"
    return ExponentFit(float(slope), float(intercept), float(r2), ref,
                       tolerance, verdict, len(usable))


class FamilyMember(NamedTuple):
    """A sweep family at one delta: the amplitude the plan scans, what its fit is judged against."""

    amplitude: AmplitudeProfile
    reference: Fraction
    tolerance: float
    exploratory: bool  # past the family's range: its verdict carries no expectation
    l2: Callable[[ScanPlan, float], float] | None = None  # ||u_h||_2 of a normalised family


def narrow_bump_family(plan: ScanPlan, delta) -> FamilyMember:
    """The narrow bump centred at 0, fitted to the caustic order at ORDER_TOLERANCE as supnorm
    is; exploratory past the type's threshold, where the h^-kappa law is not expected."""
    t, k = plan.phase.singularity, plan.phase.k
    return FamilyMember(make_amplitude("narrow_bump", delta, dim=k), caustic_order(t),
                        ORDER_TOLERANCE[k], float(delta) > float(threshold(t)) + 1e-12)


@dataclass(frozen=True)
class SweepEntry:
    delta: float
    fit: ExponentFit
    exploratory: bool
    scan: ScanResult
    l2: tuple[float, ...]  # ||u_h||_2 per h; empty unless the family is normalised
    fitted: tuple[SupRow, ...]  # the rows the fit ran on


def threshold_sweep(plan: ScanPlan, deltas, family=narrow_bump_family) -> list[SweepEntry]:
    """The supnorm scan of ``plan`` with ``family(plan, delta)``'s amplitude at each delta, fitted.

    A normalised family (one with ``l2``) is fitted on sup h^{k/2} / ||u_h||_2, the scan's
    sup without the h^{-k/2} every evaluation carries, over the norm; any other on the sup.
    """
    out = []
    for d in deltas:
        member = family(plan, d)
        scan = supnorm_scan(replace(plan, amplitude=member.amplitude))
        l2 = tuple(member.l2(scan.plan, sup.h) for sup in scan.sup_rows) if member.l2 else ()
        fitted = tuple(sup._replace(sup_abs=sup.sup_abs * math.sqrt(sup.h**plan.phase.k) / n)
                       for sup, n in zip(scan.sup_rows, l2)) if l2 else scan.sup_rows
        fit = fit_exponent(fitted, member.reference, member.tolerance)
        out.append(SweepEntry(float(d), fit, member.exploratory, scan, l2, fitted))
    return out
