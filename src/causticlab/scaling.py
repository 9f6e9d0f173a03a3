"""Sup-norm scans over (x, h) grids and scaling-exponent fits.

A scan evaluates |I(x; h)| at x = 0 and, by its x_strategy, at more points:

* ``omega_shells``: quasi-homogeneous shells.  For each of the
  SHELL_LAMBDA_COUNT lambdas of a geometric ladder from h to 1, points
  x_j = lambda^{1-s_j} y_j with y on the unit shell

      boundary of Omega(1) = { sum_j |y_j|^{1/(1-s_j)} = 1 },

  sampled by sign patterns times a fixed simplex grid in the
  |y_j|^{1/(1-s_j)} coordinates.
* ``caustic_window`` (one unfolding parameter, k0 = 1): the caustic-scale
  window x = k dx, dx = X_WINDOW h^{1-s} / X_POINTS, k = +-1 .. +-X_POINTS in
  ``oscint.line_offsets`` order, exact multiples of one dx.  It is the fold
  experiment's window; the CLI's --x-strategy does not offer it.

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
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .amplitudes import AmplitudeProfile, make_amplitude
from .catalog import PhaseFunction, caustic_order, threshold
from .oscint import IntegralSpec, evaluate_points, line_offsets

ORDER_TOLERANCE = {1: 0.03, 2: 0.06}  # |slope - kappa| of an order fit, by k
SHELL_LAMBDA_COUNT = 8  # lambdas of an omega_shells ladder, h to 1
# a caustic_window scans x = 0 and X_POINTS offsets a side out to X_WINDOW h^{1-s}
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
        if self.x_strategy == "caustic_window" and self.phase.k0 > 1:
            raise ValueError("a caustic_window scans one unfolding parameter, "
                             f"{self.phase.singularity.label} has {self.phase.k0}")


@dataclass(frozen=True)
class ScanRow:
    h: float
    lam: float
    y_index: int
    x: tuple[float, ...]
    abs_value: float
    est_error: float
    converged: bool
    nodes: int


@dataclass(frozen=True)
class SupRow:
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
        """Per h, where the sup was attained: in a caustic_window its offset k (x = k dx),
        with edge when |k| = X_POINTS; otherwise its lambda level (0 to
        SHELL_LAMBDA_COUNT - 1, h to 1; -1 at the origin) and y_index, and edge on the
        outermost level."""
        if self.plan.x_strategy == "caustic_window":
            ks = line_offsets(X_POINTS)  # the window in result order
            return [{"h": sup.h, "k": ks[sup.argmax], "edge": abs(ks[sup.argmax]) == X_POINTS}
                    for sup in self.sup_rows]
        out = []
        for sup in self.sup_rows:
            rows = [r for r in self.rows if r.h == sup.h]
            best = rows[sup.argmax]
            level = sorted({r.lam for r in rows}).index(best.lam) - 1  # the origin's lambda is 0
            out.append({"h": sup.h, "level": level, "y_index": best.y_index,
                        "edge": level == SHELL_LAMBDA_COUNT - 1})
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

    Sign patterns times the lattice simplex {n/P : sum n = P} give
    2^{k0} * binom(P+k0-1, k0-1) points before deduplication of zero
    coordinates.
    """
    s = [float(v) for v in s_weights]
    k0 = len(s)
    if k0 == 0:
        return [()]
    us = [tuple(n / points_per_shell for n in comp)
          for comp in _compositions(points_per_shell, k0)]
    pts: set[tuple[float, ...]] = set()
    for u in us:
        for signs in range(2**k0):
            y = tuple(
                (1.0 if (signs >> j) & 1 == 0 else -1.0) * u[j] ** (1.0 - s[j])
                for j in range(k0))
            pts.add(y)
    return sorted(pts)


def _candidate_points(plan: ScanPlan, h: float) -> list[tuple[float, tuple[float, ...], int]]:
    """(lambda, x, y_index) candidates for one h; origin always included.

    A caustic_window's offset k dx is (h, (k dx,), i), i its position after
    the origin in ``line_offsets(X_POINTS)``.
    """
    k0 = plan.phase.k0
    origin = (0.0,) * k0
    points = [(0.0, origin, -1)]
    if plan.x_strategy == "origin_only" or k0 == 0:
        return points
    if plan.x_strategy == "caustic_window":
        dx = X_WINDOW * h ** float(1 - plan.phase.s[0]) / X_POINTS
        return points + [(h, (k * dx,), i) for i, k in enumerate(line_offsets(X_POINTS)[1:])]
    s = [float(v) for v in plan.phase.s]
    ys = shell_unit_samples(plan.phase.s, plan.points_per_shell)
    lams = np.geomspace(h, 1.0, SHELL_LAMBDA_COUNT)
    for lam in lams:
        for idx, y in enumerate(ys):
            x = tuple(float(lam) ** (1.0 - sj) * yj for sj, yj in zip(s, y))
            points.append((float(lam), x, idx))
    return points


def sup_row(h: float, results) -> SupRow:
    """The sup of |I| over the evaluations ``results`` at one h.

    argmax is the position in ``results`` of the first largest |I|.  The row
    is all_converged unless some unconverged point could reach the sup,
    abs_value + est_error >= sup_abs: always so for est_error = inf and for an
    unconverged sup.
    """
    argmax = max(range(len(results)), key=lambda i: results[i].abs_value)
    sup = results[argmax].abs_value
    return SupRow(h, sup, argmax,
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
        fitted = tuple(replace(sup, sup_abs=sup.sup_abs * math.sqrt(sup.h**plan.phase.k) / n)
                       for sup, n in zip(scan.sup_rows, l2)) if l2 else scan.sup_rows
        fit = fit_exponent(fitted, member.reference, member.tolerance)
        out.append(SweepEntry(float(d), fit, member.exploratory, scan, l2, fitted))
    return out
