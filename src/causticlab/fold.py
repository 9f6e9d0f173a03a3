"""Fold-caustic experiments across the delta = 1/3 regime change.

The sharp sup-norm exponent for a delta-concentrated fold family is

    (1 + 3 delta)/6   for delta in [0, 1/3]
    (1 + delta)/4     for delta in [1/3, 1]

(continuous at 1/3).  Both regimes' saturating families run the catalog's
A2 normal form x t + t^3 (``catalog.build_phase``), and delta picks the
amplitude, its side read from ``catalog.threshold`` (1/3):

    below:  u_h(x) = integral chi(t/h^delta) e^{i(x t + t^3)/h} dt
    above:  u_h(x) = integral a(t) e^{i(x t + t^3)/h} dt,
            a(t) = h^{(delta-3)/4} chi(t/h^{(1-delta)/2}) e^{-i t^3/h}

whose modulation cancels the cubic, so the above family's phase is x t.
The fold is a sweep: ``scaling.threshold_sweep`` runs ``fold_family`` over
``fold_plan``'s caustic_window, a scan like any other: x = 0, then on each
level k = 1 .. X_POINTS the unit-shell samples y = -1, +1 at x = k dx y, the
caustic scale dx = X_WINDOW h^{2/3} / X_POINTS (so a sup_at level is |k| - 1,
its y_index 0 for k < 0 and 1 for k > 0).  The offsets share one node set per
pass, e^{ik dx t/h} by repeated products, and converge against |I(0; h)| as a
scan's shells do.  Both families' amplitudes are even about 0, and their phase
terms with the modulation folded in (none are left above 1/3) and the offsets
k dx t are all odd, so that node set covers t >= 0 alone and each sum S stands
for 2 Re S (the half rule of ``oscint``): about half the nodes of the support.
The family is normalised by ||u_h||_2 from the coefficient side: the map
a -> u is (2 pi h)^{1/2} times an isometry, so ||u_h||_{L^2(R)} =
(2 pi h)^{1/2} ||a||_{L^2}.  Each entry fits log(sup|u_h| / ||u_h||_2), the
scan's sup without its h^{-1/2}, against log(1/h) and sharp_exponent(delta);
``run_fold`` is one delta's entry.  The best two-segment breakpoint of the
slope-vs-delta curve turns the regime change into one scalar test.

``lemma_62_suite`` cross-checks the two exact integrals behind the
above-threshold estimate against adaptive quadrature and fits their
eps-blowup exponents (3/2 and 1):

    m_alpha(alpha)          = integral dn / ((n^2+alpha)^2 + 1)
                            = pi * Re((i - alpha)^(-1/2))
    weighted_cauchy(x, eps) = integral |t| dt / ((x - t^2)^2 + eps^2)
                            = (pi/2 + arctan(x/eps)) / eps
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .amplitudes import make_amplitude
from .catalog import SingularityType, build_phase, threshold
from .scaling import FamilyMember, ScanPlan, SweepEntry, geometric_grid, threshold_sweep

DEFAULT_FOLD_H_GRID = geometric_grid(2.0**-8, 2.0**-18, 11)
DEFAULT_FOLD_DELTAS = (0.0, 0.1, 0.2, 1.0 / 3.0, 0.5, 0.7, 0.9, 1.0)
FOLD_TOLERANCE = 0.04
BREAKPOINT_WINDOW = (0.28, 0.38)  # around the regime change at delta = 1/3
LEMMA62_REL_TOL = 1e-6  # closed forms against adaptive quadrature
LEMMA62_EXPONENTS, LEMMA62_EXPONENT_TOL = (1.5, 1.0), 0.02  # eps-blowup of the two sups
A2 = SingularityType.parse("A2")


def sharp_exponent(delta):
    """Piecewise-sharp growth exponent of sup|u|/||u||_2 for the fold."""
    d = Fraction(delta) if isinstance(delta, (Fraction, int)) else float(delta)
    if not 0 <= float(d) <= 1:
        raise ValueError("delta must lie in [0, 1]")
    return (1 + 3 * d) / 6 if d <= threshold(A2) else (1 + d) / 4


def l2_from_coefficients(plan: ScanPlan, h: float) -> float:
    """||u_h||_{L^2(R)} = (2 pi h)^{1/2} ||a||_{L^2(theta)} (Fourier-side)."""
    return math.sqrt(2.0 * math.pi * h) * plan.amplitude.l2_theta(h)


def fold_family(plan: ScanPlan, delta) -> FamilyMember:
    """A2's saturating family at delta, below through 1/3 and above after, normalised by
    ||u_h||_2 and judged against sharp_exponent(delta) at FOLD_TOLERANCE."""
    delta = float(delta)
    kind = "narrow_bump" if delta <= float(threshold(A2)) + 1e-12 else "fold_saturator_above"
    return FamilyMember(make_amplitude(kind, delta),
                        sharp_exponent(Fraction(delta).limit_denominator(10**6)),
                        FOLD_TOLERANCE, False, l2_from_coefficients)


def fold_plan(delta, h_grid=DEFAULT_FOLD_H_GRID, *, rel_tol: float = 1e-6,
              eval_budget: int | None = None) -> ScanPlan:
    """The caustic-window scan of A2 with fold_family's amplitude at delta."""
    plan = ScanPlan(build_phase(A2), make_amplitude("narrow_bump"), tuple(h_grid),
                    x_strategy="caustic_window", rel_tol=rel_tol, eval_budget=eval_budget)
    return replace(plan, amplitude=fold_family(plan, delta).amplitude)


def run_fold(plan: ScanPlan) -> SweepEntry:
    """The fold sweep's entry at the plan's delta: its fit of sup/L2 against sharp_exponent."""
    return threshold_sweep(plan, [plan.amplitude.delta], fold_family)[0]


def two_segment_breakpoint(deltas, slopes):
    """Continuous two-piece linear fit; returns (breakpoint, sse).

    The hinge model slope(d) = c0 + c1 d + c2 max(d - t, 0) is linear for each
    candidate t on the 0.01 grid over [0.05, 0.95], and all of them are solved
    at once by the stacked pseudo-inverse; the best t minimizes the residual,
    the first of those within 1e-15 of it.
    """
    d = np.asarray(deltas, dtype=float)
    y = np.asarray(slopes, dtype=float)
    ts = np.arange(0.05, 0.95 + 0.01 / 2, 0.01)
    hinge = np.maximum(d - ts[:, None], 0.0)
    designs = np.stack([np.ones_like(hinge), np.broadcast_to(d, hinge.shape), hinge], axis=2)
    coef = np.linalg.pinv(designs) @ y
    sse = np.sum((np.einsum("tij,tj->ti", designs, coef) - y) ** 2, axis=1)
    best_t, best_sse = math.nan, math.inf
    for t, e in zip(ts, sse.tolist()):
        if e < best_sse - 1e-15:
            best_sse, best_t = e, float(t)
    return best_t, best_sse


def max_slope_error(entries) -> float:
    """Largest |slope - reference| of the entries; NaN if any has no slope (< 4 converged rows)."""
    return float(np.max([abs(e.fit.slope - float(e.fit.reference)) for e in entries]))


def fold_passed(entries, breakpoint: float) -> bool:
    """Slopes within FOLD_TOLERANCE, breakpoint in BREAKPOINT_WINDOW."""
    lo, hi = BREAKPOINT_WINDOW
    return max_slope_error(entries) <= FOLD_TOLERANCE and lo <= breakpoint <= hi


@dataclass(frozen=True)
class Lemma62Row:
    name: str
    x: float
    eps: float
    numeric: float
    closed_form: float
    rel_error: float


@dataclass(frozen=True)
class Lemma62Report:
    rows: tuple[Lemma62Row, ...]
    exponent_first: float
    exponent_second: float
    max_rel_error: float

    @property
    def passed(self) -> bool:
        """Closed forms within LEMMA62_REL_TOL, exponents within LEMMA62_EXPONENT_TOL."""
        first, second = LEMMA62_EXPONENTS
        return (self.max_rel_error <= LEMMA62_REL_TOL
                and abs(self.exponent_first - first) <= LEMMA62_EXPONENT_TOL
                and abs(self.exponent_second - second) <= LEMMA62_EXPONENT_TOL)


def m_alpha(alpha: float) -> float:
    """integral dn / ((n^2 + alpha)^2 + 1), by residues."""
    return math.pi * (complex(-float(alpha), 1.0) ** -0.5).real


def weighted_cauchy(x: float, eps: float) -> float:
    """integral |t| dt / ((x - t^2)^2 + eps^2); always <= pi/eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (math.pi / 2.0 + math.atan(float(x) / float(eps))) / float(eps)


def _quad_first(x: float, eps: float) -> float:
    from scipy.integrate import quad  # here, not at load: it is most of the CLI's import time

    f = lambda t: 1.0 / ((x - t * t) ** 2 + eps * eps)
    cut = 2.0 * max(1.0, math.sqrt(abs(x)) + 1.0)
    pts = [-math.sqrt(x), math.sqrt(x)] if x > 0 else None
    mid, _ = quad(f, -cut, cut, points=pts, limit=400, epsabs=0.0, epsrel=1e-10)
    left, _ = quad(f, -np.inf, -cut, limit=200, epsabs=1e-14, epsrel=1e-10)
    right, _ = quad(f, cut, np.inf, limit=200, epsabs=1e-14, epsrel=1e-10)
    return mid + left + right


def _quad_second(x: float, eps: float) -> float:
    from scipy.integrate import quad

    # substitute u = t^2: integral du / ((x-u)^2 + eps^2) over [0, inf)
    f = lambda u: 1.0 / ((x - u) ** 2 + eps * eps)
    cut = 2.0 * max(1.0, abs(x) + 1.0)
    pts = [x] if 0 < x < cut else None
    mid, _ = quad(f, 0.0, cut, points=pts, limit=400, epsabs=0.0, epsrel=1e-10)
    tail, _ = quad(f, cut, np.inf, limit=200, epsabs=1e-14, epsrel=1e-10)
    return mid + tail


def lemma_62_suite(eps_grid, x_grid) -> Lemma62Report:
    """Adaptive quadrature vs closed forms, plus eps-blowup exponents of the sups."""
    rows = []
    sup1, sup2 = [], []
    for eps in eps_grid:
        vals1, vals2 = [], []
        for x in x_grid:
            n1 = _quad_first(float(x), float(eps))
            c1 = eps ** -1.5 * m_alpha(-x / eps)
            rows.append(Lemma62Row("resolvent_square", float(x), float(eps), n1, c1,
                                   abs(n1 - c1) / abs(c1)))
            n2 = _quad_second(float(x), float(eps))
            c2 = weighted_cauchy(float(x), float(eps))
            rows.append(Lemma62Row("weighted_cauchy", float(x), float(eps), n2, c2,
                                   abs(n2 - c2) / abs(c2)))
            vals1.append(n1)
            vals2.append(n2)
        sup1.append(max(vals1))
        sup2.append(max(vals2))
    loge = np.log([1.0 / float(e) for e in eps_grid])
    e1 = float(np.polyfit(loge, np.log(sup1), 1)[0])
    e2 = float(np.polyfit(loge, np.log(sup2), 1)[0])
    return Lemma62Report(tuple(rows), e1, e2,
                         max(r.rel_error for r in rows))
