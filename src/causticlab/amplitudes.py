"""delta-dependent amplitude families and symbol-class checkers.

Families a(theta; h) in the class S^k_delta satisfy
|d^alpha a| <= C_alpha h^{-k - delta*|alpha|}.  The three built-in kinds:

    narrow_bump           chi((theta - c)/h^delta)                order 0
    gaussian              h^{-delta/2} exp(-theta^2/h^{2 delta})  order delta/2
    fold_saturator_above  h^{(delta-3)/4} chi(theta/h^{(1-delta)/2}) e^{-i theta^3/h}
                                                                  order (3-delta)/4

Each kind's KINDS row gives, as functions of delta, its width and prefactor
exponents, cubic modulation and support, so an AmplitudeProfile is (kind,
delta, center) and nothing else.  Each kind is h^-p times a factor in
S^0_delta, so its symbol order is its prefactor exponent p.

At delta = 0 the narrow bump is the fixed bump chi(theta - c), the amplitude
that concentrates at the maximal rate; it is the default everywhere.  The
narrow bump is also the fold's saturator below delta = 1/3 and
fold_saturator_above its saturator above; both pair with the catalog's A2
phase x*t + t^3, whose cubic that modulation cancels.  A fourth kind, ``custom``, wraps a caller-supplied
evaluator; it is the tests' hook for a zero or step amplitude and cannot be
chosen from the command line.

chi is a fixed smooth bump equal to 1 on (-1, 1) and supported in (-2, 2),
built from the standard exp(-1/t) smoothstep; only the band 1 < |u| < 2
costs an exp.  The gaussian kind carries a chi(theta/2) truncation so every
built-in is supported in |theta| <= 4; the truncation sits where the
gaussian is below exp(-4/h^{2 delta}) and cannot affect fitted orders.

``check_symbol_order`` estimates sup|d^alpha a| by 4th-order central
differences on a grid tied to the amplitude's own scale h^delta and fits the
growth exponent against log(1/h).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .polys import ThetaPoly


class KindRow(NamedTuple):
    """What (kind, delta) fix of a family; a bump kind is h^-p chi((u - c)/h^w) e^{i c3 u^3/h}."""

    width_exponent: float  # w
    prefactor_exponent: float  # p, also the symbol order k of S^k_delta
    cubic_modulation: float  # c3
    support_const: float  # the support is |u - c| <= support_const h^w


# kind -> delta -> its KindRow
KINDS = {
    "narrow_bump": lambda d: KindRow(d, 0.0, 0.0, 2.0),
    "gaussian": lambda d: KindRow(d, d / 2.0, 0.0, 4.0),
    "fold_saturator_above": lambda d: KindRow((1.0 - d) / 2.0, (3.0 - d) / 4.0, -1.0, 2.0),
    "custom": lambda d: KindRow(0.0, 0.0, 0.0, 2.0),
}


def bump(u) -> np.ndarray:
    """chi: 1 on |u| <= 1, 0 on |u| >= 2, 1/(1 + e^{1/t - 1/(1-t)}) with t = 2 - |u| between."""
    t = 2.0 - np.abs(np.asarray(u, dtype=float))
    out = np.where(t >= 1.0, 1.0, 0.0)
    band = (t > 0.0) & (t < 1.0)
    t = t[band]  # drops the full-size t before the band's temporaries
    with np.errstate(over="ignore"):
        out[band] = 1.0 / (1.0 + np.exp(1.0 / t - 1.0 / (1.0 - t)))
    return out


@functools.cache
def _bump_l2() -> float:
    """||chi||_2 on its support [-2, 2], by the 40001-point trapezoid rule."""
    u = np.linspace(-2.0, 2.0, 40001)
    return math.sqrt(float(np.trapezoid(bump(u) ** 2, u)))


@dataclass(frozen=True)
class AmplitudeProfile:
    """One h-indexed amplitude family; evaluators are pure and reusable.

    (kind, delta) fix everything else through the kind's KINDS row, and the
    dimension is len(center).  ``axis_slow`` is the amplitude without its
    oscillatory modulation factor; the modulation exponent
    (cubic_modulation * theta^3, to be divided by h) is exposed separately so
    the quadrature engine can fold it into the phase exactly instead of
    chasing an oscillating integrand.
    """

    kind: str
    delta: float
    center: tuple[float, ...] = (0.0,)
    evaluator: Callable | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown amplitude kind {self.kind!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ValueError(f"delta must lie in [0, 1], got {self.delta}")
        if self.dim not in (1, 2):
            raise ValueError("only 1D and 2D (tensor) amplitudes are supported")
        if self.kind == "fold_saturator_above" and self.dim != 1:
            raise ValueError("fold_saturator_above is A2's amplitude: 1D only")
        if self.kind == "custom" and self.evaluator is None:
            raise ValueError("custom amplitudes need an evaluator")

    @property
    def dim(self) -> int:
        return len(self.center)

    @functools.cached_property
    def row(self) -> KindRow:
        """The kind's KINDS row at this delta, built on first use."""
        return KINDS[self.kind](self.delta)

    def support_radius(self, h: float) -> float:
        """Half-width of the support along each axis (h-uniformly <= 4)."""
        row = self.row
        return row.support_const * float(h) ** row.width_exponent

    def axis_slow(self, u, h: float, axis: int = 0) -> np.ndarray:
        """Slow (modulation-free) factor along one axis; complex for custom kinds."""
        u = np.asarray(u, dtype=float)
        h = float(h)
        c = self.center[axis]
        if self.kind == "custom":
            return np.asarray(self.evaluator(u, h))
        w, p, *_ = self.row
        scale = h**w
        if self.kind == "gaussian":
            core = h**-p * np.exp(-((u - c) / scale) ** 2)
            return core * bump((u - c) / 2.0)
        vals = bump((u - c) / scale)
        if p:
            vals = h**-p * vals
        return vals

    def value(self, theta, h: float):
        """Full amplitude (modulation included) at 1D points."""
        if self.dim != 1:
            raise ValueError("value is defined for 1D profiles")
        h = float(h)
        u = np.asarray(theta, dtype=float)
        out = self.axis_slow(u, h).astype(complex)
        c3 = self.row.cubic_modulation
        if c3:
            out = out * np.exp(1j * c3 * u**3 / h)
        return out

    def modulation_poly(self) -> ThetaPoly | None:
        """Phase-side modulation exponent as a polynomial (to be divided by h)."""
        c3 = self.row.cubic_modulation
        return ThetaPoly.from_terms(1, [(c3, (3,))]) if c3 else None

    def l2_theta(self, h: float) -> float:
        """||a||_{L^2} in theta (1D) of a bump kind, modulation dropped since |e^{i phi}| = 1.

        Its slow factor is h^{-p} chi((u - c)/h^w), so the norm is
        h^{-p} h^{w/2} ||chi||_2; the gaussian and custom kinds have no closed form.
        """
        if self.dim != 1:
            raise ValueError("l2_theta is defined for 1D profiles")
        if self.kind not in ("narrow_bump", "fold_saturator_above"):
            raise ValueError(f"l2_theta has no closed form for the {self.kind} kind")
        w, p, *_ = self.row
        return h**-p * h ** (w / 2.0) * _bump_l2()


def make_amplitude(kind: str, delta: float = 0.0, *, center: float = 0.0, dim: int = 1,
                   evaluator: Callable | None = None) -> AmplitudeProfile:
    """The ``kind`` family at ``delta``, centred at ``center`` on each of ``dim`` axes.

    ``evaluator`` is the custom kind's a(u, h); AmplitudeProfile checks kind and delta.
    """
    return AmplitudeProfile(kind, float(delta), (float(center),) * dim, evaluator)


# 4th-order-accurate central difference stencils, offsets symmetric about 0;
# one per order alpha = 0..3 that check_symbol_order fits.
_STENCILS = {
    0: (np.array([0]), np.array([1.0])),
    1: (np.arange(-2, 3), np.array([1, -8, 0, 8, -1]) / 12.0),
    2: (np.arange(-2, 3), np.array([-1, 16, -30, 16, -1]) / 12.0),
    3: (np.arange(-3, 4), np.array([1, -8, 13, 0, -13, 8, -1]) / 8.0),
}
POINTS_PER_SCALE = 64  # grid points per amplitude scale min(1, h^delta, h^width)


def estimate_sup_derivative(profile: AmplitudeProfile, alpha: int, h: float) -> float:
    """sup over theta of |d^alpha a(theta; h)| by central finite differences."""
    if profile.dim != 1:
        raise ValueError("symbol checking is 1D")
    if alpha not in _STENCILS:
        raise ValueError("alpha must be between 0 and 3")
    h = float(h)
    step = min(1.0, h**profile.delta, h**profile.row.width_exponent) / POINTS_PER_SCALE
    r = profile.support_radius(h) + 8 * step
    c = profile.center[0]
    offs, coefs = _STENCILS[alpha]
    grid = np.arange(c - r, c + r + step, step)
    vals = profile.value(grid, h)
    if alpha == 0:
        return float(np.max(np.abs(vals)))
    acc = np.zeros(grid.size - (offs.size - 1), dtype=complex)
    for o, w in zip(offs, coefs):
        acc += w * vals[o - offs[0]: grid.size + o - offs[-1]]
    return float(np.max(np.abs(acc)) / step**alpha)


SYMBOL_ORDER_TOLERANCE = 0.05  # |fitted - expected| order for a pass


@dataclass(frozen=True)
class SymbolOrderRow:
    alpha: int
    fitted_order: float
    expected_order: float
    residual: float
    n_points: int


def check_symbol_order(profile: AmplitudeProfile, h_grid) -> list[SymbolOrderRow]:
    """Fit sup|d^alpha a| ~ h^{-order} for alpha = 0..3 and compare to the class.

    The expected order for |alpha| = a is p + delta*a, p the kind's prefactor
    exponent (its symbol order).  Requires a geometric h-grid with at least 6
    points; raises on degenerate fits.
    """
    hs = np.asarray(sorted(h_grid, reverse=True), dtype=float)
    if hs.size < 6:
        raise ValueError("need at least 6 h values")
    rows = []
    order = profile.row.prefactor_exponent
    logs_inv_h = np.log(1.0 / hs)
    for alpha in _STENCILS:
        sups = np.array([estimate_sup_derivative(profile, alpha, h) for h in hs])
        usable = sups > 0
        if np.count_nonzero(usable) < 3:
            raise ValueError(f"degenerate fit at alpha={alpha}: "
                             f"{np.count_nonzero(usable)} usable points")
        slope, intercept = np.polyfit(logs_inv_h[usable], np.log(sups[usable]), 1)
        resid = float(np.max(np.abs(
            np.log(sups[usable]) - (slope * logs_inv_h[usable] + intercept))))
        expected = order + profile.delta * alpha
        rows.append(SymbolOrderRow(alpha, float(slope), float(expected), resid,
                                   int(np.count_nonzero(usable))))
    return rows

