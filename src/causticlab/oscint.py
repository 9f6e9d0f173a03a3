"""Oscillatory integral evaluation I(x; h) = h^{-k/2} integral a e^{i phi/h} dtheta.

Strategy: composite Gauss-Legendre with oscillation-aware panels.  For each
axis we bound the local frequency |d(phi)/d(theta_i)| / h by a monomial-sum
profile over the integration box, convert it to a node-density function
(plus a resolution floor for the amplitude), and place fixed-order panels by
equal increments of the accumulated density.  Passes refine the density by
sqrt(2) until two successive passes agree to rel_tol; the reported est_error
is the delta between the last two passes, the pair the returned value comes
from (no rigorous bound is claimed).  A spec's ``floor`` (in the units of
``abs_value``) relaxes that test to delta <= rel_tol * max(|I|, floor): a scan
passes |I(0; h)| there, since a point many orders below the sup cannot move it
and needs no precision relative to its own size.  Amplitude modulations of the
form e^{i c theta^3 / h} are folded into the phase polynomial exactly, so the
sampled amplitude factor is always slowly varying.  e^{i phi/h} is formed as
cos and sin of the real phase, written into the two parts of one complex array.

For k = 2 the panels tensorize.  The amplitude is a tensor product, so each
axis's own phase terms sit in that axis's weights, e^{iP(theta_i)/h} times
the amplitude factor times the Gauss weight, and only the terms that mix the
two variables are evaluated on the tensor grid, in column blocks.  With no
mixed term the double integral is the product of the two axis sums; k = 1 is
that case with a single axis.

Also hosts the closed-form companions of the two fold-regime integrals:

    m_alpha(alpha)          = integral dn / ((n^2+alpha)^2 + 1)
                            = pi * Re((i - alpha)^(-1/2))
    weighted_cauchy(x, eps) = integral |t| dt / ((x - t^2)^2 + eps^2)
                            = (pi/2 + arctan(x/eps)) / eps
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeProfile
from .catalog import PhaseFunction
from .polys import ThetaPoly

# Integrand evaluations an evaluation may spend when its spec sets no budget, by k.
DEFAULT_BUDGET = {1: 2**24, 2: 2**30}
# Panel placement and refinement, calibrated against exact Fresnel/Airy values.
PANEL_ORDER = 48  # Gauss-Legendre nodes per panel
NODES_PER_PERIOD = 2.8  # first-pass nodes per local oscillation period
MIN_AXIS_NODES = 96  # first-pass resolution floor for the amplitude, per axis
REFINE_FACTOR = math.sqrt(2.0)  # node-density growth from one pass to the next
MAX_PASSES = 14
PROFILE_SAMPLES = 513  # samples of the frequency-bound profile per axis
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(PANEL_ORDER)  # on [-1, 1]


@dataclass(frozen=True)
class IntegralSpec:
    phase: PhaseFunction
    amplitude: AmplitudeProfile
    x: tuple[float, ...]
    h: float
    rel_tol: float = 1e-6
    includes_prefactor: bool = True
    budget: int | None = None
    floor: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"h must lie in (0, 1), got {self.h}")
        if not 1e-10 <= self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must lie in [1e-10, 1e-3], got {self.rel_tol}")
        if not 0.0 <= self.floor < math.inf:
            raise ValueError(f"floor must be finite and >= 0, got {self.floor}")
        if len(self.x) != self.phase.k0:
            raise ValueError(
                f"x needs {self.phase.k0} entries for {self.phase.singularity.label}")
        if self.amplitude.dim != self.phase.k:
            raise ValueError("amplitude dimension must match the phase variable count")
        if self.phase.k not in (1, 2):
            raise ValueError("only k in {1, 2} phase variables are supported")


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    abs_value: float
    est_error: float
    panels_used: int
    converged: bool
    passes: int
    nodes: int  # integrand evaluations over all passes
    stop: str  # converged | budget | max_passes


def _axis_nodes(gprofile: np.ndarray, tgrid: np.ndarray, h_eff: float,
                q: float, min_nodes: float):
    """Panel nodes/weights for one axis from a sampled frequency-bound profile."""
    lo, hi = tgrid[0], tgrid[-1]
    density = gprofile * (q / (2.0 * math.pi * h_eff)) + min_nodes / (hi - lo)
    steps = np.diff(tgrid)
    cum = np.concatenate(
        [[0.0], np.cumsum(0.5 * (density[1:] + density[:-1]) * steps)])
    total = cum[-1]
    n_panels = max(2, int(math.ceil(total / PANEL_ORDER)))
    targets = np.linspace(0.0, total, n_panels + 1)
    edges = np.interp(targets, cum, tgrid)
    edges[0], edges[-1] = lo, hi
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return nodes, weights, n_panels


def _axis_profile(phi: ThetaPoly, axis: int, box) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = box[axis]
    tgrid = np.linspace(lo, hi, PROFILE_SAMPLES)
    g = phi.partial(axis).abs_bound_profile(axis, box, tgrid)
    return g, tgrid


def _pass_value(parts: tuple[ThetaPoly, ...], mixed: ThetaPoly, h_eff: float, amp_fns,
                axes, block_elems: int = 2_000_000) -> complex:
    """One pass on the tensor grid of ``axes``, the (nodes, weights, panels) of each axis.

    ``parts`` are the axes' own phase terms and ``mixed`` the rest (see
    ``ThetaPoly.split_axes``).  The own terms go into the weights,
    u = w * (a * e^{iP/h}); with no mixed term the pass is the product of the
    axis sums, otherwise u1 * e^{iC/h} * u2 over column blocks of the grid,
    which share one complex buffer.
    """
    us = []
    for part, amp_fn, (nodes, weights, _) in zip(parts, amp_fns, axes):
        amp = amp_fn(nodes)  # first, while its temporaries are the only large arrays
        phase = part(nodes)
        phase /= h_eff
        u = np.empty(phase.shape, dtype=complex)  # e^{iP/h}, as cos and sin parts
        np.cos(phase, out=u.real)
        np.sin(phase, out=u.imag)
        u *= amp
        u *= weights
        us.append(u)
    if not mixed.terms:
        return math.prod(complex(np.sum(u)) for u in us)
    n1, n2 = axes[0][0], axes[1][0]
    u1, u2 = us
    cols = min(n2.size, max(1, block_elems // max(1, n1.size)))
    buf = np.empty(n1.size * cols, dtype=complex)
    total = 0.0 + 0.0j
    for start in range(0, n2.size, cols):
        sl = slice(start, min(start + cols, n2.size))
        phase = mixed.eval_outer(n1, n2[sl])
        phase /= h_eff
        block = buf[:phase.size].reshape(phase.shape)
        np.cos(phase, out=block.real)
        np.sin(phase, out=block.imag)
        total += complex(u1 @ block @ u2[sl])
    return total


def _integrate(phi: ThetaPoly, h_eff: float, amp_fns, box, rel_tol: float,
               budget: int, scale: complex, floor: float) -> IntegralResult:
    """Shared refinement loop; ``scale`` multiplies the raw integral at the end.

    ``floor`` is in the units of the scaled result.
    """
    parts, mixed = phi.split_axes()
    # nodes and panels of a pass: the tensor grid when a term couples the axes
    combine = math.prod if mixed.terms else sum
    mag = abs(scale)
    raw_floor = max(floor / mag, 1e-300)
    spent = passes = panels_total = 0
    stop = "max_passes"

    profiles = [_axis_profile(phi, ax, box) for ax in range(phi.nvars)]

    for s in range(MAX_PASSES):
        q = NODES_PER_PERIOD * REFINE_FACTOR**s
        min_nodes = MIN_AXIS_NODES * REFINE_FACTOR**s
        axes = [_axis_nodes(g, tg, h_eff, q, min_nodes) for g, tg in profiles]
        cost = combine(a[0].size for a in axes)
        # the coarsest pass always runs so there is a "last estimate" to
        # return; the budget gates every refinement after it
        if s > 0 and spent + cost > budget:
            stop = "budget"
            break
        spent += cost
        passes += 1
        raw = _pass_value(parts, mixed, h_eff, amp_fns, axes)
        panels_total += combine(a[2] for a in axes)
        # the pass pair the returned value comes from; the coarsest pass has none
        est_error = abs(raw - value) if s else math.inf
        value = raw
        if est_error <= rel_tol * max(abs(raw), raw_floor):
            stop = "converged"
            break

    return IntegralResult(
        value=scale * value,
        abs_value=mag * abs(value),
        est_error=(mag * est_error) if math.isfinite(est_error) else math.inf,
        panels_used=panels_total,
        converged=stop == "converged",
        passes=passes,
        nodes=spent,
        stop=stop,
    )


def evaluate(spec: IntegralSpec) -> IntegralResult:
    """Evaluate I(x; h), optionally including the h^{-k/2} normalization."""
    return evaluate_rescaled(spec, 1.0)


def evaluate_rescaled(spec: IntegralSpec, lam: float) -> IntegralResult:
    """Evaluate after theta = lam^r eta, x = lam^{1-s} y; small parameter h/lam.

    Mathematically equal to ``evaluate(spec)`` (the substitution is exact), which
    is this function at lam = 1.
    """
    if not spec.h <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [h, 1] = [{spec.h}, 1], got {lam}")
    k = spec.phase.k
    hom = spec.phase.homogeneity
    r = [float(rj) for rj in hom.r]
    s = [float(sj) for sj in hom.s]
    theta_factors = [lam**rj for rj in r]
    y = tuple(xj / lam ** (1.0 - sj) for xj, sj in zip(spec.x, s))
    phi = spec.phase.theta_poly(y)
    mod = spec.amplitude.modulation_poly()
    if mod is not None:
        phi = phi + mod.substitute_scaled(theta_factors).scale(1.0 / lam)
    amp_fns = [
        (lambda u, f=f, ax=ax: spec.amplitude.axis_slow(f * u, spec.h, ax))
        for ax, f in enumerate(theta_factors)
    ]
    rad = spec.amplitude.support_radius(spec.h)
    box = [((c - rad) / f, (c + rad) / f)
           for c, f in zip(spec.amplitude.center, theta_factors)]
    scale = lam ** sum(r)
    if spec.includes_prefactor:
        scale *= spec.h ** (-k / 2.0)
    budget = spec.budget if spec.budget is not None else DEFAULT_BUDGET[k]
    return _integrate(phi, spec.h / lam, amp_fns, box,
                      spec.rel_tol, budget, scale, spec.floor)


def m_alpha(alpha: float) -> float:
    """integral dn / ((n^2 + alpha)^2 + 1), by residues."""
    return math.pi * (complex(-float(alpha), 1.0) ** -0.5).real


def weighted_cauchy(x: float, eps: float) -> float:
    """integral |t| dt / ((x - t^2)^2 + eps^2); always <= pi/eps."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return (math.pi / 2.0 + math.atan(float(x) / float(eps))) / float(eps)

