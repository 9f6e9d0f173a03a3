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
the amplitude factor times the Gauss weight.  With no mixed term the double
integral is the product of the two axis sums; k = 1 is that case with a single
axis.  Every catalog phase mixes the variables as theta1^p G(theta2), so a
coupled pass is the type-3 nonuniform Fourier sum sum_ij u1_i u2_j
e^{i a_i omega_j}, a = theta1^p, omega = G(theta2) / h.  Gaussian gridding
(Greengard & Lee, SIAM Rev. 46, 2004; Lee & Greengard, J. Comput. Phys. 206,
2005) evaluates it with two spreads and one FFT in O((N1 + N2) w + M log M)
time, not N1 N2 exponentials, to within 1e-14 sum|u1| sum|u2| by closed-form
constants: below the dense sum's own round-off, so est_error has no term for
it.  ``nodes`` still counts the N1 N2 points of the rule.

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
# ``_type3_sum``'s constants, t = tau X^2 and u = tau1 M^2, hold each of its four
# error terms to e^-NUFFT_LOG_EPS = 2.1e-15 of sum|u1| sum|u2|: eta-grid aliasing
# e^{-8t}, eta spread truncation e^{t - pi^2 half^2 / (16t)}, a-grid aliasing
# e^{t - u/2} and a-grid spread truncation e^{t + u/16 - pi^2 half^2 / u}.
NUFFT_LOG_EPS = 33.8
NUFFT_TAU_X2 = NUFFT_LOG_EPS / 8.0  # t
NUFFT_TAU1_M2 = 2.0 * (NUFFT_TAU_X2 + NUFFT_LOG_EPS)  # u
NUFFT_ETA_HALF = math.ceil(4.0 * math.sqrt(NUFFT_TAU_X2 * (NUFFT_TAU_X2 + NUFFT_LOG_EPS)) / math.pi)
NUFFT_A_HALF = math.ceil(
    math.sqrt(NUFFT_TAU1_M2 * (NUFFT_TAU1_M2 / 16.0 + NUFFT_TAU_X2 + NUFFT_LOG_EPS)) / math.pi)


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


def _gauss_spread(x: np.ndarray, values: np.ndarray, step: float, tau: float,
                  half: int, size: int) -> np.ndarray:
    """sum_i values_i e^{-(x_i - m step)^2 / (4 tau)} at grid index m (mod ``size``).

    Each point reaches the 2 half + 1 grid points around its nearest one, m0, at
    offsets from one rounding of x - m0 step: a large x then shifts its window
    coherently, as a dense sum's phase error would, instead of scattering it.
    """
    m0 = np.rint(x / step)
    k = np.arange(-half, half + 1)
    w = np.exp(((x - m0 * step)[:, None] - k * step) ** 2 / (-4.0 * tau)) * values[:, None]
    idx = ((m0.astype(np.int64)[:, None] + k) % size).ravel()
    return (np.bincount(idx, w.real.ravel(), size)
            + 1j * np.bincount(idx, w.imag.ravel(), size))


def _type3_sum(u1: np.ndarray, a: np.ndarray, u2: np.ndarray,
               omega: np.ndarray) -> complex:
    """sum_i sum_j u1_i u2_j e^{i a_i omega_j} by Gaussian gridding (a type-3 NUFFT).

    Centre a = a_c + ta (|ta| <= X) and omega = w_c + tw; the centres go into
    v1 = u1 e^{i a w_c} and v2 = u2 e^{i a_c tw}.  With tau = NUFFT_TAU_X2 / X^2,
    e^{i ta tw} = e^{tau ta^2} / sqrt(4 pi tau) sum_m d e^{-(tw - m d)^2 / (4 tau)}
    e^{i ta m d} on the eta grid of step d = pi / (2X), up to aliasing at
    e^{-8 tau X^2}.  So the sum is d / sqrt(4 pi tau) sum_m U_m F_m, where U_m is
    v2 spread onto the eta grid and F_m = sum_i v1_i e^{tau ta_i^2} e^{i ta_i m d}
    is a type-1 NUFFT: spread onto a periodic grid of M >= 2 (2 k_max + 1) points
    at tau1 = NUFFT_TAU1_M2 / M^2, one inverse FFT, times sqrt(pi / tau1) e^{tau1 m^2}.
    """
    a_c, x_half = 0.5 * (a.max() + a.min()), 0.5 * (a.max() - a.min())
    w_c = 0.5 * (omega.max() + omega.min())
    ta, tw = a - a_c, omega - w_c
    v1 = u1 * np.exp(1j * w_c * a)
    v2 = u2 * np.exp(1j * a_c * tw)
    tau = NUFFT_TAU_X2 / x_half**2
    d = 0.5 * math.pi / x_half
    k_max = math.ceil(np.abs(tw).max() / d) + NUFFT_ETA_HALF
    size = 1 << (4 * k_max + 1).bit_length()  # M, a power of two
    tau1 = NUFFT_TAU1_M2 / size**2
    eta_side = _gauss_spread(tw, v2, d, tau, NUFFT_ETA_HALF, size)
    a_side = np.fft.ifft(_gauss_spread(ta * d, v1 * np.exp(tau * ta**2), 2.0 * math.pi / size,
                                       tau1, NUFFT_A_HALF, size))
    k = np.fft.fftfreq(size, 1.0 / size)
    a_side *= np.exp(tau1 * k**2)
    return complex(eta_side @ a_side) * d / (2.0 * math.sqrt(tau * tau1))


def _pass_value(parts: tuple[ThetaPoly, ...], mixed: tuple[int, ThetaPoly], h_eff: float,
                amp_fns, axes) -> complex:
    """One pass on the tensor grid of ``axes``, the (nodes, weights, panels) of each axis.

    ``parts`` are the axes' own phase terms and ``mixed`` = (p, G) the rest,
    t1^p G(t2) (see ``ThetaPoly.split_axes``).  The own terms go into the
    weights, u = w * (a * e^{iP/h}); with no mixed term the pass is the product
    of the axis sums, otherwise the type-3 sum of u1, u2 at a = t1^p,
    omega = G(t2) / h.
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
    p, g = mixed
    if not g.terms:
        return math.prod(complex(np.sum(u)) for u in us)
    return _type3_sum(us[0], axes[0][0] ** p, us[1], g(axes[1][0]) / h_eff)


def _integrate(phi: ThetaPoly, h_eff: float, amp_fns, box, rel_tol: float,
               budget: int, scale: complex, floor: float) -> IntegralResult:
    """Shared refinement loop; ``scale`` multiplies the raw integral at the end.

    ``floor`` is in the units of the scaled result.
    """
    parts, mixed = phi.split_axes()
    # nodes and panels of a pass: the tensor grid when a term couples the axes
    combine = math.prod if mixed[1].terms else sum
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

