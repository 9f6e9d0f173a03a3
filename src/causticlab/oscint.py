"""Oscillatory integral evaluation I(x; h) = h^{-k/2} integral a e^{i phi/h} dtheta.

Strategy: composite Gauss-Legendre with oscillation-aware panels.  For each
axis we bound the local frequency |d(phi)/d(theta_i)| / h by a monomial-sum
profile over the integration box, convert it to a node-density function
(plus a resolution floor for the amplitude), and place an odd number of
fixed-order panels by equal increments of the accumulated density, so a panel
lies across the box's middle.  Passes refine the density by sqrt(2), and by
at least two panels per axis, until two successive passes
agree to rel_tol; the reported est_error is the delta between the last two
passes, the pair the returned value comes from (no rigorous bound is
claimed).  ``evaluate_points`` relaxes that test for every point but the
first, x_0 (0 in a scan), to delta <= rel_tol * max(|I|, |I(x_0)|): a point
many orders below the sup cannot move it and needs no precision relative to
its own size.  Amplitude modulations of the form
e^{i c theta^3 / h} are folded into the phase polynomial exactly, so the
sampled amplitude factor is always slowly varying.  e^{i phi/h} is formed as
cos and sin of the real phase, written into the two parts of one complex array.

For k = 1 the points x_0, x_1, ... of a scan share one node set per pass
(``evaluate_points``): the phase at x_j is phi(t; x_0) + d_j(t), so one amplitude
and one e^{i phi(t; x_0)/h} per node serve every point, and each adds its factor
e^{i d_j/h}: by cos/sin, as the conjugate of its mirror's (d_j = -d_i), or by
repeated products along equally spaced targets.  The panels follow a profile
that bounds every point's |phi'|; each point keeps its own stopping rule and
reports the pass where it met it.

Working set: one constant, SLAB_NODES, bounds the per-node temporaries of
every pass to about 1 MiB, half the 2 MiB L2 cache of the x86-64 Xeon it was
sized on, so a pass reuses cached buffers instead of faulting in fresh ones
from L3 or DRAM.  A sum slab takes SLAB_NODES = 2^13 nodes at about 120 B of
live arrays each (nodes, weights, amplitude, phase, u, z, a kept mirror's z,
v); there 2^12 ran about 4 % slower on the fold sweep, 2^14 no faster and
2^16 about 12 % slower.  A coupled 2D pass's spreads (below) take their
points in chunks of at most 4 SLAB_NODES window entries, a point's window
being its 2 half + 1 grid points: an entry holds one weight, one int64 index
and two weighted parts, about a quarter of a node's bytes, so a chunk is
about a slab's size whatever the window (840 points at 39 entries).  Chunks
of 2^13 or 2^17 entries ran 13-26 % slower.  Only a coupled pass's axis
factors, one complex value per node, are held for a whole axis.

What one call builds once: the phase polynomial with the modulation folded in
and its axis parts, the offsets d_j as merged term tuples, their chains (with
each chain's step as a polynomial), the profile grid and the density profile,
bound(phi') plus the largest chain bound, all built before the first pass.  A
pass repeats only array work and one convergence check per unmet point: it
places the panels on that profile, evaluates the amplitude, e^{i phi/h} and the
chains' factors at the nodes, sums them, and compares each unmet point's new
value with its last.  No polynomial is built inside the pass loop.

Half rule: every amplitude kind but ``custom`` is real and even about its
centre.  An axis whose centre is 0 halves when every exponent of that axis in
the terms its sum sees has one parity (a term without the axis counts as
even): on a product pass the axis's own part of phi(t; x_0) with the
modulation folded in, plus every offset d_j on the k = 1 axis; on a coupled
pass every term of phi.  The integrand on t_i < 0 then mirrors the one on
t_i > 0.  A pass keeps the upper (n + 1) / 2 of the full axis's n panels, the
middle one cut at 0, so each pass adds at least one panel on [0, R].  An axis
sum S over them stands for 2 S (even) or 2 Re S (odd, an exactly real
integral), and a coupled value V with m halved axes for 2^m V, or 2^m Re V if
one of them is odd; ``nodes`` counts the evaluations made, about half the full
axis's on each halved one.  This takes every A-type origin, every A2 line or
shell scan and both fold families, and at x = 0 both axes of D4+-, D6+-, D8+-,
E6 and E8 and the theta_1 axis of D5, D7 and E7; a centre other than 0, a
custom amplitude or mixed parities (the A3 shells) keep [-R, R].

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
it.  So every pass, 1D, 2D product or 2D coupled, costs its axis evaluations,
PANEL_ORDER times the panels on each axis, summed over the axes: ``nodes``
counts those, the budget too.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .amplitudes import AmplitudeProfile
from .catalog import PhaseFunction
from .polys import Term, ThetaPoly, _merge

# Axis evaluations an evaluation may spend when its spec sets no budget, by k.  For
# k = 2, 2^20 is 6.2 times what D7, the costliest origin at h = 2^-10, needs there
# (167,856 in 2 passes; D8+- take 158,928 on their halved axes), and a point that
# never converges (a step amplitude at 2^-10) stops after 0.35-0.53 s at a
# 53-62 MB process peak on a 2-core box.
DEFAULT_BUDGET = {1: 2**24, 2: 2**20}
# Panel placement and refinement, calibrated against exact Fresnel/Airy values.
PANEL_ORDER = 48  # Gauss-Legendre nodes per panel
NODES_PER_PERIOD = 2.8  # first-pass nodes per local oscillation period
MIN_AXIS_NODES = 96  # first-pass resolution floor for the amplitude, per axis
REFINE_FACTOR = math.sqrt(2.0)  # node-density growth from one pass to the next
MAX_PASSES = 14
PROFILE_SAMPLES = 513  # samples of the frequency-bound profile per axis
SLAB_NODES = 2**13  # nodes per slab of a sum pass; bounds every pass's memory
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
    budget: int | None = None

    def __post_init__(self):
        if not 0.0 < self.h < 1.0:
            raise ValueError(f"h must lie in (0, 1), got {self.h}")
        if not 1e-10 <= self.rel_tol <= 1e-3:
            raise ValueError(f"rel_tol must lie in [1e-10, 1e-3], got {self.rel_tol}")
        if self.budget is not None and self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if len(self.x) != self.phase.k0:
            raise ValueError(
                f"x needs {self.phase.k0} entries for {self.phase.singularity.label}")
        if self.amplitude.dim != self.phase.k:
            raise ValueError("amplitude dimension must match the phase variable count")


class IntegralResult(NamedTuple):
    value: complex
    abs_value: float
    est_error: float
    converged: bool
    passes: int
    nodes: int  # axis evaluations over all passes: N1 + N2 per 2D pass, coupled or not
    stop: str  # converged | budget | max_passes


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    """np.linspace(lo, hi, n + 1) as numpy computes it, k (hi - lo) / n + lo with the last
    point hi, without its Python-level overhead."""
    grid = np.arange(n + 1.0)
    grid *= (hi - lo) / n
    grid += lo
    grid[-1] = hi
    return grid


def _axis_panels(gprofile: np.ndarray, tgrid: np.ndarray, h: float, q: float,
                 min_nodes: float, min_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Panel midpoints and half-widths for one axis from a sampled frequency-bound profile.

    The n panels take equal shares of the accumulated density.  n is the odd
    count nearest total / PANEL_ORDER, and at least ``min_panels``, so a panel,
    not an edge, lies across the box's middle, where a caustic's phase is flat.
    ``min_panels`` exceeds the previous pass's count, so a pass never repeats
    the node set it is compared with.
    """
    lo, hi = tgrid[0], tgrid[-1]
    density = gprofile * (q / (2.0 * math.pi * h))
    density += min_nodes / (hi - lo)
    cum = np.empty_like(density)  # 0, then the running sums of the trapezoids
    cum[0] = 0.0
    trapezoids = np.add(density[1:], density[:-1], out=cum[1:])
    trapezoids *= 0.5
    trapezoids *= tgrid[1:] - tgrid[:-1]
    np.add.accumulate(trapezoids, out=trapezoids)
    # min_panels | 1 is the smallest odd count >= min_panels
    n = max(min_panels | 1, 2 * int(cum[-1] / (2 * PANEL_ORDER)) + 1)
    edges = np.interp(_grid(0.0, cum[-1], n), cum, tgrid)
    edges[0], edges[-1] = lo, hi
    mid = edges[1:] + edges[:-1]
    mid *= 0.5
    half = edges[1:] - edges[:-1]
    half *= 0.5
    return mid, half


def _panel_nodes(mid: np.ndarray, half: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of the panels (mid, half), panel by panel."""
    nodes = np.multiply.outer(half, _GL_NODES)
    nodes += mid[:, None]
    return nodes.ravel(), np.multiply.outer(half, _GL_WEIGHTS).ravel()


def _gauss_spread(x: np.ndarray, values: np.ndarray, step: float, tau: float,
                  half: int, size: int) -> np.ndarray:
    """sum_i values_i e^{-(x_i - m step)^2 / (4 tau)} at grid index m (mod ``size``, a power of 2).

    Each point reaches the 2 half + 1 grid points around its nearest one, m0, at
    offsets from one rounding of x - m0 step: a large x then shifts its window
    coherently, as a dense sum's phase error would, instead of scattering it.
    The points go in chunks of at most 4 SLAB_NODES window entries, so the
    memory grows neither with the points nor with the window.  A chunk's
    bincounts run from its lowest grid index, first - half, and stop at its
    highest or after ``size`` bins, added to the grid as one slice, or two where
    they wrap: consecutive nodes of an axis lie close, so a chunk's work follows
    its entries, not the grid.
    """
    k = np.arange(-half, half + 1)
    out = np.zeros(size, dtype=complex)
    per_chunk = max(1, 4 * SLAB_NODES // k.size)
    for lo in range(0, x.size, per_chunk):
        xs, vs = x[lo:lo + per_chunk], values[lo:lo + per_chunk]
        m0 = np.rint(xs / step)
        w = (xs - m0 * step)[:, None] - k * step
        w **= 2
        w /= -4.0 * tau
        np.exp(w, out=w)  # the real weights: each part of values is spread with them
        first = m0.min()
        idx = (((m0 - first).astype(np.int64)[:, None] + (k + half)) & (size - 1)).ravel()
        part = (np.bincount(idx, (w * vs.real[:, None]).ravel())
                + 1j * np.bincount(idx, (w * vs.imag[:, None]).ravel()))
        start = (int(first) - half) & (size - 1)
        head = min(part.size, size - start)  # the bins before the grid wraps to index 0
        out[start:start + head] += part[:head]
        out[:part.size - head] += part[head:]
    return out


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


def _expi(phase: np.ndarray) -> np.ndarray:
    """e^{i phase}, as cos and sin written into the two parts of one complex array."""
    out = np.empty(phase.shape, dtype=complex)
    np.cos(phase, out=out.real)
    np.sin(phase, out=out.imag)
    return out


def _weighted_factor(part: ThetaPoly, amp_fn, nodes: np.ndarray, weights: np.ndarray,
                     h: float) -> np.ndarray:
    """u = w * (a * e^{iP/h}) at one axis's nodes."""
    amp = amp_fn(nodes)  # first, while its temporaries are the only large arrays
    phase = part(nodes)
    phase /= h
    u = _expi(phase)
    u *= amp
    u *= weights
    return u


def _scaled(terms: tuple[Term, ...], factor) -> tuple[Term, ...]:
    """The merged ``terms`` times -1 or an integer >= 2, as ``ThetaPoly.scale`` merges them:
    no coefficient vanishes or meets another's exponent, so only their order can change."""
    return tuple(sorted([(factor * c, e) for c, e in terms]))


def _slope_bound(terms: tuple[Term, ...], n: int, t: np.ndarray) -> np.ndarray:
    """bound|(n d)'| at |t| = ``t`` for the merged ``terms`` of d, bit for bit
    ThetaPoly(1, terms).scale(n).partial(0).abs_bound_profile: the same terms in the same order."""
    out = np.zeros_like(t)
    for c, e in sorted([(n * c * a, a - 1) for c, (a,) in terms if a]):
        out += abs(c) * t**e
    return out


def _chains(offsets) -> list[list]:
    """Targets 1, 2, ... grouped into chains [source, d, targets] of offsets d, 2d, ...: their
    sums take u z, u z^2, ..., z = e^{i d/h}, the conjugate of chain ``source``'s z if d
    is the exact negative of that chain's (each z serves one mirror), else cos/sin.
    Each offset is the merged term tuple of a one-variable polynomial."""
    chains, extends, unpaired = [], {}, {}
    for j, d in enumerate(offsets, 1):
        chain = extends.pop(d, None)
        if chain is None:
            chain = [unpaired.pop(_scaled(d, -1.0), None), d, []]
            if chain[0] is None:
                unpaired[d] = len(chains)
            chains.append(chain)
        chain[2].append(j)
        extends[_scaled(chain[1], len(chain[2]) + 1)] = chain
    return chains


def _axis_sums(part: ThetaPoly, amp_fn, panels, h: float, chains) -> np.ndarray:
    """sum_i u_i e^{i d_j(t_i)/h} over one axis's panels for d_0 = 0 and each target j.

    u is ``_weighted_factor``'s, and each of the ``_chains`` (with its step d a
    ThetaPoly) adds one z per node.  The panels are taken SLAB_NODES nodes at a
    time, so a pass's memory does not grow with its nodes; each slab adds its
    sums, listed in chain order, in one write.
    """
    mid, half = panels
    order = [0] + [j for c in chains for j in c[2]]
    sums = np.zeros(len(order), dtype=complex)
    sources = {c[0] for c in chains}
    per_slab = max(1, SLAB_NODES // PANEL_ORDER)
    for lo in range(0, mid.size, per_slab):
        nodes, weights = _panel_nodes(mid[lo:lo + per_slab], half[lo:lo + per_slab])
        u = _weighted_factor(part, amp_fn, nodes, weights, h)
        slab = [u.sum()]
        kept = {}
        for c, (source, step, targets) in enumerate(chains):
            if source is None:
                z = step(nodes)
                z /= h
                z = _expi(z)
                if c in sources:
                    kept[c] = z
            else:
                z = kept.pop(source)  # its chain is done with it
                np.conjugate(z, out=z)
            v = u * z
            slab.append(v.sum())
            for _ in targets[1:]:
                v *= z
                slab.append(v.sum())
        sums += slab
    out = np.empty_like(sums)
    out[order] = sums
    return out


def _pass_sums(parts: tuple[ThetaPoly, ...], mixed: tuple[int, ThetaPoly], h: float,
               amp_fns, axes, chains, parities) -> list[complex]:
    """One pass on the tensor grid of ``axes``, the (mid, half) panels of each axis.

    ``parts`` are the axes' own phase terms and ``mixed`` = (p, G) the rest,
    t1^p G(t2) (see ``ThetaPoly.split_axes``).  The own terms go into the
    weights, u = w * (a * e^{iP/h}); with no mixed term the pass is the product
    of the axis sums (for k = 1, ``_axis_sums`` of the one axis with the
    targets' chains), otherwise the type-3 sum of u1, u2 at a = t1^p,
    omega = G(t2) / h.  An axis with a parity (``_axis_parities``, else None)
    has panels on [0, R] only: its sum S stands for 2 S (even) or 2 Re S (odd),
    and a type-3 value V with m such axes for 2^m V, or 2^m Re V if one is odd.
    """
    p, g = mixed
    if not g.terms:
        sums = [_axis_sums(part, amp_fn, panels, h, chains if ax == 0 else ())
                for ax, (part, amp_fn, panels) in enumerate(zip(parts, amp_fns, axes))]
        for ax, parity in enumerate(parities):  # [-R, 0] adds S again, or its conjugate
            if parity is not None:
                sums[ax] = 2.0 * (sums[ax].real if parity else sums[ax])
        if len(sums) == 1:  # the axis's own sums, bit for bit; an odd axis's are real
            return sums[0].astype(complex).tolist()
        # products of numpy scalars round as Python's complex products do; arrays' may not
        return [complex(math.prod(vals)) for vals in zip(*sums)]
    grids = [_panel_nodes(*panels) for panels in axes]
    us = [_weighted_factor(part, amp_fn, nodes, weights, h)
          for part, amp_fn, (nodes, weights) in zip(parts, amp_fns, grids)]
    value = _type3_sum(us[0], grids[0][0] ** p, us[1], g(grids[1][0]) / h)
    halved = [parity for parity in parities if parity is not None]
    return [complex(2 ** len(halved) * (value.real if any(halved) else value))]


def _first_met(values: list[complex], rel_tol: float, raw_floor: float) -> int | None:
    """First pass s >= 1 whose change from pass s - 1 is within rel_tol * max(|I|, raw_floor)."""
    for s in range(1, len(values)):
        if abs(values[s] - values[s - 1]) <= rel_tol * max(abs(values[s]), raw_floor):
            return s
    return None


def _meet(met: list, history: list, rel_tol: float, origin_floor: float) -> None:
    """Bring ``met``, per point the pass that met its rule or None, up to ``history``'s last pass.

    Each unmet point is judged by ``_first_met`` on its last two values: x_0 against
    ``origin_floor``, each target against 0 until x_0 has met its rule and |I(x_0)|
    from then.  At the pass that floor rises every target's whole history is judged
    again, so ``met`` is always what ``_first_met`` gives over the whole history.
    """
    s, last_two = len(history) - 1, history[-2:]
    if met[0] is None and _first_met([v[0] for v in last_two], rel_tol, origin_floor):
        met[0] = s
        floor = max(abs(history[s][0]), 1e-300)
        met[1:] = [_first_met([v[j] for v in history], rel_tol, floor)
                   for j in range(1, len(met))]
        return
    floor = max(abs(history[met[0]][0]), 1e-300) if met[0] is not None else 1e-300
    for j in range(1, len(met)):
        if met[j] is None and _first_met([v[j] for v in last_two], rel_tol, floor):
            met[j] = s


def _axis_parities(amp: AmplitudeProfile, parts: tuple[ThetaPoly, ...],
                   mixed: tuple[int, ThetaPoly], offsets) -> list[int | None]:
    """Per axis i, the parity shared by every t_i exponent its sum sees, if the amplitude allows.

    Every kind but ``custom`` is real and even about its centre.  With centre_i at 0
    and one parity p of the terms axis i's sum sees, the integral over t_i < 0 is
    the one over t_i > 0 for p = 0 and its conjugate for p = 1.  A product pass's
    axis sees its own part (axis 0 the k = 1 ``offsets`` too), a coupled pass's
    every term of phi; a term without t_i counts as exponent 0, even.  None when
    the amplitude is ``custom`` or off centre on the axis, or the parities are mixed.
    """
    p, g = mixed
    out = []
    for ax, part in enumerate(parts):
        exps = {e for terms in ((part.terms, *offsets) if ax == 0 else (part.terms,))
                for _, (e,) in terms}
        if g.terms:  # coupled: the mixed terms t1^p G(t2), and the other axis's part
            exps |= {p} if ax == 0 else {e for _, (e,) in g.terms}
            if any(other.terms for j, other in enumerate(parts) if j != ax):
                exps.add(0)
        parities = {e % 2 for e in exps}
        out.append(None if amp.kind == "custom" or amp.center[ax] != 0.0 or len(parities) > 1
                   else max(parities, default=0))
    return out


def _integrate(spec: IntegralSpec, offsets: tuple[tuple[Term, ...], ...] = (), *,
               floor: float = 0.0) -> list[IntegralResult]:
    """Shared refinement loop of ``evaluate`` and ``evaluate_points``.

    It integrates at spec.x and at each target j, whose phase is phi + d_j for
    the phase offsets d_j = ``offsets[j - 1]`` (k = 1 only, each the merged term
    tuple of a one-variable polynomial, as ``polys._merge`` gives it), all on one node set
    per pass, placed from the profile bound(phi') + max_j bound(d_j'), which
    bounds every point's |phi'|.  spec.x converges within
    rel_tol * max(|I|, ``floor``) (``floor`` in the units of ``abs_value``), every
    other point against the converged |I(spec.x)| (0 if that never converged).
    Each result is the one of the first pass that met its point's rule, or of
    the last pass; the loop stops once every point has met it, or on budget or
    MAX_PASSES.  Each axis with an ``_axis_parities`` parity keeps the full box's
    panels on [0, R] alone, and spends about half that axis's nodes.
    """
    h, amp, rel_tol = spec.h, spec.amplitude, spec.rel_tol
    phi = spec.phase.theta_poly(spec.x)
    mod = amp.modulation_poly()
    if mod is not None:
        phi = phi + mod
    amp_fns = [(lambda u, ax=ax: amp.axis_slow(u, h, ax)) for ax in range(phi.nvars)]
    rad = amp.support_radius(h)
    box = [(c - rad, c + rad) for c in amp.center]
    # the h^{-k/2} prefactor multiplies the raw integrals at the end
    mag = h ** (-spec.phase.k / 2.0)
    budget = spec.budget if spec.budget is not None else DEFAULT_BUDGET[spec.phase.k]
    parts, mixed = phi.split_axes()
    parities = _axis_parities(amp, parts, mixed, offsets)
    spent = 0
    axis_panels = [1] * phi.nvars  # of the last pass; the first has at least 3
    history, spent_after = [], []
    stop = "max_passes"

    tgrids = [_grid(lo, hi, PROFILE_SAMPLES - 1) for lo, hi in box]
    gs = [phi.partial(ax).abs_bound_profile(ax, box, tg) for ax, tg in enumerate(tgrids)]
    chains = _chains(offsets)
    if chains:  # bound(phi') + max_j bound(d_j'); a chain's largest is at its last target
        t = np.abs(tgrids[0])
        gs[0] = gs[0] + functools.reduce(np.maximum, [_slope_bound(d, len(ts), t)
                                                      for _, d, ts in chains])
        chains = [(source, ThetaPoly(1, d), ts) for source, d, ts in chains]
    met, origin_floor = [None] * (len(offsets) + 1), max(floor / mag, 1e-300)

    for s in range(MAX_PASSES):
        q = NODES_PER_PERIOD * REFINE_FACTOR**s
        min_nodes = MIN_AXIS_NODES * REFINE_FACTOR**s
        axes = [_axis_panels(g, tg, h, q, min_nodes, n + 1)
                for g, tg, n in zip(gs, tgrids, axis_panels)]
        axis_panels = [a[0].size for a in axes]
        for ax, (n, parity) in enumerate(zip(axis_panels, parities)):
            if parity is not None:  # the upper (n + 1) / 2 panels, the middle one cut at 0
                mid, half = (a[n // 2:] for a in axes[ax])
                mid[0] = half[0] = 0.5 * (mid[0] + half[0])
                axes[ax] = (mid, half)
        cost = PANEL_ORDER * sum(a[0].size for a in axes)
        # the coarsest pass always runs so there is a "last estimate" to
        # return; the budget gates every refinement after it
        if s > 0 and spent + cost > budget:
            stop = "budget"
            break
        spent += cost
        history.append(_pass_sums(parts, mixed, h, amp_fns, axes, chains, parities))
        spent_after.append(spent)
        if s:
            _meet(met, history, rel_tol, origin_floor)
            if None not in met:
                stop = "converged"
                break

    results = []
    for i, met_at in enumerate(met):
        # the pass pair the returned value comes from; the coarsest pass has none
        last = len(history) - 1 if met_at is None else met_at
        value = history[last][i]
        est_error = abs(value - history[last - 1][i]) if last else math.inf
        results.append(IntegralResult(
            value=mag * value,
            abs_value=mag * abs(value),
            est_error=(mag * est_error) if math.isfinite(est_error) else math.inf,
            converged=met_at is not None,
            passes=last + 1,
            nodes=spent_after[last],
            stop=stop if met_at is None else "converged",
        ))
    return results


def evaluate(spec: IntegralSpec) -> IntegralResult:
    """Evaluate I(x; h), the h^{-k/2} normalization included."""
    return _integrate(spec)[0]


def evaluate_points(spec: IntegralSpec, xs) -> list[IntegralResult]:
    """Evaluate I at spec.x, then at each x of ``xs`` (same spec but for x), in that order.

    spec.x converges within rel_tol * |I|, every other point within
    rel_tol * max(|I|, |I(spec.x)|) once spec.x has converged (against 0 if it
    never does).  For k = 1 one node set per pass serves them all, the phase at
    x being phi(t; spec.x) + sum_i (x - spec.x)_i f_i(t), f_i the
    ``phase.fj_monomials``; for k = 2 each point is evaluated alone.
    """
    if len(xs) and spec.phase.k == 1:
        return _integrate(spec, tuple(_merge([
            ((a - b) * c, e) for f, a, b in zip(spec.phase.fj_monomials, x, spec.x, strict=True)
            for c, e in f.terms]) for x in xs))
    first = evaluate(spec)
    floor = first.abs_value if first.converged else 0.0
    return [first] + [_integrate(replace(spec, x=tuple(x)), floor=floor)[0] for x in xs]
