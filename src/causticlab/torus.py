"""Lattice counting on the flat torus R^n / 2pi Z^n.

Counts are exact integer enumerations:

    ball_count        #{alpha in Z^n : |alpha - omega/h| < C h^{-mu}}
    sphere_cap_count  #{alpha in Z^n : |alpha|^2 = j, |alpha - sqrt(j) omega| <= C j^{mu/2}}

One walk enumerates both.  It expands a ball axis by axis as a frontier of
squared budgets radius^2 - sum (alpha_i - c_i)^2, one per admissible prefix.
The ball count meets in the middle: it walks the first ceil(n/2) axes, enumerates
the last floor(n/2) axes once into a sorted table of squared distances, and
counts each head prefix's tail points by bisection in that table, the keys of
each head slab sorted first, so a 4D ball of radius r costs O(r^2 log r).  It
is exact on the float center and radius: floats decide all points but those
within a thin margin of the sphere, which are re-decided in Fractions (cap
tests are still floats, run per block against one array of cap widths; the
points within 1e-12 of their width are re-decided on the scalar CapQuery
width, which the array can miss by 2 ulps).  Caps walk all n axes
of a ball holding the annular cap {alpha : j_lo <= |alpha|^2 <= j_hi, alpha
inside the cap of j = |alpha|^2}, the last axis of each prefix cut to the
annulus (by exact integer square roots) and to a cone about omega that holds
every cap of the range, and each point's j = |alpha|^2 picks its cap test.  A
single sphere is the case j_lo = j_hi = j; the dyadic search of the
lower-bound argument runs it once per block [J, 2J] and bins the points by j,
which gives every M(j) = sphere_cap_count of the block in one pass.  Each
block's sum of M(j) is reported beside the volume of the corresponding
annular cap solid and the number of walk points examined, and the maximizing
j per block is selected, realizing M(j) >= c j^{(n-1)delta/2 - 1/2} along the
selected sequence.

Convention: the torus carries normalized measure, so the exponentials
e_alpha(x) = e^{-i alpha.x} are orthonormal and the sum of count of them with
coefficients 1/sqrt(count) has sup/L^2 ratio sqrt(count), attained at x = 0:
the ratio whose growth in 1/h = sqrt(j) ``ratio_exponent`` fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

ENUM_LIMITS = {"radius": {1: 1.0e4, 2: 1.0e4, 3: 1.0e4, 4: 512.0},
               "j": {1: 10**6, 2: 10**6, 3: 10**6, 4: 10**5}}
BALL_EXPONENT_TOLERANCE = 0.05
SLAB_POINTS = 2**14  # points per vectorized slab of the one ball walk; bounds memory

OMEGA_PRESETS = {
    # ball mode: Diophantine-flavored directions, no unit-length requirement
    "diophantine": {
        1: (math.sqrt(2) - 1.0,),
        2: (math.sqrt(2) - 1.0, math.sqrt(3) - 1.0),
        3: (math.sqrt(2) - 1.0, math.sqrt(3) - 1.0, math.sqrt(5) - 2.0),
        4: (math.sqrt(2) - 1.0, math.sqrt(3) - 1.0, math.sqrt(5) - 2.0,
            math.sqrt(7) - 2.0),
    },
    # sphere mode: rational unit vectors so lattice points exist on the spheres
    "rational": {
        1: (1.0,),
        2: (3.0 / 5.0, 4.0 / 5.0),
        3: (1.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0),
        4: (1.0 / 5.0, 2.0 / 5.0, 2.0 / 5.0, 4.0 / 5.0),
    },
}


@dataclass(frozen=True)
class CapQuery:
    """Ball or sphere-cap counting query at h = j^{-1/2}.

    The dimension n is the number of entries of the direction omega (1 to 4).
    """

    omega: tuple[float, ...]
    mu: float
    j: int
    cap_constant: float = 1.0

    def __post_init__(self):
        if not 1 <= len(self.omega) <= 4:
            raise ValueError("omega needs 1 to 4 entries")
        if self.j < 1:
            raise ValueError("j must be a positive integer")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.cap_constant <= 0:
            raise ValueError("cap_constant must be positive")

    @property
    def n(self) -> int:
        return len(self.omega)

    @property
    def h_value(self) -> float:
        return self.j**-0.5

    @property
    def center(self) -> np.ndarray:
        return np.asarray(self.omega, dtype=float) / self.h_value

    @property
    def cap_radius(self) -> float:
        return self.cap_constant * self.h_value**-self.mu

    def require_unit_omega(self):
        norm = math.sqrt(sum(w * w for w in self.omega))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"sphere-cap queries need |omega| = 1, got {norm}")


def _expand(chunks, c: float, margin: float, bound=None):
    """Extend every prefix by each integer a with (a - c)^2 < budget + margin.

    A chunk is (budgets, coordinate columns of the prefixes).  Its ranges of a
    are laid end to end and cut into slabs of SLAB_POINTS; each slab yields
    the new budgets budget - (a - c)^2 above -margin and their prefixes.
    `bound(count, columns)`, if given, trims the ranges: it returns (rows, lo,
    hi), and prefix rows[k] keeps only the a in [lo[k], hi[k]].
    """
    for rem, coords in chunks:
        w = np.sqrt(rem + margin)
        lo = np.ceil(c - w).astype(np.int64)
        hi = np.floor(c + w).astype(np.int64)
        if bound is not None:
            rows, lo_b, hi_b = bound(len(rem), coords)
            rem, coords = rem[rows], [col[rows] for col in coords]
            lo, hi = np.maximum(lo[rows], lo_b), np.minimum(hi[rows], hi_b)
        size = np.maximum(hi - lo + 1, 0)
        ends = np.cumsum(size)
        starts = ends - size
        total = int(np.sum(size))
        for start in range(0, total, SLAB_POINTS):
            stop = min(start + SLAB_POINTS, total)
            # budgets i0 <= i < i1 have ranges that meet the slab
            i0, i1 = np.searchsorted(ends, [start, stop - 1], side="right") + [0, 1]
            share = np.minimum(ends[i0:i1], stop) - np.maximum(starts[i0:i1], start)
            e = np.repeat(np.arange(i0, i1), share)
            a = np.arange(start, stop) - np.repeat(starts[i0:i1] - lo[i0:i1], share)
            new = np.repeat(rem[i0:i1], share) - (a - c) ** 2
            keep = new > -margin
            e, a, new = e[keep], a[keep], new[keep]  # frees the unfiltered arrays
            yield new, [col[e] for col in coords] + [a]


def _margin(center, radius: float) -> float:
    """Half-width of the band around radius^2 in which float squared distances are re-decided."""
    # rounding moves a squared distance by a few ulps of this scale; the margin is far wider
    return 2.0**-40 * (radius + 1.0) * (radius + max(map(abs, center)) + 1.0)


def _walk(center, radius: float, margin: float, last_bound=None):
    """The _expand chain over every axis of `center`, the last trimmed by `last_bound`."""
    chunks = iter([(np.array([radius * radius]), [])])
    for i, c in enumerate(center):
        chunks = _expand(chunks, c, margin, last_bound if i == len(center) - 1 else None)
    return chunks


def count_in_ball(center, radius: float) -> int:
    """Exact number of integer points with sum (alpha_i - c_i)^2 < radius^2.

    Exact on the values of the float center and radius, by meeting in the
    middle: the first ceil(n/2) axes are walked as a frontier of squared
    budgets B (_walk), the last floor(n/2) axes are enumerated once into a
    sorted table T of squared distances, and each head counts the tail
    entries with T < B by bisection.  Each slab of heads is sorted by B
    first, so each search in T starts from the bound of the one before.  The
    points whose float T lies within a margin of B are re-decided in
    Fractions.
    """
    center = [float(c) for c in center]
    n = len(center)
    if not 1 <= n <= 4 or not all(map(math.isfinite, (*center, radius))):
        raise ValueError("need 1 to 4 finite center coordinates and a finite radius")
    limit = ENUM_LIMITS["radius"][n]
    if radius > limit:
        raise ValueError(f"radius {radius} exceeds the n = {n} enumeration bound {limit}")
    if radius <= 0:
        return 0
    # B and T are each radius^2 less a chain of correctly rounded squares (a - c)^2 and
    # differences, every value below (radius + 1)^2: each is off by a few ulps of that,
    # B - T by twice that, far inside the margin of the full centre (at least
    # 2^-40 (radius + 1)^2), which both halves share.  A walk drops only points whose
    # float budget is below -margin: they lie outside the ball.
    margin = _margin(center, radius)
    head = (n + 1) // 2
    tail = list(_walk(center[head:], radius, margin))  # for n = 1, the empty point alone
    if not tail:
        return 0  # no tail point lies within the radius
    table = radius * radius - np.concatenate([rem for rem, _ in tail])
    points = np.array([np.concatenate(col) for col in zip(*(cs for _, cs in tail))],
                      dtype=np.int64).reshape(n - head, len(table)).T
    order = np.argsort(table)
    table, points = table[order], points[order]
    exact_center, exact_r2 = list(map(Fraction, center)), Fraction(radius) ** 2
    total = 0
    for budget, coords in _walk(center[:head], radius, margin):
        # sorted keys let each search start from the last one's bound
        order = np.argsort(budget)
        budget, coords = budget[order], [col[order] for col in coords]
        # table entries before `sure` are inside, those from `near` on outside
        sure = np.searchsorted(table, budget - margin, side="left")
        near = np.searchsorted(table, budget + margin, side="right")
        total += int(np.sum(sure, dtype=np.int64))
        for i in np.flatnonzero(near > sure):
            prefix = [int(col[i]) for col in coords]
            total += sum(sum((x - v) ** 2 for x, v in zip(prefix + rest, exact_center))
                         < exact_r2 for rest in points[sure[i]:near[i]].tolist())
    return total


def ball_count(q: CapQuery) -> int:
    """N_mu-style count: integer points within C h^{-mu} of omega/h (strict <)."""
    return count_in_ball(q.center, q.cap_radius)


def _cap_widths(q: CapQuery, js: np.ndarray) -> np.ndarray:
    """The cap width of each j in js: CapQuery.cap_radius's expression, in one array.

    numpy's array pow is off from Python's by up to 2 ulps (4.4e-16 relative),
    so an entry can differ from replace(q, j=j).cap_radius in its last bits.
    """
    return q.cap_constant * (js.astype(float) ** -0.5) ** -q.mu


def _cap_points(q: CapQuery, j_hi: int):
    """Yield the points of the annular cap j_lo = q.j <= |alpha|^2 <= j_hi, slab by slab.

    A point alpha belongs to the sphere j = |alpha|^2 and is kept when
    |alpha - sqrt(j) omega| <= q.cap_constant * (j^{-1/2})^{-q.mu}, the cap
    of CapQuery(j=j).  The candidates come from the ball walk (_walk) over all
    n axes, its last axis trimmed per prefix to the annulus j_lo <= |alpha|^2
    <= j_hi and to the cone alpha.omega >= kappa |alpha| that holds every cap
    of the block; a slab holds at most SLAB_POINTS candidates and is yielded as
    (cap points, j of each, number of candidates), and the points come in
    lexicographic order.  The cap test runs on the walk's coordinate columns
    against one width array for the block (_cap_widths); the few points whose
    distance lies within 1e-12 (relative) of their width are re-decided on the
    scalar CapQuery(j=j).cap_radius, so every point is decided as that cap
    decides it.
    """
    q.require_unit_omega()
    limit = ENUM_LIMITS["j"][q.n]
    if j_hi > limit:
        raise ValueError(f"j = {j_hi} exceeds the n = {q.n} enumeration bound {limit}")
    j_lo = q.j
    omega = np.asarray(q.omega, dtype=float)
    width = _cap_widths(q, np.arange(j_lo, j_hi + 1))
    # every cap point lies within (hi - lo)/2 + the widest cap (that of j_hi: widths grow
    # with j) of (lo + hi)/2 omega: walk that ball one point wider, or ball(0, hi + 1),
    # which holds the whole annulus, if smaller
    lo, hi = math.sqrt(j_lo), math.sqrt(j_hi)
    widest = replace(q, j=j_hi).cap_radius
    center, radius = 0.5 * (lo + hi) * omega, 0.5 * (hi - lo) + widest + 1.0
    if radius > hi + 1.0:
        center, radius = np.zeros(q.n), hi + 1.0
    center = center.tolist()
    # on |alpha|^2 = j the cap is alpha.omega >= kappa_j |alpha|, kappa_j = 1 - width^2/(2j),
    # which does not fall with j (mu <= 1): kappa_{j_lo}, less a margin far above rounding,
    # holds the block.  Per prefix (P, s = its |alpha|^2, alpha.omega) that cone keeps the a
    # between the roots of (omega_n^2 - kappa^2) a^2 + 2 s omega_n a + s^2 - kappa^2 P, widened
    # by one; cones near the last axis, whose roots rounding could move, are not used
    kappa, wn = 1.0 - q.cap_radius ** 2 / (2.0 * j_lo) - 1e-6, omega[-1]
    steep = kappa * kappa - wn * wn if kappa > 0 else 0.0

    def last_bound(count, coords):  # a <= -1 or a >= 0 with j_lo - P <= a^2 <= j_hi - P
        P = sum((col * col for col in coords), np.zeros(count, dtype=np.int64))
        # floor(sqrt(x)) is the exact integer square root of an integer x < 2^52
        amax = np.where(P <= j_hi, np.floor(np.sqrt(np.maximum(j_hi - P, 0))), -1)
        amin = np.where(P < j_lo, np.floor(np.sqrt(np.maximum(j_lo - P - 1, 0))) + 1, 0)
        first = np.stack([-amax, amin], axis=1).ravel()
        last = np.stack([-np.maximum(amin, 1), amax], axis=1).ravel()
        if steep > 1e-4:
            s = sum((w * col for w, col in zip(omega, coords)), np.zeros(count))
            disc = s * s - steep * P
            # a root of -1 where disc < 0 puts first above last: no a
            root = np.where(disc >= 0, kappa * np.sqrt(np.maximum(disc, 0.0)), -1.0)
            first = np.maximum(first, np.repeat(np.ceil((s * wn - root) / steep) - 1, 2))
            last = np.minimum(last, np.repeat(np.floor((s * wn + root) / steep) + 1, 2))
        return np.repeat(np.arange(count), 2), first.astype(np.int64), last.astype(np.int64)

    for _, coords in _walk(center, radius, _margin(center, radius), last_bound):
        js = sum(col * col for col in coords)  # in [j_lo, j_hi]: last_bound's exact cuts
        root = np.sqrt(js.astype(float))
        # |alpha - sqrt(j) omega|^2 summed in axis order, naive_sphere_cap_count's expression
        dist = np.sqrt(sum((col - root * w) ** 2 for col, w in zip(coords, omega)))
        cap = width[js - j_lo]
        inside = dist <= cap
        # an array width is within 2 ulps (4.4e-16 relative) of the scalar cap_radius, so a
        # distance more than 1e-12 cap away from it lies on the same side of both; the
        # points inside that band, few, are decided on the scalar
        for i in np.flatnonzero(np.abs(dist - cap) <= 1e-12 * cap):
            inside[i] = dist[i] <= replace(q, j=int(js[i])).cap_radius
        yield np.stack([col[inside] for col in coords], axis=1), js[inside], len(coords[0])


def sphere_cap_count(q: CapQuery) -> int:
    """Exact count of lattice points on the sphere |alpha|^2 = j inside the cap."""
    return sum(len(js) for _, js, _ in _cap_points(q, q.j))


def cap_solid_volume(n: int, J: int, delta: float) -> float:
    """Volume of {alpha : |alpha| in [sqrt(J), sqrt(2J)], |alpha - |alpha| omega| <= |alpha|^delta}."""
    r = np.linspace(math.sqrt(J), math.sqrt(2 * J), 2001)
    half = np.minimum(1.0, 0.5 * r ** (delta - 1.0))
    psi = 2.0 * np.arcsin(half)
    if n == 1:  # the 0-sphere {r omega, -r omega}: a cap holds -r omega only at psi = pi
        area = np.where(half >= 1.0, 2.0, 1.0)
    elif n == 2:
        area = 2.0 * psi * r
    elif n == 3:
        area = 2.0 * math.pi * r**2 * (1.0 - np.cos(psi))
    elif n == 4:
        area = 2.0 * math.pi * r**3 * (psi - np.sin(psi) * np.cos(psi))
    else:
        raise ValueError("dimension limited to 4")
    return float(np.trapezoid(area, r))


@dataclass(frozen=True)
class DyadicBlock:
    J: int
    best_j: int
    best_count: int
    block_sum: int
    volume: float
    represented: int
    candidates: int  # walk points examined for the block


def dyadic_lower_bound_search(n: int, delta: float, J_range: tuple[int, int]) -> list[DyadicBlock]:
    """Per dyadic block [J, 2J] inside J_range: every M(j), and the argmax.

    M(j) = sphere_cap_count(CapQuery(omega, mu=delta, j)), the lattice points
    on |alpha|^2 = j within j^{delta/2} of sqrt(j) omega, omega =
    OMEGA_PRESETS["rational"][n]: the caps whose solid ``cap_solid_volume``
    measures.  One enumeration of the block's annular cap counts them all,
    binned by j = |alpha|^2.  Blocks with no representable j are reported with
    best_count 0, not treated as fatal.
    """
    omega = OMEGA_PRESETS["rational"][n]
    lo, hi = J_range
    if lo < 1 or hi < lo:
        raise ValueError("bad J_range")
    blocks = []
    J = int(lo)
    while 2 * J <= hi:
        q = CapQuery(omega=omega, mu=float(delta), j=J)
        counts, candidates = np.zeros(J + 1, dtype=np.int64), 0
        for _, js, examined in _cap_points(q, 2 * J):
            counts += np.bincount(js - J, minlength=J + 1)
            candidates += examined
        best_idx = int(np.argmax(counts))
        blocks.append(DyadicBlock(
            J=J,
            best_j=J + best_idx,
            best_count=int(counts[best_idx]),
            block_sum=int(np.sum(counts)),
            volume=cap_solid_volume(n, J, float(delta)),
            represented=int(np.count_nonzero(counts)),
            candidates=candidates,
        ))
        J *= 2
    return blocks


def ratio_exponent(js, counts) -> float:
    """Growth exponent of the extremizer ratio sqrt(count) in 1/h = sqrt(j); drops zeros."""
    good = [(j, c) for j, c in zip(js, counts) if c > 0]
    return float(np.polyfit(np.log([j**0.5 for j, _ in good]),
                            np.log([math.sqrt(c) for _, c in good]), 1)[0])


def dyadic_exponent(blocks) -> float | None:
    """ratio_exponent along the blocks' best j; None below 4 nonempty blocks."""
    sel = [b for b in blocks if b.best_count > 0]
    if len(sel) < 4:
        return None
    return ratio_exponent([b.best_j for b in sel], [b.best_count for b in sel])


def sphere_window(n: int, delta: float) -> tuple[float, float]:
    """Dyadic ratio exponent bounds: (n-1)delta/2 - 1/2 - 0.15 to (n-1)delta/2 + 0.1."""
    return (n - 1) * delta / 2 - 0.5 - 0.15, (n - 1) * delta / 2 + 0.1
