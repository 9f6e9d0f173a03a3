"""Lattice counting and extremizer sums on the flat torus R^n / 2pi Z^n.

Counts are exact integer enumerations:

    ball_count        #{alpha in Z^n : |alpha - omega/h| < C h^{-mu}}
    sphere_cap_count  #{alpha in Z^n : |alpha|^2 = j, |alpha - sqrt(j) omega| <= C j^{mu/2}}

The ball count walks the integer box one leading axis at a time and resolves
the final axis by interval arithmetic; the sphere count enumerates the first
n-1 coordinates inside the cap's bounding box and solves the last one by an
exact perfect-square test.  The dyadic search of the lower-bound argument
scans blocks (J, 2J], compares the block sum of M(j) = sphere_cap_count
against the volume of the corresponding annular cap solid, and selects the
maximizing j per block, realizing M(j) >= c j^{(n-1)delta/2 - 1/2} along the
selected sequence.

Convention: the torus carries normalized measure, so the exponentials
e_alpha(x) = e^{-i alpha.x} are orthonormal and ||f||_2 = sqrt(sum |a|^2);
uniform-coefficient cap sums then satisfy ||f||_inf / ||f||_2 = sqrt(count)
exactly, attained at x = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ENUM_LIMITS = {"radius": 1.0e4, "j": {1: 10**6, 2: 10**6, 3: 10**6, 4: 10**5}}
BALL_EXPONENT_TOLERANCE = 0.05

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
    """Ball or sphere-cap counting query at h = j^{-1/2}."""

    n: int
    omega: tuple[float, ...]
    mu: float
    j: int
    cap_constant: float = 1.0

    def __post_init__(self):
        if not 1 <= self.n <= 4:
            raise ValueError("dimension n must be between 1 and 4")
        if len(self.omega) != self.n:
            raise ValueError("omega must have n entries")
        if self.j < 1:
            raise ValueError("j must be a positive integer")
        if not 0.0 < self.mu <= 1.0:
            raise ValueError("mu must lie in (0, 1]")
        if self.cap_constant <= 0:
            raise ValueError("cap_constant must be positive")

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


def _interval_count(lo: float, hi: float) -> int:
    """Integers in (lo, hi)."""
    a = math.ceil(lo)
    b = math.floor(hi)
    if a == lo:
        a += 1
    if b == hi:
        b -= 1
    return max(0, b - a + 1)


def count_in_ball(center, radius: float) -> int:
    """Exact number of integer points with |alpha - center| < radius."""
    center = [float(c) for c in center]
    n = len(center)
    if radius > ENUM_LIMITS["radius"]:
        raise ValueError(f"radius {radius} exceeds enumeration bound "
                         f"{ENUM_LIMITS['radius']}")
    if n > 4:
        raise ValueError("dimension limited to 4")
    if radius <= 0:
        return 0
    r2 = radius * radius

    if n == 1:
        return _interval_count(center[0] - radius, center[0] + radius)

    # vectorize the last two axes; loop any leading coords in python
    def rec_fast(prefix_center: list[float], budget2: float) -> int:
        if len(prefix_center) == 2:
            c1, c2 = prefix_center
            w = math.sqrt(max(budget2, 0.0))
            a1 = np.arange(math.ceil(c1 - w), math.floor(c1 + w) + 1)
            if a1.size == 0:
                return 0
            rem = budget2 - (a1 - c1) ** 2
            ok = rem > 0
            if not np.any(ok):
                return 0
            ws = np.sqrt(rem[ok])
            lo = np.ceil(c2 - ws)
            hi = np.floor(c2 + ws)
            lo = np.where(lo == c2 - ws, lo + 1, lo)
            hi = np.where(hi == c2 + ws, hi - 1, hi)
            return int(np.sum(np.maximum(0, hi - lo + 1).astype(np.int64)))
        c = prefix_center[0]
        w = math.sqrt(max(budget2, 0.0))
        total = 0
        for a in range(math.ceil(c - w), math.floor(c + w) + 1):
            rem = budget2 - (a - c) ** 2
            if rem <= 0:
                continue
            total += rec_fast(prefix_center[1:], rem)
        return total

    return rec_fast(center, r2)


def ball_count(q: CapQuery) -> int:
    """N_mu-style count: integer points within C h^{-mu} of omega/h (strict <)."""
    return count_in_ball(q.center, q.cap_radius)


def sphere_solutions(q: CapQuery) -> np.ndarray:
    """All alpha in Z^n with |alpha|^2 = j inside the cap, as an (m, n) array."""
    q.require_unit_omega()
    j = int(q.j)
    limit = ENUM_LIMITS["j"][q.n]
    if j > limit:
        raise ValueError(f"j = {j} exceeds the n = {q.n} enumeration bound {limit}")
    center = np.sqrt(float(j)) * np.asarray(q.omega, dtype=float)
    w = q.cap_radius
    rad = math.isqrt(j)

    if q.n == 1:
        if rad * rad != j:
            return np.empty((0, 1), dtype=np.int64)
        cands = np.array([[rad], [-rad]], dtype=np.int64)
        keep = np.abs(cands[:, 0] - center[0]) <= w
        return np.unique(cands[keep], axis=0).reshape(-1, 1)

    axes = []
    for i in range(q.n - 1):
        lo = max(-rad, math.ceil(center[i] - w))
        hi = min(rad, math.floor(center[i] + w))
        if lo > hi:
            return np.empty((0, q.n), dtype=np.int64)
        axes.append(np.arange(lo, hi + 1, dtype=np.int64))
    grids = np.meshgrid(*axes, indexing="ij")
    lead = np.stack([g.ravel() for g in grids], axis=1)
    rem = j - np.sum(lead * lead, axis=1)
    ok = rem >= 0
    lead, rem = lead[ok], rem[ok]
    root = np.sqrt(rem.astype(float))
    t = np.rint(root).astype(np.int64)
    exact = t * t == rem
    lead, t = lead[exact], t[exact]
    sols = []
    for last in (t, -t):
        full = np.concatenate([lead, last[:, None]], axis=1)
        d = full.astype(float) - center[None, :]
        inside = np.sqrt(np.sum(d * d, axis=1)) <= w
        sols.append(full[inside])
    allsols = np.concatenate(sols, axis=0)
    # np.unique costs ~50 us even when empty, and most caps of a dyadic block are
    return np.unique(allsols, axis=0) if allsols.size else allsols


def sphere_cap_count(q: CapQuery) -> int:
    """Exact count of lattice points on the sphere |alpha|^2 = j inside the cap."""
    return int(sphere_solutions(q).shape[0])


def cap_solid_volume(n: int, J: int, delta: float, samples: int = 2001) -> float:
    """Volume of {alpha : |alpha| in [sqrt(J), sqrt(2J)], |alpha - |alpha| omega| <= |alpha|^delta}."""
    r = np.linspace(math.sqrt(J), math.sqrt(2 * J), samples)
    half = np.minimum(1.0, 0.5 * r ** (delta - 1.0))
    psi = 2.0 * np.arcsin(half)
    if n == 1:
        area = np.where(psi > 0, 2.0, 0.0)  # degenerate: two endpoints
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


def dyadic_lower_bound_search(n: int, delta: float, J_range: tuple[int, int],
                              omega=None, cap_constant: float = 1.0) -> list[DyadicBlock]:
    """Per dyadic block (J, 2J]: all M(j) = sphere_cap_count, keep the argmax.

    M(j) uses cap width cap_constant * j^{delta/2}.  Blocks with no
    representable j are reported with best_count 0, not treated as fatal.
    """
    if omega is None:
        omega = OMEGA_PRESETS["rational"][n]
    lo, hi = J_range
    if lo < 1 or hi < lo:
        raise ValueError("bad J_range")
    blocks = []
    J = int(lo)
    while 2 * J <= hi:
        counts = []
        for j in range(J, 2 * J + 1):
            q = CapQuery(n=n, omega=tuple(omega), mu=float(delta), j=j,
                         cap_constant=cap_constant)
            counts.append(sphere_cap_count(q))
        counts = np.asarray(counts, dtype=np.int64)
        best_idx = int(np.argmax(counts))
        blocks.append(DyadicBlock(
            J=J,
            best_j=J + best_idx,
            best_count=int(counts[best_idx]),
            block_sum=int(np.sum(counts)),
            volume=cap_solid_volume(n, J, float(delta)),
            represented=int(np.count_nonzero(counts)),
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


@dataclass(frozen=True)
class ExtremizerSum:
    """Finitely supported, l2-normalized exponential sum sum a_alpha e^{-i alpha.x}."""

    points: tuple[tuple[int, ...], ...]
    coefficients: tuple[complex, ...]

    def __post_init__(self):
        if len(self.points) != len(self.coefficients):
            raise ValueError("points/coefficients length mismatch")
        total = sum(abs(c) ** 2 for c in self.coefficients)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"sum |a|^2 = {total} is not 1")

    @property
    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coefficients))


def extremizer(q: CapQuery, mode: str) -> ExtremizerSum:
    """Uniform l2-normalized coefficients on the counted set (ball or sphere cap)."""
    if mode == "ball":
        center = q.center
        w = q.cap_radius
        lo_hi = [(math.ceil(c - w), math.floor(c + w)) for c in center]
        grids = np.meshgrid(*[np.arange(lo, hi + 1) for lo, hi in lo_hi], indexing="ij")
        cand = np.stack([g.ravel() for g in grids], axis=1)
        d = cand.astype(float) - center[None, :]
        keep = np.sum(d * d, axis=1) < w * w
        pts = cand[keep]
    elif mode == "sphere":
        pts = sphere_solutions(q)
    else:
        raise ValueError("mode must be ball or sphere")
    count = pts.shape[0]
    if count == 0:
        raise ValueError("empty cap: no lattice points to sum over")
    return ExtremizerSum(
        points=tuple(tuple(int(v) for v in row) for row in np.asarray(pts)),
        coefficients=(complex(1.0 / math.sqrt(count)),) * count,
    )


def eval_sum(s: ExtremizerSum, x) -> complex:
    """Direct summation of sum a_alpha e^{-i alpha.x}; at x=0 this is sum a_alpha."""
    x = np.asarray(x, dtype=float)
    pts = np.asarray(s.points, dtype=float)
    coefs = np.asarray(s.coefficients, dtype=complex)
    return complex(np.sum(coefs * np.exp(-1j * (pts @ x))))


def eval_sum_grid(s: ExtremizerSum, grid_per_axis: int = 64) -> np.ndarray:
    """|f| on the uniform (2pi/g)Z^n grid, for norm checks (g^n points).

    On that grid e^{-i alpha.x} depends on alpha only modulo g, so the
    coefficients are folded onto Z_g^n and f is one n-dimensional DFT.
    """
    pts = np.asarray(s.points, dtype=np.int64)
    folded = np.zeros((grid_per_axis,) * pts.shape[1], dtype=complex)
    np.add.at(folded, tuple((pts % grid_per_axis).T), np.asarray(s.coefficients))
    return np.abs(np.fft.fftn(folded))
