"""Lattice counting exactness and the dyadic search."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from causticlab import torus
from causticlab.acceptance import naive_ball_count, naive_sphere_cap_count
from causticlab.torus import (CapQuery, OMEGA_PRESETS, ball_count, cap_solid_volume,
                              count_in_ball, dyadic_lower_bound_search, sphere_cap_count)
from conftest import traced_peak


def test_ball_example_21():
    assert count_in_ball((0.0, 0.0), 2.5) == 21


def test_ball_empty_when_radius_too_small():
    # nearest lattice point to (0.5, 0.5) sits at distance sqrt(0.5)
    assert count_in_ball((0.5, 0.5), 0.5) == 0
    # n = 1 has no tail axes; its nearest points sit at 0.5 and 0.25, outside the radius
    assert count_in_ball((0.5,), 0.5) == 0
    assert count_in_ball((3.25,), 0.2) == 0
    assert count_in_ball((0.5,), 0.5 + 2.0**-40) == 2
    assert count_in_ball((0.5, 0.5, 0.5, 0.5), 0.99) == 0


def test_ball_n1_has_no_tail_axes():
    # one head axis against the empty tail point: the open interval (c - r, c + r)
    for c, r, want in ((0.5, 3.0, 6), (0.0, 3.0, 5), (-2.5, math.sqrt(2), 2), (0.25, 1e4, 20000)):
        assert count_in_ball((c,), r) == want == naive_ball_count((c,), r)


def test_ball_counts_match_naive_oracle():
    rng = np.random.default_rng(321)
    for n in (1, 2, 3):
        for _ in range(8):
            center = tuple(rng.uniform(-4, 4, n))
            radius = float(rng.uniform(0.3, 50.0 if n <= 2 else 20.0))
            assert count_in_ball(center, radius) == naive_ball_count(center, radius)
    for _ in range(4):
        center = tuple(rng.uniform(-2, 2, 4))
        radius = float(rng.uniform(0.5, 8.0))
        assert count_in_ball(center, radius) == naive_ball_count(center, radius)


def test_ball_count_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        count_in_ball((0.0, 0.0), 2.0e4)
    with pytest.raises(ValueError):
        count_in_ball((0.0,) * 5, 2.0)
    with pytest.raises(ValueError):
        count_in_ball((0.0, math.nan), 2.0)


def test_ball_count_refuses_large_4d_radius():
    # radius 600 would ask for a tail table of about 1.1M entries: refused before any walk
    assert torus.ENUM_LIMITS["radius"][4] == 512 < 600 <= torus.ENUM_LIMITS["radius"][3]

    def refused():
        with pytest.raises(ValueError, match="n = 4 enumeration bound"):
            count_in_ball((0.5, 0.0, 0.0, 0.0), 600.0)

    assert traced_peak(refused) < 2**16


def exact_half_integer_ball_count(center, radius: float) -> int:
    """Integer full-box count for centres on (1/2)Z, where 4 |alpha - c|^2 is an integer."""
    twice = np.array([int(2 * c) for c in center])
    num, den = (4 * Fraction(radius) ** 2).as_integer_ratio()
    below = -(-num // den) - 1  # the largest integer < 4 radius^2
    axes = [np.arange(math.floor(c - radius) - 1, math.ceil(c + radius) + 2) for c in center]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(center))
    return int(np.count_nonzero(np.sum((2 * grid - twice) ** 2, axis=1) <= below))


@pytest.mark.parametrize("n, want", [(2, 57), (3, 305)])
def test_ball_sqrt17_sphere_points_lie_inside(n, want):
    # the float sqrt(17) exceeds sqrt(17), so the points with |alpha|^2 = 17 are inside
    assert Fraction(math.sqrt(17)) ** 2 > 17
    center = (0.0,) * n
    assert exact_half_integer_ball_count(center, math.sqrt(17)) == want
    assert count_in_ball(center, math.sqrt(17)) == want
    assert naive_ball_count(center, math.sqrt(17)) == want


@pytest.mark.parametrize("center, k", [((0.0,) * 4, 144), ((1.0, -2.0, 0.0, 3.0), 100),
                                       ((0.5, -1.5, 2.5, 0.5), 121), ((-0.5,) * 4, 65)])
def test_ball_4d_half_integer_centres(center, k):
    # the sphere of radius sqrt(k) holds lattice points (four squares; 4k = 8m + 4 as
    # four odd squares), which the tail table's near entries re-decide: the float radii
    # either side of sqrt(k) leave them out and take them in
    root = math.sqrt(k)
    radii = [math.nextafter(root, 0.0), root, math.nextafter(root, math.inf)]
    counts = [count_in_ball(center, r) for r in radii]
    assert counts == [exact_half_integer_ball_count(center, r) for r in radii]
    assert counts[0] < counts[2]


BOUNDARY_RADIUS = {1: 40, 2: 16, 3: 8, 4: 7}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_ball_counts_exact_on_lattice_spheres(data):
    # centres on (1/2)Z and radii sqrt(k), sqrt(k)/2 or integers put many points
    # on or next to the sphere, where a float test can decide either way
    n = data.draw(st.integers(1, 4))
    center = tuple(h / 2 for h in data.draw(st.lists(st.integers(-6, 6), min_size=n,
                                                     max_size=n)))
    k = data.draw(st.integers(1, BOUNDARY_RADIUS[n] ** 2))
    radius = data.draw(st.sampled_from([math.sqrt(k), math.sqrt(k) / 2, float(math.isqrt(k))]))
    want = exact_half_integer_ball_count(center, radius)
    assert count_in_ball(center, radius) == want
    assert naive_ball_count(center, radius) == want


def test_ball_frontier_split_across_slabs(monkeypatch):
    # at 7 points per slab every frontier expansion is cut, often inside one budget's range
    monkeypatch.setattr(torus, "SLAB_POINTS", 7)
    walk, calls = torus._walk, []

    def counted_walk(center, radius, margin, *bound):
        chunks = list(walk(center, radius, margin, *bound))
        calls.append((len(center), len(chunks)))
        return iter(chunks)

    monkeypatch.setattr(torus, "_walk", counted_walk)
    rng = np.random.default_rng(8)
    for n in (3, 4):
        calls.clear()
        for _ in range(4):
            center = tuple(rng.uniform(-2, 2, n))
            radius = float(rng.uniform(1.0, 6.0))
            assert count_in_ball(center, radius) == naive_ball_count(center, radius)
        center = (0.5,) + (0.0,) * (n - 1)
        assert count_in_ball(center, math.sqrt(17)) == naive_ball_count(center, math.sqrt(17))
        # each call builds its table over the last n // 2 axes, then walks the first ceil(n/2)
        tails, heads = calls[0::2], calls[1::2]
        assert {axes for axes, _ in tails} == {n // 2}
        assert {axes for axes, _ in heads} == {(n + 1) // 2}
        # the tail tables of the sqrt(17) ball and at least one other span several slabs
        assert tails[-1][1] > 1 and sum(slabs > 1 for _, slabs in tails) >= 2
    monkeypatch.setattr(torus, "_walk", walk)
    # sphere caps take their candidates from the same walk, over all n axes
    for n, j, J in ((2, 125, 64), (3, 54, 32), (4, 30, 16)):
        om = OMEGA_PRESETS["rational"][n]
        q = CapQuery(omega=om, mu=0.75, j=j, cap_constant=1.5)
        assert sphere_cap_count(q) == naive_sphere_cap_count(n, q.j, om, q.cap_radius) > 0
        (b,) = dyadic_lower_bound_search(n, 0.75, (J, 2 * J))
        counts = [naive_sphere_cap_count(n, j, om, CapQuery(omega=om, mu=0.75, j=j).cap_radius)
                  for j in range(J, 2 * J + 1)]
        assert (b.best_j - J, b.best_count, b.block_sum, b.represented) == \
            (int(np.argmax(counts)), max(counts), sum(counts), np.count_nonzero(counts))


def test_ball_scaling_law():
    # N ~ C h^{-n mu}: slope of log N against log(1/h) within 0.1 of n*mu
    om = OMEGA_PRESETS["diophantine"][2]
    mu = 0.5
    js = [2**k for k in range(12, 25, 2)]
    counts = [ball_count(CapQuery(omega=om, mu=mu, j=j)) for j in js]
    hs = [j**-0.5 for j in js]
    slope = np.polyfit(np.log([1 / h for h in hs]), np.log(counts), 1)[0]
    assert slope == pytest.approx(2 * mu, abs=0.1)


def test_sphere_cap_example():
    q = CapQuery(omega=(0.6, 0.8), mu=1.0, j=25, cap_constant=2.0 / 25**0.5)
    assert q.cap_radius == pytest.approx(2.0)
    assert sphere_cap_count(q) == 2
    points = np.concatenate([pts for pts, *_ in torus._cap_points(q, q.j)])
    assert sorted(map(tuple, points.tolist())) == [(3, 4), (4, 3)]


def test_sphere_cap_covers_whole_circle():
    # r_2(25) = 12 representations
    q = CapQuery(omega=(0.6, 0.8), mu=1.0, j=25, cap_constant=100.0)
    assert sphere_cap_count(q) == 12


def test_sphere_counts_match_naive_oracle():
    cases = [(2, 25, 2.0), (2, 325, 7.0), (3, 594, 10.0), (3, 101, 6.0),
             (4, 729, 12.0)]
    for n, j, width in cases:
        om = OMEGA_PRESETS["rational"][n]
        q = CapQuery(omega=om, mu=1.0, j=j, cap_constant=width * j**-0.5)
        assert sphere_cap_count(q) == naive_sphere_cap_count(n, j, om, q.cap_radius)
    # directions with negative and zero components; cap_constant >= 1 at mu = 1 makes
    # the cap wider than its sphere, and the walk takes ball(0, sqrt(j) + 1) instead
    sloped = [((-0.8, 0.6), 325, 7.0), ((2 / 7, 3 / 7, -6 / 7), 594, 10.0),
              ((0.0, 0.6, 0.8), 101, 6.0), ((0.5, 0.5, 0.5, -0.5), 729, 12.0)]
    wide = [(om, j, C * j**0.5) for om, j, _ in sloped for C in (2.0, 1.5)]
    for om, j, width in sloped + wide:
        n = len(om)
        q = CapQuery(omega=om, mu=1.0, j=j, cap_constant=width * j**-0.5)
        assert sphere_cap_count(q) == naive_sphere_cap_count(n, j, om, q.cap_radius) > 0


# rational unit directions, with zero and negative last entries
RATIONAL_OMEGAS = {1: [(1.0,), (-1.0,)],
                   2: [(0.6, 0.8), (0.8, -0.6), (1.0, 0.0), (5 / 13, 12 / 13)],
                   3: [(1 / 3, 2 / 3, 2 / 3), (2 / 7, 3 / 7, -6 / 7), (0.6, 0.8, 0.0),
                       (0.0, 0.6, 0.8)],
                   4: [(0.2, 0.4, 0.4, 0.8), (0.5, 0.5, 0.5, -0.5), (0.6, 0.0, 0.8, 0.0),
                       (0.5, 0.5, 0.5, 0.5)]}
ORACLE_ROOT = {1: 300, 2: 60, 3: 20, 4: 10}  # largest sqrt(j) of a single-sphere example
BLOCK_TOP = {1: 1024, 2: 128, 3: 32, 4: 16}  # largest J of a block example


def block_counts(q: CapQuery, j_hi: int) -> list[int]:
    counts = np.zeros(j_hi - q.j + 1, dtype=np.int64)
    for _, js, _ in torus._cap_points(q, j_hi):
        counts += np.bincount(js - q.j, minlength=len(counts))
    return counts.tolist()


def naive_block_counts(q: CapQuery, j_hi: int) -> list[int]:
    return [naive_sphere_cap_count(q.n, j, q.omega, CapQuery(
        omega=q.omega, mu=q.mu, j=j, cap_constant=q.cap_constant).cap_radius)
        for j in range(q.j, j_hi + 1)]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sphere_caps_exact_on_rational_boundaries(data):
    # square j put sqrt(j) omega on a rational point, and an integer cap radius puts
    # lattice points of the sphere at that distance from it, where the last axis's
    # annulus and cone cuts must keep every one the cap test keeps
    n = data.draw(st.integers(1, 4))
    omega = data.draw(st.sampled_from(RATIONAL_OMEGAS[n]))
    mu = data.draw(st.sampled_from([0.1, 0.5, 0.75, 1.0]))
    k = data.draw(st.integers(1, ORACLE_ROOT[n]))
    j = data.draw(st.sampled_from([k * k, k * k + 1, max(k * k - 1, 1)]))
    radius = data.draw(st.integers(1, 2 * k + 1))
    cap_constant = data.draw(st.one_of(st.just(radius / j ** (mu / 2)), st.floats(0.5, 3.0)))
    q = CapQuery(omega=omega, mu=mu, j=j, cap_constant=cap_constant)
    assert sphere_cap_count(q) == naive_sphere_cap_count(n, j, omega, q.cap_radius)


@st.composite
def block_edges(draw):
    """(omega, mu, k, J, radius): a square j = k^2 inside [J, 2J], an integer cap radius."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, math.isqrt(2 * BLOCK_TOP[n])))
    return (draw(st.sampled_from(RATIONAL_OMEGAS[n])),
            draw(st.sampled_from([0.1, 0.5, 0.75, 1.0])), k,
            draw(st.integers(-(-k * k // 2), min(k * k, BLOCK_TOP[n]))),
            draw(st.integers(1, 2 * k + 1)))


@settings(max_examples=60, deadline=None)
@given(block_edges())
# with numpy 2.4 on x86-64 the array width of j = k^2 falls an ulp below the scalar
# one, 30.0, 18.0 and 90.0, and the sphere's edge points would be lost without their
# re-decision on the scalar
@example(((1.0,), 0.1, 15, 113, 30))
@example(((0.6, 0.8), 0.1, 15, 120, 18))
@example(((-1.0,), 0.75, 45, 1024, 90))
def test_cap_blocks_exact_on_rational_boundaries(case):
    # the block sibling of the test above: the cap constant radius / j^{mu/2} puts lattice
    # points of the sphere j = k^2 on its cap's edge, where the block's array of cap
    # widths must decide as the scalar cap_radius of each j does
    omega, mu, k, J, radius = case
    q = CapQuery(omega=omega, mu=mu, j=J, cap_constant=radius / (k * k) ** (mu / 2))
    assert block_counts(q, 2 * J) == naive_block_counts(q, 2 * J)


def test_cap_width_array_within_band_of_scalar():
    # _cap_points re-decides the points within 1e-12 (relative) of their array width on
    # the scalar cap_radius; every disagreement between the two is far inside that band
    rng = np.random.default_rng(20)
    js = rng.integers(1, torus.ENUM_LIMITS["j"][1] + 1, 20000)
    for mu in (0.1, 0.5, 0.55, 0.75, 1.0):
        for cap_constant in (1.0, 1.5):
            q = CapQuery(omega=(1.0,), mu=mu, j=1, cap_constant=cap_constant)
            scalar = np.array([CapQuery(omega=(1.0,), mu=mu, j=int(j),
                                        cap_constant=cap_constant).cap_radius for j in js])
            assert np.all(np.abs(torus._cap_widths(q, js) - scalar) <= 1e-15 * scalar)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cap_blocks_exact_on_rational_directions(n):
    # whole blocks [J, 2J] from J = 1 and 2 up, at the four dyadic deltas and cap
    # constants 0.5 to 3: narrow caps cut the last axis by the cone, wide ones
    # (delta = 1, or cap constant 3) by the annulus alone
    for omega in RATIONAL_OMEGAS[n]:
        for mu in (0.1, 0.5, 0.75, 1.0):
            for J in (1, 2, 3, BLOCK_TOP[n]):
                for cap_constant in (0.5, 1.0, 3.0):
                    q = CapQuery(omega=omega, mu=mu, j=J, cap_constant=cap_constant)
                    assert block_counts(q, 2 * J) == naive_block_counts(q, 2 * J), q
    om = OMEGA_PRESETS["rational"][n]
    for delta in (0.1, 0.5, 0.75, 1.0):
        for J in (1, 2):
            (b,) = dyadic_lower_bound_search(n, delta, (J, 2 * J))
            counts = naive_block_counts(CapQuery(omega=om, mu=delta, j=J), 2 * J)
            assert (b.best_j - J, b.best_count, b.block_sum) == \
                (int(np.argmax(counts)), max(counts), sum(counts))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cap_walk_keeps_every_candidate_in_the_annulus(n, monkeypatch):
    # _cap_points takes each walked candidate as a point of a sphere of its block, with
    # no filter: the last axis's exact integer square roots must keep J <= |alpha|^2 <= 2J,
    # for narrow caps (cut by the cone too) and wide ones (the annulus alone)
    walk, seen = torus._walk, []

    def recorded_walk(center, radius, margin, *bound):
        for budgets, coords in walk(center, radius, margin, *bound):
            seen.append(sum(col * col for col in coords))
            yield budgets, coords

    monkeypatch.setattr(torus, "_walk", recorded_walk)
    for omega in RATIONAL_OMEGAS[n]:
        for mu in (0.1, 0.5, 0.75, 1.0):
            for J in (1, 2, 3, BLOCK_TOP[n]):
                for cap_constant in (0.5, 1.0, 3.0):
                    q = CapQuery(omega=omega, mu=mu, j=J, cap_constant=cap_constant)
                    seen.clear()
                    block_counts(q, 2 * J)
                    js = np.concatenate(seen)
                    assert js.size > 0 and J <= js.min() and js.max() <= 2 * J, q


def test_dyadic_block_examines_few_more_points_than_it_counts():
    # the ball holding this block's caps has about 6 times as many points as the caps
    (b,) = dyadic_lower_bound_search(3, 0.75, (2048, 4096))
    assert b.block_sum <= b.candidates <= 1.25 * b.block_sum


def test_sphere_query_validation():
    with pytest.raises(ValueError, match="omega"):
        sphere_cap_count(CapQuery(omega=(1.0, 1.0), mu=0.5, j=25))
    with pytest.raises(ValueError):
        sphere_cap_count(CapQuery(omega=(0.6, 0.8), mu=0.5, j=10**7))


def test_sphere_n1_degenerate():
    om = (1.0,)
    for j, want in ((16, 1), (15, 0)):
        q = CapQuery(omega=om, mu=0.5, j=j, cap_constant=1.0)
        assert sphere_cap_count(q) == want
    # a wide cap picks up both +-sqrt(j)
    q = CapQuery(omega=om, mu=1.0, j=16, cap_constant=3.0)
    assert sphere_cap_count(q) == 2


def test_dyadic_block_sums_track_volume():
    blocks = dyadic_lower_bound_search(2, 1.0, (1024, 4096))
    assert len(blocks) == 2
    for b in blocks:
        assert abs(b.block_sum - b.volume) / b.volume < 0.5


@pytest.mark.parametrize("n, J_range", [(1, (1, 512)), (2, (16, 512)), (3, (16, 256)),
                                        (4, (8, 64))])
def test_dyadic_blocks_match_naive_oracle(n, J_range, monkeypatch):
    # every block field that counts points, rebuilt one j at a time from the oracle
    om = OMEGA_PRESETS["rational"][n]
    walk, centres = torus._walk, []

    def recorded_walk(center, radius, margin, *bound):
        centres.append(center)
        return walk(center, radius, margin, *bound)

    monkeypatch.setattr(torus, "_walk", recorded_walk)
    nonempty = 0
    for delta in (0.5, 0.75, 1.0):
        centres.clear()
        blocks = dyadic_lower_bound_search(n, delta, J_range)
        assert [b.J for b in blocks] == [J for J in (J_range[0] * 2**k for k in range(10))
                                         if 2 * J <= J_range[1]]
        for b in blocks:
            counts = [naive_sphere_cap_count(
                n, j, om, CapQuery(omega=om, mu=delta, j=j).cap_radius)
                for j in range(b.J, 2 * b.J + 1)]
            best = int(np.argmax(counts))
            assert (b.best_j, b.best_count, b.block_sum, b.represented) == \
                (b.J + best, counts[best], sum(counts), np.count_nonzero(counts))
            nonempty += b.best_count > 0
        # at delta = 1 the caps (width j^{1/2}) reach past ball(0, hi + 1): the walk takes that
        assert all(not any(c) for c in centres) == (delta == 1.0)
    assert nonempty > 0


def test_dyadic_selected_sequence_slope():
    blocks = dyadic_lower_bound_search(3, 0.5, (2**8, 2**14))
    sel = [(b.best_j, b.best_count) for b in blocks if b.best_count > 0]
    assert len(sel) >= 4
    slope = np.polyfit(np.log([j**0.5 for j, _ in sel]),
                       np.log([m for _, m in sel]), 1)[0]
    assert slope >= (3 - 1) * 0.5 - 1 - 0.15


@pytest.mark.parametrize("delta", [0.5, 0.75, 1.0])
def test_dyadic_n1_block_sum_within_one_of_volume(delta):
    # at cap constant 1 the cap of |alpha|^2 = j holds sqrt(j) alone, so a block counts
    # the integers in [sqrt(J), sqrt(2J)], within 1 of its length, the n = 1 volume
    blocks = dyadic_lower_bound_search(1, delta, (256, 2**17))
    assert len(blocks) == 9
    for b in blocks:
        assert b.volume == pytest.approx(math.sqrt(2 * b.J) - math.sqrt(b.J), rel=1e-12)
        assert abs(b.block_sum - b.volume) <= 1.0, b


def test_cap_volume_formula_2d():
    # delta = 1: half-angle psi = 2*arcsin(1/2) = pi/3, area = int 2 psi r dr
    vol = cap_solid_volume(2, 900, 1.0)
    lo, hi = math.sqrt(900), math.sqrt(1800)
    want = (math.pi / 3) * (hi**2 - lo**2)
    assert vol == pytest.approx(want, rel=1e-6)


def test_cap_query_validation():
    assert CapQuery(omega=(0.6, 0.8), mu=1.0, j=25).n == 2  # n is omega's length
    with pytest.raises(ValueError):
        CapQuery(omega=(1.0,) * 5, mu=0.5, j=10)
    with pytest.raises(ValueError):
        CapQuery(omega=(), mu=0.5, j=10)
    with pytest.raises(ValueError):
        CapQuery(omega=(0.6, 0.8), mu=0.5, j=0)
