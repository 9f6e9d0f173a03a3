"""ThetaPoly evaluation: the univariate Horner path against a term-by-term sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causticlab.catalog import SingularityType, build_phase
from causticlab.polys import ThetaPoly

COEFS = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)


def _term_sum(poly: ThetaPoly, x: np.ndarray) -> np.ndarray:
    return sum((c * x**a for c, (a,) in poly.terms), np.zeros_like(x))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(COEFS, st.integers(0, 8)), max_size=6),
       st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=20))
def test_univariate_call_matches_term_sum(terms, xs):
    poly = ThetaPoly.from_terms(1, [(c, (a,)) for c, a in terms])
    x = np.array(xs)
    want = _term_sum(poly, x)
    scale = sum(abs(c) * np.maximum(1.0, np.abs(x)) ** a for c, (a,) in poly.terms)
    got = poly(x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - want) <= 1e-14 * (scale + 1.0))


def test_univariate_constant_empty_and_scalar():
    const = ThetaPoly.from_terms(1, [(2.5, (0,))])
    assert np.array_equal(const(np.array([-1.0, 0.0, 3.0])), [2.5, 2.5, 2.5])
    empty = ThetaPoly(1, ())
    assert np.array_equal(empty(np.array([1.0, 2.0])), [0.0, 0.0])
    cubic = ThetaPoly.from_terms(1, [(1.0, (3,)), (0.37, (1,))])
    for x in (1.5, np.float64(1.5), np.array(1.5)):
        got = cubic(x)
        assert np.shape(got) == ()
        assert float(got) == pytest.approx(1.5**3 + 0.37 * 1.5, rel=1e-15)
    assert np.shape(empty(0.5)) == () and float(empty(0.5)) == 0.0


def test_univariate_call_rejects_wrong_arity():
    with pytest.raises(ValueError):
        ThetaPoly.from_terms(1, [(1.0, (2,))])(np.zeros(3), np.zeros(3))


@pytest.mark.parametrize("label, x, p, g_terms", [
    ("D4-", (0.1, -0.2, 0.05), 2, ((1.0, (1,)),)),
    ("E6", (0.1, 0.0, 0.0, 0.2, -0.3), 1, ((-0.3, (2,)), (0.2, (1,)))),
    ("E7", (0.1, 0.0, -0.1, 0.0, 0.05, 0.2), 1, ((0.2, (1,)), (1.0, (3,)))),
    ("E8", (0.0,) * 4 + (0.3, -0.2, 0.1), 1, ((-0.2, (2,)), (0.1, (3,)), (0.3, (1,)))),
])
def test_split_axes_mixed_part(label, x, p, g_terms):
    poly = build_phase(SingularityType.parse(label)).theta_poly(x)
    (part1, part2), (got_p, g) = poly.split_axes()
    assert (got_p, g.terms) == (p, g_terms)
    t1, t2 = np.random.default_rng(4).uniform(-2.0, 2.0, (2, 50))
    assert np.allclose(part1(t1) + part2(t2) + t1**p * g(t2), poly(t1, t2), rtol=1e-14)


def test_split_axes_without_mixed_terms_and_with_two_exponents():
    (part,), (p, g) = ThetaPoly.from_terms(1, [(1.0, (3,))]).split_axes()
    assert part.terms == ((1.0, (3,)),) and (p, g.terms) == (0, ())
    with pytest.raises(ValueError):
        ThetaPoly.from_terms(2, [(1.0, (1, 1)), (1.0, (2, 1))]).split_axes()
