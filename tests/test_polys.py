"""ThetaPoly evaluation: the univariate Horner path against a term-by-term sum."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    empty = ThetaPoly.zero(1)
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
