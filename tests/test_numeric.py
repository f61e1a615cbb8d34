"""The package's special functions against scipy as the oracle."""

import warnings

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import expit, logsumexp as scipy_logsumexp
from scipy.stats import norm

from vidtriage.numeric import logsumexp, normal_two_sided_tail, sigmoid


def _arrays(low, high, dims=1, **bounds):
    return hnp.arrays(float, hnp.array_shapes(min_dims=dims, max_dims=dims,
                                              max_side=40),
                      elements=st.floats(low, high, **bounds))


@given(_arrays(-1e3, 1e3))
def test_sigmoid_matches_expit(z):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sigmoid(z)
    want = expit(z)
    normal = want >= 1e-290
    assert np.all(np.abs(got - want)[normal] <= 4 * np.spacing(want[normal]))
    assert np.all(np.abs(got - want)[~normal] <= 1e-300)


def test_sigmoid_saturates_exactly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sigmoid(-1e3) == 0.0
        assert sigmoid(1e3) == 1.0
        assert sigmoid(np.array([-1e3, 1e3])).tolist() == [0.0, 1.0]


@given(_arrays(-30.0, 30.0))
def test_tail_matches_norm_sf(z):
    got = normal_two_sided_tail(z)
    want = 2.0 * norm.sf(np.abs(z))
    assert got.shape == z.shape
    assert np.all(np.abs(got - want) <= 1e-13 * want)


@given(_arrays(30.0, 1e3, exclude_min=True), st.booleans())
def test_tail_is_negligible_beyond_30(z, negate):
    z = -z if negate else z
    assert np.all(normal_two_sided_tail(z) <= 1e-190)
    assert np.all(2.0 * norm.sf(np.abs(z)) <= 1e-190)


def test_tail_is_one_at_zero():
    assert normal_two_sided_tail(np.zeros(2)).tolist() == [1.0, 1.0]


@given(_arrays(-50.0, 50.0, dims=2), st.integers(0, 1), st.booleans())
def test_logsumexp_matches_scipy(a, axis, keepdims):
    np.testing.assert_allclose(
        logsumexp(a, axis=axis, keepdims=keepdims),
        scipy_logsumexp(a, axis=axis, keepdims=keepdims), rtol=1e-12,
        atol=1e-12)
