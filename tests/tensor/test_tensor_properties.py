"""Property-based tests (hypothesis) for the autograd engine."""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays, array_shapes

from repro.tensor import Tensor, check_gradients

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                   allow_infinity=False, width=64)


def small_arrays(max_dims=3, max_side=4):
    return arrays(np.float64,
                  array_shapes(min_dims=1, max_dims=max_dims, max_side=max_side),
                  elements=finite)


@given(small_arrays(), small_arrays())
@settings(max_examples=40, deadline=None)
def test_add_commutes(a, b):
    """a + b == b + a for any broadcast-compatible pair (else both raise)."""
    ta, tb = Tensor(a), Tensor(b)
    try:
        left = (ta + tb).data
    except ValueError:
        np.testing.assert_raises(ValueError, lambda: (tb + ta).data)
        return
    np.testing.assert_allclose(left, (tb + ta).data)


@given(small_arrays())
@settings(max_examples=40, deadline=None)
def test_mul_by_one_identity(a):
    np.testing.assert_allclose((Tensor(a) * 1.0).data, a)


@given(small_arrays())
@settings(max_examples=40, deadline=None)
def test_exp_log_roundtrip(a):
    x = Tensor(np.abs(a) + 1.0)
    np.testing.assert_allclose(x.log().exp().data, x.data, rtol=1e-10)


@given(small_arrays())
@settings(max_examples=40, deadline=None)
def test_sum_matches_numpy(a):
    np.testing.assert_allclose(float(Tensor(a).sum().data), a.sum(), rtol=1e-10)


@given(small_arrays())
@settings(max_examples=25, deadline=None)
def test_gradient_of_sum_is_ones(a):
    x = Tensor(a, requires_grad=True)
    x.sum().backward()
    np.testing.assert_allclose(x.grad, np.ones_like(a))


@given(small_arrays(max_dims=2))
@settings(max_examples=25, deadline=None)
def test_gradient_linearity(a):
    """∂(αΣx)/∂x = α · ∂(Σx)/∂x."""
    x = Tensor(a, requires_grad=True)
    (x * 3.5).sum().backward()
    np.testing.assert_allclose(x.grad, 3.5 * np.ones_like(a))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=20, deadline=None)
def test_matmul_grad_random_shapes(m, k, n):
    rng = np.random.default_rng(m * 100 + k * 10 + n)
    a = Tensor(rng.standard_normal((m, k)), requires_grad=True)
    b = Tensor(rng.standard_normal((k, n)), requires_grad=True)
    check_gradients(lambda a, b: a.matmul(b), [a, b])


@given(small_arrays(max_dims=2))
@settings(max_examples=25, deadline=None)
def test_softmax_rows_sum_to_one(a):
    from repro.tensor import functional as F

    out = F.softmax(Tensor(a), axis=-1).data
    np.testing.assert_allclose(out.sum(axis=-1), np.ones(out.shape[:-1]), rtol=1e-9)
    assert (out >= 0).all()


@given(small_arrays(max_dims=2), st.floats(min_value=0.0, max_value=0.8))
@settings(max_examples=25, deadline=None)
def test_dropout_preserves_expectation_when_off(a, rate):
    from repro.tensor import functional as F

    out = F.dropout(Tensor(a), rate, training=False)
    np.testing.assert_array_equal(out.data, a)
