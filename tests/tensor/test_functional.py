"""Tests of composite differentiable functions."""

import numpy as np
import pytest

from repro.tensor import Tensor, check_gradients, functional as F


class TestSoftmax:
    def test_rows_sum_to_one(self, rng):
        out = F.softmax(Tensor(rng.standard_normal((4, 6))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), 1.0)

    def test_invariant_to_shift(self, rng):
        x = rng.standard_normal((3, 5))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_stable_for_large_inputs(self):
        out = F.softmax(Tensor([[1000.0, 1000.0]])).data
        np.testing.assert_allclose(out, [[0.5, 0.5]])

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        weights = Tensor(rng.standard_normal((3, 4)))
        check_gradients(lambda x: F.softmax(x, axis=-1) * weights, [x], atol=1e-5)

    def test_axis_zero(self, rng):
        out = F.softmax(Tensor(rng.standard_normal((3, 4))), axis=0)
        np.testing.assert_allclose(out.data.sum(axis=0), 1.0)

    @pytest.mark.parametrize("shape, axis", [((50, 2, 4, 4), -1), ((50, 4), -1),
                                             ((4, 50), 0), ((5, 9), -1)],
                             ids=["xi-scores", "psi-gates", "axis0", "long-axis"])
    def test_short_axis_max_gives_the_reduction_bits(self, rng, shape, axis):
        """A short axis takes its max as the max of its slices: the same
        shift, so the same softmax bits as ``data.max`` gives."""
        for dtype in (np.float64, np.float32):
            x = rng.standard_normal(shape).astype(dtype)
            shifted = x - x.max(axis=axis, keepdims=True)
            want = np.exp(shifted) / np.exp(shifted).sum(axis=axis, keepdims=True)
            np.testing.assert_array_equal(F.softmax(Tensor(x), axis=axis).data, want)


class TestDropout:
    def test_identity_when_not_training(self, rng):
        x = Tensor(rng.standard_normal((10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_identity_when_rate_zero(self, rng):
        x = Tensor(rng.standard_normal((10, 10)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_scales_survivors(self, rng):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.4, training=True, rng=np.random.default_rng(0)).data
        survivors = out[out > 0]
        np.testing.assert_allclose(survivors, 1.0 / 0.6)
        # drop fraction close to the rate
        assert abs((out == 0).mean() - 0.4) < 0.02

    def test_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)


class TestL2Normalize:
    def test_unit_norm(self, rng):
        out = F.l2_normalize(Tensor(rng.standard_normal((5, 8))))
        np.testing.assert_allclose(np.linalg.norm(out.data, axis=-1), 1.0)

    def test_zero_row_is_safe(self):
        out = F.l2_normalize(Tensor(np.zeros((1, 4))))
        assert np.isfinite(out.data).all()

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((3, 4)) + 0.5, requires_grad=True)
        check_gradients(lambda x: F.l2_normalize(x), [x], atol=1e-5)
