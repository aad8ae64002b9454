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


class TestLogSoftmax:
    def test_matches_log_of_softmax(self, rng):
        x = Tensor(rng.standard_normal((3, 4)))
        np.testing.assert_allclose(F.log_softmax(x).data,
                                   np.log(F.softmax(x).data), atol=1e-10)

    def test_gradient(self, rng):
        x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
        check_gradients(lambda x: F.log_softmax(x, axis=-1), [x], atol=1e-5)


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


class TestAttention:
    def test_output_shape(self, rng):
        q = Tensor(rng.standard_normal((2, 3, 8)))
        k = Tensor(rng.standard_normal((2, 5, 8)))
        v = Tensor(rng.standard_normal((2, 5, 6)))
        out, weights = F.scaled_dot_product_attention(q, k, v)
        assert out.shape == (2, 3, 6)
        assert weights.shape == (2, 3, 5)
        np.testing.assert_allclose(weights.data.sum(axis=-1), 1.0)

    def test_gradients(self, rng):
        q = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        k = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        v = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        check_gradients(lambda q, k, v: F.scaled_dot_product_attention(q, k, v)[0],
                        [q, k, v], atol=1e-4)


class TestLossPrimitives:
    def test_mse_value(self):
        pred = Tensor([1.0, 2.0])
        assert float(F.mse(pred, np.array([1.0, 4.0])).data) == pytest.approx(2.0)

    def test_bce_matches_reference(self, rng):
        logits = rng.standard_normal(20)
        target = (rng.random(20) > 0.5).astype(float)
        ours = float(F.binary_cross_entropy_with_logits(Tensor(logits), target).data)
        p = 1.0 / (1.0 + np.exp(-logits))
        reference = -(target * np.log(p) + (1 - target) * np.log(1 - p)).mean()
        assert ours == pytest.approx(reference, rel=1e-9)

    def test_bce_stable_extreme_logits(self):
        out = F.binary_cross_entropy_with_logits(
            Tensor([1000.0, -1000.0]), np.array([1.0, 0.0]))
        assert float(out.data) == pytest.approx(0.0, abs=1e-9)

    def test_bce_gradient(self, rng):
        logits = Tensor(rng.standard_normal(10), requires_grad=True)
        target = (rng.random(10) > 0.5).astype(float)
        check_gradients(lambda z: F.binary_cross_entropy_with_logits(z, target), [logits])
