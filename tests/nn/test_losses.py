"""Tests of loss functions, including the paper's Eq. (7) hinge loss."""

import numpy as np
import pytest

from repro.nn import bpr_loss, l2_regularization, pairwise_hinge_loss
from repro.nn.module import Parameter
from repro.tensor import Tensor, check_gradients


class TestHinge:
    def test_zero_when_margin_satisfied(self):
        pos = Tensor([5.0, 3.0])
        neg = Tensor([1.0, 1.0])
        assert float(pairwise_hinge_loss(pos, neg).data) == 0.0

    def test_value_inside_margin(self):
        # max(0, 1 - 0.5 + 0.0) = 0.5
        loss = pairwise_hinge_loss(Tensor([0.5]), Tensor([0.0]))
        assert float(loss.data) == pytest.approx(0.5)

    def test_sums_over_batch(self):
        loss = pairwise_hinge_loss(Tensor([0.0, 0.0]), Tensor([0.0, 0.0]))
        assert float(loss.data) == pytest.approx(2.0)

    def test_custom_margin(self):
        loss = pairwise_hinge_loss(Tensor([1.0]), Tensor([0.0]), margin=2.0)
        assert float(loss.data) == pytest.approx(1.0)

    def test_gradient(self, rng):
        pos = Tensor(rng.standard_normal(6), requires_grad=True)
        neg = Tensor(rng.standard_normal(6), requires_grad=True)
        check_gradients(lambda p, n: pairwise_hinge_loss(p, n), [pos, neg])


class TestBPR:
    def test_matches_reference(self, rng):
        pos = rng.standard_normal(10)
        neg = rng.standard_normal(10)
        ours = float(bpr_loss(Tensor(pos), Tensor(neg)).data)
        reference = -np.log(1.0 / (1.0 + np.exp(-(pos - neg)))).sum()
        assert ours == pytest.approx(reference, rel=1e-9)

    def test_stable_extremes(self):
        loss = bpr_loss(Tensor([100.0]), Tensor([-100.0]))
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)
        loss = bpr_loss(Tensor([-100.0]), Tensor([100.0]))
        assert np.isfinite(float(loss.data))

    def test_gradient(self, rng):
        pos = Tensor(rng.standard_normal(6), requires_grad=True)
        neg = Tensor(rng.standard_normal(6), requires_grad=True)
        check_gradients(lambda p, n: bpr_loss(p, n), [pos, neg])


class TestL2:
    def test_value(self):
        params = [Parameter(np.array([3.0, 4.0]))]
        assert float(l2_regularization(params, 0.1).data) == pytest.approx(2.5)

    def test_zero_weight_shortcircuits(self):
        params = [Parameter(np.ones(5))]
        out = l2_regularization(params, 0.0)
        assert float(out.data) == 0.0
        assert not out.requires_grad

    def test_empty_params(self):
        assert float(l2_regularization([], 0.5).data) == 0.0

    def test_gradient_is_2_lambda_theta(self):
        p = Parameter(np.array([1.0, -2.0]))
        l2_regularization([p], 0.5).backward()
        np.testing.assert_allclose(p.grad, [1.0, -2.0])
