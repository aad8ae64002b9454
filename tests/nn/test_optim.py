"""Tests of the optimizers: convergence on a quadratic and exact updates."""

import numpy as np
import pytest

from repro.nn import Adam, SGD
from repro.nn.module import Parameter


def quadratic_step(p):
    """One gradient evaluation of f(θ) = ½‖θ − 3‖²; gradient is θ − 3."""
    p.grad = p.data - 3.0


@pytest.mark.parametrize("opt_cls,kwargs,steps", [
    (SGD, {"lr": 0.1}, 200),
    (Adam, {"lr": 0.2}, 300),
])
def test_converges_on_quadratic(opt_cls, kwargs, steps):
    p = Parameter(np.array([10.0, -5.0]))
    opt = opt_cls([p], **kwargs)
    for _ in range(steps):
        quadratic_step(p)
        opt.step()
    np.testing.assert_allclose(p.data, 3.0, atol=1e-2)


class TestSGD:
    def test_exact_update(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.5)
        p.grad = np.array([2.0])
        opt.step()
        np.testing.assert_allclose(p.data, [0.0])

    def test_skips_none_grad(self):
        p = Parameter(np.array([1.0]))
        SGD([p], lr=0.5).step()
        np.testing.assert_allclose(p.data, [1.0])


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        """With bias correction, the first Adam step ≈ lr · sign(grad)."""
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([123.0])
        opt.step()
        np.testing.assert_allclose(p.data, [-0.1], atol=1e-6)

    def test_zero_grad_clears(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_state_per_parameter(self):
        a, b = Parameter(np.zeros(2)), Parameter(np.zeros(3))
        opt = Adam([a, b], lr=0.1)
        a.grad = np.ones(2)
        b.grad = np.ones(3)
        opt.step()
        assert opt._m[0].shape == (2,) and opt._m[1].shape == (3,)

    def test_skips_none_grad_but_advances_the_clock(self):
        idle, busy = Parameter(np.array([1.0])), Parameter(np.array([0.0]))
        opt = Adam([idle, busy], lr=0.1)
        busy.grad = np.array([1.0])
        opt.step()
        np.testing.assert_array_equal(idle.data, [1.0])
        assert opt.state_dict()[0]["param_t"] == 1


class TestValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.zeros(1))], lr=-1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_unknown_optimizer_kind_rejected(self):
        from repro.nn.optim import make_optimizer

        with pytest.raises(ValueError, match="unknown optimizer 'momentum'"):
            make_optimizer("momentum", [Parameter(np.zeros(1))], 0.1)
