"""Tests of Adam: convergence on a quadratic and exact updates."""

import numpy as np
import pytest

from repro.nn import Adam
from repro.nn.module import Parameter
from repro.tensor import RowSparseGrad


def quadratic_step(p):
    """One gradient evaluation of f(θ) = ½‖θ − 3‖²; gradient is θ − 3."""
    p.grad = p.data - 3.0


def test_converges_on_quadratic():
    p = Parameter(np.array([10.0, -5.0]))
    opt = Adam([p], lr=0.2)
    for _ in range(300):
        quadratic_step(p)
        opt.step()
    np.testing.assert_allclose(p.data, 3.0, atol=1e-2)


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


    def test_state_dict_round_trip_continues_bit_exactly(self):
        """A fresh Adam loaded with another's state steps like it would
        have, on dense and lazy row-sparse parameters alike."""
        rng = np.random.default_rng(0)
        grads = [(rng.standard_normal(3),
                  RowSparseGrad(rng.choice(5, 2, replace=False),
                                rng.standard_normal((2, 2)), 5))
                 for _ in range(4)]

        def step(opt, dense, table, grad):
            dense.grad, table.grad = grad
            opt.step()

        dense, table = Parameter(np.ones(3)), Parameter(np.ones((5, 2)))
        opt = Adam([dense, table], lr=0.1)
        for grad in grads[:2]:
            step(opt, dense, table, grad)
        copies = Parameter(dense.data.copy()), Parameter(table.data.copy())
        resumed = Adam(copies, lr=0.1)
        resumed.load_state_dict(opt.state_dict())
        for grad in grads[2:]:
            step(opt, dense, table, grad)
            step(resumed, *copies, grad)
        np.testing.assert_array_equal(copies[0].data, dense.data)
        np.testing.assert_array_equal(copies[1].data, table.data)

    def test_load_state_dict_refuses_another_parameter_count(self):
        opt = Adam([Parameter(np.zeros(2)), Parameter(np.zeros(3))], lr=0.1)
        with pytest.raises(ValueError, match="covers 1 parameters"):
            opt.load_state_dict(opt.state_dict()[:1])


class TestValidation:
    def test_negative_lr_rejected(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.zeros(1))], lr=-1.0)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)
