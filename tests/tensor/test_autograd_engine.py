"""Behavioural tests of the autograd machinery itself."""

import numpy as np
import pytest

from repro.tensor import Tensor, no_grad, is_grad_enabled


class TestGraphMechanics:
    def test_reused_tensor_accumulates(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * x  # x appears twice in one op
        y.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_diamond_graph(self):
        x = Tensor([3.0], requires_grad=True)
        a = x * 2.0
        b = x + 1.0
        out = a * b  # d/dx (2x * (x+1)) = 4x + 2
        out.backward()
        np.testing.assert_allclose(x.grad, [14.0])

    def test_deep_chain(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.1
        y.backward()
        np.testing.assert_allclose(x.grad, [1.1 ** 50], rtol=1e-10)

    def test_repeated_backward_accumulates_on_leaves(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0, 6.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2.0).backward()
        x.zero_grad()
        assert x.grad is None

    def test_backward_requires_scalar_without_seed(self):
        x = Tensor([[1.0, 2.0]], requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2.0).backward()

    def test_backward_with_seed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 2.0).backward(np.array([1.0, 10.0]))
        np.testing.assert_allclose(x.grad, [2.0, 20.0])

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor([1.0])
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_not_tracked_through_constants(self):
        x = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])  # constant
        out = x * c
        out.backward()
        assert c.grad is None
        np.testing.assert_allclose(x.grad, [5.0])


class TestNoGrad:
    def test_no_grad_disables_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(ValueError):
            with no_grad():
                raise ValueError("boom")
        assert is_grad_enabled()

    def test_no_grad_is_per_thread(self):
        import threading

        entered, done = threading.Event(), threading.Event()
        seen = []

        def inference():
            with no_grad():
                entered.set()
                done.wait(timeout=10)
                seen.append(is_grad_enabled())

        thread = threading.Thread(target=inference)
        thread.start()
        entered.wait(timeout=10)
        x = Tensor([1.0], requires_grad=True)
        y = x * 2.0  # recorded here while the other thread is in no_grad
        done.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert is_grad_enabled() and y.requires_grad
        assert seen == [False]

    def test_detach(self):
        x = Tensor([1.0], requires_grad=True)
        d = (x * 2.0).detach()
        assert not d.requires_grad
        out = d * 3.0
        assert not out.requires_grad


class TestTensorBasics:
    def test_dtype_coercion(self):
        assert Tensor([1, 2, 3]).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        # explicit float arrays keep their precision under the default dtype
        assert Tensor(np.arange(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor([1, 2, 3], dtype=np.float32).data.dtype == np.float32

    def test_shape_ndim_size_len(self):
        x = Tensor(np.zeros((2, 3)))
        assert x.shape == (2, 3)
        assert x.ndim == 2
        assert x.size == 6
        assert len(x) == 2

    def test_item(self):
        assert Tensor([[4.0]]).item() == 4.0

    def test_T_property(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert x.T.shape == (3, 2)

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones((4,)).data.sum() == 4.0
        r = Tensor.randn(5, 5, rng=np.random.default_rng(0), scale=0.1)
        assert r.shape == (5, 5)
        assert np.abs(r.data).max() < 1.0

    def test_comparison_produces_constants(self):
        x = Tensor([1.0, 5.0], requires_grad=True)
        mask = x > 2.0
        assert not mask.requires_grad
        np.testing.assert_allclose(mask.data, [0.0, 1.0])
        mask_lt = x < 2.0
        np.testing.assert_allclose(mask_lt.data, [1.0, 0.0])

    def test_numpy_returns_underlying(self):
        x = Tensor([1.0, 2.0])
        assert x.numpy() is x.data
