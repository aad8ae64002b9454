"""Tests of the Module/Parameter tree."""

import numpy as np
import pytest

from repro.nn import Linear, MLP, Module, ModuleList, Parameter
from repro.tensor import Tensor


class Composite(Module):
    def __init__(self):
        super().__init__()
        self.direct = Parameter(np.zeros(3))
        self.child = Linear(4, 2, rng=np.random.default_rng(0))
        self.layer_list = [Linear(2, 2, rng=np.random.default_rng(1)),
                           Parameter(np.ones(2))]
        self.layer_dict = {"a": Parameter(np.ones((2, 2)))}

    def forward(self, x):
        return self.child(x)


class TestParameterDiscovery:
    def test_named_parameters_cover_all_containers(self):
        names = {name for name, _ in Composite().named_parameters()}
        assert "direct" in names
        assert "child.weight" in names and "child.bias" in names
        assert "layer_list.0.weight" in names and "layer_list.1" in names
        assert "layer_dict.a" in names

    def test_parameters_count(self):
        model = Composite()
        # direct(3) + child W(8)+b(2) + list W(4)+b(2), bare(2) + dict(4)
        assert model.num_parameters() == 3 + 8 + 2 + 4 + 2 + 2 + 4

    def test_module_list_registered(self):
        container = ModuleList([Linear(2, 2, rng=np.random.default_rng(0))])
        assert len(container.parameters()) == 2
        assert len(container) == 1


class TestModes:
    def test_train_eval_propagates(self):
        model = Composite()
        model.eval()
        assert not model.training
        assert not model.child.training
        model.train()
        assert model.child.training

    def test_zero_grad(self):
        model = Composite()
        out = model(Tensor(np.ones((1, 4))))
        out.sum().backward()
        assert model.child.weight.grad is not None
        model.zero_grad()
        assert model.child.weight.grad is None


class TestStateDict:
    def test_roundtrip(self):
        a = MLP([4, 3, 2], rng=np.random.default_rng(0))
        b = MLP([4, 3, 2], rng=np.random.default_rng(99))
        b.load_state_dict(a.state_dict())
        x = Tensor(np.random.default_rng(1).standard_normal((5, 4)))
        np.testing.assert_allclose(a(x).data, b(x).data)

    def test_state_dict_is_copy(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        state = model.state_dict()
        state["weight"][:] = 0.0
        assert not np.allclose(model.weight.data, 0.0)

    def test_mismatched_keys_raise(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 2))})  # missing bias

    def test_mismatched_shape_raises(self):
        model = Linear(2, 2, rng=np.random.default_rng(0))
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_mismatched_shape_changes_nothing(self):
        """Every shape is checked before the first parameter is assigned."""
        model = Linear(2, 2, rng=np.random.default_rng(0))
        before = model.state_dict()
        assert list(before) == ["weight", "bias"]
        with pytest.raises(ValueError, match="bias"):
            model.load_state_dict({"weight": np.ones((2, 2)),
                                   "bias": np.zeros(3)})
        np.testing.assert_array_equal(model.weight.data, before["weight"])


def test_base_forward_not_implemented():
    with pytest.raises(NotImplementedError):
        Module()(1)


def test_module_list_not_callable():
    with pytest.raises(RuntimeError):
        ModuleList([])()
