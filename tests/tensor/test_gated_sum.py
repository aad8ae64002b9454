"""The gate-weighted sum of GNMR's η and ψ as one contraction.

``gated_sum`` replaced a broadcast product summed over the gate axis; the
composed pair stays in ``tests/helpers/autograd_oracle.py``. The contraction
promises the same bits, forward and backward, in both dtypes — so training
through it is bit-identical, not only close.
"""

import numpy as np
import pytest

from helpers.autograd_oracle import gated_sum as composed_gated_sum
from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.nn.losses import pairwise_hinge_loss
from repro.tensor import Tensor, check_gradients, functional as F
from repro.tensor.tensor import gated_sum


def _operands(dtype, rng, n=7, c=5, d=6):
    gates = Tensor(rng.standard_normal((n, c)).astype(dtype), requires_grad=True)
    values = Tensor(rng.standard_normal((n, c, d)).astype(dtype), requires_grad=True)
    return gates, values


def test_gradients_float64():
    rng = np.random.default_rng(0)
    gates, values = _operands(np.float64, rng)
    weights = Tensor(rng.standard_normal((7, 6)))   # a non-uniform seed grad
    check_gradients(lambda g, v: gated_sum(g, v) * weights, [gates, values],
                    atol=1e-7, rtol=1e-6)


def test_constant_operand_gets_no_gradient():
    rng = np.random.default_rng(1)
    gates, values = _operands(np.float64, rng)
    constant = Tensor(gates.data)
    gated_sum(constant, values).sum().backward()
    assert constant.grad is None and values.grad is not None


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_bit_equal_to_the_composed_product_and_sum(dtype):
    rng = np.random.default_rng(2)
    seed = rng.standard_normal((300, 16)).astype(dtype)
    results = []
    for op in (gated_sum, composed_gated_sum):
        gates, values = _operands(dtype, np.random.default_rng(3), n=300, c=8, d=16)
        out = op(gates, values)
        out.backward(seed)
        results.append((out.data, gates.grad, values.grad))
    for got, want in zip(*results):
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)


def test_gnmr_step_gradients_bit_equal_to_the_composed_gates(monkeypatch):
    """One mini-batch step's parameter gradients, every η and ψ gate
    through the contraction vs through the composed product and sum."""
    split = leave_one_out_split(taobao_like(num_users=40, num_items=80, seed=0))
    rng = np.random.default_rng(3)
    users = rng.choice(split.train.num_users, 12, replace=False)
    pos = rng.integers(0, split.train.num_items, 12)
    neg = rng.integers(0, split.train.num_items, 12)

    def grads():
        model = GNMR(split.train, GNMRConfig(pretrain=False, seed=0, num_layers=2))
        block = model.extract_block(users, pos, neg, fanout=(6, 4),
                                    rng=np.random.default_rng(4))
        pairwise_hinge_loss(*model.block_batch_scores(users, pos, neg, block)).backward()
        return {name: np.asarray(getattr(p.grad, "values", p.grad))
                for name, p in model.named_parameters() if p.grad is not None}

    new = grads()
    monkeypatch.setattr(F, "gated_sum", composed_gated_sum)
    old = grads()
    assert new.keys() == old.keys() and len(new) > 10
    for name in new:
        np.testing.assert_array_equal(new[name], old[name], err_msg=name)
