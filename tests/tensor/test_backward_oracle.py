"""The shared-weight backward rules against the composed ones they replaced.

``Tensor``'s ``matmul`` / ``*`` / ``/`` / ``sum`` backward now contract a
shared weight's gradient in one GEMM, skip constants and hand ``sum``'s
broadcast view on uncopied. That reorders floating-point sums, so the promise is
numerical, not bitwise: float64 GNMR training under the new rules stays
within 1e-10 (relative) of training under the old ones, kept verbatim in
``tests/helpers/autograd_oracle.py``.
"""

import numpy as np
import pytest

from helpers.autograd_oracle import composed_rules, matmul as oracle_matmul
from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.nn.losses import pairwise_hinge_loss
from repro.tensor import Tensor
from repro.train import TrainConfig, Trainer

STEPS = 20


@pytest.fixture(scope="module")
def split():
    return leave_one_out_split(taobao_like(num_users=60, num_items=150, seed=0))


def _model(split):
    return GNMR(split.train, GNMRConfig(pretrain=False, seed=0, num_layers=2))


def _train(split):
    """``STEPS`` async steps, one per epoch so the history is per step."""
    model = _model(split)
    config = TrainConfig(epochs=STEPS, steps_per_epoch=1, batch_users=16,
                         per_user=2, propagation="async", fanout=(6, 4),
                         workers=0, seed=0)
    losses = Trainer(model, split.train, config).run().series("loss")
    return np.asarray(losses), model.state_dict()


def _relative(new, old):
    return float(np.max(np.abs(new - old) / np.maximum(np.abs(old), 1e-30)))


def test_composed_rules_are_restored():
    with composed_rules():
        assert Tensor.matmul is oracle_matmul
    assert Tensor.matmul is not oracle_matmul
    assert Tensor.__rmul__ is Tensor.__mul__


def test_one_step_gradients_match_the_composed_rules(split):
    rng = np.random.default_rng(3)
    users = rng.choice(split.train.num_users, 16, replace=False)
    pos = rng.integers(0, split.train.num_items, 16)
    neg = rng.integers(0, split.train.num_items, 16)
    block = _model(split).extract_block(users, pos, neg, fanout=(6, 4),
                                        rng=np.random.default_rng(4))

    def grads():
        model = _model(split)  # a fresh one: dropout draws the same masks
        scores = model.block_batch_scores(users, pos, neg, block)
        (pairwise_hinge_loss(*scores)
         + model.l2_batch(users, pos, neg, 1e-2)).backward()
        return {name: np.asarray(getattr(p.grad, "values", p.grad))
                for name, p in model.named_parameters() if p.grad is not None}

    new = grads()
    with composed_rules():
        old = grads()
    assert new.keys() == old.keys() and len(new) > 10
    for name in new:
        np.testing.assert_allclose(new[name], old[name], rtol=1e-12,
                                   atol=1e-15, err_msg=name)


def test_loss_trace_stays_within_1e_10_of_the_composed_rules(split):
    new_losses, new_state = _train(split)
    with composed_rules():
        old_losses, old_state = _train(split)
    assert len(new_losses) == STEPS and np.all(new_losses > 0)
    assert _relative(new_losses, old_losses) <= 1e-10
    # ψ's b3 shifts every γ_k alike, so the softmax cancels it: its true
    # gradient is 0 and Adam walks it on rounding noise (|b3| < 1e-8 under
    # either rule set) — hence the absolute floor
    for name, value in old_state.items():
        np.testing.assert_allclose(new_state[name], value, rtol=1e-10,
                                   atol=1e-8, err_msg=name)
