"""Lazy row-wise optimizer updates, batch-local L2."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    Parameter,
    l2_regularization,
    l2_regularization_batch,
)
from repro.tensor import RowSparseGrad


def _pair(shape=(8, 4), seed=0):
    """Two identical parameters plus a random row-sparse/dense grad pair."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    rows = np.array([1, 4, 6])
    values = rng.standard_normal((rows.size,) + shape[1:])
    sparse = RowSparseGrad(rows, values, shape[0])
    dense = sparse.to_dense()
    return Parameter(data.copy()), Parameter(data.copy()), sparse, dense


class TestLazyRowUpdates:
    def test_adam_per_row_step_counts(self):
        p, _, _, _ = _pair()
        opt = Adam([p], lr=0.01)
        p.grad = RowSparseGrad([1, 2], np.ones((2, 4)), 8)
        opt.step()
        p.grad = RowSparseGrad([2, 5], np.ones((2, 4)), 8)
        opt.step()
        counts = opt._row_steps[0]
        np.testing.assert_array_equal(counts[[1, 2, 5]], [1, 2, 1])
        assert np.all(counts[[0, 3, 4, 6, 7]] == 0)

    def test_adam_row_counters_are_per_parameter(self):
        # two tables under one optimizer: each gets counters of its own
        # size, only once a row-sparse gradient reaches it, and one
        # table's steps never advance the other's rows
        users, items = Parameter(np.zeros((8, 4))), Parameter(np.zeros((5, 4)))
        opt = Adam([users, items], lr=0.01)
        users.grad = RowSparseGrad([1, 7], np.ones((2, 4)), 8)
        opt.step()
        assert opt._row_steps[0].shape == (8,) and opt._row_steps[1] is None
        users.grad = RowSparseGrad([7], np.ones((1, 4)), 8)
        items.grad = RowSparseGrad([0, 4], np.ones((2, 4)), 5)
        opt.step()
        np.testing.assert_array_equal(opt._row_steps[0],
                                      [0, 1, 0, 0, 0, 0, 0, 2])
        # seeded with the parameter's clock minus one, then advanced
        np.testing.assert_array_equal(opt._row_steps[1], [2, 1, 1, 1, 2])
        assert [state["param_t"] for state in opt.state_dict()] == [2, 2]

    def test_adam_fresh_row_matches_dense_first_step(self):
        # a row first touched at sparse step t must get the t=1 bias
        # correction, exactly like a dense Adam's first step on that row
        data = np.random.default_rng(2).standard_normal((4, 2))
        p_sparse, p_dense = Parameter(data.copy()), Parameter(data.copy())
        opt_sparse = Adam([p_sparse], lr=0.1)
        opt_dense = Adam([p_dense], lr=0.1)
        grad_row = np.array([[0.3, -0.7]])
        # advance the sparse optimizer twice on OTHER rows first
        for _ in range(2):
            p_sparse.grad = RowSparseGrad([0], np.ones((1, 2)), 4)
            opt_sparse.step()
        p_sparse.grad = RowSparseGrad([3], grad_row.copy(), 4)
        opt_sparse.step()
        dense = np.zeros((4, 2))
        dense[3] = grad_row
        p_dense.grad = dense
        opt_dense.step()
        np.testing.assert_allclose(p_sparse.data[3], p_dense.data[3], rtol=1e-12)

    def test_lazy_adam_converges_on_quadratic(self):
        # minimize ||X||^2 with only a random subset of rows visible per
        # step — lazy Adam must still drive every row toward zero
        rng = np.random.default_rng(0)
        p = Parameter(rng.standard_normal((12, 3)) * 2.0)
        opt = Adam([p], lr=0.05)
        for _ in range(1500):
            rows = rng.choice(12, size=4, replace=False)
            values = 2.0 * p.data[rows]
            p.grad = RowSparseGrad(rows, values, 12)
            opt.step()
        assert float(np.abs(p.data).max()) < 0.05


class TestBatchLocalL2:
    def test_penalizes_only_touched_rows(self):
        table = Parameter(np.arange(12.0).reshape(6, 2))
        loss = l2_regularization_batch([(table, np.array([1, 3, 1]))], [], 0.5)
        expected = 0.5 * float(np.sum(table.data[[1, 3]] ** 2))
        assert loss.item() == pytest.approx(expected)
        loss.backward()
        assert isinstance(table.grad, RowSparseGrad)
        np.testing.assert_array_equal(table.grad.indices, [1, 3])

    def test_matches_full_l2_when_all_rows_touched(self):
        table = Parameter(np.random.default_rng(0).standard_normal((4, 3)))
        w = Parameter(np.random.default_rng(1).standard_normal((2, 2)))
        batch = l2_regularization_batch([(table, np.arange(4))], [w], 1e-2)
        full = l2_regularization([table, w], 1e-2)
        assert batch.item() == pytest.approx(full.item())

    def test_zero_weight_short_circuits(self):
        table = Parameter(np.ones((3, 2)))
        assert l2_regularization_batch([(table, np.array([0]))], [], 0.0).item() == 0.0

    def test_empty_rows_fall_back_to_dense_terms(self):
        w = Parameter(np.full((2, 2), 2.0))
        table = Parameter(np.ones((3, 2)))
        loss = l2_regularization_batch([(table, np.array([], dtype=np.int64))],
                                       [w], 1.0)
        assert loss.item() == pytest.approx(16.0)
