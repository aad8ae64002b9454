"""Row-sparse gradients: RowSparseGrad semantics + embedding_rows backward."""

import numpy as np
import pytest

from repro.tensor import RowSparseGrad, Tensor, add_grads
from repro.tensor.grad_check import numerical_grad


class TestRowSparseGrad:
    def test_coalesces_duplicate_rows(self):
        g = RowSparseGrad([2, 0, 2], np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]]), 4)
        np.testing.assert_array_equal(g.indices, [0, 2])
        np.testing.assert_array_equal(g.values, [[2.0, 2.0], [4.0, 4.0]])

    def test_to_dense_shape_and_values(self):
        g = RowSparseGrad([1, 3], np.array([[1.0], [2.0]]), 5)
        dense = g.to_dense()
        assert dense.shape == (5, 1)
        np.testing.assert_array_equal(dense[[1, 3]], [[1.0], [2.0]])
        assert dense[[0, 2, 4]].sum() == 0.0

    def test_out_of_range_rows_rejected(self):
        with pytest.raises(IndexError):
            RowSparseGrad([5], np.ones((1, 2)), 5)

    def test_sparse_plus_sparse_stays_sparse(self):
        a = RowSparseGrad([0, 2], np.ones((2, 3)), 4)
        b = RowSparseGrad([2, 3], np.ones((2, 3)) * 2, 4)
        merged = a + b
        assert isinstance(merged, RowSparseGrad)
        np.testing.assert_array_equal(merged.indices, [0, 2, 3])
        np.testing.assert_array_equal(merged.to_dense(),
                                      a.to_dense() + b.to_dense())

    def test_sparse_plus_dense_densifies_both_orders(self):
        sparse = RowSparseGrad([1], np.array([[1.0, 1.0]]), 3)
        dense = np.full((3, 2), 0.5)
        for result in (sparse + dense, dense + sparse, add_grads(dense, sparse)):
            assert isinstance(result, np.ndarray)
            np.testing.assert_array_equal(result, sparse.to_dense() + dense)

    def test_scalar_multiply_and_inplace_scale(self):
        g = RowSparseGrad([0], np.array([[2.0, 4.0]]), 2)
        doubled = g * 2.0
        np.testing.assert_array_equal(doubled.values, [[4.0, 8.0]])
        g.scale_(0.5)
        np.testing.assert_array_equal(g.values, [[1.0, 2.0]])

    def test_sq_norm_matches_dense(self):
        vals = np.random.default_rng(0).standard_normal((3, 4))
        g = RowSparseGrad([0, 2, 5], vals, 8)
        assert g.sq_norm() == pytest.approx(float(np.sum(g.to_dense() ** 2)))

    def test_float32_values_keep_dtype_through_scale(self):
        g = RowSparseGrad([0], np.ones((1, 2), dtype=np.float32), 2)
        assert (g * 0.5).dtype == np.float32
        assert g.scale_(0.5).values.dtype == np.float32


class TestEmbeddingRows:
    def test_forward_matches_gather_rows(self):
        table = Tensor(np.arange(20.0).reshape(5, 4), requires_grad=True)
        idx = np.array([4, 0, 4])
        np.testing.assert_array_equal(table.embedding_rows(idx).data,
                                      table.gather_rows(idx).data)

    def test_backward_is_row_sparse_on_leaf(self):
        table = Tensor(np.random.default_rng(0).standard_normal((6, 3)),
                       requires_grad=True)
        idx = np.array([1, 4, 1])
        out = table.embedding_rows(idx)
        (out * out).sum().backward()
        assert isinstance(table.grad, RowSparseGrad)
        np.testing.assert_array_equal(table.grad.indices, [1, 4])

    def test_gradient_matches_numerical(self):
        rng = np.random.default_rng(1)
        table = Tensor(rng.standard_normal((5, 3)), requires_grad=True)
        idx = np.array([0, 2, 2, 4])
        weights = rng.standard_normal((4, 3))

        def fn(t):
            return t.embedding_rows(idx) * Tensor(weights)

        fn(table).sum().backward()
        analytic = table.grad.to_dense()
        numeric = numerical_grad(fn, [table], 0)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-5)

    def test_backward_matches_gather_rows_backward(self):
        data = np.random.default_rng(2).standard_normal((7, 2))
        idx = np.array([3, 3, 0, 6])
        a = Tensor(data.copy(), requires_grad=True)
        b = Tensor(data.copy(), requires_grad=True)
        (a.embedding_rows(idx) ** 2).sum().backward()
        (b.gather_rows(idx) ** 2).sum().backward()
        np.testing.assert_array_equal(a.grad.to_dense(), b.grad)

    def test_non_leaf_table_falls_back_to_dense(self):
        base = Tensor(np.ones((4, 2)), requires_grad=True)
        computed = base * 2.0  # interior node: sparse grads must not reach it
        out = computed.embedding_rows(np.array([0, 3]))
        out.sum().backward()
        assert isinstance(base.grad, np.ndarray)
        expected = np.zeros((4, 2))
        expected[[0, 3]] = 2.0
        np.testing.assert_array_equal(base.grad, expected)

    def test_mixed_sparse_and_dense_contributions_densify(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        loss = table.embedding_rows(np.array([1])).sum() + (table * 3.0).sum()
        loss.backward()
        assert isinstance(table.grad, np.ndarray)
        expected = np.full((4, 2), 3.0)
        expected[1] += 1.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_two_sparse_gathers_merge_sparse(self):
        table = Tensor(np.ones((6, 2)), requires_grad=True)
        loss = (table.embedding_rows(np.array([0, 2])).sum()
                + table.embedding_rows(np.array([2, 5])).sum())
        loss.backward()
        assert isinstance(table.grad, RowSparseGrad)
        np.testing.assert_array_equal(table.grad.indices, [0, 2, 5])
        np.testing.assert_array_equal(table.grad.values,
                                      [[1.0, 1.0], [2.0, 2.0], [1.0, 1.0]])

    def test_rejects_multi_dim_indices(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            table.embedding_rows(np.array([[0, 1]]))

    def test_repeated_backward_accumulates(self):
        table = Tensor(np.ones((4, 2)), requires_grad=True)
        for _ in range(2):
            table.embedding_rows(np.array([1])).sum().backward()
        assert isinstance(table.grad, RowSparseGrad)
        np.testing.assert_array_equal(table.grad.to_dense()[1], [2.0, 2.0])
