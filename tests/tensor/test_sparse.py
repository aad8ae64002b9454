"""Tests of the sparse adjacency substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import SparseAdjacency, Tensor, check_gradients


@pytest.fixture
def adjacency():
    return SparseAdjacency(sp.random(6, 8, density=0.35, random_state=4))


class TestConstruction:
    def test_from_dense(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0]])
        a = SparseAdjacency(dense)
        np.testing.assert_allclose(a.to_dense(), dense)

    def test_shape_nnz(self, adjacency):
        assert adjacency.shape == (6, 8)
        assert adjacency.nnz > 0

    def test_transpose(self, adjacency):
        np.testing.assert_allclose(adjacency.T.to_dense(), adjacency.to_dense().T)


class TestNormalization:
    def test_row_normalized_rows_sum_to_one(self):
        a = SparseAdjacency(np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 0.0]]))
        normalized = a.normalized("row").to_dense()
        np.testing.assert_allclose(normalized.sum(axis=1), [1.0, 1.0, 0.0])

    def test_sym_normalization(self):
        dense = np.array([[1.0, 1.0], [1.0, 0.0]])
        a = SparseAdjacency(dense).normalized("sym").to_dense()
        # entry (0,0): 1/sqrt(2)/sqrt(2) = 0.5
        assert a[0, 0] == pytest.approx(0.5)

    def test_unknown_mode_raises(self, adjacency):
        with pytest.raises(ValueError):
            adjacency.normalized("bogus")

    def test_empty_rows_stay_zero(self):
        a = SparseAdjacency(np.zeros((3, 3))).normalized("row")
        np.testing.assert_allclose(a.to_dense(), 0.0)


class TestMatmul:
    def test_forward_matches_dense(self, adjacency, rng):
        h = rng.standard_normal((8, 4))
        out = adjacency.matmul(Tensor(h)).data
        np.testing.assert_allclose(out, adjacency.to_dense() @ h)

    def test_matmul_operator(self, adjacency, rng):
        h = Tensor(rng.standard_normal((8, 4)))
        np.testing.assert_allclose((adjacency @ h).data, adjacency.matmul(h).data)

    def test_gradient(self, adjacency, rng):
        h = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        check_gradients(lambda h: adjacency.matmul(h).tanh(), [h])

    def test_chained_propagation_gradient(self, adjacency, rng):
        h = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        check_gradients(lambda h: adjacency.T.matmul(adjacency.matmul(h)), [h])

    def test_no_gradient_when_disabled(self, adjacency, rng):
        from repro.tensor import no_grad

        h = Tensor(rng.standard_normal((8, 3)), requires_grad=True)
        with no_grad():
            out = adjacency.matmul(h)
        assert not out.requires_grad


class TestDegrees:
    def test_row_col_degrees(self):
        dense = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
        a = SparseAdjacency(dense)
        np.testing.assert_allclose(a.row_degrees(), [2.0, 1.0])
        np.testing.assert_allclose(a.col_degrees(), [1.0, 2.0, 0.0])
