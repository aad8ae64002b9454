"""Property-based randomized parity suite for ``RowSparseGrad``.

Accumulation is the operation everything downstream trusts: backward
passes chain ``add_grads`` over arbitrary mixes of sparse and dense
contributions and optimizers read the coalesced result. Each trial here
draws a random accumulation program — random row counts, duplicate-heavy
index batches, random sparse/dense mixing order, random scalar scalings —
executes it through the sparse types, and checks the outcome against a
dense reference accumulator that uses nothing but plain numpy. Seeded
trials, so failures replay exactly.
"""

import numpy as np
import pytest

from repro.tensor import RowSparseGrad
from repro.tensor.rowsparse import add_grads

NUM_TRIALS = 40


def _random_sparse(rng, num_rows, row_shape, dtype=np.float64):
    """A random RowSparseGrad with duplicate-prone indices + its dense twin."""
    nnz = int(rng.integers(0, 2 * num_rows + 1))
    # draw from a narrow id range so duplicates are common, not rare
    indices = rng.integers(0, num_rows, size=nnz)
    values = rng.standard_normal((nnz,) + row_shape).astype(dtype)
    dense = np.zeros((num_rows,) + row_shape, dtype=dtype)
    np.add.at(dense, indices, values)
    return RowSparseGrad(indices, values, num_rows), dense


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_random_accumulation_program_matches_dense_reference(trial):
    rng = np.random.default_rng(1000 + trial)
    num_rows = int(rng.integers(1, 30))
    row_shape = tuple(rng.integers(1, 5, size=int(rng.integers(0, 3))))

    sparse_acc = None
    dense_acc = None
    for _ in range(int(rng.integers(1, 8))):
        op = rng.choice(["sparse", "dense", "scale"])
        if op == "scale" and sparse_acc is not None:
            factor = float(rng.normal())
            sparse_acc = sparse_acc * factor
            dense_acc = dense_acc * factor
            continue
        if op == "dense":
            term = rng.standard_normal((num_rows,) + row_shape)
            sparse_acc = term if sparse_acc is None else add_grads(sparse_acc, term)
            dense_acc = term if dense_acc is None else dense_acc + term
            continue
        sparse, dense = _random_sparse(rng, num_rows, row_shape)
        sparse_acc = sparse if sparse_acc is None else add_grads(sparse_acc, sparse)
        dense_acc = dense if dense_acc is None else dense_acc + dense

    result = (sparse_acc.to_dense() if isinstance(sparse_acc, RowSparseGrad)
              else sparse_acc)
    assert result.shape == dense_acc.shape
    np.testing.assert_allclose(result, dense_acc, rtol=1e-12, atol=1e-12)
    # sparse-only programs must not have densified along the way
    if isinstance(sparse_acc, RowSparseGrad):
        assert sparse_acc.indices.size <= num_rows
        assert np.unique(sparse_acc.indices).size == sparse_acc.indices.size


@pytest.mark.parametrize("trial", range(NUM_TRIALS))
def test_sparse_plus_sparse_stays_sparse_and_exact(trial):
    """Sparse + sparse must coalesce bit-exactly vs np.add.at ordering."""
    rng = np.random.default_rng(2000 + trial)
    num_rows = int(rng.integers(1, 25))
    dim = int(rng.integers(1, 6))
    a, dense_a = _random_sparse(rng, num_rows, (dim,))
    b, dense_b = _random_sparse(rng, num_rows, (dim,))
    total = a + b
    assert isinstance(total, RowSparseGrad)
    # exact: both sides sum per-row contributions in first-seen order
    np.testing.assert_array_equal(total.to_dense(), dense_a + dense_b)


@pytest.mark.parametrize("trial", range(20))
def test_sparse_plus_dense_densifies_exactly(trial):
    rng = np.random.default_rng(3000 + trial)
    num_rows = int(rng.integers(1, 25))
    sparse, dense_twin = _random_sparse(rng, num_rows, (3,))
    other = rng.standard_normal((num_rows, 3))
    for mixed in (sparse + other, other + sparse,
                  add_grads(sparse, other), add_grads(other, sparse)):
        assert isinstance(mixed, np.ndarray)
        np.testing.assert_array_equal(mixed, dense_twin + other)


@pytest.mark.parametrize("trial", range(20))
def test_duplicate_heavy_batches_coalesce(trial):
    """All-duplicate index batches (the worst case) coalesce correctly."""
    rng = np.random.default_rng(4000 + trial)
    num_rows = int(rng.integers(2, 10))
    row = int(rng.integers(0, num_rows))
    reps = int(rng.integers(1, 50))
    values = rng.standard_normal((reps, 2))
    grad = RowSparseGrad(np.full(reps, row), values, num_rows)
    assert grad.indices.size == 1
    np.testing.assert_allclose(grad.values[0], values.sum(axis=0),
                               rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("trial", range(20))
def test_scalar_scaling_and_norm(trial):
    rng = np.random.default_rng(5000 + trial)
    sparse, dense = _random_sparse(rng, int(rng.integers(1, 20)), (4,))
    factor = float(rng.normal())
    np.testing.assert_allclose((factor * sparse).to_dense(), factor * dense,
                               rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(sparse.sq_norm(), float(np.sum(dense * dense)),
                               rtol=1e-12)


def test_shape_mismatches_rejected():
    grad = RowSparseGrad([0], np.ones((1, 2)), 5)
    with pytest.raises(ValueError):
        grad + RowSparseGrad([0], np.ones((1, 3)), 5)
    with pytest.raises(ValueError):
        grad + np.ones((5, 3))
    with pytest.raises(ValueError):
        RowSparseGrad([0, 1], np.ones((3, 2)), 5)
    with pytest.raises(IndexError):
        RowSparseGrad([5], np.ones((1, 2)), 5)
