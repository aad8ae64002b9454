"""Row-sparse gradients for embedding tables.

A mini-batch of seed users touches a few hundred rows of the user/item
embedding tables, yet a dense backward pass scatters into — and the
optimizer then reads — the *entire* table. :class:`RowSparseGrad` is the
compressed alternative: the unique touched row indices plus one dense value
block, so gradient memory and optimizer work scale with the batch instead
of the table.

The type is emitted by :meth:`repro.tensor.Tensor.embedding_rows` (the
row-gather op whose backward stays sparse when the table is a leaf) and is
understood by every optimizer in :mod:`repro.nn.optim`, which applies lazy
per-row updates. Mixing rules: sparse + sparse stays sparse (indices are
merged and re-coalesced); sparse + dense densifies, because a dense
contribution already paid the full-table cost.
"""

from __future__ import annotations

import numpy as np


def _coalesce(indices: np.ndarray,
              values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge duplicate rows: unique sorted indices + summed value block."""
    unique, inverse = np.unique(indices, return_inverse=True)
    if unique.size == indices.size:
        # already unique; np.unique sorted them — reorder values to match
        order = np.argsort(indices, kind="stable")
        if np.array_equal(order, np.arange(indices.size)):
            return indices, values
        return indices[order], values[order]
    out = np.zeros((unique.size,) + values.shape[1:], dtype=values.dtype)
    np.add.at(out, inverse, values)
    return unique, out


class RowSparseGrad:
    """A gradient that is nonzero only on a set of rows.

    Parameters
    ----------
    indices:
        Row indices (any int array; coalesced to unique sorted order).
    values:
        Value block of shape ``(len(indices),) + row_shape``; rows listed
        more than once are summed during coalescing.
    num_rows:
        First dimension of the dense table this gradient belongs to.

    The logical dense shape is ``(num_rows,) + values.shape[1:]`` and
    :meth:`to_dense` materializes it. Arithmetic supports exactly what the
    backward pass and the optimizers need: ``+`` against another
    :class:`RowSparseGrad` (stays sparse) or a dense array (densifies), and
    scalar ``*`` (used by gradient clipping).
    """

    __slots__ = ("indices", "values", "num_rows")
    # make numpy defer `ndarray + RowSparseGrad` to __radd__
    __array_priority__ = 200

    def __init__(self, indices, values, num_rows: int, *,
                 coalesced: bool = False):
        indices = np.asarray(indices, dtype=np.int64).ravel()
        values = np.asarray(values)
        if values.shape[:1] != indices.shape:
            raise ValueError(
                f"values leading dim {values.shape[:1]} does not match "
                f"{indices.size} indices")
        if indices.size and (indices.min() < 0 or indices.max() >= num_rows):
            raise IndexError(f"row index out of range [0, {num_rows})")
        if not coalesced:
            indices, values = _coalesce(indices, values)
        if values.base is not None or not values.flags.writeable:
            values = values.copy()  # scale_ writes in place: own the block
        self.indices = indices
        self.values = values
        self.num_rows = int(num_rows)

    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the equivalent dense gradient."""
        return (self.num_rows,) + self.values.shape[1:]

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RowSparseGrad(rows={self.indices.size}/{self.num_rows}, "
                f"row_shape={self.values.shape[1:]})")

    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialize the full table-shaped gradient."""
        out = np.zeros(self.shape, dtype=self.values.dtype)
        out[self.indices] = self.values  # indices are unique after coalesce
        return out

    def copy(self) -> "RowSparseGrad":
        return RowSparseGrad(self.indices.copy(), self.values.copy(),
                             self.num_rows, coalesced=True)

    def astype(self, dtype) -> "RowSparseGrad":
        if np.dtype(dtype) == self.values.dtype:
            return self
        return RowSparseGrad(self.indices, self.values.astype(dtype),
                             self.num_rows, coalesced=True)

    # ------------------------------------------------------------------
    # accumulation / scaling
    # ------------------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, RowSparseGrad):
            if other.shape != self.shape:
                raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
            dtype = np.result_type(self.values.dtype, other.values.dtype)
            return RowSparseGrad(
                np.concatenate([self.indices, other.indices]),
                np.concatenate([self.values.astype(dtype, copy=False),
                                other.values.astype(dtype, copy=False)]),
                self.num_rows)
        other = np.asarray(other)
        if other.shape != self.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        out = other.copy()
        out[self.indices] += self.values
        return out

    __radd__ = __add__

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, np.floating, np.integer)):
            return NotImplemented
        return RowSparseGrad(self.indices, self.values * scalar,
                             self.num_rows, coalesced=True)

    __rmul__ = __mul__

    def scale_(self, scalar: float) -> "RowSparseGrad":
        """In-place scaling (gradient clipping keeps the value dtype)."""
        self.values *= self.values.dtype.type(scalar)
        return self

    def sq_norm(self) -> float:
        """Squared Frobenius norm, accumulated in float64."""
        flat = self.values.astype(np.float64, copy=False)
        return float(np.sum(flat * flat))


def add_grads(a, b):
    """Accumulate two gradient contributions of possibly mixed sparsity.

    Dense + dense stays the plain ndarray sum; sparse + sparse stays
    row-sparse; any mix densifies (the dense side already spans the table).
    """
    if isinstance(a, RowSparseGrad):
        return a + b
    if isinstance(b, RowSparseGrad):
        return b + a
    return a + b


def grad_to_dense(grad):
    """Dense view of a gradient that may be row-sparse (``None`` passes)."""
    if isinstance(grad, RowSparseGrad):
        return grad.to_dense()
    return grad
