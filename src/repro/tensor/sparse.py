"""Sparse adjacency support for graph message passing.

Graph propagation in GNMR (and NGCF) is dominated by products of the form
``A @ H`` where ``A`` is a (possibly normalized) user–item adjacency matrix
and ``H`` a dense embedding table. ``A`` is constant — it never needs a
gradient — so we wrap a ``scipy.sparse.csr_matrix`` and provide a matmul op
whose backward is simply ``Aᵀ @ grad``.

The adjacency dtype follows the tensor default dtype (float32 when the fast
compute path is selected via :func:`repro.tensor.set_default_dtype`) and the
transpose needed by the backward pass is cached — shared in both directions
through :attr:`SparseAdjacency.T` and optionally precomputed eagerly for
adjacencies that participate in training.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.tensor import Tensor, resolve_dtype


class SparseAdjacency:
    """Immutable sparse matrix participating in autodiff as a constant.

    Parameters
    ----------
    matrix:
        Any scipy sparse matrix (converted to CSR) or a dense array.
    dtype:
        Floating dtype of the stored values; defaults to the module default
        dtype (:func:`repro.tensor.get_default_dtype`).
    precompute_transpose:
        Build the CSR transpose eagerly. Training paths want this: every
        backward pass through :meth:`matmul` multiplies by ``Aᵀ``, so paying
        the conversion once at construction keeps the first optimizer step
        as fast as the rest.
    """

    def __init__(self, matrix, dtype=None, precompute_transpose: bool = False):
        dtype = resolve_dtype(dtype)
        if sp.issparse(matrix):
            matrix = matrix.tocsr()
            if matrix.dtype != dtype:
                matrix = matrix.astype(dtype)
            self.matrix = matrix
        else:
            self.matrix = sp.csr_matrix(np.asarray(matrix, dtype=dtype))
        self._transpose_cache: sp.csr_matrix | None = None
        if precompute_transpose:
            self._transposed()

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    @property
    def dtype(self) -> np.dtype:
        return self.matrix.dtype

    @property
    def T(self) -> "SparseAdjacency":
        """Transposed adjacency sharing the CSR cache in both directions."""
        out = SparseAdjacency(self._transposed(), dtype=self.matrix.dtype)
        out._transpose_cache = self.matrix
        return out

    def _transposed(self) -> sp.csr_matrix:
        if self._transpose_cache is None:
            self._transpose_cache = self.matrix.T.tocsr()
        return self._transpose_cache

    def astype(self, dtype) -> "SparseAdjacency":
        """Copy with values cast to ``dtype`` (returns self when unchanged)."""
        dtype = resolve_dtype(dtype)
        if dtype == self.matrix.dtype:
            return self
        return SparseAdjacency(self.matrix, dtype=dtype)

    def row_degrees(self) -> np.ndarray:
        """Number of stored interactions per row (as float)."""
        return np.asarray(self.matrix.sum(axis=1)).ravel()

    def col_degrees(self) -> np.ndarray:
        return np.asarray(self.matrix.sum(axis=0)).ravel()

    def normalized(self, mode: str = "row") -> "SparseAdjacency":
        """Return a degree-normalized copy.

        ``mode='row'`` gives mean aggregation (D⁻¹A); ``mode='sym'`` gives the
        symmetric GCN normalization (D⁻½ A D⁻½) used by NGCF.
        """
        a = self.matrix
        if mode == "row":
            deg = self.row_degrees()
            inv = np.divide(1.0, deg, out=np.zeros_like(deg), where=deg > 0)
            return SparseAdjacency(sp.diags(inv) @ a, dtype=self.matrix.dtype)
        if mode == "sym":
            rdeg = self.row_degrees()
            cdeg = self.col_degrees()
            rinv = np.divide(1.0, np.sqrt(rdeg), out=np.zeros_like(rdeg), where=rdeg > 0)
            cinv = np.divide(1.0, np.sqrt(cdeg), out=np.zeros_like(cdeg), where=cdeg > 0)
            return SparseAdjacency(sp.diags(rinv) @ a @ sp.diags(cinv),
                                   dtype=self.matrix.dtype)
        raise ValueError(f"unknown normalization mode: {mode!r}")

    def matmul(self, dense: Tensor) -> Tensor:
        """Differentiable ``A @ H`` where only ``H`` receives gradient."""
        dense = dense if isinstance(dense, Tensor) else Tensor(dense)
        data = self.matrix @ dense.data
        at = self._transposed()

        def backward(grad: np.ndarray):
            return (np.asarray(at @ grad),)

        return Tensor._make(np.asarray(data), (dense,), backward)

    def __matmul__(self, dense: Tensor) -> Tensor:
        return self.matmul(dense)

    def to_dense(self) -> np.ndarray:
        return np.asarray(self.matrix.todense())
