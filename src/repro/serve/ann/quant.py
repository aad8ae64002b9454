"""Compressed item-table codecs for probed-list scoring.

The IVF index stores the catalog reordered by inverted list; the codec
decides how those rows are stored and how a probed slice turns back into
a float32 operand for the per-list GEMM:

* ``none``  — float32 rows, slices are views (reference path).
* ``int8``  — symmetric per-dimension quantization: one positive float32
  ``scale[d]`` per dimension with ``code = round(x / scale)`` in
  [-127, 127]. Scoring never decodes the table: the scale vector is
  folded into the *query* (``(q · scale) @ codes.T == q @ decoded.T``),
  so the per-list operand is just the int8 block cast to float32.

``quantize_int8`` / ``dequantize_int8`` are also exposed directly so the
round-trip error bound (≤ scale/2 per coordinate) is testable in
isolation.
"""

from __future__ import annotations

import numpy as np

QUANT_KINDS = ("none", "int8")


def quantize_int8(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric per-dim int8 codes and their float32 scale vector.

    ``scale[d] = max_j |matrix[j, d]| / 127`` (1 where the column is all
    zero, so decoding stays a plain multiply), which maps the extreme
    value of every dimension exactly onto ±127 — no clipping, and a
    round-trip error of at most ``scale[d] / 2`` per coordinate.
    """
    matrix = np.asarray(matrix, dtype=np.float32)
    amax = np.max(np.abs(matrix), axis=0) if matrix.size else np.zeros(
        matrix.shape[1], dtype=np.float32)
    scale = np.where(amax > 0, amax / 127.0, 1.0).astype(np.float32)
    codes = np.rint(matrix / scale[None, :]).astype(np.int8)
    return codes, scale


def dequantize_int8(codes: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Float32 reconstruction of int8 codes (``codes * scale``)."""
    return codes.astype(np.float32) * np.asarray(scale,
                                                 dtype=np.float32)[None, :]


class QuantizedItems:
    """Row store for the reordered catalog at one compression level.

    ``prepare_queries(Q) @ dense_slice(a, b).T`` approximates
    ``Q @ original[a:b].T`` for every codec, which is the only contract
    the scoring loop needs.
    """

    def __init__(self, matrix: np.ndarray, kind: str = "none"):
        if kind not in QUANT_KINDS:
            raise ValueError(f"unknown quantization {kind!r}; "
                             f"expected one of {QUANT_KINDS}")
        matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        self.kind = kind
        self.shape = matrix.shape
        self._scale: np.ndarray | None = None
        if kind == "none":
            self._rows = matrix
        else:
            self._rows, self._scale = quantize_int8(matrix)

    @property
    def nbytes(self) -> int:
        """Bytes held by the compressed rows (+ scales for int8)."""
        total = self._rows.nbytes
        if self._scale is not None:
            total += self._scale.nbytes
        return total

    def prepare_queries(self, queries: np.ndarray) -> np.ndarray:
        """Query block ready to GEMM against ``dense_slice`` outputs."""
        queries = np.ascontiguousarray(queries, dtype=np.float32)
        if self._scale is not None:
            queries = queries * self._scale[None, :]
        return queries

    def dense_slice(self, start: int, stop: int) -> np.ndarray:
        """Float32 scoring operand for rows [start, stop)."""
        rows = self._rows[start:stop]
        if self.kind == "none":
            return rows
        return rows.astype(np.float32)
