"""Composite differentiable functions built from :class:`Tensor` primitives.

These are the numerically stable building blocks used by the neural layers:
softmax, dropout and normalization helpers.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.tensor.tensor import Tensor, concat, gated_sum, stack

__all__ = [
    "relu",
    "sigmoid",
    "tanh",
    "softmax",
    "dropout",
    "l2_normalize",
    "concat",
    "gated_sum",
    "stack",
]


def relu(x: Tensor) -> Tensor:
    return x.relu()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def _max(data: np.ndarray, axis: int) -> np.ndarray:
    """``data.max(axis, keepdims=True)``; over a short axis (GNMR's K) as the
    maximum of its slices, 20× faster on ξ's ``(N, S, 4, 4)`` scores."""
    if data.shape[axis] > 8:
        return data.max(axis=axis, keepdims=True)
    return functools.reduce(np.maximum, np.split(data, data.shape[axis], axis=axis))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x - Tensor(_max(x.data, axis))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def dropout(x: Tensor, rate: float, training: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: identity when not training or ``rate == 0``."""
    if not training or rate <= 0.0:
        return x
    if rate >= 1.0:
        raise ValueError("dropout rate must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return x * Tensor(mask.astype(x.data.dtype))


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """Normalize rows to unit L2 norm (used by DMF cosine matching)."""
    norm = (x * x).sum(axis=axis, keepdims=True).maximum(eps).sqrt()
    return x / norm
