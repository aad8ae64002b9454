"""Weight initialization schemes.

All initializers take an explicit ``numpy.random.Generator`` so that every
model in the reproduction is fully seedable. Values are always *drawn* in
float64 and then rounded to the module default dtype, so a given seed
produces the same initialization (up to rounding) at every precision.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import get_default_dtype


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot uniform: U(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(get_default_dtype())


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Glorot normal: N(0, 2 / (fan_in + fan_out))."""
    fan_in, fan_out = _fans(shape)
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return (rng.standard_normal(shape) * std).astype(get_default_dtype())


def normal(shape: tuple[int, ...], rng: np.random.Generator, std: float = 0.01) -> np.ndarray:
    """Plain Gaussian init, the classic MF embedding initializer."""
    return (rng.standard_normal(shape) * std).astype(get_default_dtype())


def zeros(shape: tuple[int, ...], rng: np.random.Generator | None = None) -> np.ndarray:
    return np.zeros(shape, dtype=get_default_dtype())


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
