"""The composed backward rules ``Tensor`` had before its shared-weight GEMMs.

Moved here verbatim when ``repro.tensor.tensor`` stopped (a) computing a
batched-left × shared-right ``matmul``'s weight gradient as one product per
batch row summed by ``_unbroadcast``, (b) building both gradients of every
``*`` and ``/`` — constants included — as full-size products later summed
to shape, and (c) copying the broadcast grad of ``sum``. The new rules reorder the
sums, so they promise values, not bits: ``tests/tensor/test_backward_oracle.py``
bounds how far a training run under them drifts from one under these.
:func:`gated_sum` is the composed product-then-sum GNMR's η and ψ gates ran
before they became one contraction; that op promises bits, forward and
backward (``tests/tensor/test_gated_sum.py``).
Test-only: nothing under ``src/`` imports it.
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.tensor.tensor import Tensor, _unbroadcast


def matmul(self, other: "Tensor") -> "Tensor":
    other = self._coerce(other)
    a, b = self, other
    data = np.matmul(a.data, b.data)

    def backward(grad: np.ndarray):
        ad, bd = a.data, b.data
        # Promote 1-D operands to matrices so one general rule applies,
        # then reduce broadcast/batch axes and restore original shapes.
        a2 = ad[None, :] if ad.ndim == 1 else ad
        b2 = bd[:, None] if bd.ndim == 1 else bd
        g = grad
        if ad.ndim == 1 and bd.ndim == 1:
            g = grad.reshape(1, 1)
        elif ad.ndim == 1:
            g = np.expand_dims(grad, -2)
        elif bd.ndim == 1:
            g = np.expand_dims(grad, -1)
        ga = _unbroadcast(np.matmul(g, b2.swapaxes(-1, -2)), a2.shape).reshape(ad.shape)
        gb = _unbroadcast(np.matmul(a2.swapaxes(-1, -2), g), b2.shape).reshape(bd.shape)
        return (ga, gb)

    return Tensor._make(data, (a, b), backward)


def mul(self, other) -> "Tensor":
    other = self._coerce(other)
    data = self.data * other.data
    a, b = self, other

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad * b.data, a.shape),
            _unbroadcast(grad * a.data, b.shape),
        )

    return Tensor._make(data, (a, b), backward)


def truediv(self, other) -> "Tensor":
    other = self._coerce(other)
    data = self.data / other.data
    a, b = self, other

    def backward(grad: np.ndarray):
        return (
            _unbroadcast(grad / b.data, a.shape),
            _unbroadcast(-grad * a.data / (b.data ** 2), b.shape),
        )

    return Tensor._make(data, (a, b), backward)


def sum_(self, axis: int | tuple[int, ...] | None = None,
         keepdims: bool = False) -> "Tensor":
    data = self.data.sum(axis=axis, keepdims=keepdims)
    in_shape = self.shape

    def backward(grad: np.ndarray):
        g = grad
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            axes = tuple(a % len(in_shape) for a in axes)
            for a in sorted(axes):
                g = np.expand_dims(g, a)
        return (np.broadcast_to(g, in_shape).copy(),)

    return Tensor._make(data, (self,), backward)


def gated_sum(gates: Tensor, values: Tensor) -> Tensor:
    """``(values * gates[..., None]).sum(axis=1)`` as a broadcast ``*`` node
    building the ``(N, C, d)`` product and a ``sum`` node reducing it."""
    n, c = gates.shape
    return (values * gates.reshape(n, c, 1)).sum(axis=1)


@contextlib.contextmanager
def composed_rules():
    """Run the block with ``Tensor`` on the rules above (``@``, ``dot``,
    ``mean``, ``__rmul__`` and ``__rtruediv__`` follow, as they route
    through them)."""
    saved = {name: Tensor.__dict__[name]
             for name in ("matmul", "__mul__", "__rmul__", "__truediv__", "sum")}
    Tensor.matmul = matmul
    Tensor.__mul__ = Tensor.__rmul__ = mul
    Tensor.__truediv__ = truediv
    Tensor.sum = sum_
    try:
        yield
    finally:
        for name, rule in saved.items():
            setattr(Tensor, name, rule)
