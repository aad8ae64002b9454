"""Core :class:`Tensor` type implementing reverse-mode autodiff.

The design follows the classic tape-free "define-by-run" approach: each
operation produces a new ``Tensor`` that remembers its parents and a closure
computing the local vector-Jacobian product. :meth:`Tensor.backward` performs
a topological sort of the dynamic graph and accumulates gradients.

Data is stored as floating-point numpy arrays whose precision is governed by
the module-level *default dtype* (``float64`` out of the box, switchable to
``float32`` via :func:`set_default_dtype` or the :func:`default_dtype`
context manager — the fast path for memory-bandwidth-bound graph
propagation). Float arrays passed in explicitly keep their dtype; scalars
and python sequences wrapped mid-expression adopt the dtype of the tensor
operand they combine with, so a float32 graph stays float32 without an
ambient context. Integer index arrays used by gather/scatter ops are kept
as plain numpy arrays outside the graph. Broadcasting is fully supported —
gradients of broadcast operands are reduced back to the operand shape with
:func:`_unbroadcast`. Backward builds no array only to sum it: a constant
operand gets no gradient, and a weight shared by every row of a batched
operand gets one GEMM or one contraction.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.tensor.rowsparse import RowSparseGrad, add_grads


class _GradMode(threading.local):
    """Per-thread recording switch: a ``no_grad`` block in a serving or
    snapshot thread must not turn autodiff off under a trainer in another."""

    enabled: bool = True


_GRAD_MODE = _GradMode()

_FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
_DEFAULT_DTYPE: np.dtype = np.dtype(np.float64)


def resolve_dtype(dtype) -> np.dtype:
    """Validate and normalize a dtype spec (``None`` → the current default)."""
    if dtype is None:
        return _DEFAULT_DTYPE
    dt = np.dtype(dtype)
    if dt not in _FLOAT_DTYPES:
        raise ValueError(f"unsupported tensor dtype {dt} (use float32 or float64)")
    return dt


def get_default_dtype() -> np.dtype:
    """The dtype given to new tensors built from scalars / python data."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> None:
    """Set the process-wide default floating dtype (``float32``/``float64``)."""
    global _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolve_dtype(dtype)


@contextlib.contextmanager
def default_dtype(dtype):
    """Context manager scoping :func:`set_default_dtype` to a block.

    ``default_dtype(None)`` is a no-op (the ambient default stays active),
    so callers can scope an optional dtype knob unconditionally:
    ``with default_dtype(config.dtype): ...``.
    """
    global _DEFAULT_DTYPE
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolve_dtype(dtype)
    try:
        yield
    finally:
        _DEFAULT_DTYPE = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for autodiff
    (in the calling thread)."""
    return _GRAD_MODE.enabled


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph recording (inference mode) in the
    calling thread only."""
    previous = _GRAD_MODE.enabled
    _GRAD_MODE.enabled = False
    try:
        yield
    finally:
        _GRAD_MODE.enabled = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` (shape of a broadcast result) back to ``shape``.

    Summation happens over the axes that were added or expanded by numpy
    broadcasting rules.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were prepended by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes where the original dimension was 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _mul_grad(grad: np.ndarray, other: np.ndarray, operand: "Tensor"):
    """``operand``'s gradient in ``operand * other`` (``None`` for a constant).

    An operand broadcast only along a trailing size-1 axis — a per-row gate
    or weight, ``(..., 1)`` against ``(..., d)`` — is reduced by one
    contraction instead of a full-size product that is then summed.
    """
    if not operand.requires_grad:
        return None
    shape = operand.shape
    if (shape[-1:] == (1,) and grad.shape[-1:] != (1,)
            and shape[:-1] == grad.shape[:-1] and other.shape == grad.shape):
        return np.einsum("...i,...i->...", grad, other)[..., None]
    return _unbroadcast(grad * other, shape)


def _as_array(data, dtype=None) -> np.ndarray:
    """Coerce payload to a float array.

    With ``dtype=None``, float32/float64 arrays keep their dtype and
    everything else (lists, scalars, integer arrays) is cast to the module
    default; an explicit ``dtype`` always wins.
    """
    if dtype is None:
        if isinstance(data, np.ndarray) and data.dtype in _FLOAT_DTYPES:
            return data
        if isinstance(data, np.generic) and data.dtype in _FLOAT_DTYPES:
            # numpy scalars (e.g. float32_array.sum()) keep their precision
            return np.asarray(data)
        dtype = _DEFAULT_DTYPE
    else:
        dtype = resolve_dtype(dtype)
    if isinstance(data, np.ndarray):
        return data if data.dtype == dtype else data.astype(dtype)
    return np.asarray(data, dtype=dtype)


class Tensor:
    """A numpy-backed tensor participating in reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload; float arrays keep their dtype, everything else
        is converted to the module default dtype (see :func:`set_default_dtype`).
    requires_grad:
        Whether gradients should flow to this tensor. Leaf tensors with
        ``requires_grad=True`` accumulate into :attr:`grad`.
    dtype:
        Explicit dtype override (``float32`` / ``float64``).
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")
    __array_priority__ = 100  # make numpy defer to our __radd__ etc.

    def __init__(self, data, requires_grad: bool = False, name: str | None = None,
                 dtype=None):
        self.data: np.ndarray = _as_array(data, dtype)
        self.requires_grad: bool = bool(requires_grad) and _GRAD_MODE.enabled
        self.grad: np.ndarray | RowSparseGrad | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def astype(self, dtype) -> "Tensor":
        """Differentiable dtype cast; the gradient is cast back on backward."""
        dtype = resolve_dtype(dtype)
        if dtype == self.data.dtype:
            return self
        original = self.data.dtype
        data = self.data.astype(dtype)

        def backward(grad: np.ndarray):
            return (grad.astype(original),)

        return Tensor._make(data, (self,), backward)

    def _coerce(self, other) -> "Tensor":
        """Wrap a non-Tensor operand using *this* tensor's dtype.

        Keeps float32 graphs float32: python scalars and lists appearing in
        expressions adopt the tensor operand's precision instead of silently
        promoting through the module default.
        """
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # graph construction helper
    # ------------------------------------------------------------------
    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        """Create a non-leaf tensor recording its parents when grads are on."""
        requires = _GRAD_MODE.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray | RowSparseGrad) -> None:
        if self.grad is None:
            if isinstance(grad, RowSparseGrad):
                self.grad = grad
            else:
                self.grad = grad.copy() if grad.base is not None or grad.flags.writeable is False else grad
        else:
            self.grad = add_grads(self.grad, grad)

    # ------------------------------------------------------------------
    # backward pass
    # ------------------------------------------------------------------
    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient. Defaults to ones (must be a scalar tensor then,
            matching the common ``loss.backward()`` usage).
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without a seed requires a scalar tensor")
            grad = np.ones_like(self.data)
        grad = _as_array(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        # Topological order over the dynamic graph.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                node._accumulate(node_grad)
                continue
            node._backward_dispatch(node_grad, grads)

    def _backward_dispatch(self, node_grad: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run the local backward closure, stashing parent grads in ``grads``."""
        contributions = self._backward(node_grad)
        for parent, contribution in zip(self._parents, contributions):
            if contribution is None or not parent.requires_grad:
                continue
            key = id(parent)
            if key in grads:
                grads[key] = add_grads(grads[key], contribution)
            else:
                grads[key] = contribution

    # ------------------------------------------------------------------
    # elementwise arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data + other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                _unbroadcast(grad, other.shape) if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray):
            return (-grad,)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data - other.data

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad, self.shape) if self.requires_grad else None,
                _unbroadcast(-grad, other.shape) if other.requires_grad else None,
            )

        return Tensor._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data * other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            return _mul_grad(grad, b.data, a), _mul_grad(grad, a.data, b)

        return Tensor._make(data, (a, b), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        data = self.data / other.data
        a, b = self, other

        def backward(grad: np.ndarray):
            # -a / b² summed over b's broadcast axes, where b is constant:
            # reduce grad · a first (a contraction for a (…, 1) divisor)
            gb = _mul_grad(grad, a.data, b)
            return (
                _unbroadcast(grad / b.data, a.shape) if a.requires_grad else None,
                None if gb is None else -gb / (b.data ** 2),
            )

        return Tensor._make(data, (a, b), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray):
            return (grad * exponent * self.data ** (exponent - 1),)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # comparisons (produce constant tensors, no grad)
    # ------------------------------------------------------------------
    def __gt__(self, other) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data > other_data).astype(self.data.dtype))

    def __lt__(self, other) -> "Tensor":
        other_data = other.data if isinstance(other, Tensor) else other
        return Tensor((self.data < other_data).astype(self.data.dtype))

    # ------------------------------------------------------------------
    # unary math
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray):
            return (grad * data,)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray):
            return (grad / self.data,)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(grad: np.ndarray):
            return (grad * 0.5 / data,)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray):
            return (grad * sign,)

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray):
            return (grad * mask,)

        return Tensor._make(data, (self,), backward)

    def leaky_relu(self, slope: float = 0.01) -> "Tensor":
        mask = self.data > 0
        data = np.where(mask, self.data, slope * self.data)

        def backward(grad: np.ndarray):
            return (grad * np.where(mask, 1.0, slope),)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward(grad: np.ndarray):
            return (grad * data * (1.0 - data),)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray):
            return (grad * (1.0 - data ** 2),)

        return Tensor._make(data, (self,), backward)

    def maximum(self, other) -> "Tensor":
        """Elementwise max; ties send the full gradient to ``self``."""
        other = self._coerce(other)
        take_self = self.data >= other.data
        data = np.where(take_self, self.data, other.data)
        a, b = self, other

        def backward(grad: np.ndarray):
            return (
                _unbroadcast(grad * take_self, a.shape) if a.requires_grad else None,
                _unbroadcast(grad * ~take_self, b.shape) if b.requires_grad else None,
            )

        return Tensor._make(data, (a, b), backward)

    # ------------------------------------------------------------------
    # reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(grad: np.ndarray):
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % len(in_shape) for a in axes)
                for a in sorted(axes):
                    g = np.expand_dims(g, a)
            # a read-only view: no closure writes into its grad, and a leaf
            # or row-sparse grad copies before it keeps one
            return (np.broadcast_to(g, in_shape),)

        return Tensor._make(data, (self,), backward)

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        in_shape = self.shape

        def backward(grad: np.ndarray):
            g = grad
            d = data
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
                d = np.expand_dims(d, axis)
            mask = (self.data == d).astype(self.data.dtype)
            # split gradient equally among ties to keep it a valid subgradient
            denom = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            return (np.broadcast_to(g, in_shape) * mask / denom,)

        return Tensor._make(data, (self,), backward)

    def min(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        return -((-self).max(axis=axis, keepdims=keepdims))

    # ------------------------------------------------------------------
    # linear algebra
    # ------------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product supporting 1-D, 2-D and batched (>2-D) operands.

        Batched operands must have identical batch dimensions (no batch
        broadcasting) — sufficient for the attention blocks used here.
        """
        other = self._coerce(other)
        a, b = self, other
        if a.ndim > 2 and b.ndim == 2 and a.shape[-2] > 1:
            # a 2-D weight shared by every batch entry: one GEMM, not one
            # each. Bit-equal as each entry's product is a GEMM too; a 1-D
            # weight or a one-row entry makes a GEMV, which rounds otherwise
            data = (a.data.reshape(-1, a.shape[-1]) @ b.data).reshape(a.shape[:-1] + b.shape[1:])
        else:
            data = np.matmul(a.data, b.data)

        def backward(grad: np.ndarray):
            ad, bd = a.data, b.data
            if ad.ndim > 2 and bd.ndim <= 2:
                # One right operand shared by every batch row (a layer's
                # weight): flatten the batch axes so each gradient is one
                # GEMM, not a batched product summed over the batch.
                b2 = bd.reshape(bd.shape[0], -1)
                g2 = grad.reshape(-1, b2.shape[1])
                return (
                    (g2 @ b2.T).reshape(ad.shape) if a.requires_grad else None,
                    (ad.reshape(-1, ad.shape[-1]).T @ g2).reshape(bd.shape)
                    if b.requires_grad else None,
                )
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
            ga = (_unbroadcast(np.matmul(g, b2.swapaxes(-1, -2)), a2.shape)
                  .reshape(ad.shape) if a.requires_grad else None)
            gb = (_unbroadcast(np.matmul(a2.swapaxes(-1, -2), g), b2.shape)
                  .reshape(bd.shape) if b.requires_grad else None)
            return (ga, gb)

        return Tensor._make(data, (a, b), backward)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)

    # ------------------------------------------------------------------
    # shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        in_shape = self.shape
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray):
            return (grad.reshape(in_shape),)

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inverse = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(grad: np.ndarray):
            return (grad.transpose(inverse),)

        return Tensor._make(data, (self,), backward)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(*axes)

    def squeeze(self, axis: int | None = None) -> "Tensor":
        in_shape = self.shape
        data = self.data.squeeze(axis=axis)

        def backward(grad: np.ndarray):
            return (grad.reshape(in_shape),)

        return Tensor._make(data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        """Slice / fancy-index; backward scatter-adds into the source shape."""
        if isinstance(index, Tensor):
            index = index.data.astype(np.int64)
        data = self.data[index]
        in_shape = self.shape
        in_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            out = np.zeros(in_shape, dtype=in_dtype)
            np.add.at(out, index, grad)
            return (out,)

        return Tensor._make(data, (self,), backward)

    def gather_rows(self, indices: np.ndarray) -> "Tensor":
        """Embedding-style row lookup with scatter-add backward.

        ``indices`` may have any shape; the result has shape
        ``indices.shape + self.shape[1:]``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        data = self.data[indices]
        in_shape = self.shape
        in_dtype = self.data.dtype

        def backward(grad: np.ndarray):
            out = np.zeros(in_shape, dtype=in_dtype)
            np.add.at(out, indices.reshape(-1), grad.reshape(-1, *in_shape[1:]))
            return (out,)

        return Tensor._make(data, (self,), backward)

    def embedding_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather whose backward stays row-sparse.

        The training-path sibling of :meth:`gather_rows`: instead of
        scatter-adding into a zero table of the full ``self.shape``, the
        backward emits a :class:`~repro.tensor.rowsparse.RowSparseGrad`
        holding only the unique touched rows — optimizer work then scales
        with the batch, not the table. ``indices`` must be 1-D; duplicates
        are fine (they coalesce into one row entry).

        The sparse grad is only emitted when ``self`` is a graph leaf (an
        embedding table / :class:`~repro.nn.module.Parameter`): interior
        nodes run arbitrary backward closures that expect dense arrays, so
        gathers from computed tensors fall back to the dense scatter-add.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise ValueError("embedding_rows expects 1-D row indices "
                             f"(got shape {indices.shape}); use gather_rows "
                             "for arbitrary index shapes")
        data = self.data[indices]
        in_shape = self.shape
        in_dtype = self.data.dtype
        emit_sparse = self._backward is None  # leaf table → sparse grad

        def backward(grad: np.ndarray):
            if emit_sparse:
                return (RowSparseGrad(indices, grad, in_shape[0]),)
            out = np.zeros(in_shape, dtype=in_dtype)
            np.add.at(out, indices, grad)
            return (out,)

        return Tensor._make(data, (self,), backward)


def _as_tensors(values: Iterable) -> list[Tensor]:
    """Wrap non-Tensor operands at the first Tensor operand's dtype, as
    :meth:`Tensor._coerce` does (the module default when there is none)."""
    values = list(values)
    dtype = next((v.data.dtype for v in values if isinstance(v, Tensor)), None)
    return [v if isinstance(v, Tensor) else Tensor(v, dtype=dtype) for v in values]


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient splitting."""
    tensors = _as_tensors(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray):
        slicer = [slice(None)] * grad.ndim
        pieces = []
        for i in range(len(sizes)):
            slicer[axis] = slice(offsets[i], offsets[i + 1])
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient unstacking."""
    tensors = _as_tensors(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray):
        pieces = np.moveaxis(grad, axis, 0)
        return tuple(pieces[i] for i in range(len(tensors)))

    return Tensor._make(data, tensors, backward)


def gated_sum(gates: Tensor, values: Tensor) -> Tensor:
    """``(N, C)`` gates × ``(N, C, d)`` values → ``(N, d)``, one contraction
    bit-equal to ``(values * gates[..., None]).sum(axis=1)`` without its
    ``(N, C, d)`` product; the backward applies ``_mul_grad``'s two rules."""
    data = np.einsum("nc,ncd->nd", gates.data, values.data)

    def backward(grad: np.ndarray):
        spread = np.broadcast_to(grad[:, None, :], values.shape)
        return (
            np.einsum("...i,...i->...", spread, values.data)
            if gates.requires_grad else None,
            spread * gates.data[:, :, None] if values.requires_grad else None,
        )

    return Tensor._make(data, (gates, values), backward)
