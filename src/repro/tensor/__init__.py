"""Reverse-mode automatic differentiation engine on top of numpy.

This package is the computational substrate for the whole reproduction:
every model (GNMR and all baselines) is expressed with :class:`Tensor`
operations, and gradients are obtained with :meth:`Tensor.backward`.

The engine supports:

* broadcasting elementwise arithmetic with correct gradient reduction,
* dense and batched matrix multiplication,
* embedding lookup (gather rows) with scatter-add backward,
* sparse CSR adjacency–dense matmul (the workhorse of graph propagation),
* reductions (sum / mean / max) over arbitrary axes,
* shape ops (reshape, transpose, concat, stack, slicing, squeeze),
* common nonlinearities and numerically stable softmax / log-softmax.

Gradient correctness is enforced by the numerical checker in
:mod:`repro.tensor.grad_check`, which the test-suite applies to every op.

Precision is configurable: the substrate computes in ``float64`` by default
(bit-reproducible with the seed baselines) and in ``float32`` as the fast
path — roughly half the memory bandwidth on the SpMM/matmul-bound hot paths.
Switch globally with :func:`set_default_dtype` or locally with the
:func:`default_dtype` context manager; models accept a ``dtype`` knob that
wraps their construction in that context.
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    is_grad_enabled,
    get_default_dtype,
    set_default_dtype,
    default_dtype,
    resolve_dtype,
)
from repro.tensor import functional
from repro.tensor.sparse import SparseAdjacency
from repro.tensor.rowsparse import RowSparseGrad, add_grads
from repro.tensor.grad_check import numerical_grad, check_gradients, dtype_tolerances

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "get_default_dtype",
    "set_default_dtype",
    "default_dtype",
    "resolve_dtype",
    "functional",
    "SparseAdjacency",
    "RowSparseGrad",
    "add_grads",
    "numerical_grad",
    "check_gradients",
    "dtype_tolerances",
]
