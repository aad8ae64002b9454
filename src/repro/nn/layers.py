"""Common neural layers used across GNMR and the baselines."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.nn import init as init_schemes
from repro.nn.module import Module, ModuleList, Parameter
from repro.tensor import Tensor, functional as F, is_grad_enabled


class Linear(Module):
    """Affine transform ``x @ Wᵀ + b``.

    Weights are stored as (out_features, in_features), applied to the last
    axis of the input (supports batched inputs of any leading shape).
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None,
                 init: str = "xavier_uniform"):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        scheme = getattr(init_schemes, init)
        self.weight = Parameter(scheme((out_features, in_features), rng), name="weight")
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x.matmul(self.weight.T)
        if self.bias is not None:
            out = out + self.bias
        return out


class Embedding(Module):
    """Lookup table of ``num_embeddings`` rows of size ``embedding_dim``."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 rng: np.random.Generator | None = None,
                 init: str = "xavier_normal"):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        scheme = getattr(init_schemes, init)
        self.weight = Parameter(scheme((num_embeddings, embedding_dim), rng), name="embedding")

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight.gather_rows(np.asarray(indices))

    def rows(self, indices: np.ndarray) -> Tensor:
        """Row-sparse lookup for the sampled training path.

        Like calling the layer, but the backward pass emits a
        :class:`~repro.tensor.RowSparseGrad` over the touched rows instead
        of scatter-adding into a table-shaped zero array (see
        :meth:`~repro.tensor.Tensor.embedding_rows`); indices must be 1-D.
        """
        return self.weight.embedding_rows(np.asarray(indices, dtype=np.int64))

    #: alias so an ``Embedding`` can stand in wherever a raw table
    #: parameter is expected, e.g. in ``l2_regularization_batch``
    #: ``(table, rows)`` entries
    embedding_rows = rows

    def all(self) -> Tensor:
        """The full table as a tensor (for full-graph propagation)."""
        return self.weight


class Dropout(Module):
    """Inverted dropout, active only in ``training`` mode *and* while the
    calling thread records gradients: inference under ``no_grad`` never
    drops, so it needs no ``eval()`` flip on a module a trainer shares."""

    def __init__(self, rate: float, rng: np.random.Generator | None = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")
        self.rate = rate
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.rate, training=self.training and is_grad_enabled(),
                         rng=self.rng)


_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": F.relu,
    "sigmoid": F.sigmoid,
    "tanh": F.tanh,
    "identity": lambda x: x,
    "leaky_relu": lambda x: x.leaky_relu(),
}


class MLP(Module):
    """Multi-layer perceptron with configurable hidden sizes and activation.

    ``sizes`` includes the input dimension, e.g. ``MLP([32, 16, 8])`` maps a
    32-d input to an 8-d output through one 16-d hidden layer. The final
    layer's activation is controlled separately (``out_activation``).
    """

    def __init__(self, sizes: Sequence[int], activation: str = "relu",
                 out_activation: str = "identity", dropout: float = 0.0,
                 rng: np.random.Generator | None = None):
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        rng = rng or np.random.default_rng()
        self.layers = ModuleList(
            [Linear(sizes[i], sizes[i + 1], rng=rng) for i in range(len(sizes) - 1)]
        )
        if activation not in _ACTIVATIONS or out_activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation: {activation!r} / {out_activation!r}")
        self.activation = activation
        self.out_activation = out_activation
        self.dropout = Dropout(dropout, rng=rng) if dropout > 0 else None

    def forward(self, x: Tensor) -> Tensor:
        last = len(self.layers) - 1
        for i, layer in enumerate(self.layers):
            x = layer(x)
            act = self.out_activation if i == last else self.activation
            x = _ACTIVATIONS[act](x)
            if self.dropout is not None and i != last:
                x = self.dropout(x)
        return x


class GRUCell(Module):
    """Gated recurrent unit cell (used by the DIPN baseline).

    Implements the standard GRU update:
        z = σ(W_z x + U_z h), r = σ(W_r x + U_r h),
        ĥ = tanh(W_h x + U_h (r ⊙ h)), h' = (1 − z) ⊙ h + z ⊙ ĥ.
    """

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: np.random.Generator | None = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.x_proj = Linear(input_dim, 3 * hidden_dim, rng=rng)
        self.h_proj = Linear(hidden_dim, 3 * hidden_dim, bias=False, rng=rng)

    def forward(self, x: Tensor, h: Tensor) -> Tensor:
        gates_x = self.x_proj(x)
        gates_h = self.h_proj(h)
        d = self.hidden_dim
        z = (gates_x[:, 0:d] + gates_h[:, 0:d]).sigmoid()
        r = (gates_x[:, d:2 * d] + gates_h[:, d:2 * d]).sigmoid()
        candidate = (gates_x[:, 2 * d:3 * d] + r * gates_h[:, 2 * d:3 * d]).tanh()
        return (1.0 - z) * h + z * candidate

    def initial_state(self, batch: int) -> Tensor:
        from repro.tensor import get_default_dtype

        return Tensor(np.zeros((batch, self.hidden_dim), dtype=get_default_dtype()))
