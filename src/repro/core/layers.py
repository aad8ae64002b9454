"""The three building blocks of a GNMR propagation layer (paper §III).

Shapes: I users, J items, K behavior types, d embedding dim, C memory
dimensions, S attention heads. Propagation is full-graph and vectorized:
user-side and item-side messages are computed symmetrically.
"""

from __future__ import annotations

import numpy as np

from repro.nn import init as init_schemes
from repro.nn.module import Module, Parameter
from repro.tensor import Tensor, functional as F, is_grad_enabled

#: budget of a no-grad layer's widest per-chunk temporary, η's ``(rows·K, C·d)``
#: projection, so a full-graph pass never builds ``(N·K, C·d)``: smaller chunks
#: pay per-call overhead, larger ones only peak higher (= ``SELECT_CHUNK_BYTES``)
CHUNK_BYTES = 4 * 1024 * 1024


class BehaviorEmbeddingLayer(Module):
    """η(·): type-specific behavior embedding with memory gating (Eq. 2).

    Given the aggregated neighbor message m = Σ_{j∈N(i,k)} H_j, computes
    per-memory-dimension gates α_{c,k} = ReLU(W1 m + b1)_c and returns
    Σ_c α_{c,k} · (W2,c m). The C memory transforms are shared across
    behavior types; type specificity enters through the per-behavior
    messages and their gates — the "memory neural module" of the paper.

    Initialization: the memory transforms start as identity plus small
    noise (``identity_init``), so messages initially *preserve* the
    neighbor embedding directions — the property that makes collaborative
    signals usable from step one (cf. LightGCN's transform-free design) —
    and training then learns the per-memory deviations.
    """

    def __init__(self, dim: int, memory_dims: int, rng: np.random.Generator,
                 identity_init: bool = True, identity_noise: float = 0.1):
        super().__init__()
        self.dim = dim
        self.memory_dims = memory_dims
        self.w1 = Parameter(init_schemes.xavier_uniform((memory_dims, dim), rng), name="w1")
        self.b1 = Parameter(np.zeros(memory_dims), name="b1")
        # W2: (C, d, d) memory transforms, flattened to (d, C·d) for one matmul
        if identity_init:
            w2 = np.stack([
                np.eye(dim) + identity_noise * init_schemes.xavier_uniform((dim, dim), rng)
                for _ in range(memory_dims)
            ])
        else:
            w2 = np.stack([init_schemes.xavier_uniform((dim, dim), rng)
                           for _ in range(memory_dims)])
        self.w2 = Parameter(w2, name="w2")

    def forward(self, aggregated: Tensor) -> Tensor:
        """Apply memory gating to aggregated messages of shape (N, d)."""
        n = aggregated.shape[0]
        alpha = (aggregated.matmul(self.w1.T) + self.b1).relu()      # (N, C)
        # (N, d) @ (d, C·d) -> (N, C, d): all memory transforms at once
        w2_flat = self.w2.transpose(1, 0, 2).reshape(self.dim, self.memory_dims * self.dim)
        projected = aggregated.matmul(w2_flat).reshape(n, self.memory_dims, self.dim)
        return F.gated_sum(alpha, projected)                         # (N, d)


class CrossBehaviorAttention(Module):
    """ξ(·): multi-head attention across the K behavior-type messages (Eq. 3).

    Input (N, K, d): each node's K type-specific messages. Relevance
    β^s_{k,k'} = softmax_k'((Q_s H_k)·(K_s H_{k'}) / sqrt(d/S)); the output
    concatenates the S recalibrated sub-space messages and residual-adds the
    original, implementing Ĥ = (‖_s Σ_{k'} β^s V_s H_{k'}) ⊕ H.
    """

    def __init__(self, dim: int, num_heads: int, rng: np.random.Generator):
        super().__init__()
        if dim % num_heads != 0:
            raise ValueError("num_heads must divide dim")
        self.dim = dim
        self.num_heads = num_heads
        self.head_dim = dim // num_heads
        self.q = Parameter(init_schemes.xavier_uniform((dim, dim), rng), name="q")
        self.k = Parameter(init_schemes.xavier_uniform((dim, dim), rng), name="k")
        self.v = Parameter(init_schemes.xavier_uniform((dim, dim), rng), name="v")

    def _split_heads(self, x: Tensor, n: int, k: int) -> Tensor:
        """(N, K, d) → (N, S, K, dh)."""
        return x.reshape(n, k, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, messages: Tensor) -> tuple[Tensor, Tensor]:
        """Recalibrate; returns (updated (N, K, d), attention (N, S, K, K))."""
        n, k, _ = messages.shape
        q = self._split_heads(messages.matmul(self.q), n, k)
        key = self._split_heads(messages.matmul(self.k), n, k)
        v = self._split_heads(messages.matmul(self.v), n, k)
        scale = float(np.sqrt(self.head_dim))
        scores = q.matmul(key.swapaxes(-1, -2)) * (1.0 / scale)      # (N, S, K, K)
        weights = F.softmax(scores, axis=-1)
        mixed = weights.matmul(v)                                    # (N, S, K, dh)
        merged = mixed.transpose(0, 2, 1, 3).reshape(n, k, self.dim)
        return merged + messages, weights


class GatedMessageAggregation(Module):
    """ψ(·): importance-weighted fusion over behavior types (Eq. 4–5).

    γ_k = w2ᵀ ReLU(W3 Ĥ_k + b2) + b3 per node, softmax over k, then the
    fused embedding is Σ_k γ̂_k Ĥ_k.
    """

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator):
        super().__init__()
        self.w3 = Parameter(init_schemes.xavier_uniform((hidden_dim, dim), rng), name="w3")
        self.b2 = Parameter(np.zeros(hidden_dim), name="b2")
        self.w2 = Parameter(init_schemes.xavier_uniform((hidden_dim,), rng), name="w2")
        self.b3 = Parameter(np.zeros(1), name="b3")

    def forward(self, messages: Tensor) -> tuple[Tensor, Tensor]:
        """Fuse (N, K, d) → (N, d); also returns the weights (N, K)."""
        hidden = (messages.matmul(self.w3.T) + self.b2).relu()       # (N, K, h)
        gamma = hidden.matmul(self.w2) + self.b3                     # (N, K)
        weights = F.softmax(gamma, axis=-1)
        return F.gated_sum(weights, messages), weights


class GNMRPropagationLayer(Module):
    """One full GNMR layer: η → ξ → ψ on both graph sides.

    The layer owns one set of η/ξ/ψ parameters shared between the user and
    item sides (messages flow items→users and users→items through the same
    transforms, as in the paper's symmetric formulation).

    Ablation flags reproduce the paper's §IV-C variants:
    ``use_behavior_embedding=False`` → GNMR-be (plain aggregation),
    ``use_message_attention=False`` → GNMR-ma (no cross-type attention).
    """

    def __init__(self, dim: int, memory_dims: int, num_heads: int,
                 rng: np.random.Generator,
                 use_behavior_embedding: bool = True,
                 use_message_attention: bool = True,
                 use_gated_aggregation: bool = True):
        super().__init__()
        self.memory_dims = memory_dims
        self.use_behavior_embedding = use_behavior_embedding
        self.use_message_attention = use_message_attention
        self.use_gated_aggregation = use_gated_aggregation
        self.behavior_embedding = (
            BehaviorEmbeddingLayer(dim, memory_dims, rng)
            if use_behavior_embedding else None
        )
        self.attention = (
            CrossBehaviorAttention(dim, num_heads, rng)
            if use_message_attention else None
        )
        self.aggregation = (
            GatedMessageAggregation(dim, dim, rng)
            if use_gated_aggregation else None
        )

    def type_specific(self, stacked: Tensor) -> Tensor:
        """Apply η to a per-behavior message stack ``(N, K, d)``.

        The memory transforms are shared across behavior types, so the K
        per-type applications collapse into one batched pass over the
        flattened ``(N·K, d)`` messages.
        """
        if self.behavior_embedding is None:
            return stacked
        n, k, d = stacked.shape
        return self.behavior_embedding(stacked.reshape(n * k, d)).reshape(n, k, d)

    def forward(self, stacked: Tensor) -> Tensor:
        """Fuse a per-behavior message stack ``(N, K, d)`` into ``(N, d)``.

        The stack comes from
        :meth:`repro.graph.engine.PropagationEngine.propagate_user` /
        ``propagate_item`` (one fused SpMM for all K behaviors); this layer
        applies η → ξ → ψ on top. Every step is row-wise, so with grad off
        it runs in :data:`CHUNK_BYTES` row chunks, bit-equal to one pass.
        No chunk is one row: a one-row product is a GEMV and rounds otherwise.
        """
        n, k, d = stacked.shape
        rows = max(CHUNK_BYTES // (k * self.memory_dims * d * stacked.dtype.itemsize), 2)
        if is_grad_enabled() or n <= rows:
            return self._fuse(stacked)
        starts = range(0, n - 1, rows)  # a start at n − 1 folds into the chunk before
        fused = np.empty((n, d), dtype=stacked.dtype)
        for start, stop in zip(starts, [*starts[1:], n]):
            fused[start:stop] = self._fuse(Tensor(stacked.data[start:stop])).data
        return Tensor(fused)

    def _fuse(self, stacked: Tensor) -> Tensor:
        """η → ξ → ψ over one block of rows."""
        stacked = self.type_specific(stacked)
        if self.attention is not None:
            stacked, _ = self.attention(stacked)
        if self.aggregation is not None:
            fused, _ = self.aggregation(stacked)
        else:
            fused = stacked.mean(axis=1)
        return fused
