"""GNMR hyperparameter configuration."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class GNMRConfig:
    """All GNMR knobs, defaulting to the paper's settings (§IV-A.4).

    Attributes
    ----------
    embedding_dim:
        d — node embedding size (paper: 16).
    memory_dims:
        C — latent dimensions of the memory neural module in η (paper: 8).
    num_heads:
        S — attention sub-spaces in ξ; must divide ``embedding_dim``.
    num_layers:
        L — propagation depth (paper's best: 2; Figure 3 sweeps 0–3). A
        pair scores the paper's multi-order matching Σ_l ⟨H^l_u, H^l_v⟩
        over levels 0..L.
    aggregator:
        Neighbor aggregation inside η: ``"mean"`` (degree-normalized, the
        numerically stable default) or ``"sum"`` (the literal Eq. 2).
    self_connection:
        Add the node's previous-order embedding to each propagated layer
        (H^{l+1} ← ψ(·) ⊕ H^l). This is the standard GNN self-loop (NGCF
        adds L+I; the paper's Figure 1 draws residual links between
        multi-order embeddings) and lets multi-order matching capture
        cross-order signals such as "this user already viewed this item".
    dropout:
        Message dropout rate applied after each propagation layer
        (default 0.2 — GNMR overfits sparse targets without it; NGCF
        uses the same device).
    use_behavior_embedding:
        False → the GNMR-be ablation (η replaced by plain aggregation).
    use_message_attention:
        False → the GNMR-ma ablation (ξ removed).
    use_gated_aggregation:
        False → uniform mean over behavior types instead of ψ.
    pretrain:
        Initialize node embeddings with the autoencoder scheme of §III-A.
    pretrain_epochs, pretrain_lr:
        Autoencoder pre-training schedule.
    fanout:
        The model's neighbor-sampling schedule for mini-batch
        (``propagation="async"``) training: an ``int`` applied at every
        hop, ``None`` for no cap, or a per-hop schedule such as ``(10, 5)``
        (GraphSAGE-style — first hop away from the seeds first). Applies whenever the caller
        doesn't pass a fanout explicitly — including trainer runs, since
        :class:`~repro.train.TrainConfig` defaults to ``fanout="model"``
        (defer to this knob); an explicit ``TrainConfig.fanout`` wins for
        that run.
    graph_behaviors:
        Behavior types whose edges participate in message passing; ``None``
        means all of the dataset's behaviors. Lets Table IV's "w/o like"
        variant remove the *target* behavior from propagation while still
        training/predicting it.
    dtype:
        Compute precision of the whole model — parameters, adjacencies and
        propagation: ``"float64"`` (bit-reproducible default), ``"float32"``
        (the fast path: half the memory bandwidth on the SpMM-bound hot
        loops), or ``None`` to inherit the ambient tensor default dtype.
    seed:
        Parameter initialization seed.
    """

    embedding_dim: int = 16
    memory_dims: int = 8
    num_heads: int = 2
    num_layers: int = 2
    aggregator: str = "mean"
    self_connection: bool = True
    dropout: float = 0.2
    use_behavior_embedding: bool = True
    use_message_attention: bool = True
    use_gated_aggregation: bool = True
    fanout: int | tuple[int | None, ...] | None = 10
    pretrain: bool = True
    pretrain_epochs: int = 30
    pretrain_lr: float = 1e-2
    graph_behaviors: tuple[str, ...] | None = None
    dtype: str | None = "float64"
    seed: int = 0

    def __post_init__(self):
        if self.dtype is not None and self.dtype not in ("float32", "float64"):
            raise ValueError("dtype must be 'float32', 'float64', or None")
        if self.embedding_dim <= 0:
            raise ValueError("embedding_dim must be positive")
        if self.num_heads <= 0 or self.embedding_dim % self.num_heads != 0:
            raise ValueError("num_heads must divide embedding_dim")
        if self.memory_dims <= 0:
            raise ValueError("memory_dims must be positive")
        if self.num_layers < 0:
            raise ValueError("num_layers must be >= 0")
        if self.aggregator not in ("mean", "sum"):
            raise ValueError("aggregator must be 'mean' or 'sum'")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError("dropout must be in [0, 1)")
        if self.pretrain and (self.pretrain_epochs < 1 or self.pretrain_lr <= 0):
            raise ValueError("pretrain_epochs must be >= 1 and pretrain_lr > 0")
        from repro.graph.layered import resolve_fanout, validate_fanout

        validate_fanout(self.fanout)
        if isinstance(self.fanout, (list, tuple)):
            # both knobs live here, so a schedule/num_layers mismatch can
            # fail at construction instead of mid-training (async mode
            # would otherwise surface it from a background worker)
            resolve_fanout(self.fanout, self.num_layers)

    def variant(self, **overrides) -> "GNMRConfig":
        """Copy with some fields replaced (used heavily by the ablations)."""
        from dataclasses import replace

        return replace(self, **overrides)
