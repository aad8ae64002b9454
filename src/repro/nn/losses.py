"""Loss functions for recommendation training.

The paper optimizes the pairwise hinge (margin) loss of Eq. (7):
``L = Σ_i Σ_s max(0, 1 − Pr_{i,ps} + Pr_{i,ns}) + λ‖Θ‖²_F``.
BPR is provided for baselines and for the loss ablation bench.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.tensor import Tensor


def pairwise_hinge_loss(pos_scores: Tensor, neg_scores: Tensor,
                        margin: float = 1.0) -> Tensor:
    """Σ max(0, margin − pos + neg), summed over the batch (paper Eq. 7)."""
    return (margin - pos_scores + neg_scores).relu().sum()


def bpr_loss(pos_scores: Tensor, neg_scores: Tensor) -> Tensor:
    """Bayesian personalized ranking: −Σ log σ(pos − neg)."""
    diff = pos_scores - neg_scores
    # -log σ(x) = softplus(-x), computed stably.
    return ((-diff).maximum(Tensor(np.zeros(diff.shape, dtype=diff.data.dtype)))
            + ((-(diff.abs())).exp() + 1.0).log()).sum()


def l2_regularization(parameters: Iterable[Tensor], weight: float) -> Tensor:
    """λ Σ ‖θ‖²_F over the given parameters (0 tensor when weight == 0)."""
    params = list(parameters)
    if weight == 0.0 or not params:
        return Tensor(0.0)
    # accumulate in the parameters' own dtype so float32 models stay float32
    total = (params[0] * params[0]).sum()
    for p in params[1:]:
        total = total + (p * p).sum()
    return total * weight


def l2_regularization_batch(embedding_rows: Iterable[tuple[Tensor, np.ndarray]],
                            dense_parameters: Iterable[Tensor],
                            weight: float) -> Tensor:
    """Batch-local λ‖Θ_batch‖²: penalize only the rows a step touched.

    The paper's regularizer is λ‖Θ‖² over the *batch* parameters — for a
    mini-batch of seed users that is a few hundred embedding rows plus the
    (small, always-touched) layer weights, not the full tables. Each
    ``(table, rows)`` pair is gathered with
    :meth:`~repro.tensor.Tensor.embedding_rows`, so the penalty's gradient
    reaches the table as a :class:`~repro.tensor.RowSparseGrad` and the
    whole regularization step stays row-sparse; ``dense_parameters`` (layer
    weights, biases) are penalized in full as before.

    Duplicate row indices are de-duplicated so a row sampled as both a
    positive and a negative is penalized once, matching the dense
    semantics where each parameter entry appears once in ‖Θ‖².
    """
    pairs = [(table, np.unique(np.asarray(rows, dtype=np.int64)))
             for table, rows in embedding_rows]
    dense = list(dense_parameters)
    if weight == 0.0 or (not pairs and not dense):
        return Tensor(0.0)
    total: Tensor | None = None
    for table, rows in pairs:
        if rows.size == 0:
            continue
        picked = table.embedding_rows(rows)
        term = (picked * picked).sum()
        total = term if total is None else total + term
    for p in dense:
        term = (p * p).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total * weight
