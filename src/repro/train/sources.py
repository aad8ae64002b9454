"""Batch sources: what one training step draws and what it minimises.

:class:`~repro.train.Trainer` runs one loop for every model; the model's
``batch_source(train, config)`` is picked once, when a run starts. A
source owns its rng stream (and what of it a training state carries:
:meth:`state_dict` / :meth:`load_state_dict`), how many steps make an
epoch (``steps_per_epoch``), what each step draws (:meth:`batches`,
step-ordered from a cursor, so a resumed run continues the same stream)
and that step's loss, regulariser included (:meth:`loss`; ``None`` for a
draw with nothing to train on — the step is counted but not taken).
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

import numpy as np

from repro.graph.sampling import NegativeSampler, sample_pairwise_batch
from repro.nn.losses import bpr_loss, l2_regularization, pairwise_hinge_loss
from repro.tensor import Tensor
from repro.train.pipeline import PreparedBatch, SampledBatchPipeline

PAIRWISE_LOSSES: dict[str, Callable] = {
    "hinge": lambda pos, neg, margin: pairwise_hinge_loss(pos, neg, margin=margin),
    "bpr": lambda pos, neg, margin: bpr_loss(pos, neg),
}


class _SeededSource:
    """A source drawing from one rng seeded with ``config.seed``."""

    def __init__(self, model, config):
        self.model, self.config = model, config
        self.steps_per_epoch = config.steps_per_epoch
        self._rng = np.random.default_rng(config.seed)
        self._pair_loss = PAIRWISE_LOSSES[config.loss]

    def state_dict(self) -> dict:
        return {"rng_state": self._rng.bit_generator.state}

    def load_state_dict(self, meta: dict) -> None:
        self._rng.bit_generator.state = meta["rng_state"]


class FullGraphSource(_SeededSource):
    """``propagation="full"``: pairwise batches of the target behaviour
    (Algorithm 1, lines 3–5), scored over the whole graph by
    ``batch_scores``, plus L2 over every parameter."""

    def __init__(self, model, train, config):
        super().__init__(model, config)
        self._graph, self._behavior = train.graph(), train.target_behavior
        self._sampler = NegativeSampler(self._graph, self._behavior)
        degrees = self._graph.user_degree(self._behavior)
        self._eligible = np.flatnonzero(degrees > 0)

    def draw(self, rng: np.random.Generator):
        cfg = self.config
        return sample_pairwise_batch(
            self._graph, self._behavior, self._sampler, cfg.batch_users,
            cfg.per_user, rng, eligible_users=self._eligible)

    def batches(self, start_step: int) -> Iterator:
        while True:
            yield self.draw(self._rng)

    def loss(self, batch) -> Tensor | None:
        if len(batch) == 0:
            return None
        pos, neg = self.model.batch_scores(batch.users, batch.pos_items,
                                           batch.neg_items)
        reg = l2_regularization(self.model.parameters(), self.config.l2_weight)
        return self._pair_loss(pos, neg, self.config.margin) + reg


class SampledBlockSource(FullGraphSource):
    """``propagation="async"``: the same batches, each with a fanout-capped
    layered block from :class:`SampledBatchPipeline`, scored by
    ``block_batch_scores`` plus the batch-local ``l2_batch``. The
    pipeline's streams are a function of the seed and the step."""

    def batches(self, start_step: int) -> Iterator[PreparedBatch]:
        cfg = self.config

        def extract(batch, rng: np.random.Generator):
            return self.model.extract_block(
                batch.users, batch.pos_items, batch.neg_items,
                rng=rng, **cfg.fanout_kwargs())

        with SampledBatchPipeline(
                self.draw, extract,
                total_steps=cfg.epochs * cfg.steps_per_epoch,
                seed=cfg.seed, workers=cfg.workers,
                depth=cfg.prefetch_depth,
                start_step=start_step) as pipeline:
            yield from pipeline

    def loss(self, prepared: PreparedBatch) -> Tensor | None:
        batch = prepared.batch
        if len(batch) == 0:
            return None
        pos, neg = self.model.block_batch_scores(
            batch.users, batch.pos_items, batch.neg_items, prepared.block)
        reg = self.model.l2_batch(batch.users, batch.pos_items,
                                  batch.neg_items, self.config.l2_weight)
        return self._pair_loss(pos, neg, self.config.margin) + reg


class MultiBehaviorSource(_SeededSource):
    """Multi-task pairwise batches (NMTR): one per behaviour with a user
    to draw, in ``behaviors`` order, from one rng. Task ``k`` scores with
    ``task_logits(users, items, k)``; the step minimises the
    ``task_weights``-weighted sum of the task losses plus L2."""

    def __init__(self, model, train, config, behaviors, task_weights,
                 task_logits: Callable[[np.ndarray, np.ndarray, int], Tensor]):
        super().__init__(model, config)
        self._graph = train.graph()
        self._tasks = []
        for k, behavior in enumerate(behaviors):
            eligible = np.flatnonzero(self._graph.user_degree(behavior) > 0)
            if eligible.size:
                self._tasks.append((k, behavior, eligible,
                                    NegativeSampler(self._graph, behavior)))
        self._task_weights, self._task_logits = task_weights, task_logits

    def batches(self, start_step: int) -> Iterator:
        cfg = self.config
        while True:
            yield [(k, sample_pairwise_batch(
                        self._graph, behavior, sampler, cfg.batch_users,
                        cfg.per_user, self._rng, eligible_users=eligible))
                   for k, behavior, eligible, sampler in self._tasks]

    def loss(self, drawn) -> Tensor | None:
        loss = None
        for k, batch in drawn:
            if len(batch) == 0:
                continue
            pos = self._task_logits(batch.users, batch.pos_items, k)
            neg = self._task_logits(batch.users, batch.neg_items, k)
            task_loss = (self._pair_loss(pos, neg, self.config.margin)
                         * self._task_weights[k])
            loss = task_loss if loss is None else loss + task_loss
        if loss is None:
            return None
        return loss + l2_regularization(self.model.parameters(),
                                        self.config.l2_weight)


class ProfileSource:
    """Reconstruction of a dense profile matrix's rows (AutoRec, CDAE, the
    pre-training autoencoder).

    An epoch is one pass over a permutation of the rows drawn at its
    start, ``rows_per_step`` rows a step. With ``corruption`` > 0 each
    step's input drops every cell with that probability (drawn after the
    permutation) and rescales the rest by 1 / (1 − corruption). The loss
    is the mean squared error of ``reconstruct(input, rows)`` against the
    clean rows, weighted 1 + 4x if ``weighted``, plus ``l2_weight``·‖Θ‖²
    over ``parameters`` unless ``l2_weight`` is ``None``. A training
    state carries the rng and the epoch's permutation.
    """

    def __init__(self, profiles: np.ndarray, rows_per_step: int,
                 rng: np.random.Generator,
                 reconstruct: Callable[[Tensor, np.ndarray], Tensor], *,
                 weighted: bool = False, corruption: float = 0.0,
                 parameters=(), l2_weight: float | None = None):
        self._profiles, self._rows_per_step = profiles, rows_per_step
        self._rng, self._reconstruct = rng, reconstruct
        self._weighted, self._corruption = weighted, corruption
        self._parameters, self._l2_weight = list(parameters), l2_weight
        self._order: np.ndarray | None = None
        self.steps_per_epoch = -(-profiles.shape[0] // rows_per_step)

    def batches(self, start_step: int) -> Iterator:
        for step in itertools.count(start_step):
            offset = step % self.steps_per_epoch
            if offset == 0:
                self._order = self._rng.permutation(self._profiles.shape[0])
            start = offset * self._rows_per_step
            rows = self._order[start:start + self._rows_per_step]
            clean = inputs = self._profiles[rows]
            if self._corruption:
                mask = self._rng.random(clean.shape) >= self._corruption
                inputs = clean * mask / (1.0 - self._corruption)
            yield rows, clean, inputs

    def loss(self, drawn) -> Tensor:
        rows, clean, inputs = drawn
        diff = self._reconstruct(Tensor(inputs), rows) - Tensor(clean)
        if self._weighted:
            loss = (Tensor(1.0 + 4.0 * clean) * diff * diff).mean()
        else:
            loss = (diff * diff).mean()
        if self._l2_weight is None:
            return loss
        return loss + l2_regularization(self._parameters, self._l2_weight)

    def state_dict(self) -> dict:
        order = None if self._order is None else self._order.tolist()
        return {"rng_state": self._rng.bit_generator.state,
                "profile_order": order}

    def load_state_dict(self, meta: dict) -> None:
        self._rng.bit_generator.state = meta["rng_state"]
        if meta["profile_order"] is not None:
            self._order = np.asarray(meta["profile_order"], dtype=np.int64)
