"""Generic pairwise trainer implementing Algorithm 1 of the paper.

Each epoch: sample seed users, draw S positives and S negatives per user,
score both sides, apply the margin loss of Eq. (7) plus λ‖Θ‖², and update
with Adam under an exponential learning-rate decay (rate 0.96).

Two propagation modes (``TrainConfig.propagation``):

* ``"full"`` — every step propagates over the whole graph and regularizes
  every parameter; float64 runs are bit-reproducible with the seed goldens.
* ``"async"`` — the mini-batch path (:mod:`repro.train.pipeline`): batches
  come from a pre-drawn deterministic stream, per-hop *layered* blocks are
  extracted around each batch's seeds (fanout-capped L-hop sampling; each
  layer computes only the rows the next one needs — see
  :mod:`repro.graph.layered`), the model scores through
  ``block_batch_scores`` with row-sparse embedding gradients and
  regularizes batch-locally via ``model.l2_batch`` (λ‖Θ_batch‖²), and the
  optimizer applies lazy per-row updates — so the step cost scales with
  batch size and fanout instead of graph size. ``workers=0`` extracts
  inline; ``workers>=1`` double-buffers extraction on background threads
  ahead of the optimizer. The trajectory is bit-identical for any worker
  count (extraction rngs are split per step, not per worker) — workers
  change only how much extraction overlaps compute.

The loop itself is the same in every mode. Two things are selected once,
when a run starts: the batch source (``propagation``) and the optimizer
(``TrainConfig.optimizer``: Adam or SGD). One process applies every step.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.graph.sampling import NegativeSampler, sample_pairwise_batch
from repro.graph.layered import validate_fanout
from repro.nn.losses import bpr_loss, l2_regularization, pairwise_hinge_loss
from repro.nn.optim import clip_grad_norm, make_optimizer
from repro.nn.schedulers import ExponentialDecay
from repro.train.callbacks import EarlyStopping, HistoryRecorder
from repro.train.pipeline import PreparedBatch, SampledBatchPipeline


_LOSSES: dict[str, Callable] = {
    "hinge": lambda pos, neg, margin: pairwise_hinge_loss(pos, neg, margin=margin),
    "bpr": lambda pos, neg, margin: bpr_loss(pos, neg),
}


@dataclass
class TrainConfig:
    """Hyperparameters of the pairwise training loop.

    Defaults follow the paper: Adam, lr 1e-3, decay 0.96, batch size 32
    (seed users per step), margin hinge loss.

    >>> config = TrainConfig(epochs=2, propagation="async", fanout=(10, 5))
    >>> config.fanout
    (10, 5)
    >>> TrainConfig(fanout=0)
    Traceback (most recent call last):
        ...
    ValueError: fanout value must be >= 1 (or None for no cap), got 0
    """

    epochs: int = 30
    steps_per_epoch: int = 20
    batch_users: int = 32
    per_user: int = 4           # S in the paper's Algorithm 1
    lr: float = 1e-3
    lr_decay: float = 0.96
    l2_weight: float = 1e-4
    loss: str = "hinge"          # "hinge" (paper Eq. 7) or "bpr"
    margin: float = 1.0
    seed: int = 0
    early_stopping_patience: int | None = None
    #: compute precision for the training loop ("float32"/"float64");
    #: ``None`` keeps the ambient tensor default dtype
    dtype: str | None = None
    #: "full" propagates over the whole graph each step (bit-reproducible
    #: reference); "async" is the mini-batch path: fanout-capped per-hop
    #: layered blocks with row-sparse gradients, extracted inline
    #: (``workers=0``) or prefetched (see the module docstring)
    propagation: str = "full"
    #: neighbors sampled per (node, behavior) per hop on the async path:
    #: an ``int`` for every hop, ``None`` for no cap, or a per-hop
    #: schedule such as ``(10, 5)`` — first hop away from the seeds first.
    #: The default ``"model"`` defers to the model's own configured
    #: schedule (e.g. ``GNMRConfig.fanout``, itself defaulting to 10);
    #: setting anything else here overrides the model for this run
    fanout: int | None | tuple[int | None, ...] | str = "model"
    #: background extraction threads for ``propagation="async"``; ``0``
    #: runs the same pipeline inline. Extraction rngs are split per *step*,
    #: so training traces are bit-reproducible across any worker count —
    #: workers only changes how much extraction overlaps compute
    workers: int = 1
    #: per-worker block buffer depth for the async pipeline; 2 =
    #: double-buffering (one block consumed, one ready, one in flight)
    prefetch_depth: int = 2
    #: global-norm gradient clipping threshold (``None`` → no clipping);
    #: sparse-grad aware — row-sparse grads are scaled without densifying
    grad_clip: float | None = None
    #: optimizer family: "adam" (the paper's choice, default) or "sgd"
    #: (the stateless reference)
    optimizer: str = "adam"
    #: run ``eval_fn`` every this many epochs (the final epoch always
    #: evaluates so the history ends with a metric)
    eval_every: int = 1
    #: path of the training-state file (:mod:`repro.train.resume`) this run
    #: maintains: written atomically every ``save_every_steps`` steps and
    #: once more at the end of the run. ``Trainer.run(resume_from=...)``
    #: continues from such a file bit-exactly
    save_state: str | None = None
    #: mid-epoch save cadence in global steps (``None`` → only the
    #: end-of-run save); requires ``save_state``
    save_every_steps: int | None = None

    def __post_init__(self):
        if self.propagation not in ("full", "async"):
            raise ValueError(
                f"unknown propagation mode {self.propagation!r} (use 'full' "
                "or 'async'; the inline mini-batch path is "
                'propagation="async", workers=0)')
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r} "
                             "(use 'hinge' or 'bpr')")
        if self.fanout != "model":
            validate_fanout(self.fanout)
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r} "
                             "(use 'adam' or 'sgd')")
        if self.save_every_steps is not None:
            if self.save_every_steps < 1:
                raise ValueError("save_every_steps must be >= 1 (or None)")
            if self.save_state is None:
                raise ValueError("save_every_steps requires save_state "
                                 "(where would the state go?)")

    def fanout_kwargs(self) -> dict:
        """``{"fanout": ...}`` for the model calls, or ``{}`` to defer.

        ``fanout="model"`` omits the keyword entirely so each model's own
        default applies (``GNMRConfig.fanout`` for GNMR; 10 otherwise).
        """
        return {} if self.fanout == "model" else {"fanout": self.fanout}


@dataclass
class EpochLog:
    """Scalars logged once per epoch."""

    epoch: int
    loss: float
    lr: float
    metric: float | None = None


class Trainer:
    """Drives pairwise training of any model exposing ``batch_scores``.

    The model contract (see :class:`repro.models.base.Recommender`):

    * ``parameters()`` — trainable parameters,
    * ``batch_scores(users, pos_items, neg_items)`` — differentiable
      (pos_scores, neg_scores) tensors,
    * ``extract_block(...)`` / ``block_batch_scores(...)`` / ``l2_batch(...)``
      — the mini-batch (async-mode) entry point: parameter-free block
      extraction the pipeline can prefetch on a worker thread, scoring over
      the extracted block, and the batch-local regularizer (base fallback:
      ``None`` block + dense scoring + full L2, so every model trains in
      async mode),
    * ``train()`` / ``eval()`` — mode switching,
    * ``on_step_end()`` — optional cache-invalidation hook.

    >>> from repro.data import taobao_like
    >>> from repro.models import BiasMF
    >>> data = taobao_like(num_users=30, num_items=60, seed=0)
    >>> model = BiasMF(data.num_users, data.num_items, seed=0)
    >>> config = TrainConfig(epochs=2, steps_per_epoch=2, batch_users=4,
    ...                      per_user=2, seed=0)
    >>> history = Trainer(model, data, config).run()
    >>> [sorted(row) for row in history.rows]
    [['epoch', 'loss', 'lr'], ['epoch', 'loss', 'lr']]
    """

    def __init__(self, model, train_data: InteractionDataset, config: TrainConfig,
                 eval_fn: Callable[[], float] | None = None,
                 step_hook: Callable[["Trainer", int], None] | None = None):
        self.model = model
        self.data = train_data
        self.config = config
        self.eval_fn = eval_fn
        #: called as ``step_hook(trainer, global_step)`` after every loop
        #: iteration — the fault-injection substrate's crash point, also
        #: handy for external progress reporting
        self.step_hook = step_hook
        self.history = HistoryRecorder()
        self._rng = np.random.default_rng(config.seed)
        self._graph = train_data.graph()
        self._sampler = NegativeSampler(self._graph, train_data.target_behavior)
        degrees = self._graph.user_degree(train_data.target_behavior)
        self._eligible = np.flatnonzero(degrees > 0)

    def run(self, resume_from: str | None = None) -> HistoryRecorder:
        """Train for the configured epochs; returns the history.

        ``resume_from`` names a training-state file written by a previous
        run with ``TrainConfig.save_state`` set; training continues from
        its exact cursor (epoch, step, rng streams, optimizer clocks) —
        the combined history is bit-identical to one uninterrupted run.
        The resuming config must match the saved one on every field that
        shapes the training stream (``epochs`` may grow).
        """
        from repro.tensor import default_dtype
        from repro.train.resume import check_resume_config, load_training_state

        cfg = self.config
        resume = None
        if resume_from is not None:
            resume = load_training_state(resume_from)
            check_resume_config(resume.config, cfg)
            if resume.global_step > cfg.epochs * cfg.steps_per_epoch:
                raise ValueError(
                    f"saved state is {resume.global_step} steps in; this "
                    f"config only trains "
                    f"{cfg.epochs * cfg.steps_per_epoch} steps")
        with default_dtype(cfg.dtype):  # None → ambient default
            return self._epoch_loop(resume)

    def _draw_batch(self, rng: np.random.Generator):
        cfg = self.config
        return sample_pairwise_batch(
            self._graph, self.data.target_behavior, self._sampler,
            cfg.batch_users, cfg.per_user, rng,
            eligible_users=self._eligible)

    def _batches(self, start_step: int) -> Iterator[PreparedBatch]:
        """The run's step-ordered batch source from ``start_step`` on.

        ``"full"`` draws from the trainer's own rng and carries no block;
        ``"async"`` is the prefetching pipeline over the whole run's step
        budget (its own seeded streams, fast-forwarded to ``start_step``).
        Closing the generator stops the pipeline's workers.
        """
        cfg = self.config
        if cfg.propagation == "full":
            for step in itertools.count(start_step):
                yield PreparedBatch(step, self._draw_batch(self._rng), None)
        else:
            def extract(batch, rng: np.random.Generator):
                return self.model.extract_block(
                    batch.users, batch.pos_items, batch.neg_items,
                    rng=rng, **cfg.fanout_kwargs())

            with SampledBatchPipeline(
                    self._draw_batch, extract,
                    total_steps=cfg.epochs * cfg.steps_per_epoch,
                    seed=cfg.seed, workers=cfg.workers,
                    depth=cfg.prefetch_depth,
                    start_step=start_step) as pipeline:
                yield from pipeline

    def _make_optimizer(self, resume):
        """The configured optimizer over ``model.parameters()``; resume
        state is matched to parameters by name."""
        cfg = self.config
        optimizer = make_optimizer(cfg.optimizer, self.model.parameters(),
                                   cfg.lr)
        if resume is not None:
            states = []
            for name, _ in self.model.named_parameters():
                if name not in resume.optimizer_states:
                    raise ValueError(
                        f"training state has no optimizer entry for "
                        f"parameter {name!r} — was it saved from a "
                        "different model architecture?")
                states.append(resume.optimizer_states[name])
            optimizer.load_state_dict(states)
        return optimizer

    def _step_scores(self, prepared: PreparedBatch):
        """(pos, neg, reg) for one step under the configured propagation."""
        cfg = self.config
        batch = prepared.batch
        if cfg.propagation == "full":
            pos_scores, neg_scores = self.model.batch_scores(
                batch.users, batch.pos_items, batch.neg_items)
            reg = l2_regularization(self.model.parameters(), cfg.l2_weight)
            return pos_scores, neg_scores, reg
        pos_scores, neg_scores = self.model.block_batch_scores(
            batch.users, batch.pos_items, batch.neg_items, prepared.block)
        reg = self.model.l2_batch(
            batch.users, batch.pos_items, batch.neg_items, cfg.l2_weight)
        return pos_scores, neg_scores, reg

    def _epoch_loop(self, resume) -> HistoryRecorder:
        cfg = self.config
        stopper = (EarlyStopping(patience=cfg.early_stopping_patience)
                   if cfg.early_stopping_patience else None)
        loss_fn = _LOSSES[cfg.loss]
        start_epoch = first_step = steps_done = 0
        epoch_loss = 0.0
        if resume is not None:
            self.model.load_state_dict(resume.model_state)
            self._rng.bit_generator.state = resume.meta["rng_state"]
            self.history.rows = [dict(row) for row in resume.meta["history"]]
            # re-enter the interrupted epoch mid-flight
            start_epoch, first_step = resume.epoch, resume.step_in_epoch
            epoch_loss = float(resume.meta["epoch_loss"])
            steps_done = int(resume.meta["steps_done"])
            if stopper is not None and resume.meta.get("stopper") is not None:
                stopper.load_state_dict(resume.meta["stopper"])
        optimizer = self._make_optimizer(resume)
        batches = self._batches(start_epoch * cfg.steps_per_epoch + first_step)
        try:
            scheduler = ExponentialDecay(optimizer, rate=cfg.lr_decay)
            if resume is not None:
                # the scheduler's lr₀ was captured at construction (above),
                # so restoring must come after: position first, then the
                # decayed rate the saved run was stepping with
                scheduler.epoch = int(resume.meta["scheduler_epoch"])
                optimizer.lr = float(resume.meta["lr"])
            epochs_completed = start_epoch
            self.model.train()
            for epoch in range(start_epoch, cfg.epochs):
                for step_i in range(first_step, cfg.steps_per_epoch):
                    prepared = next(batches)
                    if len(prepared.batch) > 0:
                        pos_scores, neg_scores, reg = self._step_scores(prepared)
                        loss = loss_fn(pos_scores, neg_scores, cfg.margin)
                        loss = loss + reg
                        optimizer.zero_grad()
                        loss.backward()
                        if cfg.grad_clip is not None:
                            clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                        optimizer.step()
                        if hasattr(self.model, "on_step_end"):
                            self.model.on_step_end()
                        epoch_loss += float(loss.data)
                        steps_done += 1
                    # the cursor counts loop iterations (empty batches
                    # included: they consumed rng draws), so a resumed
                    # stream lines up
                    global_step = epoch * cfg.steps_per_epoch + step_i + 1
                    if (cfg.save_every_steps is not None
                            and global_step % cfg.save_every_steps == 0):
                        self._save_state(optimizer, scheduler, stopper, epoch,
                                         step_i + 1, epoch_loss, steps_done)
                    if self.step_hook is not None:
                        self.step_hook(self, global_step)
                lr = scheduler.step()
                # each step's loss is a sum over its pairs plus one per-step
                # L2 term, so normalize by the number of steps (not pairs):
                # dividing the mixed sum by pair_count scaled the L2
                # contribution with the batch size and made reported losses
                # incomparable across configurations with different batch
                # shapes
                mean_loss = epoch_loss / max(steps_done, 1)
                first_step = steps_done = 0
                epoch_loss = 0.0

                metric = None
                if (self.eval_fn is not None
                        and ((epoch + 1) % cfg.eval_every == 0
                             or epoch == cfg.epochs - 1)):
                    self.model.eval()
                    metric = float(self.eval_fn())
                    self.model.train()
                self.history.record(
                    epoch=epoch, loss=mean_loss, lr=lr,
                    **({"metric": metric} if metric is not None else {}))
                epochs_completed = epoch + 1
                if (stopper is not None and metric is not None
                        and stopper.update(metric)):
                    break
            self.model.eval()
            if cfg.save_state is not None:
                # end-of-run state: resuming it with a larger epoch budget
                # continues training exactly where this run left off
                self._save_state(optimizer, scheduler, stopper,
                                 epochs_completed, 0, 0.0, 0)
            return self.history
        finally:
            batches.close()

    def _save_state(self, optimizer, scheduler, stopper, epoch: int,
                    step_in_epoch: int, epoch_loss: float,
                    steps_done: int) -> None:
        """One atomic training-state snapshot at the current cursor."""
        from repro.train.resume import config_echo, save_training_state

        cfg = self.config
        # the optimizer was built over model.parameters(), in this order
        opt_states = {name: state for (name, _), state in
                      zip(self.model.named_parameters(),
                          optimizer.state_dict())}
        meta = {
            "config": config_echo(cfg),
            "epoch": int(epoch),
            "step_in_epoch": int(step_in_epoch),
            "global_step": int(epoch * cfg.steps_per_epoch + step_in_epoch),
            "epoch_loss": float(epoch_loss),
            "steps_done": int(steps_done),
            "lr": float(optimizer.lr),
            "scheduler_epoch": int(scheduler.epoch),
            "rng_state": self._rng.bit_generator.state,
            "history": self.history.rows,
            "stopper": None if stopper is None else stopper.state_dict(),
        }
        save_training_state(cfg.save_state, self.model.state_dict(),
                            opt_states, meta)
