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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.dataset import InteractionDataset
from repro.graph.sampling import NegativeSampler, sample_pairwise_batch
from repro.graph.layered import validate_fanout
from repro.nn.losses import bpr_loss, l2_regularization, pairwise_hinge_loss
from repro.nn.optim import SGD, Adam, clip_grad_norm, shard_param_groups
from repro.nn.schedulers import ExponentialDecay
from repro.train.callbacks import EarlyStopping, HistoryRecorder
from repro.train.pipeline import SampledBatchPipeline


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
    verbose: bool = False
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
    #: optimizer family: "adam" (the paper's choice, default) or "sgd" —
    #: the latter is the reference for the sharded-table bit-parity
    #: contract (`shards=K` must match `shards=1` exactly under SGD)
    optimizer: str = "adam"
    #: build the optimizer from per-shard parameter groups
    #: (:func:`repro.nn.optim.shard_param_groups`) instead of the flat
    #: parameter list. Updates are bit-identical; the groups make
    #: optimizer state attributable per shard and enable per-shard
    #: ``step(shard=k)`` application. Set this when training a model built
    #: with sharded tables (``GNMRConfig.shards`` / model ``shards=``)
    shards: int | None = None
    #: run ``eval_fn`` every this many epochs (the final epoch always
    #: evaluates so the history ends with a metric)
    eval_every: int = 1
    #: multi-process parameter-server mode (:mod:`repro.dist`): "off"
    #: keeps every optimizer step in-process; "sync" ships shard
    #: gradients to owner processes and barriers each step (bit-matches
    #: in-process ``shards=K`` training); "async" lets the trainer run
    #: ahead of the owners by ``dist_staleness`` steps (stale-push mode —
    #: faster, nondeterministic). Requires ``shards``
    dist: str = "off"
    #: shard-owner process count for dist modes (default: one per shard)
    dist_workers: int | None = None
    #: bounded staleness window for ``dist="async"``: how many steps the
    #: trainer may lead the slowest shard owner. ``0`` degenerates to the
    #: synchronous barrier
    dist_staleness: int = 2
    #: gradient transport for dist modes: "shm" (shared-memory rings,
    #: default) or "inline" (owners run in-process through the full wire
    #: codec — tests/fallback)
    dist_transport: str = "shm"
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
        if self.shards is not None and self.shards < 1:
            raise ValueError("shards must be >= 1 (or None)")
        if self.dist not in ("off", "sync", "async"):
            raise ValueError(f"unknown dist mode {self.dist!r} "
                             "(use 'off', 'sync' or 'async')")
        if self.dist != "off":
            if self.shards is None:
                raise ValueError("dist training requires shards "
                                 "(the parameter-server partition)")
            if self.dist_transport not in ("shm", "inline"):
                raise ValueError(
                    f"unknown dist transport {self.dist_transport!r} "
                    "(use 'shm' or 'inline')")
            if self.dist_workers is not None and self.dist_workers < 1:
                raise ValueError("dist_workers must be >= 1 (or None)")
            if self.dist_staleness < 0:
                raise ValueError("dist_staleness must be >= 0")
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

        with default_dtype(self.config.dtype):  # None → ambient default
            return self._run_loop(resume_from)

    def _make_pipeline(self, start_step: int = 0) -> SampledBatchPipeline:
        """The async mode's prefetcher over the whole run's step budget."""
        cfg = self.config

        def draw(rng: np.random.Generator):
            return sample_pairwise_batch(
                self._graph, self.data.target_behavior, self._sampler,
                cfg.batch_users, cfg.per_user, rng,
                eligible_users=self._eligible)

        def extract(batch, rng: np.random.Generator):
            return self.model.extract_block(
                batch.users, batch.pos_items, batch.neg_items,
                rng=rng, **cfg.fanout_kwargs())

        return SampledBatchPipeline(
            draw, extract, total_steps=cfg.epochs * cfg.steps_per_epoch,
            seed=cfg.seed, workers=cfg.workers, depth=cfg.prefetch_depth,
            start_step=start_step)

    def _run_loop(self, resume_from: str | None = None) -> HistoryRecorder:
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
            self.model.load_state_dict(resume.model_state)
            self._rng.bit_generator.state = resume.meta["rng_state"]
            self.history.rows = [dict(row) for row in resume.meta["history"]]
        if cfg.propagation == "async":
            pipeline = self._make_pipeline(resume.global_step if resume else 0)
            try:
                return self._run_epochs(pipeline, resume)
            finally:
                pipeline.close()
        return self._run_epochs(None, resume)

    def _step_scores(self, batch, prepared):
        """(pos, neg, reg) for one step under the configured propagation."""
        cfg = self.config
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

    def _make_optimizer(self):
        """The configured optimizer, grouped per shard when requested."""
        cfg = self.config
        params = (shard_param_groups(self.model) if cfg.shards is not None
                  else self.model.parameters())
        if cfg.optimizer == "sgd":
            return SGD(params, lr=cfg.lr)
        return Adam(params, lr=cfg.lr)

    def _param_names(self) -> dict[int, str]:
        """``id(parameter) → dotted name``, the optimizer-state key space."""
        return {id(p): name for name, p in self.model.named_parameters()}

    def _resume_states_for(self, params, optimizer_states: dict) -> list[dict]:
        """Saved per-parameter states in ``params`` order, keyed by name."""
        names = self._param_names()
        states = []
        for p in params:
            name = names.get(id(p))
            if name is None or name not in optimizer_states:
                raise ValueError(
                    f"training state has no optimizer entry for parameter "
                    f"{name or getattr(p, 'name', '?')!r} — was it saved "
                    "from a different model architecture?")
            states.append(optimizer_states[name])
        return states

    def _make_dist(self, resume=None):
        """``(bridge, local_optimizer)`` for the parameter-server modes.

        The bridge owns every shard-labeled parameter (its owner processes
        apply those updates); the local optimizer covers the unsharded
        rest, stepping in-process exactly as before. Either may be the
        scheduler's lr holder — pushes always carry the current rate.
        Resuming ships each owner its saved optimizer state at spawn.
        """
        from repro.dist import DistParameterServer

        cfg = self.config
        groups = shard_param_groups(self.model)
        shard_groups = [g for g in groups if g["shard"] is not None]
        local_params = [p for g in groups if g["shard"] is None
                        for p in g["params"]]
        if not shard_groups:
            raise ValueError(
                "dist training needs a model built with sharded tables "
                "(e.g. GNMRConfig(shards=K)) — no shard-labeled "
                "parameters found")
        initial_state = None
        if resume is not None:
            shard_params = [p for g in shard_groups for p in g["params"]]
            initial_state = self._resume_states_for(
                shard_params, resume.optimizer_states)
        bridge = DistParameterServer(
            shard_groups, optimizer=cfg.optimizer, lr=cfg.lr,
            workers=cfg.dist_workers,
            staleness=0 if cfg.dist == "sync" else cfg.dist_staleness,
            transport=cfg.dist_transport, initial_state=initial_state)
        if local_params:
            local = (SGD(local_params, lr=cfg.lr) if cfg.optimizer == "sgd"
                     else Adam(local_params, lr=cfg.lr))
        else:
            local = None
        return bridge, local

    def _run_epochs(self, pipeline: SampledBatchPipeline | None,
                    resume=None) -> HistoryRecorder:
        cfg = self.config
        if cfg.dist != "off":
            dist, optimizer = self._make_dist(resume)
            if resume is not None and optimizer is not None:
                optimizer.load_state_dict(self._resume_states_for(
                    optimizer.parameters, resume.optimizer_states))
            try:
                return self._epoch_loop(pipeline, optimizer, dist, resume)
            finally:
                dist.close()
        optimizer = self._make_optimizer()
        if resume is not None:
            optimizer.load_state_dict(self._resume_states_for(
                optimizer.parameters, resume.optimizer_states))
        return self._epoch_loop(pipeline, optimizer, None, resume)

    def _epoch_loop(self, pipeline: SampledBatchPipeline | None,
                    optimizer, dist, resume=None) -> HistoryRecorder:
        cfg = self.config
        # the scheduler mutates its holder's ``lr``; without unsharded
        # parameters the bridge itself carries the rate for the pushes
        lr_holder = optimizer if optimizer is not None else dist
        scheduler = ExponentialDecay(lr_holder, rate=cfg.lr_decay)
        stopper = (EarlyStopping(patience=cfg.early_stopping_patience)
                   if cfg.early_stopping_patience else None)
        loss_fn = _LOSSES[cfg.loss]

        start_epoch, resume_step = 0, 0
        if resume is not None:
            start_epoch, resume_step = resume.epoch, resume.step_in_epoch
            # the scheduler's lr₀ was captured at construction (above), so
            # restoring must come after: position first, then the decayed
            # rate the saved run was pushing with
            scheduler.epoch = int(resume.meta["scheduler_epoch"])
            lr_holder.lr = float(resume.meta["lr"])
            saved_stopper = resume.meta.get("stopper")
            if stopper is not None and saved_stopper is not None:
                stopper.best = saved_stopper["best"]
                stopper.best_step = int(saved_stopper["best_step"])
                stopper._bad_checks = int(saved_stopper["bad_checks"])
                stopper._step = int(saved_stopper["step"])

        epochs_completed = start_epoch
        self.model.train()
        for epoch in range(start_epoch, cfg.epochs):
            if resume is not None and epoch == start_epoch:
                # re-enter the interrupted epoch mid-flight
                epoch_loss = float(resume.meta["epoch_loss"])
                steps_done = int(resume.meta["steps_done"])
                first_step = resume_step
            else:
                epoch_loss = 0.0
                steps_done = 0
                first_step = 0
            for step_i in range(first_step, cfg.steps_per_epoch):
                if pipeline is not None:
                    prepared = next(pipeline)
                    batch = prepared.batch
                else:
                    prepared = None
                    batch = sample_pairwise_batch(
                        self._graph, self.data.target_behavior, self._sampler,
                        cfg.batch_users, cfg.per_user, self._rng,
                        eligible_users=self._eligible,
                    )
                if len(batch) > 0:
                    if dist is not None:
                        # bounded staleness: forward may only read tables the
                        # owners have caught up to within the window (0 = the
                        # synchronous barrier → bit-parity with in-process)
                        dist.throttle()
                    pos_scores, neg_scores, reg = self._step_scores(batch, prepared)
                    loss = loss_fn(pos_scores, neg_scores, cfg.margin)
                    loss = loss + reg
                    if optimizer is not None:
                        optimizer.zero_grad()
                    loss.backward()
                    if cfg.grad_clip is not None:
                        clip_grad_norm(self.model.parameters(), cfg.grad_clip)
                    if dist is not None:
                        dist.push(lr=lr_holder.lr)
                    if optimizer is not None:
                        optimizer.step()
                    if hasattr(self.model, "on_step_end"):
                        self.model.on_step_end()
                    epoch_loss += float(loss.data)
                    steps_done += 1
                # the cursor counts loop iterations (empty batches included:
                # they consumed rng draws), so a resumed stream lines up
                global_step = epoch * cfg.steps_per_epoch + step_i + 1
                if (cfg.save_state is not None
                        and cfg.save_every_steps is not None
                        and global_step % cfg.save_every_steps == 0):
                    self._save_state(optimizer, dist, scheduler, lr_holder,
                                     stopper, epoch, step_i + 1, epoch_loss,
                                     steps_done)
                if self.step_hook is not None:
                    self.step_hook(self, global_step)
            lr = scheduler.step()
            # each step's loss is a sum over its pairs plus one per-step L2
            # term, so normalize by the number of steps (not pairs): dividing
            # the mixed sum by pair_count scaled the L2 contribution with the
            # batch size and made reported losses incomparable across
            # configurations with different batch shapes
            mean_loss = epoch_loss / max(steps_done, 1)

            metric = None
            evaluate_now = (self.eval_fn is not None
                            and ((epoch + 1) % cfg.eval_every == 0
                                 or epoch == cfg.epochs - 1))
            if evaluate_now:
                if dist is not None:
                    dist.drain()  # evaluate fully-applied tables
                self.model.eval()
                metric = float(self.eval_fn())
                self.model.train()
            self.history.record(epoch=epoch, loss=mean_loss, lr=lr,
                                **({"metric": metric} if metric is not None else {}))
            if self.config.verbose:  # pragma: no cover - logging only
                suffix = f" metric={metric:.4f}" if metric is not None else ""
                print(f"epoch {epoch:3d} loss={mean_loss:.4f} lr={lr:.5f}{suffix}")
            epochs_completed = epoch + 1
            if stopper is not None and metric is not None and stopper.update(metric):
                break
        if dist is not None:
            dist.drain()
        self.model.eval()
        if cfg.save_state is not None:
            # end-of-run state: resuming it with a larger epoch budget
            # continues training exactly where this run left off
            self._save_state(optimizer, dist, scheduler, lr_holder, stopper,
                             epochs_completed, 0, 0.0, 0)
        return self.history

    def _save_state(self, optimizer, dist, scheduler, lr_holder, stopper,
                    epoch: int, step_in_epoch: int, epoch_loss: float,
                    steps_done: int) -> None:
        """One atomic training-state snapshot at the current cursor.

        Under dist training this drains every in-flight push first and
        pulls the shard owners' optimizer state over the control pipe, so
        the file is a consistent cut: tables, clocks, and cursor all
        describe the same step.
        """
        from repro.train.resume import config_echo, save_training_state

        cfg = self.config
        names = self._param_names()
        opt_states: dict[str, dict] = {}
        if dist is not None:
            for p, state in zip(dist.flat_params, dist.pull_state()):
                opt_states[names[id(p)]] = state
        if optimizer is not None:
            for p, state in zip(optimizer.parameters, optimizer.state_dict()):
                opt_states[names[id(p)]] = state
        meta = {
            "config": config_echo(cfg),
            "epoch": int(epoch),
            "step_in_epoch": int(step_in_epoch),
            "global_step": int(epoch * cfg.steps_per_epoch + step_in_epoch),
            "epoch_loss": float(epoch_loss),
            "steps_done": int(steps_done),
            "lr": float(lr_holder.lr),
            "scheduler_epoch": int(scheduler.epoch),
            "rng_state": self._rng.bit_generator.state,
            "history": self.history.rows,
            "stopper": (None if stopper is None else {
                "best": stopper.best,
                "best_step": stopper.best_step,
                "bad_checks": stopper._bad_checks,
                "step": stopper._step,
            }),
        }
        save_training_state(cfg.save_state, self.model.state_dict(),
                            opt_states, meta)
