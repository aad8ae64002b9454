"""One training loop for every model (Algorithm 1 of the paper).

Each epoch runs a fixed number of steps; each step draws a batch, takes
its loss (for the pairwise models the margin loss of Eq. (7) plus
λ‖Θ‖²) and updates with Adam under an exponential learning-rate decay
(rate 0.96). The batch source is selected once, when a run starts (the
model's ``batch_source``, :mod:`repro.train.sources`); the loop never
branches on it. One process applies every step.

The pairwise models have two sources, by ``TrainConfig.propagation``:
``"full"`` propagates over the whole graph every step and regularizes
every parameter (float64 runs are bit-reproducible with the seed
goldens); ``"async"`` is the mini-batch path (:mod:`repro.train.pipeline`):
fanout-capped per-hop *layered* blocks (:mod:`repro.graph.layered`)
around each batch's seeds, row-sparse embedding gradients, the
batch-local ``model.l2_batch`` and lazy per-row optimizer updates, so the
step cost scales with batch size and fanout instead of graph size.
``workers=0`` extracts inline; ``workers>=1`` double-buffers extraction
on background threads. The trajectory is bit-identical for any worker
count (extraction rngs are split per step, not per worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.data.dataset import InteractionDataset
from repro.graph.layered import validate_fanout
from repro.nn.layers import Dropout
from repro.nn.optim import Adam
from repro.nn.schedulers import ExponentialDecay
from repro.train.callbacks import HistoryRecorder
from repro.train.sources import PAIRWISE_LOSSES, SampledBlockSource


@dataclass
class TrainConfig:
    """Hyperparameters of the training loop.

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
    #: path of the training-state file (:mod:`repro.train.resume`) this run
    #: maintains: written atomically every ``save_every_steps`` steps and
    #: once more at the end of the run. ``Trainer.run(resume_from=...)``
    #: continues from such a file bit-exactly
    save_state: str | None = None
    #: mid-epoch save cadence in global steps (``None`` → only the
    #: end-of-run save); requires ``save_state``
    save_every_steps: int | None = None

    def __post_init__(self):
        # a value that would train nothing (zero steps, a zero rate) is
        # refused here, not discovered as a run that reports loss 0.0
        rules = [(name, ">= 1", getattr(self, name) >= 1) for name in (
            "epochs", "steps_per_epoch", "batch_users", "per_user",
            "prefetch_depth")]
        rules += [
            ("lr", "> 0", self.lr > 0),
            ("lr_decay", "in (0, 1]", 0 < self.lr_decay <= 1),
            ("l2_weight", ">= 0", self.l2_weight >= 0),
            ("dtype", "'float32', 'float64' or None",
             self.dtype in (None, "float32", "float64")),
            ("workers", ">= 0", self.workers >= 0),
            ("save_every_steps", ">= 1 (or None)",
             self.save_every_steps is None or self.save_every_steps >= 1),
        ]
        for name, rule, holds in rules:
            if not holds:
                raise ValueError(f"{name} must be {rule}, got "
                                 f"{getattr(self, name)!r}")
        if self.propagation not in ("full", "async"):
            raise ValueError(
                f"unknown propagation mode {self.propagation!r} (use 'full' "
                "or 'async'; the inline mini-batch path is "
                'propagation="async", workers=0)')
        if self.loss not in PAIRWISE_LOSSES:
            raise ValueError(f"unknown loss {self.loss!r} "
                             "(use 'hinge' or 'bpr')")
        if self.fanout != "model":
            validate_fanout(self.fanout)
        if self.save_every_steps is not None and self.save_state is None:
            raise ValueError("save_every_steps requires save_state "
                             "(where would the state go?)")

    def fanout_kwargs(self) -> dict:
        """``{"fanout": ...}`` for the model calls, or ``{}`` to defer.

        ``fanout="model"`` omits the keyword entirely so each model's own
        default applies (``GNMRConfig.fanout`` for GNMR; 10 otherwise).
        """
        return {} if self.fanout == "model" else {"fanout": self.fanout}


class Trainer:
    """Drives the training of any model through its batch source.

    The model contract (see :class:`repro.models.base.Recommender`):

    * ``parameters()`` / ``named_parameters()`` — trainable parameters,
    * ``batch_source(train, config)`` — the run's batch source
      (:mod:`repro.train.sources`): its steps per epoch, step-ordered
      draws and each step's loss; the base class's is the pairwise one,
      full-graph or mini-batch by ``config.propagation``,
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
        self.config = config
        self.eval_fn = eval_fn
        #: called as ``step_hook(trainer, global_step)`` after every loop
        #: iteration — the fault-injection substrate's crash point, also
        #: handy for external progress reporting
        self.step_hook = step_hook
        self.history = HistoryRecorder()
        #: picked once per run; the step loop never branches on the mode
        self.source = model.batch_source(train_data, config)
        if (config.propagation == "async"
                and not isinstance(self.source, SampledBlockSource)):
            raise ValueError(
                f"{type(model).__name__} trains from its own batch source, "
                "which samples no blocks: propagation='async' applies only "
                "to the pairwise models — train it with propagation='full'")

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
            check_resume_config(resume, cfg)
            total_steps = cfg.epochs * self.source.steps_per_epoch
            if resume.global_step > total_steps:
                raise ValueError(
                    f"saved state is {resume.global_step} steps in; this "
                    f"config only trains {total_steps} steps")
        with default_dtype(cfg.dtype):  # None → ambient default
            return self._epoch_loop(resume)

    def _build_optimizer(self, resume) -> Adam:
        """Adam over ``model.parameters()``; resume state is matched to
        parameters by name."""
        optimizer = Adam(self.model.parameters(), lr=self.config.lr)
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

    def _epoch_loop(self, resume) -> HistoryRecorder:
        cfg = self.config
        source = self.source
        steps_per_epoch = source.steps_per_epoch
        start_epoch = first_step = steps_done = 0
        epoch_loss = 0.0
        if resume is not None:
            self.model.load_state_dict(resume.model_state)
            source.load_state_dict(resume.meta)
            # states written before dropout masks were carried have none
            for dropout, state in zip(_dropouts(self.model),
                                      resume.meta.get("dropout_rngs", ())):
                dropout.rng.bit_generator.state = state
            self.history.rows = [dict(row) for row in resume.meta["history"]]
            # re-enter the interrupted epoch mid-flight
            start_epoch, first_step = resume.epoch, resume.step_in_epoch
            epoch_loss = float(resume.meta["epoch_loss"])
            steps_done = int(resume.meta["steps_done"])
        optimizer = self._build_optimizer(resume)
        batches = source.batches(start_epoch * steps_per_epoch + first_step)
        try:
            scheduler = ExponentialDecay(optimizer, rate=cfg.lr_decay)
            if resume is not None:
                # the scheduler's lr₀ was captured at construction (above),
                # so restoring must come after: position first, then the
                # decayed rate the saved run was stepping with
                scheduler.epoch = int(resume.meta["scheduler_epoch"])
                optimizer.lr = float(resume.meta["lr"])
            self.model.train()
            for epoch in range(start_epoch, cfg.epochs):
                for step_i in range(first_step, steps_per_epoch):
                    loss = source.loss(next(batches))
                    if loss is not None:
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                        if hasattr(self.model, "on_step_end"):
                            self.model.on_step_end()
                        epoch_loss += float(loss.data)
                        steps_done += 1
                    # the cursor counts loop iterations (empty batches
                    # included: they consumed rng draws), so a resumed
                    # stream lines up
                    global_step = epoch * steps_per_epoch + step_i + 1
                    if (cfg.save_every_steps is not None
                            and global_step % cfg.save_every_steps == 0):
                        self._save_state(optimizer, scheduler, epoch,
                                         step_i + 1, epoch_loss, steps_done)
                    if self.step_hook is not None:
                        self.step_hook(self, global_step)
                lr = scheduler.step()
                # the mean per-step loss: a step's L2 term is per step, not
                # per pair, so a per-pair mean would scale it with the batch
                mean_loss = epoch_loss / max(steps_done, 1)
                first_step = steps_done = 0
                epoch_loss = 0.0

                row = {"epoch": epoch, "loss": mean_loss, "lr": lr}
                if self.eval_fn is not None:
                    self.model.eval()
                    row["metric"] = float(self.eval_fn())
                    self.model.train()
                self.history.record(**row)
            self.model.eval()
            if cfg.save_state is not None:
                # end-of-run state: resuming it with a larger epoch budget
                # continues training exactly where this run left off
                self._save_state(optimizer, scheduler, cfg.epochs, 0, 0.0, 0)
            return self.history
        finally:
            batches.close()

    def _save_state(self, optimizer, scheduler, epoch: int,
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
            "global_step": int(epoch * self.source.steps_per_epoch
                               + step_in_epoch),
            "epoch_loss": float(epoch_loss),
            "steps_done": int(steps_done),
            "lr": float(optimizer.lr),
            "scheduler_epoch": int(scheduler.epoch),
            "history": self.history.rows,
            "dropout_rngs": [d.rng.bit_generator.state
                             for d in _dropouts(self.model)],
            **self.source.state_dict(),
        }
        save_training_state(cfg.save_state, self.model.state_dict(),
                            opt_states, meta)


def _dropouts(model) -> list[Dropout]:
    """The model's dropout layers, whose mask streams a state carries."""
    return [m for m in model.modules() if isinstance(m, Dropout)]
