"""Fault injection for the trainer.

:class:`CrashAtStep` is a ``Trainer`` step hook that raises
:class:`TrainerKilled` once a chosen global step completes — the
in-process stand-in for ``kill -9`` mid-epoch, after that step's mid-run
training-state save has already hit disk.
"""

from __future__ import annotations


class TrainerKilled(RuntimeError):
    """The simulated crash raised by :class:`CrashAtStep`."""


class CrashAtStep:
    """Step hook killing the trainer right after ``at_step`` completes.

    Global steps are 1-based loop-iteration counts, the same clock
    ``TrainConfig.save_every_steps`` runs on — crashing at a multiple of
    the save period simulates dying immediately after a state save.
    """

    def __init__(self, at_step: int):
        self.at_step = int(at_step)

    def __call__(self, trainer, global_step: int) -> None:
        if global_step == self.at_step:
            raise TrainerKilled(f"simulated crash after step {global_step}")
