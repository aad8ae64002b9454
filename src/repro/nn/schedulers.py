"""Learning-rate schedules.

The paper applies an exponential decay of 0.96 during training; the
schedule mutates the wrapped optimizer's ``lr`` when :meth:`step` is called
at each epoch boundary.
"""

from __future__ import annotations

from repro.nn.optim import Adam


class ExponentialDecay:
    """lr ← lr₀ · rateᵉᵖᵒᶜʰ, the paper's 0.96 decay."""

    def __init__(self, optimizer: Adam, rate: float = 0.96):
        if not 0 < rate <= 1:
            raise ValueError("decay rate must be in (0, 1]")
        self.optimizer = optimizer
        self.rate = rate
        self.initial_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> float:
        self.epoch += 1
        self.optimizer.lr = self.initial_lr * self.rate ** self.epoch
        return self.optimizer.lr
