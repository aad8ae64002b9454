"""Tests of learning-rate schedules."""

import numpy as np
import pytest

from repro.nn import Adam, ExponentialDecay
from repro.nn.module import Parameter


def make_opt(lr=1.0):
    return Adam([Parameter(np.zeros(1))], lr=lr)


class TestExponentialDecay:
    def test_paper_decay_rate(self):
        """The paper's 0.96 decay: lr_n = lr0 · 0.96ⁿ."""
        opt = make_opt(1e-3)
        sched = ExponentialDecay(opt, rate=0.96)
        for epoch in range(1, 6):
            lr = sched.step()
            assert lr == pytest.approx(1e-3 * 0.96 ** epoch)
            assert opt.lr == lr

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            ExponentialDecay(make_opt(), rate=0.0)
        with pytest.raises(ValueError):
            ExponentialDecay(make_opt(), rate=1.5)

    def test_rate_one_is_constant(self):
        sched = ExponentialDecay(make_opt(0.5), rate=1.0)
        for _ in range(10):
            assert sched.step() == 0.5

