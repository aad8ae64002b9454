"""Mixed dense/sparse Adam on one parameter: the per-row-count rule.

Whatever order a parameter's dense and row-sparse gradients arrive in, Adam
applies one rule (the sampled trainer's contract, which the goldens depend
on): dense steps use the parameter's step count and advance every row's
counter; sparse steps use per-row counters, seeded with the step count at
the first sparse touch; moments stay frozen on rows a sparse step skips.
:class:`MirrorAdam` is an independent reimplementation of that rule and
pins it bit for bit, for sparse-first and dense-first schedules alike.
"""

import numpy as np
import pytest

from repro.nn import Adam, Parameter
from repro.tensor import RowSparseGrad

SHAPE = (6, 3)
LR = 0.05


class MirrorAdam:
    """Reimplementation of the lazy mixed semantics: global step count
    for dense updates, per-row counts for sparse ones, counters seeded from
    the global step at first sparse touch, moments frozen on skipped rows.
    """

    def __init__(self, data, lr=LR, betas=(0.9, 0.999), eps=1e-8):
        self.data = data.copy()
        self.m = np.zeros_like(data)
        self.v = np.zeros_like(data)
        self.t = 0
        self.counts = None
        self.lr, (self.b1, self.b2), self.eps = lr, betas, eps

    def dense_step(self, grad):
        self.t += 1
        if self.counts is not None:
            self.counts += 1
        self.m = self.b1 * self.m + (1 - self.b1) * grad
        self.v = self.b2 * self.v + (1 - self.b2) * grad**2
        m_hat = self.m / (1 - self.b1**self.t)
        v_hat = self.v / (1 - self.b2**self.t)
        self.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def sparse_step(self, rows, values):
        self.t += 1
        if self.counts is None:
            self.counts = np.full(self.data.shape[0], self.t - 1,
                                  dtype=np.int64)
        self.counts[rows] += 1
        self.m[rows] = self.b1 * self.m[rows] + (1 - self.b1) * values
        self.v[rows] = self.b2 * self.v[rows] + (1 - self.b2) * values**2
        t_rows = self.counts[rows].astype(self.data.dtype)[:, None]
        m_hat = self.m[rows] / (1 - self.b1**t_rows)
        v_hat = self.v[rows] / (1 - self.b2**t_rows)
        self.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _schedule(dense_first: bool, seed: int = 2, steps: int = 12):
    """A reproducible dense/sparse interleaving with partial row touches."""
    rng = np.random.default_rng(seed)
    schedule = []
    for step in range(steps):
        if step < 3 * dense_first or step % 3 == 2:
            schedule.append(("dense", rng.standard_normal(SHAPE)))
        else:
            rows = np.sort(rng.choice(SHAPE[0], size=3, replace=False))
            schedule.append(("sparse", (rows, rng.standard_normal((3, 3)))))
    return schedule


def _run_optimizer(schedule):
    p = Parameter(np.zeros(SHAPE))
    opt = Adam([p], lr=LR)
    for kind, payload in schedule:
        if kind == "dense":
            p.grad = payload.copy()
        else:
            rows, values = payload
            p.grad = RowSparseGrad(rows, values.copy(), SHAPE[0])
        opt.step()
    return p, opt


class TestRowCounters:
    def test_dense_steps_advance_all_row_counters(self):
        p = Parameter(np.zeros(SHAPE))
        opt = Adam([p], lr=LR)
        p.grad = RowSparseGrad([0], np.ones((1, 3)), SHAPE[0])
        opt.step()
        p.grad = np.ones(SHAPE)
        opt.step()
        assert opt._row_steps[0].tolist() == [2, 1, 1, 1, 1, 1]

    def test_first_sparse_touch_after_dense_seeds_counters(self):
        p = Parameter(np.zeros(SHAPE))
        opt = Adam([p], lr=LR)
        for _ in range(4):  # 4 dense steps advance the parameter's clock
            p.grad = np.ones(SHAPE)
            opt.step()
        assert opt._row_steps[0] is None  # dense-only: never allocated
        p.grad = RowSparseGrad([1, 3], np.ones((2, 3)), SHAPE[0])
        opt.step()
        assert opt._row_steps[0].tolist() == [4, 5, 4, 5, 4, 4]


class TestMirrorCharacterization:
    @pytest.mark.parametrize("dense_first", [False, True])
    def test_mirror_implementation_matches_bitwise(self, dense_first):
        schedule = _schedule(dense_first)
        assert schedule[0][0] == ("dense" if dense_first else "sparse")
        p, opt = _run_optimizer(schedule)
        mirror = MirrorAdam(np.zeros(SHAPE))
        for kind, payload in schedule:
            if kind == "dense":
                mirror.dense_step(payload)
            else:
                mirror.sparse_step(*payload)
        np.testing.assert_array_equal(p.data, mirror.data)
        opt.sync()  # the documented no-op
        np.testing.assert_array_equal(p.data, mirror.data)
