"""Adam, the paper's optimizer (lr 1e-3, exponential decay 0.96).

Optimizer state mirrors each parameter's dtype (``np.zeros_like``), and all
updates are in-place, so float32 models keep float32 state and updates even
if a stray float64 gradient reaches them.

Adam also understands :class:`~repro.tensor.RowSparseGrad` — the row-sparse
gradients emitted by ``Tensor.embedding_rows`` on the mini-batch training
path — and applies *lazy* per-row updates: only the rows present in the
gradient are read or written, so the per-step optimizer cost scales with
the batch instead of the embedding-table size. Rows a sparse step does not
touch keep their state (the Adam moments) frozen, the standard lazy
semantics of sparse optimizers. Dense gradients take the exact same code
path as before, bit for bit.

All state is strictly per parameter (moments, step clock, row counters).
"""

from __future__ import annotations

import numpy as np

from repro.nn.module import Parameter
from repro.tensor.rowsparse import RowSparseGrad


def _row_bias(correction: np.ndarray, values_ndim: int) -> np.ndarray:
    """Reshape a per-row (r,) factor to broadcast against (r, *row_shape)."""
    return correction.reshape(correction.shape + (1,) * (values_ndim - 1))


class Adam:
    """Adam with bias correction (Kingma & Ba, 2015).

    Dense gradients use the parameter's step count ``t`` exactly as the
    original implementation did (every ``t`` advances on every ``step()``,
    so this *is* the classic global count).
    Row-sparse gradients run *lazy Adam*: moments are updated only on the
    touched rows, and bias correction uses a per-row step count (how many
    times that row has actually been updated) — the correction a fresh row
    needs, which the global ``t`` would understate drastically for
    rarely-sampled rows. Parameters that only ever receive dense gradients
    never allocate the per-row counters.

    A parameter may mix the two: a dense step advances every row's
    counter, and the counters are seeded with the parameter's step count at
    the first row-sparse gradient, so rows already advanced by earlier
    dense steps keep a monotone bias correction.

    The trainer drives ``lr``, :meth:`zero_grad`, :meth:`step` and
    :meth:`state_dict` / :meth:`load_state_dict`.
    """

    def __init__(self, parameters, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999), eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._param_t = [0] * len(self.parameters)
        self._row_steps: list[np.ndarray | None] = [None] * len(self.parameters)

    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def sync(self) -> None:
        """A no-op: parameters are final after every ``step()``. Kept only
        because ``benchmarks/e2e/workloads.py::traced_fit`` calls it; it
        leaves with ``traced_fit`` (ROADMAP item 6, second step).
        """

    def _sparse_step(self, i: int, p: Parameter, g: RowSparseGrad) -> None:
        m, v = self._m[i], self._v[i]
        counts = self._row_steps[i]
        if counts is None:
            counts = np.zeros(p.data.shape[0], dtype=np.int64)
            # rows already advanced by earlier dense steps keep their global
            # count so their bias correction stays monotone
            counts[:] = self._param_t[i] - 1
            self._row_steps[i] = counts
        rows = g.indices
        counts[rows] += 1
        values = g.values
        m[rows] = self.beta1 * m[rows] + (1.0 - self.beta1) * values
        v[rows] = self.beta2 * v[rows] + (1.0 - self.beta2) * values ** 2
        t_rows = counts[rows].astype(p.data.dtype)
        bias1 = _row_bias(1.0 - self.beta1 ** t_rows, values.ndim)
        bias2 = _row_bias(1.0 - self.beta2 ** t_rows, values.ndim)
        m_hat = m[rows] / bias1
        v_hat = v[rows] / bias2
        p.data[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def step(self) -> None:
        for i, p in enumerate(self.parameters):
            # the parameter's clock advances on every step, grad or not
            self._param_t[i] += 1
            m, v = self._m[i], self._v[i]
            if p.grad is None:
                continue
            if isinstance(p.grad, RowSparseGrad):
                self._sparse_step(i, p, p.grad)
                continue
            if self._row_steps[i] is not None:
                # dense step on a row-counted parameter advances every row
                self._row_steps[i] += 1
            bias1 = 1.0 - self.beta1 ** self._param_t[i]
            bias2 = 1.0 - self.beta2 ** self._param_t[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * p.grad
            v *= self.beta2
            v += (1.0 - self.beta2) * p.grad ** 2
            m_hat = m / bias1
            v_hat = v / bias2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    # -- state serialization (mid-run checkpointing) --------
    def state_dict(self) -> list[dict]:
        """Per-parameter state, one dict per parameter in declaration order.

        Values are numpy arrays or plain Python scalars; loading the result
        back through :meth:`load_state_dict` reproduces the optimizer's
        behavior bit-exactly from this point on.
        """
        states = []
        for i in range(len(self.parameters)):
            state = {
                "m": np.array(self._m[i]),
                "v": np.array(self._v[i]),
                "param_t": int(self._param_t[i]),
            }
            if self._row_steps[i] is not None:
                state["row_steps"] = np.array(self._row_steps[i])
            states.append(state)
        return states

    def load_state_dict(self, states: list[dict]) -> None:
        states = list(states)
        if len(states) != len(self.parameters):
            raise ValueError(f"state covers {len(states)} parameters, "
                             f"optimizer has {len(self.parameters)}")
        for i, state in enumerate(states):
            state = dict(state)
            self._m[i][...] = state.pop("m")
            self._v[i][...] = state.pop("v")
            self._param_t[i] = int(state.pop("param_t"))
            row_steps = state.pop("row_steps", None)
            self._row_steps[i] = (None if row_steps is None
                                  else np.array(row_steps, dtype=np.int64))
            if state:
                raise ValueError(f"Adam state of parameter {i} holds "
                                 f"unknown keys {sorted(state)}")
