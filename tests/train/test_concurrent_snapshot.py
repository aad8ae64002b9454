"""A trainer and ``no_grad`` snapshot loops sharing one model across threads.

This is what the HTTP tier's snapshot watcher does while a model trains
in-process: grad mode is per thread, and inference never flips the shared
module's ``training`` flag, so the trainer's loss trace is the one it has
alone — dropout included.
"""

import sys
import threading

import numpy as np

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split
from repro.tensor import is_grad_enabled, no_grad
from repro.train import TrainConfig

CONFIG = TrainConfig(epochs=4, steps_per_epoch=6, batch_users=8, per_user=2,
                     lr=5e-3, seed=0)
SNAPSHOT_THREADS = 2  # with the trainer, more threads than the 2-core CI box


def _model(dataset):
    train = leave_one_out_split(dataset).train
    model = GNMR(train, GNMRConfig(embedding_dim=8, num_layers=2, pretrain=False,
                                   dropout=0.3, seed=3))
    return model, train


def test_snapshot_threads_leave_the_loss_trace_alone(small_taobao):
    model, train = _model(small_taobao)
    alone = model.fit(train, CONFIG).series("loss")

    model, train = _model(small_taobao)
    stop = threading.Event()
    started = threading.Barrier(SNAPSHOT_THREADS + 1, timeout=30)
    snapshots, errors = [], []

    def snapshot_loop():
        started.wait()
        try:
            while not stop.is_set():
                with no_grad():
                    model.serving_embeddings()
                    model.cold_user_embeddings(np.arange(3))
                    snapshots.append(model.score(np.arange(3), np.arange(3)))
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=snapshot_loop) for _ in range(SNAPSHOT_THREADS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        started.wait()
        assert is_grad_enabled()  # the other threads' no_grad is their own
        shared = model.fit(train, CONFIG).series("loss")
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    assert len(snapshots) > SNAPSHOT_THREADS
    assert shared == alone
