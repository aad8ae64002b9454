"""Mini-batch (sampled-propagation) training, end to end.

Trains GNMR on a ``taobao_like`` multi-behavior graph through the two
propagation modes and compares them:

1. ``full`` — whole-graph propagation every step (the bit-reproducible
   reference);
2. ``async`` — mini-batch steps over fanout-capped per-hop layered blocks
   with row-sparse gradients, a per-hop fanout schedule ``(10, 5)``,
   extracted inline (``workers=0``) or double-buffered by a background
   worker (``workers=1``).

The two ``async`` rows report the same final loss and HR@10: the worker
count changes how much extraction overlaps compute, never the trajectory
— which the last section asserts bit for bit.

Run::

    PYTHONPATH=src python examples/train_sampled_async.py
"""

import time

import numpy as np

from repro.core import GNMR, GNMRConfig
from repro.data import build_eval_candidates, leave_one_out_split, taobao_like
from repro.eval import evaluate_model
from repro.train import TrainConfig, Trainer


def make_model(split):
    # float32 + no pretrain keeps the example snappy; seed fixes the init
    return GNMR(split.train, GNMRConfig(num_layers=2, pretrain=False,
                                        dtype="float32", seed=0))


def train(split, candidates, propagation, **overrides):
    model = make_model(split)
    config = TrainConfig(epochs=6, steps_per_epoch=8, batch_users=32,
                         per_user=2, seed=0, propagation=propagation,
                         **overrides)
    start = time.perf_counter()
    history = Trainer(model, split.train, config).run()
    elapsed = time.perf_counter() - start
    hr = evaluate_model(model, candidates).hr(10)
    return history, elapsed, hr


def main():
    print("building taobao-like multi-behavior dataset ...")
    # big enough that per-step graph cost dominates; see docs/training.md
    # for why tiny graphs should just use propagation="full"
    data = taobao_like(num_users=2500, num_items=4000, seed=42)
    split = leave_one_out_split(data)
    candidates = build_eval_candidates(
        split.train, split.test_users, split.test_items,
        num_negatives=99, rng=np.random.default_rng(0))

    rows = []
    for label, kwargs in [
        ("full", dict()),
        ("async fanout=(10,5) workers=0",
         dict(propagation="async", fanout=(10, 5), workers=0)),
        ("async fanout=(10,5) workers=1",
         dict(propagation="async", fanout=(10, 5), workers=1)),
    ]:
        propagation = kwargs.pop("propagation", "full")
        history, elapsed, hr = train(split, candidates, propagation, **kwargs)
        rows.append((label, elapsed, history.series("loss")[-1], hr))
        print(f"  {label:32s} {elapsed:6.2f}s  "
              f"final-loss={rows[-1][2]:.3f}  HR@10={hr:.3f}")

    full_time = rows[0][1]
    print("\nspeedups vs full-graph training:")
    for label, elapsed, _, _ in rows[1:]:
        print(f"  {label:32s} {full_time / elapsed:5.2f}x")

    # determinism: the background worker replays the inline streams exactly
    losses = {}
    for workers in (0, 1):
        model = make_model(split)
        config = TrainConfig(epochs=3, steps_per_epoch=6, batch_users=16,
                             per_user=2, seed=0, propagation="async",
                             fanout=(10, 5), workers=workers)
        losses[workers] = Trainer(model, split.train, config).run().series("loss")
    assert losses[0] == losses[1], "workers=0 and workers=1 must match"
    print("\nloss trajectories identical at workers=0 and workers=1:",
          [round(x, 4) for x in losses[1]])


if __name__ == "__main__":
    main()
