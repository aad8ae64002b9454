"""CI smoke for the multi-process parameter server (``repro.dist``).

Trains a small GNMR twice — once in-process with ``shards=2`` and once
with the shards owned by two real subprocesses over shared-memory
gradient transport (``dist="sync"``, ``transport="shm"``) — and requires
the synchronous mode's contract to hold on real multi-core CI hardware:
an identical loss trace and bit-identical final embedding tables.

Unlike the pytest parity suite (which also runs this comparison), this
script is a standalone end-to-end check with no test harness in the
loop, sized so a CI job can afford it on every push::

    PYTHONPATH=src python tools/dist_smoke.py
"""

from __future__ import annotations

import json
import sys

import numpy as np


def train(dist: str, transport: str = "shm") -> tuple[list, np.ndarray,
                                                      np.ndarray]:
    from repro.core import GNMR, GNMRConfig
    from repro.data import leave_one_out_split, taobao_like
    from repro.shard import table_array
    from repro.train import TrainConfig, Trainer

    split = leave_one_out_split(taobao_like(num_users=60, num_items=150,
                                            seed=0))
    config = GNMRConfig(pretrain=False, seed=0, num_layers=2, dropout=0.0,
                        shards=2, shard_strategy="range")
    model = GNMR(split.train, config)
    tc = TrainConfig(epochs=3, steps_per_epoch=5, batch_users=8, per_user=2,
                     propagation="async", workers=0, fanout=5, seed=0,
                     optimizer="adam", dist=dist,
                     dist_workers=2, dist_transport=transport)
    losses = Trainer(model, split.train, tc).run().series("loss")
    return (losses, table_array(model.user_embeddings),
            table_array(model.item_embeddings))


def main() -> int:
    ref_losses, ref_users, ref_items = train("off")
    dist_losses, dist_users, dist_items = train("sync")

    loss_ok = dist_losses == ref_losses
    users_ok = bool(np.array_equal(dist_users, ref_users))
    items_ok = bool(np.array_equal(dist_items, ref_items))
    print(json.dumps({
        "loss_trace_bit_equal": loss_ok,
        "user_table_bit_equal": users_ok,
        "item_table_bit_equal": items_ok,
        "epochs": len(ref_losses),
        "final_loss": ref_losses[-1],
    }, indent=2))
    if not (loss_ok and users_ok and items_ok):
        if not loss_ok:
            print(f"loss trace diverged:\n  in-process: {ref_losses}\n"
                  f"  dist sync:  {dist_losses}", file=sys.stderr)
        print("dist smoke FAILED: sync mode must bit-match in-process "
              "shards=2 training", file=sys.stderr)
        return 1
    print("dist smoke OK: cross-process sync training is bit-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
