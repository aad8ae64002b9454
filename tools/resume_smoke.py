"""CI smoke for mid-epoch resume: train, SIGKILL, resume, bit-match.

The pytest resume suite simulates crashes with an in-process exception;
this script delivers a real ``SIGKILL`` — no cleanup handlers, no atexit,
the process is simply gone mid-epoch — and requires the resume contract
to hold anyway:

1. train a tiny GNMR to completion in-process (the reference);
2. run the same training in a child process that saves its state every 3
   steps and SIGKILLs itself after step 7 (one step past the last save);
3. resume from the surviving state file and require the final embedding
   tables and loss trace to be bit-identical to the reference.

Because the training-state file is written atomically (temp +
``os.replace``), the kill can land at any instant without leaving a torn
state behind. Standalone, no test harness::

    PYTHONPATH=src python tools/resume_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import numpy as np

EPOCHS = 4
KILL_AT_STEP = 7
SAVE_EVERY = 3


def build():
    from repro.core import GNMR, GNMRConfig
    from repro.data import leave_one_out_split, taobao_like

    split = leave_one_out_split(taobao_like(num_users=40, num_items=90,
                                            seed=0))
    model = GNMR(split.train, GNMRConfig(pretrain=False, seed=0,
                                         num_layers=2, dropout=0.0))
    return model, split


def config(save_state=None):
    from repro.train import TrainConfig

    return TrainConfig(epochs=EPOCHS, steps_per_epoch=4, batch_users=8,
                       per_user=2, propagation="async", workers=0, fanout=5,
                       seed=0, save_state=save_state,
                       save_every_steps=SAVE_EVERY if save_state else None)


def child(state_path: str) -> int:
    """Train with periodic saves and SIGKILL ourselves mid-epoch."""
    from repro.train import Trainer

    model, split = build()

    def kill_hook(trainer, global_step):
        if global_step == KILL_AT_STEP:
            os.kill(os.getpid(), signal.SIGKILL)

    Trainer(model, split.train, config(state_path),
            step_hook=kill_hook).run()
    return 1  # unreachable unless the kill never fired


def main() -> int:
    from repro.train import Trainer
    from repro.train.resume import load_training_state

    state_path = "/tmp/resume_smoke_state.npz"
    if os.path.exists(state_path):
        os.unlink(state_path)

    reference, split = build()
    ref_losses = Trainer(reference, split.train, config()).run().series("loss")

    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", state_path],
        env=dict(os.environ, PYTHONPATH="src"), cwd=os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))
    if proc.returncode != -signal.SIGKILL:
        print(f"child exited {proc.returncode}, expected SIGKILL "
              f"({-signal.SIGKILL})")
        return 1
    saved = load_training_state(state_path)
    expected_step = (KILL_AT_STEP // SAVE_EVERY) * SAVE_EVERY
    if saved.global_step != expected_step:
        print(f"state saved at step {saved.global_step}, "
              f"expected {expected_step}")
        return 1

    resumed, _ = build()
    losses = Trainer(resumed, split.train, config()).run(
        resume_from=state_path).series("loss")

    loss_ok = losses == ref_losses
    users_ok = bool(np.array_equal(resumed.user_embeddings.data,
                                   reference.user_embeddings.data))
    items_ok = bool(np.array_equal(resumed.item_embeddings.data,
                                   reference.item_embeddings.data))
    print(json.dumps({"killed_at_step": KILL_AT_STEP,
                      "resumed_from_step": saved.global_step,
                      "loss_trace_identical": loss_ok,
                      "user_tables_bit_equal": users_ok,
                      "item_tables_bit_equal": items_ok}))
    if loss_ok and users_ok and items_ok:
        print("resume smoke OK: SIGKILL mid-epoch, resumed run bit-matches")
        return 0
    print("resume smoke FAILED")
    return 1


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        sys.exit(child(sys.argv[2]))
    sys.exit(main())
