"""Training step ratios: full-graph vs mini-batch.

Measures per-step wall time and steps/sec of GNMR pairwise training under
``TrainConfig.propagation="full"`` (whole-graph SpMM + dense optimizer
sweep every step) and ``"async"`` (the :mod:`repro.train.pipeline` path:
pre-drawn batch stream, fanout-capped per-hop layered blocks, row-sparse
embedding gradients, lazy per-row Adam) at ``workers=0`` (extraction
inline on the training thread) and ``workers=1`` (extraction
double-buffered on a background thread) at two synthetic graph scales.
One same-run ratio is gated here — the script prints its payload, then
one PASS/FAIL line per floor, and exits 1 when one is missed:

* ``speedup_sampled_large`` ≥ ``SAMPLED_MIN`` — the inline mini-batch step
  against the full-graph step at batch 32 on the large graph (best-of-N
  per-step time): step cost must track batch size and fanout, not graph
  size.

``prefetch_gain`` (inline mean step / ``workers=1`` mean step) rides along
ungated: it is what the background thread buys on this box, and never
changes the trajectory. So does ``extract_ms`` (best-of-N
``model.extract_block`` alone, inline), the part of the inline step the
thread can hide. ``benchmarks/e2e`` measures ``train_steps_per_s`` of one
mode (async) and so sees neither ratio.

The interaction graphs are built directly from random edge lists (the
latent-factor generator in ``repro.data.synthetic`` is O(users × items)
and would dominate the benchmark at the large scale)::

    PYTHONPATH=src python benchmarks/bench_training.py [--out DIR]
"""

import sys
import time

import numpy as np

from gate import best_time, main

#: the row-sparse mini-batch path's reason to exist (measured 50x+ on the
#: large graph; 3x is the acceptance bar — a same-machine ratio, so
#: shared-runner noise mostly cancels)
SAMPLED_MIN = 3.0

BATCH_USERS = 32
PER_USER = 4
#: per-(node, behavior) neighbor cap; with K=3 behaviors the per-hop
#: branching factor is 3·FANOUT = 9, so a batch-32 block's widest level
#: stays ~25k nodes regardless of graph size — the sublinearity the gate
#: asserts
FANOUT = 3
SCALES = {
    "small": {"num_users": 6000, "num_items": 9000,
              "edges_per_user": 24, "steps": 6},
    "large": {"num_users": 60000, "num_items": 90000,
              "edges_per_user": 24, "steps": 3},
}


def _random_graph_dataset(num_users: int, num_items: int,
                          edges_per_user: int, seed: int = 0):
    """A multi-behavior dataset from uniform random edges (O(edges) build)."""
    from repro.data.dataset import InteractionDataset

    rng = np.random.default_rng(seed)
    behaviors = ("view", "cart", "purchase")
    density = {"view": 1.0, "cart": 0.4, "purchase": 0.25}
    interactions = {}
    for behavior in behaviors:
        count = int(num_users * edges_per_user * density[behavior])
        users = rng.integers(0, num_users, size=count)
        # every user keeps at least one target edge so batch sampling never
        # starves at any scale
        if behavior == "purchase":
            users = np.concatenate([users, np.arange(num_users)])
        items = rng.integers(0, num_items, size=users.size)
        interactions[behavior] = {"users": users, "items": items}
    return InteractionDataset(
        name=f"bench-{num_users}x{num_items}", num_users=num_users,
        num_items=num_items, behavior_names=behaviors,
        target_behavior="purchase", interactions=interactions)


def _time_steps(one_step, steps: int) -> tuple[float, float]:
    """(best, mean) seconds of ``one_step()`` over ``steps`` calls."""
    one_step()  # warm up caches / lazy state / prefetch buffers
    best = float("inf")
    total = 0.0
    for _ in range(steps):
        start = time.perf_counter()
        one_step()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        total += elapsed
    return best, total / steps


def _batch_drawer(data):
    """``rng → PairwiseBatch`` over the dataset's target behavior."""
    from repro.graph.sampling import NegativeSampler, sample_pairwise_batch

    graph = data.graph()
    sampler = NegativeSampler(graph, data.target_behavior)
    eligible = np.flatnonzero(graph.user_degree(data.target_behavior) > 0)

    def draw(rng):
        return sample_pairwise_batch(graph, data.target_behavior, sampler,
                                     BATCH_USERS, PER_USER, rng,
                                     eligible_users=eligible)

    return draw


def _measure_full_steps(model, data, steps: int) -> tuple[float, float]:
    """(best, mean) per-step seconds of the full-graph training step."""
    from repro.nn.losses import l2_regularization, pairwise_hinge_loss
    from repro.nn.optim import Adam

    rng = np.random.default_rng(0)
    draw = _batch_drawer(data)
    optimizer = Adam(model.parameters(), lr=1e-3)
    model.train()

    def one_step():
        batch = draw(rng)
        pos, neg = model.batch_scores(batch.users, batch.pos_items,
                                      batch.neg_items)
        loss = (pairwise_hinge_loss(pos, neg)
                + l2_regularization(model.parameters(), 1e-4))
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        model.on_step_end()

    return _time_steps(one_step, steps)


def _block_pipeline(model, data, steps: int, workers: int):
    """The trainer's mini-batch stream: ``steps`` measured + 1 warm-up."""
    from repro.train.pipeline import SampledBatchPipeline

    def extract(batch, rng):
        return model.extract_block(batch.users, batch.pos_items,
                                   batch.neg_items, fanout=FANOUT, rng=rng)

    return SampledBatchPipeline(_batch_drawer(data), extract,
                                total_steps=steps + 1, seed=0,
                                workers=workers, depth=2)


def _block_loss(model, prepared):
    """Hinge + batch-local L2 over one prepared (batch, layered block)."""
    from repro.nn.losses import pairwise_hinge_loss

    batch = prepared.batch
    pos, neg = model.block_batch_scores(
        batch.users, batch.pos_items, batch.neg_items, prepared.block)
    return pairwise_hinge_loss(pos, neg) + model.l2_batch(
        batch.users, batch.pos_items, batch.neg_items, 1e-4)


def _measure_block_steps(model, data, steps: int,
                         workers: int) -> tuple[float, float]:
    """(best, mean) per-step seconds of the mini-batch training step.

    Mirrors the trainer's ``propagation="async"`` loop: batches come from
    the pipeline's pre-drawn stream, per-hop layered blocks are extracted
    inline (``workers=0``) or by a background worker, the training thread
    scores via ``block_batch_scores`` and steps Adam. The timed region
    includes the ``next(pipeline)`` call — inline extraction, or the
    blocking wait for the prefetched block, is real per-step cost.
    """
    from repro.nn.optim import Adam

    optimizer = Adam(model.parameters(), lr=1e-3)
    model.train()
    with _block_pipeline(model, data, steps, workers) as pipeline:
        def one_step():
            prepared = next(pipeline)
            loss = _block_loss(model, prepared)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            model.on_step_end()

        return _time_steps(one_step, steps)


def _measure_extract(model, data, rounds: int) -> float:
    """Best-of seconds of one inline ``extract_block`` (one fixed batch)."""
    batch = _batch_drawer(data)(np.random.default_rng(0))
    rng = np.random.default_rng(0)
    return best_time(lambda: model.extract_block(
        batch.users, batch.pos_items, batch.neg_items, fanout=FANOUT, rng=rng),
        rounds)


def measure_scale(name: str, spec: dict) -> dict:
    from repro.core import GNMR, GNMRConfig

    data = _random_graph_dataset(spec["num_users"], spec["num_items"],
                                 spec["edges_per_user"])
    row = {
        "num_users": spec["num_users"],
        "num_items": spec["num_items"],
        "interactions": data.graph().interaction_count(),
        "measure_steps": spec["steps"],
    }
    model = GNMR(data, GNMRConfig(pretrain=False, seed=0, num_layers=2,
                                  dtype="float32"))
    def mode_row(best: float, mean: float) -> dict:
        # step_ms stays best-of (noise-robust, baseline-comparable for the
        # mini-batch-vs-full gate); steps_per_sec reports the SUSTAINABLE
        # rate from the mean — a best-of rate would claim throughput a
        # mode only hits on its luckiest step
        return {
            "step_ms": best * 1e3,
            "mean_step_ms": mean * 1e3,
            "steps_per_sec": 1.0 / mean,
        }

    steps = spec["steps"]
    row["full"] = mode_row(*_measure_full_steps(model, data, steps))
    for workers in (0, 1):
        row[f"async_w{workers}"] = mode_row(
            *_measure_block_steps(model, data, steps, workers))
    row["extract_ms"] = _measure_extract(model, data, steps) * 1e3
    row["speedup_sampled"] = (row["full"]["step_ms"]
                              / row["async_w0"]["step_ms"])
    # compares MEANS: every mode pays its amortized extraction cost,
    # nothing hides between best-of windows
    row["prefetch_gain"] = (row["async_w0"]["mean_step_ms"]
                            / row["async_w1"]["mean_step_ms"])
    return row


def measure() -> dict:
    payload = {
        "workload": {
            "model": "GNMR",
            "num_layers": 2,
            "batch_users": BATCH_USERS,
            "per_user": PER_USER,
            "fanout": FANOUT,
            "dtype": "float32",
        },
        "scales": {name: measure_scale(name, spec)
                   for name, spec in SCALES.items()},
    }
    payload["speedup_sampled_large"] = payload["scales"]["large"]["speedup_sampled"]
    payload["extract_ms"] = payload["scales"]["large"]["extract_ms"]
    return payload


def gate(payload: dict, gate) -> None:
    speedup = payload["speedup_sampled_large"]
    gate.check("sampled-training-speedup", speedup >= SAMPLED_MIN,
               f"{speedup:.2f}x over the full-graph step "
               f"(floor {SAMPLED_MIN}x)")


if __name__ == "__main__":
    sys.exit(main("training", measure, gate))
