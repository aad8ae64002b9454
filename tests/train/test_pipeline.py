"""Async pipeline: ordering, determinism, equivalence, lifecycle."""

import threading
import time

import pytest
from helpers.faults import CrashAtStep, TrainerKilled

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.models import BiasMF, NGCF
from repro.train import SampledBatchPipeline, TrainConfig, Trainer


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(taobao_like(num_users=60, num_items=150, seed=0))


def _collect(pipe):
    with pipe:
        return [(p.step, p.batch, p.block) for p in pipe]


class TestPipelineMechanics:
    def test_delivers_in_step_order(self):
        def extract(batch, rng):
            time.sleep(rng.random() * 0.002)  # jitter worker completion
            return batch[0]

        out = _collect(SampledBatchPipeline(
            draw_batch=lambda rng: [0],
            extract=extract, total_steps=20, seed=0, workers=3))
        assert [p[0] for p in out] == list(range(20))

    def test_batches_drawn_in_step_order_regardless_of_workers(self):
        def draws(rng):
            return [rng.integers(0, 1000)]

        batches = {w: [p[1][0] for p in _collect(SampledBatchPipeline(
            draws, lambda b, r: None, total_steps=12, seed=7, workers=w))]
            for w in (0, 1, 3)}
        assert batches[0] == batches[1] == batches[3]

    def test_extraction_rng_deterministic_at_fixed_workers(self):
        def extract(batch, rng):
            return float(rng.random())

        runs = [[p[2] for p in _collect(SampledBatchPipeline(
            lambda rng: [0], extract, total_steps=10, seed=3, workers=2))]
            for _ in range(2)]
        assert runs[0] == runs[1]

    def test_inline_matches_one_worker_streams(self):
        def extract(batch, rng):
            return float(rng.random())

        def run(workers):
            return [p[2] for p in _collect(SampledBatchPipeline(
                lambda rng: [0], extract, total_steps=8, seed=5,
                workers=workers))]

        assert run(0) == run(1)

    def test_extraction_streams_invariant_to_worker_count(self):
        """Per-step rng split: the trace is a property of (seed, step),
        never of how many workers happened to execute it."""
        def extract(batch, rng):
            return float(rng.random())

        def run(workers):
            return [p[2] for p in _collect(SampledBatchPipeline(
                lambda rng: [0], extract, total_steps=12, seed=5,
                workers=workers))]

        reference = run(0)
        for workers in (1, 2, 3):
            assert run(workers) == reference, f"workers={workers} diverged"

    def test_empty_batches_skip_extraction(self):
        calls = []

        def extract(batch, rng):
            calls.append(batch)
            return batch

        out = _collect(SampledBatchPipeline(
            lambda rng: [], extract, total_steps=4, seed=0, workers=1))
        assert calls == []
        assert all(p[2] is None for p in out)

    def test_worker_exception_reaches_consumer(self):
        def extract(batch, rng):
            raise RuntimeError("boom")

        pipe = SampledBatchPipeline(lambda rng: [0], extract,
                                    total_steps=3, seed=0, workers=1)
        with pytest.raises(RuntimeError, match="boom"):
            next(pipe)

    def test_early_close_joins_workers(self):
        pipe = SampledBatchPipeline(lambda rng: [0],
                                    lambda b, r: time.sleep(0.001),
                                    total_steps=1000, seed=0, workers=2)
        next(pipe)
        pipe.close()
        assert all(not t.is_alive() for t in pipe._threads)
        with pytest.raises(RuntimeError):
            next(pipe)

    def test_close_is_idempotent(self):
        pipe = SampledBatchPipeline(lambda rng: [0], lambda b, r: None,
                                    total_steps=2, seed=0, workers=1)
        pipe.close()
        pipe.close()

    def test_buffer_depth_bounds_prefetch(self):
        produced = []
        lock = threading.Lock()

        def extract(batch, rng):
            with lock:
                produced.append(batch[0])
            return batch[0]

        counter = iter(range(100))
        pipe = SampledBatchPipeline(lambda rng: [next(counter)], extract,
                                    total_steps=50, seed=0, workers=1,
                                    depth=2)
        next(pipe)
        time.sleep(0.1)  # give the worker time to run ahead as far as allowed
        with lock:
            ahead = len(produced)
        pipe.close()
        # depth=2 double-buffering: ≤ depth queued + depth done + 1 in flight
        assert ahead <= 2 * 2 + 1

    def test_validation(self):
        with pytest.raises(ValueError):
            SampledBatchPipeline(lambda r: [], lambda b, r: None, -1)
        with pytest.raises(ValueError):
            SampledBatchPipeline(lambda r: [], lambda b, r: None, 1, workers=-1)
        with pytest.raises(ValueError):
            SampledBatchPipeline(lambda r: [], lambda b, r: None, 1, depth=0)


class TestAsyncTraining:
    def _losses(self, tiny_split, model_fn, workers, epochs=3):
        model = model_fn()
        config = TrainConfig(epochs=epochs, steps_per_epoch=4, batch_users=8,
                             per_user=2, propagation="async", fanout=(6, 4),
                             workers=workers, seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        return history.series("loss")

    def test_async_matches_sync_trajectory_at_one_worker(self, tiny_split):
        # the satellite guarantee: workers=1 (background thread) replays
        # the exact rng streams of workers=0 (inline, synchronous)
        def make():
            return GNMR(tiny_split.train,
                        GNMRConfig(pretrain=False, seed=0, num_layers=2))

        sync = self._losses(tiny_split, make, workers=0)
        async_ = self._losses(tiny_split, make, workers=1)
        assert sync == async_

    def test_async_reproducible_at_fixed_worker_count(self, tiny_split):
        def make():
            return GNMR(tiny_split.train,
                        GNMRConfig(pretrain=False, seed=0, num_layers=2))

        assert (self._losses(tiny_split, make, workers=2)
                == self._losses(tiny_split, make, workers=2))

    def test_cross_worker_determinism_golden(self, tiny_split):
        """The ISSUE-5 golden: a short async training trace recorded at
        workers=0 is reproduced BIT-EXACTLY by workers=1 and workers=2.

        Worker count is an execution knob, not a sampling knob: extraction
        rngs are spawned per step, so re-partitioning the steps across
        workers replays identical neighborhoods. Beyond the loss trace,
        the final parameter state must also be bit-identical.
        """
        def make():
            return GNMR(tiny_split.train,
                        GNMRConfig(pretrain=False, seed=0, num_layers=2))

        def trace(workers):
            model = make()
            config = TrainConfig(epochs=2, steps_per_epoch=4, batch_users=8,
                                 per_user=2, propagation="async",
                                 fanout=(6, 4), workers=workers, seed=0)
            losses = Trainer(model, tiny_split.train, config).run().series("loss")
            return losses, model.state_dict()

        golden_losses, golden_state = trace(workers=0)
        for workers in (1, 2):
            losses, state = trace(workers)
            assert losses == golden_losses, (
                f"workers={workers} loss trace diverged from the "
                f"workers=0 golden")
            assert set(state) == set(golden_state)
            for name, value in golden_state.items():
                assert (state[name] == value).all(), (
                    f"workers={workers} parameter {name} diverged")

    def test_async_ngcf_trains(self, tiny_split):
        model = NGCF(tiny_split.train, seed=0, num_layers=1)
        config = TrainConfig(epochs=4, steps_per_epoch=4, batch_users=12,
                             per_user=2, propagation="async", fanout=5,
                             workers=1, seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    def test_async_non_graph_fallback_trains(self, tiny_split):
        model = BiasMF(tiny_split.train.num_users,
                       tiny_split.train.num_items, seed=0)
        config = TrainConfig(epochs=5, steps_per_epoch=4, batch_users=12,
                             per_user=2, propagation="async", workers=1,
                             seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]

    def test_run_stopped_by_a_step_hook_closes_pipeline(self, tiny_split):
        before = threading.active_count()
        model = BiasMF(tiny_split.train.num_users,
                       tiny_split.train.num_items, seed=0)
        config = TrainConfig(epochs=50, steps_per_epoch=2, batch_users=4,
                             per_user=1, propagation="async", workers=2,
                             seed=0)
        with pytest.raises(TrainerKilled):  # the run stops at step 3 of 100
            Trainer(model, tiny_split.train, config,
                    step_hook=CrashAtStep(3)).run()
        deadline = time.time() + 5
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() <= before
