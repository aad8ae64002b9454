"""Shard-owner and bridge semantics, driven in-process where possible.

``ShardOwner`` is deliberately process-free so the decode→apply path the
worker entrypoint runs can be exercised (and coverage-traced) right here;
a couple of small multi-process tests then prove the same path over real
shm rings and the ``spawn`` start method.
"""

import copy

import numpy as np
import pytest

from repro.dist import DistParameterServer, ShardOwner, TransportError
from repro.dist.codec import KIND_PUSH, KIND_STOP, encode_push, encode_stop
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam
from repro.tensor.rowsparse import RowSparseGrad


def make_params(rng, shapes, dtype=np.float64):
    return [Parameter(rng.standard_normal(s), dtype=dtype) for s in shapes]


def sharded(params):
    """Tag parameter ``k`` as shard ``k``, the way ShardedEmbedding does."""
    for k, p in enumerate(params):
        p.shard = k
    return params


def step_with(server, params, grads):
    """One optimizer-surface step: the trainer's wait, then the push."""
    server.sync()
    for p, g in zip(params, grads):
        p.grad = copy.deepcopy(g)
    server.step()


def random_grads(rng, params, sparse=True):
    grads = []
    for p in params:
        if sparse and p.data.ndim == 2:
            nnz = int(rng.integers(1, p.data.shape[0] + 1))
            idx = rng.choice(p.data.shape[0], size=nnz, replace=False)
            grads.append(RowSparseGrad(
                idx, rng.standard_normal((nnz,) + p.data.shape[1:]),
                p.data.shape[0]))
        else:
            grads.append(rng.standard_normal(p.data.shape))
    return grads


class TestShardOwner:
    @pytest.mark.parametrize("optimizer,opt_cls", [("adam", Adam),
                                                   ("sgd", SGD)])
    def test_apply_matches_in_process_optimizer(self, optimizer, opt_cls):
        rng = np.random.default_rng(0)
        params = make_params(rng, [(6, 3), (4,)])
        reference = [Parameter(np.array(p.data)) for p in params]
        ref_opt = opt_cls(reference, lr=0.05)
        owner = ShardOwner(params, optimizer=optimizer, lr=0.05)
        for step in range(4):
            lr = 0.05 * (0.9 ** step)
            grads = random_grads(rng, reference)
            applied, kind = owner.apply_frame(
                encode_push(step, lr, [copy.deepcopy(g) for g in grads]))
            assert kind == KIND_PUSH and applied == step
            ref_opt.lr = lr
            for p, g in zip(reference, grads):
                p.grad = g
            ref_opt.step()
            for p in reference:
                p.grad = None
        for p, r in zip(params, reference):
            np.testing.assert_array_equal(p.data, r.data)

    def test_none_grads_advance_the_clock(self):
        """A push with no gradients still counts as an applied step."""
        params = make_params(np.random.default_rng(1), [(3, 2)])
        owner = ShardOwner(params, lr=0.1)
        before = np.array(params[0].data)
        step, kind = owner.apply_frame(encode_push(0, 0.1, [None]))
        assert (step, kind) == (0, KIND_PUSH)
        np.testing.assert_array_equal(params[0].data, before)

    def test_stop_frame_ends_the_loop(self):
        owner = ShardOwner(make_params(np.random.default_rng(2), [(2, 2)]))
        step, kind = owner.apply_frame(encode_stop())
        assert kind == KIND_STOP
        assert step == -1  # nothing applied yet

    def test_grad_count_mismatch_raises(self):
        owner = ShardOwner(make_params(np.random.default_rng(3), [(2, 2)]))
        with pytest.raises(TransportError, match="1 owned parameters"):
            owner.apply(0, 0.1, [None, None])

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError, match="at least one parameter"):
            ShardOwner([])

    def test_unknown_optimizer_rejected(self):
        params = make_params(np.random.default_rng(4), [(2, 2)])
        with pytest.raises(ValueError, match="unknown optimizer"):
            ShardOwner(params, optimizer="lbfgs")


class TestBridgeValidation:
    @pytest.mark.parametrize("transport", ["carrier", "pipe"])  # pipe: removed
    def test_unknown_transport(self, transport):
        params = make_params(np.random.default_rng(5), [(2, 2)])
        with pytest.raises(ValueError, match="unknown transport"):
            DistParameterServer(sharded(params), transport=transport)

    def test_negative_staleness(self):
        params = make_params(np.random.default_rng(5), [(2, 2)])
        with DistParameterServer(sharded(params),
                                 transport="inline") as server:
            with pytest.raises(ValueError, match="window"):
                server.sync(window=-1)

    def test_requires_shard_groups(self):
        params = make_params(np.random.default_rng(5), [(2, 2)])
        with pytest.raises(ValueError, match="sharded tables"):
            DistParameterServer(params, transport="inline")

    def test_worker_count_capped_at_shards(self):
        params = make_params(np.random.default_rng(6), [(2, 2)] * 3)
        server = DistParameterServer(sharded(params), workers=10,
                                     transport="inline")
        assert server.num_workers == 3
        server.close()

    def test_round_robin_assignment(self):
        params = make_params(np.random.default_rng(7), [(2, 2)] * 5)
        server = DistParameterServer(sharded(params), workers=2,
                                     transport="inline")
        # shards 0,2,4 → worker 0; shards 1,3 → worker 1
        assert [len(ps) for ps in server._owned_params] == [3, 2]
        assert server._owned_params[0][0] is params[0]
        assert server._owned_params[1][0] is params[1]
        server.close()

    def test_initial_state_must_cover_every_parameter(self):
        params = make_params(np.random.default_rng(7), [(2, 2)] * 2)
        with pytest.raises(ValueError, match="covers 1 parameters"):
            DistParameterServer(sharded(params), transport="inline",
                                initial_state=[{}])


class TestInlineBridge:
    def test_push_matches_in_process_optimizer(self):
        rng = np.random.default_rng(8)
        params = make_params(rng, [(6, 3), (5, 2)])
        reference = [Parameter(np.array(p.data)) for p in params]
        ref_opt = Adam(reference, lr=0.02)
        server = DistParameterServer(sharded(params), lr=0.02,
                                     workers=2, transport="inline")
        for step in range(3):
            grads = random_grads(rng, reference)
            step_with(server, params, grads)  # inline: the wait is trivial
            assert server.applied_steps() == [step, step]
            for p, g in zip(reference, grads):
                p.grad = g
            ref_opt.step()
            for p in reference:
                p.grad = None
        server.sync()
        assert server.applied_steps() == [2, 2]
        for p in params:
            assert p.grad is None  # step clears trainer-side grads
        server.close()
        for p, r in zip(params, reference):
            np.testing.assert_array_equal(p.data, r.data)

    @pytest.mark.parametrize("optimizer,opt_cls", [("adam", Adam),
                                                   ("sgd", SGD)])
    def test_unsharded_parameters_step_in_process(self, optimizer, opt_cls):
        """One parameter list in, one optimizer surface out: the tagged
        tables go to the owners, the rest to an internal optimizer, and
        every parameter moves as under one in-process optimizer — at the
        rate the scheduler set on the bridge, with one state list over all
        of them that a fresh bridge continues from."""
        rng = np.random.default_rng(13)
        dense, *tables = make_params(rng, [(3, 3), (6, 3), (5, 3)])
        params = [tables[0], dense, tables[1]]  # the model's walk order
        sharded(tables)
        reference = [Parameter(np.array(p.data)) for p in params]
        ref_opt = opt_cls(reference, lr=0.05)
        grads = [random_grads(rng, reference) for _ in range(4)]

        def run(server, steps):
            for step_grads in steps:
                step_with(server, params, step_grads)
                server.lr *= 0.5

        server = DistParameterServer(params, optimizer=optimizer, lr=0.05,
                                     transport="inline")
        assert server.parameters == params
        run(server, grads[:2])
        state = server.state_dict()
        assert len(state) == 3
        server.zero_grad()
        server.close()
        resumed = DistParameterServer(params, optimizer=optimizer,
                                      lr=server.lr, transport="inline",
                                      initial_state=state)
        run(resumed, grads[2:])
        final_state = resumed.state_dict()
        resumed.close()
        for step_grads in grads:
            for p, g in zip(reference, step_grads):
                p.grad = g
            ref_opt.step()
            ref_opt.lr *= 0.5
        for p, r in zip(params, reference):
            np.testing.assert_array_equal(p.data, r.data)
        for got, want in zip(final_state, ref_opt.state_dict()):
            assert sorted(got) == sorted(want)
            for slot, value in want.items():
                np.testing.assert_array_equal(got[slot], value)

    def test_push_after_close_raises(self):
        params = make_params(np.random.default_rng(9), [(2, 2)])
        server = DistParameterServer(sharded(params), transport="inline")
        server.close()
        server.close()  # idempotent
        with pytest.raises(TransportError, match="closed"):
            server.step()
        with pytest.raises(TransportError, match="closed"):
            server.state_dict()


class TestProcessBridge:
    """Small but real: subprocess owners over shared-memory rings."""

    def test_sync_parity_with_local_optimizer(self):
        rng = np.random.default_rng(10)
        params = make_params(rng, [(8, 4), (6, 4)])
        reference = [Parameter(np.array(p.data)) for p in params]
        ref_opt = Adam(reference, lr=0.05)
        grads = [random_grads(rng, reference) for _ in range(5)]
        with DistParameterServer(sharded(params), lr=0.05, workers=2,
                                 transport="shm", timeout=60.0) as server:
            for step_grads in grads:
                step_with(server, params, step_grads)
                for p, g in zip(reference, step_grads):
                    p.grad = g
                ref_opt.step()
                for p in reference:
                    p.grad = None
            server.sync()
            assert server.applied_steps() == [4, 4]
        for p, r in zip(params, reference):
            np.testing.assert_array_equal(p.data, r.data)
            assert isinstance(p.data, np.ndarray)  # private again post-close

    def test_spawn_start_method(self):
        """Handles and frames must survive pickling under spawn."""
        rng = np.random.default_rng(11)
        params = make_params(rng, [(4, 2)])
        reference = [Parameter(np.array(p.data)) for p in params]
        ref_opt = Adam(reference, lr=0.1)
        grads = random_grads(rng, reference)
        with DistParameterServer(sharded(params), lr=0.1,
                                 transport="shm", start_method="spawn",
                                 timeout=120.0) as server:
            step_with(server, params, grads)
            server.sync()
        for p, g in zip(reference, grads):
            p.grad = g
        ref_opt.step()
        np.testing.assert_array_equal(params[0].data, reference[0].data)

    def test_async_window_lets_trainer_lead(self):
        """sync(window=s) admits pushes up to s ahead of the slowest owner."""
        rng = np.random.default_rng(12)
        params = make_params(rng, [(4, 2)])
        with DistParameterServer(sharded(params), lr=0.01,
                                 transport="shm", timeout=60.0) as server:
            for _ in range(6):
                server.sync(window=3)
                params[0].grad = random_grads(rng, params)[0]
                server.step()
            server.sync()
            assert server.applied_steps() == [5]

    def test_dead_owner_raises_and_close_restores_private_arrays(self):
        rng = np.random.default_rng(14)
        params = make_params(rng, [(4, 2)])
        before = np.array(params[0].data)
        server = DistParameterServer(sharded(params), transport="shm",
                                     timeout=30.0)
        server._procs[0].terminate()
        server._procs[0].join(timeout=10.0)
        params[0].grad = random_grads(rng, params)[0]
        with pytest.raises(TransportError, match="exited with code"):
            server.step()  # the ring still has room: the push itself lands
            server.sync()
        with pytest.raises(TransportError, match="exited with code"):
            server.close()
        # no update was applied; the table is private memory again
        np.testing.assert_array_equal(params[0].data, before)
        assert params[0].data.base is None

    def test_unanswered_push_times_out(self):
        """An owner that is alive but never applies: sync gives up after
        ``timeout`` and names the owner and the step it was waiting for."""
        import os
        import signal

        rng = np.random.default_rng(15)
        params = make_params(rng, [(4, 2)])
        before = np.array(params[0].data)
        server = DistParameterServer(sharded(params), transport="shm",
                                     timeout=0.3)
        os.kill(server._procs[0].pid, signal.SIGSTOP)
        try:
            params[0].grad = random_grads(rng, params)[0]
            server.step()
            with pytest.raises(TransportError,
                               match="timed out waiting for shard owner 0"):
                server.sync()
        finally:
            os.kill(server._procs[0].pid, signal.SIGCONT)
            server._timeout = 60.0  # the resumed owner now gets its time
            server.close()
        # the owner caught up once resumed: close() drained the push
        assert not np.array_equal(params[0].data, before)
