"""Multi-process parameter server: shard-owner processes + trainer bridge.

Topology (K shards over W ≤ K owner processes, round-robin)::

    trainer process                      owner process w
    ───────────────                      ───────────────
    extraction + forward/backward        ShmRing.recv → codec.decode
    clip → codec.encode → ring.send  ──▶ ShardOwner.apply:
    local step (unsharded params)          optimizer.step() on owned shards
    throttle on applied clock        ◀──   applied[w] = step; ack.release()

Parameter tables live in :class:`~repro.dist.transport.SharedBlock`
segments: the trainer's ``Parameter.data`` *is* the shared view, so the
forward pass always reads owner-updated rows with zero copies ("parameter
pull" is a memory read). Gradients cross per-worker SPSC rings as
length-prefixed :mod:`repro.dist.codec` frames.

Synchronization is a bounded-staleness window over per-worker applied-step
clocks: before forward for step ``t`` the trainer waits until every owner
has applied step ``t - 1 - staleness``. ``staleness=0`` is the synchronous
mode — every push is applied before the next forward, which makes
cross-process training bit-identical to in-process ``shards=K`` training
(same loss trace, same final parameters; the tests/shard parity suite is
the oracle). ``staleness ≥ 1`` is the async stale-push mode: the trainer
runs ahead while owners apply concurrently, trading determinism for
throughput.

Each owner builds its optimizer over exactly the parameters it owns.
Optimizer state in this codebase is strictly per-parameter (clocks,
moments, row counters), so partitioning the parameters across processes
partitions the state with no seam: an owner calling ``step()`` on its flat
parameter list evolves each parameter bit-identically to the in-process
grouped optimizer's ``step()``.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro.dist.codec import (
    KIND_PUSH,
    KIND_STATE,
    KIND_STOP,
    decode,
    encode_push,
    encode_state_request,
    encode_stop,
    frame,
)
from repro.dist.transport import SharedBlock, ShmRing, TransportError
from repro.nn.module import Parameter
from repro.nn.optim import SGD, Adam

TRANSPORTS = ("shm", "inline")


def _make_optimizer(kind: str, params, lr: float):
    """The same optimizer the trainer builds — hyperparameters and all."""
    if kind == "sgd":
        return SGD(params, lr=lr)
    if kind == "adam":
        return Adam(params, lr=lr)
    raise ValueError(f"unknown optimizer {kind!r} (use 'adam' or 'sgd')")


class ShardOwner:
    """Applies decoded push frames to the shard parameters it owns.

    Process-free by design: the worker entrypoint (:func:`_owner_main`)
    drives it from a transport channel, and tests drive it directly with
    in-memory frames — the apply path is identical either way.
    """

    def __init__(self, params: list, optimizer: str = "adam",
                 lr: float = 1e-3):
        if not params:
            raise ValueError("shard owner needs at least one parameter")
        self.params = list(params)
        self.optimizer = _make_optimizer(optimizer, self.params, lr)
        self.applied = -1

    def apply(self, step: int, lr: float, grads: list) -> int:
        """One optimizer step at the trainer's recorded learning rate."""
        if len(grads) != len(self.params):
            raise TransportError(
                f"push frame carries {len(grads)} gradients for "
                f"{len(self.params)} owned parameters")
        if step != self.applied + 1:
            # the trainer numbers pushes densely, so any gap or repeat
            # means the transport dropped or replayed a frame — refuse to
            # step rather than silently diverge from the trainer's clock
            raise TransportError(
                f"out-of-sequence push: step {step} after applied "
                f"{self.applied} (a frame was dropped or duplicated)")
        self.optimizer.lr = lr
        for p, g in zip(self.params, grads):
            p.grad = g
        self.optimizer.step()
        for p in self.params:
            p.grad = None
        self.applied = step
        return step

    def apply_frame(self, body: bytes) -> tuple[int, int]:
        """Decode + apply one frame body → ``(step, kind)``.

        PUSH frames step the optimizer and return the applied step; STOP
        and STATE frames leave parameters untouched and return the last
        applied step (the caller dispatches on the kind: STOP exits the
        loop, STATE replies with :meth:`state_dict`).
        """
        kind, step, lr, grads = decode(body)
        if kind != KIND_PUSH:
            return self.applied, kind
        return self.apply(step, lr, grads), KIND_PUSH

    def state_dict(self) -> list[dict]:
        """Per-parameter optimizer state, in owned-parameter order."""
        return self.optimizer.state_dict()

    def load_state(self, states: list[dict]) -> None:
        """Restore optimizer state saved by a previous run's pull."""
        self.optimizer.load_state_dict(states)


def _owner_main(worker_id, optimizer, lr, block_handles, ring_handle,
                clock_handle, ack, state_conn=None,
                initial_state=None):  # pragma: no cover - subprocess body
    """Owner process entrypoint (runs in the worker, never the trainer)."""
    blocks = [SharedBlock.attach(h) for h in block_handles]
    chan = ShmRing.attach(ring_handle)
    clock_block = SharedBlock.attach(clock_handle)
    params = []
    for block in blocks:
        p = Parameter(block.array, dtype=block.array.dtype)
        p.data = block.array  # guarantee the shm view, never a copy
        params.append(p)
    owner = ShardOwner(params, optimizer=optimizer, lr=lr)
    if initial_state is not None:
        owner.load_state(initial_state)
    try:
        running = True
        while running:
            body = chan.recv(timeout=1.0)
            if body is None:
                continue  # idle tick; daemon flag handles a dead trainer
            step, kind = owner.apply_frame(body)
            if kind == KIND_PUSH:
                clock_block.array[worker_id] = step
                ack.release()
            elif kind == KIND_STATE:
                state_conn.send(owner.state_dict())
            else:
                running = False
    finally:
        chan.close()
        clock_block.close()
        for block in blocks:
            block.close()


class DistParameterServer:
    """Trainer-side bridge to the shard-owner worker pool.

    Parameters
    ----------
    shard_groups:
        Shard-labeled parameter groups (the non-``None`` entries of
        :func:`repro.nn.optim.shard_param_groups`), in ascending shard
        order. The bridge repoints each parameter's ``.data`` into shared
        memory for its lifetime; :meth:`close` copies the final values
        back into private arrays.
    optimizer, lr:
        What each owner builds over its shards — must match the trainer's
        configuration for the parity contract to hold.
    workers:
        Owner process count (default: one per shard, capped at the shard
        count). Shards are assigned round-robin.
    staleness:
        Bounded-staleness window: :meth:`throttle` lets the trainer lead
        the slowest owner by at most this many steps. ``0`` = synchronous.
    transport:
        ``"shm"`` (shared-memory rings, default) or ``"inline"`` (owners
        run inside the trainer process through the full
        encode→decode→apply path — no concurrency, used by tests and as a
        no-subprocess fallback).
    """

    def __init__(self, shard_groups: list, *, optimizer: str = "adam",
                 lr: float = 1e-3, workers: int | None = None,
                 staleness: int = 0, transport: str = "shm",
                 ring_capacity: int = 1 << 22, start_method: str | None = None,
                 timeout: float = 120.0, initial_state: list | None = None):
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r} "
                             f"(use one of {TRANSPORTS})")
        if staleness < 0:
            raise ValueError("staleness must be >= 0")
        groups = [g for g in shard_groups if g.get("shard") is not None]
        if not groups:
            raise ValueError("DistParameterServer needs shard-labeled "
                             "parameter groups (a model built with shards)")
        num_shards = len(groups)
        self.num_shards = num_shards
        self.num_workers = max(1, min(workers or num_shards, num_shards))
        self.staleness = int(staleness)
        self.transport = transport
        self.lr = float(lr)  # scheduler hook: ExponentialDecay mutates .lr
        self._optimizer_kind = optimizer
        self._timeout = timeout
        self._pushed = 0
        self._closed = False
        #: owned parameters in flat group order — the order
        #: :meth:`pull_state` reports and ``initial_state`` expects
        self.flat_params: list = [p for g in groups for p in g["params"]]
        # round-robin shard → worker assignment, shard order preserved
        self._owned_params: list[list] = [
            [p for g in groups[w::self.num_workers] for p in g["params"]]
            for w in range(self.num_workers)]
        if initial_state is not None:
            initial_state = list(initial_state)
            if len(initial_state) != len(self.flat_params):
                raise ValueError(
                    f"initial_state covers {len(initial_state)} parameters, "
                    f"bridge owns {len(self.flat_params)}")
            by_id = {id(p): s for p, s in zip(self.flat_params, initial_state)}
            self._initial_state = [[by_id[id(p)] for p in params]
                                   for params in self._owned_params]
        else:
            self._initial_state = None
        ctx = (multiprocessing.get_context(start_method)
               if start_method or transport != "inline"
               else multiprocessing)
        if transport == "inline":
            self._init_inline()
        else:
            self._init_processes(ctx, ring_capacity)

    # -- construction --------------------------------------------------
    def _init_inline(self) -> None:
        self._owners = [ShardOwner(params, optimizer=self._optimizer_kind,
                                   lr=self.lr)
                        for params in self._owned_params]
        if self._initial_state is not None:
            for owner, states in zip(self._owners, self._initial_state):
                owner.load_state(states)
        self._blocks: list = []
        self._procs: list = []

    def _init_processes(self, ctx, ring_capacity: int) -> None:
        self._owners = None
        self._blocks = []
        self._param_blocks: list[list] = []
        for params in self._owned_params:
            blocks = []
            for p in params:
                block = SharedBlock.create(np.asarray(p.data))
                p.data = block.array  # trainer reads shm from here on
                blocks.append(block)
                self._blocks.append(block)
            self._param_blocks.append(blocks)
        self._clock = SharedBlock.create(
            np.full(self.num_workers, -1, dtype=np.int64))
        self._acks = [ctx.Semaphore(0) for _ in range(self.num_workers)]
        self._channels = []
        self._state_conns = []
        self._procs = []
        for w, blocks in enumerate(self._param_blocks):
            ring = ShmRing.create(ctx, capacity=ring_capacity)
            self._channels.append(ring)
            # control plane for state pulls: tiny, rare, and pickled — the
            # struct codec stays the data plane for every gradient frame
            state_recv, state_send = ctx.Pipe(duplex=False)
            self._state_conns.append(state_recv)
            initial = (None if self._initial_state is None
                       else self._initial_state[w])
            proc = ctx.Process(
                target=_owner_main,
                args=(w, self._optimizer_kind, self.lr,
                      [b.handle for b in blocks], ring.handle,
                      self._clock.handle, self._acks[w], state_send,
                      initial),
                daemon=True, name=f"shard-owner-{w}")
            proc.start()
            self._procs.append(proc)
            state_send.close()  # the child keeps its end

    # -- the step protocol ---------------------------------------------
    def push(self, lr: float | None = None) -> int:
        """Ship this step's shard gradients; clears them trainer-side.

        Must be called after ``backward`` (and clipping): reads each owned
        parameter's ``.grad`` — row-sparse, dense, or ``None`` — and sends
        one frame per worker. Returns the step index pushed.
        """
        if self._closed:
            raise TransportError("parameter server is closed")
        step = self._pushed
        lr = self.lr if lr is None else float(lr)
        for w, params in enumerate(self._owned_params):
            body = encode_push(step, lr, [p.grad for p in params])
            if self._owners is not None:  # inline
                self._owners[w].apply_frame(body)
            else:
                self._channels[w].send(frame(body), timeout=self._timeout,
                                       alive=self._procs[w].is_alive)
            for p in params:
                p.grad = None
        self._pushed = step + 1
        return step

    def wait_applied(self, step: int) -> None:
        """Block until every owner has applied ``step`` (no-op if < 0)."""
        if step < 0 or self._closed:
            return
        if self._owners is not None:  # inline applies synchronously
            return
        clock = self._clock.array
        for w in range((self.num_workers)):
            deadline = time.monotonic() + self._timeout
            while clock[w] < step:
                if not self._procs[w].is_alive():
                    raise TransportError(
                        f"shard owner {w} exited with code "
                        f"{self._procs[w].exitcode} before applying "
                        f"step {step}")
                if not self._acks[w].acquire(timeout=0.05) \
                        and time.monotonic() > deadline:
                    raise TransportError(
                        f"timed out waiting for shard owner {w} to apply "
                        f"step {step} (applied so far: {int(clock[w])})")
            while self._acks[w].acquire(block=False):
                pass  # drain stale tokens; the clock is the truth

    def throttle(self) -> None:
        """Enforce the staleness window before the next forward pass.

        With window ``s``, forward for step ``t`` may only run once step
        ``t - 1 - s`` is applied everywhere; ``s=0`` therefore barriers on
        *every* push — the synchronous, bit-parity mode.
        """
        self.wait_applied(self._pushed - 1 - self.staleness)

    def drain(self) -> None:
        """Wait until every in-flight push is applied (eval/checkpoint)."""
        self.wait_applied(self._pushed - 1)

    def pull_state(self) -> list[dict]:
        """Optimizer state per owned parameter, in ``flat_params`` order.

        Drains first so the state reflects every push made so far, then
        asks each owner process for its optimizer's
        :meth:`~repro.nn.optim.Optimizer.state_dict` over the control
        pipe. Feeding the result back as ``initial_state`` (same parameter
        order) makes a fresh bridge continue bit-exactly.
        """
        if self._closed:
            raise TransportError("parameter server is closed")
        self.drain()
        if self._owners is not None:  # inline: the state is right here
            per_worker = [o.state_dict() for o in self._owners]
        else:
            for w, chan in enumerate(self._channels):
                chan.send(frame(encode_state_request()), timeout=self._timeout,
                          alive=self._procs[w].is_alive)
            per_worker = []
            for w, conn in enumerate(self._state_conns):
                if not conn.poll(self._timeout):
                    raise TransportError(
                        f"timed out waiting for shard owner {w}'s state")
                per_worker.append(conn.recv())
        by_id = {}
        for params, states in zip(self._owned_params, per_worker):
            if len(states) != len(params):  # pragma: no cover - defensive
                raise TransportError(
                    f"owner returned {len(states)} parameter states for "
                    f"{len(params)} owned parameters")
            for p, s in zip(params, states):
                by_id[id(p)] = s
        return [by_id[id(p)] for p in self.flat_params]

    # -- teardown ------------------------------------------------------
    def applied_steps(self) -> list[int]:
        """Per-worker applied clock (diagnostics + staleness metrics)."""
        if self._owners is not None:
            return [o.applied for o in self._owners]
        return [int(s) for s in self._clock.array]

    def close(self) -> None:
        """Drain, stop the owners, and restore private parameter arrays.

        Idempotent. After close the model's parameters hold the final
        trained values in ordinary process-private memory, so checkpoint
        save (``state_dict`` → ``ShardSpec.assemble`` on the serving path)
        sees fully-applied tables.
        """
        if self._closed:
            return
        try:
            if self._procs:
                self.drain()
        finally:
            self._closed = True
            if self._owners is not None:
                return
            for w, chan in enumerate(self._channels):
                try:
                    chan.send(frame(encode_stop()), timeout=5.0,
                              alive=self._procs[w].is_alive)
                except TransportError:  # pragma: no cover - dead worker
                    pass
            for proc in self._procs:
                proc.join(timeout=10.0)
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
                    proc.join(timeout=5.0)
            # copy the trained tables out of shared memory before the
            # segments are unlinked, repointing parameters at private data
            for params, blocks in zip(self._owned_params, self._param_blocks):
                for p, block in zip(params, blocks):
                    p.data = np.array(block.array)
            for chan in self._channels:
                chan.close()
            for conn in self._state_conns:
                conn.close()
            for block in self._blocks:
                block.close()
            self._clock.close()

    def __enter__(self) -> "DistParameterServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def default_dist_workers() -> int:
    """A sensible owner count for this machine: cores minus the trainer."""
    return max(1, (os.cpu_count() or 2) - 1)
