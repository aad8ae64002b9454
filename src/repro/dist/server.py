"""Multi-process parameter server: shard-owner processes + trainer bridge.

The bridge, :class:`DistParameterServer`, *is* the trainer's optimizer: it
takes the model's parameters, hands the shard-tagged ones to the owner
pool and steps the untagged rest in-process, behind the
:class:`~repro.nn.optim.Optimizer` surface (``lr``, ``zero_grad``,
``step``, ``sync``, ``state_dict``, ``close``).

Topology (K shards over W ≤ K owner processes, round-robin)::

    trainer process                      owner process w
    ───────────────                      ───────────────
    extraction + forward/backward        ShmRing.recv → codec.decode
    step(): codec.encode → ring.send ──▶ ShardOwner.apply:
            local step (unsharded)         optimizer.step() on owned shards
    sync(window) on applied clock    ◀──   applied[w] = step; ack.release()

Parameter tables live in :class:`~repro.dist.transport.SharedBlock`
segments: the trainer's ``Parameter.data`` *is* the shared view, so the
forward pass always reads owner-updated rows with zero copies ("parameter
pull" is a memory read). Gradients cross per-worker SPSC rings as
length-prefixed :mod:`repro.dist.codec` frames.

Synchronization is a bounded-staleness window over per-worker applied-step
clocks: before forward for step ``t`` the trainer calls ``sync(window)``,
which waits until every owner has applied step ``t - 1 - window``.
``window=0`` is the synchronous mode — every push is applied before the
next forward, which makes cross-process training bit-identical to
in-process ``shards=K`` training (same loss trace, same final parameters;
the tests/shard parity suite is the oracle). ``window ≥ 1`` is the async
stale-push mode: the trainer runs ahead while owners apply concurrently,
trading determinism for throughput.

Each owner builds its optimizer over exactly the parameters it owns.
Optimizer state in this codebase is strictly per-parameter (clocks,
moments, row counters), so partitioning the parameters across processes
partitions the state with no seam: an owner calling ``step()`` on its
parameter list evolves each parameter bit-identically to one in-process
optimizer stepping the whole model.
"""

from __future__ import annotations

import multiprocessing
import time

import numpy as np

from repro.dist.codec import (
    KIND_PUSH,
    KIND_STATE,
    decode,
    encode_push,
    encode_state_request,
    encode_stop,
    frame,
)
from repro.dist.transport import SharedBlock, ShmRing, TransportError
from repro.nn.module import Parameter
from repro.nn.optim import make_optimizer, shard_param_groups

TRANSPORTS = ("shm", "inline")


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
        self.optimizer = make_optimizer(optimizer, self.params, lr)
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
    """The optimizer whose shard steps are applied by owner processes.

    Parameters
    ----------
    parameters:
        The model's parameters (``model.parameters()``). The ones tagged
        with a ``.shard`` id (:class:`~repro.shard.ShardedEmbedding` sets
        it) go to the owner pool: the bridge repoints each one's ``.data``
        into shared memory for its lifetime and :meth:`close` copies the
        final values back into private arrays. The untagged rest step on
        an in-process optimizer of the same kind. This order is the order
        of :meth:`state_dict` and ``initial_state``.
    optimizer, lr:
        What each owner (and the in-process remainder) builds — ``lr`` is
        mutable (schedulers set it) and every push carries the current
        rate.
    workers:
        Owner process count (default: one per shard, capped at the shard
        count). Shards are assigned round-robin.
    transport:
        ``"shm"`` (shared-memory rings, default) or ``"inline"`` (owners
        run inside the trainer process through the full
        encode→decode→apply path — no concurrency, used by tests and as a
        no-subprocess fallback).
    initial_state:
        Per-parameter optimizer state, as a previous run's
        :meth:`state_dict` returned it; owners receive their share at
        spawn, so a fresh bridge continues bit-exactly.
    """

    def __init__(self, parameters, *, optimizer: str = "adam",
                 lr: float = 1e-3, workers: int | None = None,
                 transport: str = "shm", ring_capacity: int = 1 << 22,
                 start_method: str | None = None, timeout: float = 120.0,
                 initial_state: list | None = None):
        if transport not in TRANSPORTS:
            raise ValueError(f"unknown transport {transport!r} "
                             f"(use one of {TRANSPORTS})")
        self.parameters = list(parameters)
        groups = shard_param_groups(self.parameters)
        local = [p for g in groups if g["shard"] is None for p in g["params"]]
        groups = [g for g in groups if g["shard"] is not None]
        if not groups:
            raise ValueError(
                "dist training needs a model built with sharded tables "
                "(e.g. GNMRConfig(shards=K)) — no shard-labeled "
                "parameters found")
        num_shards = len(groups)
        self.num_shards = num_shards
        self.num_workers = max(1, min(workers or num_shards, num_shards))
        self.transport = transport
        self.lr = float(lr)  # scheduler hook: ExponentialDecay mutates .lr
        self._optimizer_kind = optimizer
        self._timeout = timeout
        self._pushed = 0
        self._closed = False
        # round-robin shard → worker assignment, shard order preserved
        self._owned_params: list[list] = [
            [p for g in groups[w::self.num_workers] for p in g["params"]]
            for w in range(self.num_workers)]
        self._local = make_optimizer(optimizer, local, lr) if local else None
        self._initial_state = None
        if initial_state is not None:
            initial_state = list(initial_state)
            if len(initial_state) != len(self.parameters):
                raise ValueError(
                    f"initial_state covers {len(initial_state)} parameters, "
                    f"bridge holds {len(self.parameters)}")
            by_id = {id(p): s for p, s in zip(self.parameters, initial_state)}
            self._initial_state = [[by_id[id(p)] for p in params]
                                   for params in self._owned_params]
            if self._local is not None:
                self._local.load_state_dict([by_id[id(p)] for p in local])
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

    # -- the optimizer surface -----------------------------------------
    def zero_grad(self) -> None:
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Ship this step's shard gradients at the current rate, then step
        the unsharded parameters here.

        Must be called after ``backward`` (and clipping): reads each owned
        parameter's ``.grad`` — row-sparse, dense, or ``None`` — sends one
        frame per worker and clears the gradients trainer-side.
        """
        if self._closed:
            raise TransportError("parameter server is closed")
        for w, params in enumerate(self._owned_params):
            body = encode_push(self._pushed, self.lr,
                               [p.grad for p in params])
            if self._owners is not None:  # inline
                self._owners[w].apply_frame(body)
            else:
                self._channels[w].send(frame(body), timeout=self._timeout,
                                       alive=self._procs[w].is_alive)
            for p in params:
                p.grad = None
        self._pushed += 1
        if self._local is not None:
            self._local.lr = self.lr
            self._local.step()

    def sync(self, window: int = 0) -> None:
        """Block until all but the newest ``window`` pushes are applied.

        Called before forward, this is the staleness window: forward for
        step ``t`` may only read tables the owners have caught up to
        within ``window`` steps, so ``window=0`` barriers on *every* push —
        the synchronous, bit-parity mode. With no argument it drains every
        in-flight push (eval, checkpoint, end of run).
        """
        if window < 0:
            raise ValueError("sync window must be >= 0")
        step = self._pushed - 1 - window
        # nothing to wait for: inline owners apply synchronously
        if step < 0 or self._closed or self._owners is not None:
            return
        clock = self._clock.array
        for w in range(self.num_workers):
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

    def state_dict(self) -> list[dict]:
        """Optimizer state per parameter, in ``parameters`` order.

        Drains first so the state reflects every push made so far, then
        asks each owner process for its optimizer's
        :meth:`~repro.nn.optim.Optimizer.state_dict` over the control
        pipe. Feeding the result back as ``initial_state`` makes a fresh
        bridge continue bit-exactly.
        """
        if self._closed:
            raise TransportError("parameter server is closed")
        self.sync()
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
        if self._local is not None:
            by_id.update((id(p), s) for p, s in zip(
                self._local.parameters, self._local.state_dict()))
        return [by_id[id(p)] for p in self.parameters]

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
                self.sync()
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
