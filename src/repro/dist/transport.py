"""Shared-memory transport primitives for the parameter server.

Two pieces, both picklable-by-handle so they cross both ``fork`` and
``spawn`` start methods:

* :class:`SharedBlock` — a numpy array backed by
  ``multiprocessing.shared_memory``. Parameter tables live in these: the
  trainer's ``Parameter.data`` *is* the shm view, so "parameter pulls"
  are zero-copy reads of memory the owner process updates in place.
* :class:`ShmRing` — a single-producer/single-consumer byte ring over one
  shm segment carrying length-prefixed frames (:func:`repro.dist.codec.frame`).
  The producer writes only the head cursor, the consumer only the tail;
  two semaphores (frames available / frames consumed) provide blocking
  without spinning. This is the gradient push queue: one ring per
  shard-owner worker.

Cursors are 8-byte aligned single-word stores; CPython writes them with
one memcpy, which is atomic on every platform this project targets (the
producer and consumer each own one cursor exclusively, so there is no
read-modify-write race by construction).
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np


class TransportError(RuntimeError):
    """A channel operation failed (timeout, oversized frame, torn down)."""


@dataclass(frozen=True)
class BlockHandle:
    """Picklable description of a :class:`SharedBlock`."""

    name: str
    shape: tuple
    dtype: str


class SharedBlock:
    """A shared-memory-backed ndarray with create/attach lifecycle."""

    def __init__(self, shm: shared_memory.SharedMemory, handle: BlockHandle,
                 owner: bool):
        self._shm = shm
        self.handle = handle
        self._owner = owner
        self.array = np.ndarray(handle.shape, dtype=np.dtype(handle.dtype),
                                buffer=shm.buf)

    @classmethod
    def create(cls, array: np.ndarray, name_hint: str = "blk") -> "SharedBlock":
        array = np.ascontiguousarray(array)
        shm = shared_memory.SharedMemory(create=True,
                                         size=max(array.nbytes, 1))
        handle = BlockHandle(shm.name, tuple(array.shape), array.dtype.str)
        block = cls(shm, handle, owner=True)
        block.array[...] = array
        return block

    @classmethod
    def attach(cls, handle: BlockHandle) -> "SharedBlock":
        shm = shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle, owner=False)

    def close(self) -> None:
        """Drop this process's mapping (both sides); unlink if creator."""
        self.array = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass


_CURSORS = struct.Struct("<QQ")  # head (producer), tail (consumer)


@dataclass(frozen=True)
class RingHandle:
    """Picklable description of a :class:`ShmRing` (+ its semaphores)."""

    name: str
    capacity: int
    items: object  # multiprocessing.Semaphore proxies pickle fine
    space: object


class ShmRing:
    """SPSC byte ring over shared memory, length-prefixed frames.

    ``capacity`` bounds the bytes in flight — a full ring back-pressures
    the producer (bounded staleness needs a bounded queue). Frames larger
    than the capacity are rejected outright rather than deadlocking.
    """

    def __init__(self, shm: shared_memory.SharedMemory, handle: RingHandle,
                 owner: bool):
        self._shm = shm
        self.handle = handle
        self.capacity = handle.capacity
        self._items = handle.items
        self._space = handle.space
        self._owner = owner
        self._buf = shm.buf

    @classmethod
    def create(cls, ctx, capacity: int = 1 << 22) -> "ShmRing":
        if capacity < 64:
            raise ValueError("ring capacity must be at least 64 bytes")
        shm = shared_memory.SharedMemory(create=True,
                                         size=_CURSORS.size + capacity)
        handle = RingHandle(shm.name, capacity,
                            ctx.Semaphore(0), ctx.Semaphore(0))
        ring = cls(shm, handle, owner=True)
        _CURSORS.pack_into(ring._buf, 0, 0, 0)
        return ring

    @classmethod
    def attach(cls, handle: RingHandle) -> "ShmRing":
        shm = shared_memory.SharedMemory(name=handle.name)
        return cls(shm, handle, owner=False)

    # -- cursor helpers (monotonic counters; offsets are mod capacity) --
    def _head(self) -> int:
        return struct.unpack_from("<Q", self._buf, 0)[0]

    def _tail(self) -> int:
        return struct.unpack_from("<Q", self._buf, 8)[0]

    def _copy_in(self, cursor: int, payload: bytes) -> None:
        offset = cursor % self.capacity
        first = min(len(payload), self.capacity - offset)
        base = _CURSORS.size
        self._buf[base + offset:base + offset + first] = payload[:first]
        if first < len(payload):
            self._buf[base:base + len(payload) - first] = payload[first:]

    def _copy_out(self, cursor: int, n: int) -> bytes:
        offset = cursor % self.capacity
        first = min(n, self.capacity - offset)
        base = _CURSORS.size
        out = bytes(self._buf[base + offset:base + offset + first])
        if first < n:
            out += bytes(self._buf[base:base + (n - first)])
        return out

    # ------------------------------------------------------------------
    def send(self, framed: bytes, timeout: float | None = None,
             alive: "callable | None" = None) -> None:
        """Enqueue one framed payload; blocks while the ring is full.

        ``alive`` is polled while waiting so a dead consumer raises
        instead of hanging forever.
        """
        need = len(framed)
        if need > self.capacity:
            raise TransportError(
                f"frame of {need} bytes exceeds ring capacity "
                f"{self.capacity}; raise ring_capacity")
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.capacity - (self._head() - self._tail()) < need:
            if alive is not None and not alive():
                raise TransportError("ring consumer died while ring was full")
            wait = 0.1 if deadline is None else min(
                0.1, max(0.0, deadline - time.monotonic()))
            if not self._space.acquire(timeout=wait) and deadline is not None \
                    and time.monotonic() >= deadline:
                raise TransportError(
                    f"timed out after {timeout}s waiting for ring space")
        head = self._head()
        self._copy_in(head, framed)
        struct.pack_into("<Q", self._buf, 0, head + need)
        self._items.release()

    def recv(self, timeout: float | None = None) -> bytes | None:
        """Dequeue one frame body (length prefix stripped).

        Returns ``None`` on timeout — the owner loop uses that to
        interleave liveness checks with blocking waits.
        """
        if not self._items.acquire(timeout=timeout):
            return None
        tail = self._tail()
        (length,) = struct.unpack("<I", self._copy_out(tail, 4))
        body = self._copy_out(tail + 4, length)
        struct.pack_into("<Q", self._buf, 8, tail + 4 + length)
        self._space.release()
        return body

    def close(self) -> None:
        self._buf = None
        self._shm.close()
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - double close
                pass
