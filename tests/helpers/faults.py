"""Fault-injection substrate for the dist transport and the trainer.

Three deliberately tiny tools:

* :class:`QueueChannel` is the plain in-process carrier: a queue of frame
  bodies behind the transport's ``send``/``recv``/``close`` surface.
* :class:`FaultyChannel` wraps any transport channel (``ShmRing`` or a
  :class:`QueueChannel`) and injects the classic network failure modes at
  chosen frame indices — *drop* (the frame never arrives), *truncate* (the
  frame arrives short, with intact transport framing so the corruption
  surfaces at the codec layer, not as a transport error), and *duplicate*
  (the frame arrives twice). The
  strict push-sequence check in ``ShardOwner`` and the bounds-checked
  codec must turn every one of these into a loud error rather than a
  silently wrong table.
* :class:`CrashAtStep` is a ``Trainer`` step hook that raises
  :class:`TrainerKilled` once a chosen global step completes — the
  in-process stand-in for ``kill -9`` mid-epoch, after that step's
  mid-run training-state save has already hit disk.
"""

from __future__ import annotations

import queue

from repro.dist.codec import frame, unframe


class TrainerKilled(RuntimeError):
    """The simulated crash raised by :class:`CrashAtStep`."""


class CrashAtStep:
    """Step hook killing the trainer right after ``at_step`` completes.

    Global steps are 1-based loop-iteration counts, the same clock
    ``TrainConfig.save_every_steps`` runs on — crashing at a multiple of
    the save period simulates dying immediately after a state save.
    """

    def __init__(self, at_step: int):
        self.at_step = int(at_step)

    def __call__(self, trainer, global_step: int) -> None:
        if global_step == self.at_step:
            raise TrainerKilled(f"simulated crash after step {global_step}")


class QueueChannel:
    """In-process channel with ``ShmRing``'s surface: ``send`` takes a
    framed message, ``recv`` returns its body (``None`` on timeout)."""

    def __init__(self):
        self._bodies = queue.SimpleQueue()

    def send(self, framed: bytes, timeout=None, alive=None) -> None:
        self._bodies.put(unframe(framed))

    def recv(self, timeout=None):
        try:
            return self._bodies.get(timeout=timeout)
        except queue.Empty:
            return None

    def close(self) -> None:
        pass


class FaultyChannel:
    """A transport channel that mangles chosen frames on ``send``.

    Parameters
    ----------
    inner:
        The wrapped channel; anything with the ``send(framed, timeout,
        alive)`` / ``recv(timeout)`` / ``close()`` surface.
    drop, truncate, duplicate:
        Iterables of 0-based send indices to mangle. A truncated frame
        keeps a valid transport length prefix over a shortened *body*
        (``truncate_to`` bytes), so it decodes far enough to fail the
        codec's bounds checks — the way a torn shm write actually
        presents.
    """

    def __init__(self, inner, *, drop=(), truncate=(), duplicate=(),
                 truncate_to: int = 8):
        self.inner = inner
        self.drop = frozenset(int(i) for i in drop)
        self.truncate = frozenset(int(i) for i in truncate)
        self.duplicate = frozenset(int(i) for i in duplicate)
        self.truncate_to = int(truncate_to)
        self.sent = 0
        self.faults = {"dropped": 0, "truncated": 0, "duplicated": 0}

    def send(self, framed: bytes, timeout=None, alive=None) -> None:
        index = self.sent
        self.sent += 1
        if index in self.drop:
            self.faults["dropped"] += 1
            return
        if index in self.truncate:
            framed = frame(unframe(framed)[:self.truncate_to])
            self.faults["truncated"] += 1
        self.inner.send(framed, timeout=timeout, alive=alive)
        if index in self.duplicate:
            self.faults["duplicated"] += 1
            self.inner.send(framed, timeout=timeout, alive=alive)

    def recv(self, timeout=None):
        return self.inner.recv(timeout=timeout)

    def close(self) -> None:
        self.inner.close()
