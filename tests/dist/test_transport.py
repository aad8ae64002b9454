"""Transport-layer tests: shared blocks and SPSC rings.

These run producer and consumer in one process (plus threads for the
blocking paths) — the cross-*process* behaviour is covered by the server
and parity suites. Same-process coverage is what lets ``tools/pycov.py``
(which cannot trace subprocesses) see the ring arithmetic.
"""

import threading
import time

import multiprocessing

import numpy as np
import pytest

from repro.dist import SharedBlock, ShmRing, TransportError
from repro.dist.codec import frame


class TestSharedBlock:
    def test_create_attach_roundtrip(self):
        src = np.arange(12, dtype=np.float64).reshape(3, 4)
        block = SharedBlock.create(src)
        try:
            view = SharedBlock.attach(block.handle)
            np.testing.assert_array_equal(view.array, src)
            # writes through either mapping are visible to the other
            view.array[1, 2] = -7.0
            assert block.array[1, 2] == -7.0
            view.close()
        finally:
            block.close()

    def test_handle_describes_layout(self):
        block = SharedBlock.create(np.zeros((2, 5), dtype=np.float32))
        try:
            assert block.handle.shape == (2, 5)
            assert np.dtype(block.handle.dtype) == np.float32
        finally:
            block.close()

    def test_creator_close_unlinks(self):
        block = SharedBlock.create(np.zeros(3))
        handle = block.handle
        block.close()
        with pytest.raises(FileNotFoundError):
            SharedBlock.attach(handle)

    def test_empty_array(self):
        block = SharedBlock.create(np.empty(0))
        try:
            assert block.array.shape == (0,)
        finally:
            block.close()


@pytest.fixture
def ring():
    r = ShmRing.create(multiprocessing, capacity=128)
    yield r
    r.close()


class TestShmRing:
    def test_fifo_roundtrip(self, ring):
        bodies = [b"alpha", b"bee", b"c" * 40]
        for body in bodies:
            ring.send(frame(body))
        assert [ring.recv(timeout=1.0) for _ in bodies] == bodies

    def test_wraparound_preserves_frames(self, ring):
        """Push far more bytes than the capacity; cursors wrap mod 128."""
        for i in range(50):
            body = bytes([i]) * (7 + i % 11)
            ring.send(frame(body), timeout=5.0)
            assert ring.recv(timeout=1.0) == body

    def test_frame_exactly_at_capacity(self, ring):
        body = b"m" * (ring.capacity - 4)  # framed size == capacity
        ring.send(frame(body), timeout=5.0)
        assert ring.recv(timeout=1.0) == body

    def test_oversized_frame_rejected(self, ring):
        with pytest.raises(TransportError, match="exceeds ring capacity"):
            ring.send(frame(b"x" * ring.capacity))

    def test_recv_timeout_returns_none(self, ring):
        assert ring.recv(timeout=0.01) is None

    def test_send_blocks_until_consumer_frees_space(self, ring):
        ring.send(frame(b"f" * 100))  # nearly full
        received = []

        def consume():
            time.sleep(0.05)
            received.append(ring.recv(timeout=1.0))

        t = threading.Thread(target=consume)
        t.start()
        ring.send(frame(b"g" * 100), timeout=5.0)  # must wait for consume
        t.join()
        assert received == [b"f" * 100]
        assert ring.recv(timeout=1.0) == b"g" * 100

    def test_send_to_dead_consumer_raises(self, ring):
        ring.send(frame(b"f" * 100))
        with pytest.raises(TransportError, match="died"):
            ring.send(frame(b"g" * 100), alive=lambda: False)

    def test_send_timeout_on_full_ring(self, ring):
        ring.send(frame(b"f" * 100))
        with pytest.raises(TransportError, match="timed out"):
            ring.send(frame(b"g" * 100), timeout=0.05)

    def test_threaded_stream_keeps_order(self):
        ring = ShmRing.create(multiprocessing, capacity=256)
        try:
            bodies = [bytes([i % 256]) * (5 + i % 90) for i in range(200)]

            def produce():
                for body in bodies:
                    ring.send(frame(body), timeout=10.0)

            t = threading.Thread(target=produce)
            t.start()
            out = [ring.recv(timeout=10.0) for _ in bodies]
            t.join()
            assert out == bodies
        finally:
            ring.close()

    def test_capacity_floor(self):
        with pytest.raises(ValueError, match="at least 64"):
            ShmRing.create(multiprocessing, capacity=16)

    def test_attach_shares_cursors(self):
        ring = ShmRing.create(multiprocessing, capacity=128)
        try:
            peer = ShmRing.attach(ring.handle)
            ring.send(frame(b"cross"))
            assert peer.recv(timeout=1.0) == b"cross"
            peer.close()
        finally:
            ring.close()
