"""Fault injection on the gradient transport: every mangled frame is loud.

The parameter-server's correctness story under faults is *detection*, not
tolerance: the strict push-sequence check in ``ShardOwner`` and the
bounds-checked codec must turn a dropped, duplicated, or truncated frame
into an immediate ``TransportError`` / ``FrameError`` — never a silently
wrong table. These tests drive real frames through a
:class:`helpers.faults.FaultyChannel` over an in-process
:class:`helpers.faults.QueueChannel` and pin the failure surface of each
fault mode.
"""

import numpy as np
import pytest
from helpers.faults import FaultyChannel, QueueChannel

from repro.dist import ShardOwner, TransportError
from repro.dist.codec import FrameError, decode, encode_push, frame
from repro.nn.module import Parameter
from repro.tensor.rowsparse import RowSparseGrad


def push_body(step: int, rows: int = 4, dim: int = 3, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed + step)
    grad = RowSparseGrad(np.arange(2), rng.standard_normal((2, dim)), rows)
    return encode_push(step, 0.05, [grad])


@pytest.fixture
def channel():
    return QueueChannel()


class TestFaultyChannel:
    def test_dropped_frame_breaks_the_sequence(self, channel):
        faulty = FaultyChannel(channel, drop=[1])
        for step in range(3):
            faulty.send(frame(push_body(step)))
        assert faulty.faults["dropped"] == 1
        owner = ShardOwner([Parameter(np.zeros((4, 3)))], lr=0.05)
        owner.apply_frame(channel.recv(timeout=5.0))
        # step 1 never arrived; step 2 must not apply as if nothing happened
        with pytest.raises(TransportError, match="out-of-sequence"):
            owner.apply_frame(channel.recv(timeout=5.0))

    def test_duplicated_frame_is_rejected(self, channel):
        faulty = FaultyChannel(channel, duplicate=[0])
        faulty.send(frame(push_body(0)))
        assert faulty.faults["duplicated"] == 1
        owner = ShardOwner([Parameter(np.zeros((4, 3)))], lr=0.05)
        owner.apply_frame(channel.recv(timeout=5.0))
        with pytest.raises(TransportError, match="out-of-sequence"):
            owner.apply_frame(channel.recv(timeout=5.0))

    def test_truncated_frame_fails_decode_not_silence(self, channel):
        faulty = FaultyChannel(channel, truncate=[0])
        faulty.send(frame(push_body(0)))
        assert faulty.faults["truncated"] == 1
        body = channel.recv(timeout=5.0)
        with pytest.raises(FrameError):
            decode(body)
        owner = ShardOwner([Parameter(np.zeros((4, 3)))], lr=0.05)
        with pytest.raises(FrameError):
            owner.apply_frame(body)

    def test_clean_frames_pass_through_bit_exact(self, channel):
        faulty = FaultyChannel(channel)
        body = push_body(7)
        faulty.send(frame(body))
        kind, step, lr, grads = decode(channel.recv(timeout=5.0))
        ref_kind, ref_step, ref_lr, ref_grads = decode(body)
        assert (kind, step, lr) == (ref_kind, ref_step, ref_lr)
        np.testing.assert_array_equal(grads[0].values, ref_grads[0].values)
        assert faulty.faults == {"dropped": 0, "truncated": 0,
                                 "duplicated": 0}

    def test_fault_indices_count_all_sends(self, channel):
        faulty = FaultyChannel(channel, drop=[0, 2])
        for step in range(4):
            faulty.send(frame(push_body(step)))
        received = []
        while True:
            body = channel.recv(timeout=0.2)
            if body is None:
                break
            received.append(decode(body)[1])
        assert received == [1, 3]
        assert faulty.sent == 4
