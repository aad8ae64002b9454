"""Multi-process parameter-server training.

The cross-process half of the ``repro.shard`` layout: shard-owner
processes apply optimizer steps concurrently while the trainer keeps
extraction and forward/backward on the async pipeline. Gradients travel
as length-prefixed :mod:`~repro.dist.codec` frames over shared-memory
rings (:class:`~repro.dist.transport.ShmRing`);
parameters live in shared memory so pulls are zero-copy. The bridge is the
trainer's optimizer; ``sync(window=0)`` before every forward bit-matches
in-process ``shards=K`` training, a wider window unlocks async throughput.
See ``docs/distributed.md``.
"""

from repro.dist.codec import (
    FrameError,
    decode,
    decode_grad,
    encode_grad,
    encode_push,
    encode_stop,
    frame,
    unframe,
)
from repro.dist.server import DistParameterServer, ShardOwner
from repro.dist.transport import (
    SharedBlock,
    ShmRing,
    TransportError,
)

__all__ = [
    "DistParameterServer",
    "FrameError",
    "SharedBlock",
    "ShardOwner",
    "ShmRing",
    "TransportError",
    "decode",
    "decode_grad",
    "encode_grad",
    "encode_push",
    "encode_stop",
    "frame",
    "unframe",
]
