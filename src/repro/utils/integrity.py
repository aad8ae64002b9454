"""Content hashing for embedding tables and checkpoint arrays.

One canonical fingerprint — sha256 over each array's dtype, shape, and raw
bytes — shared by the serving snapshot integrity check
(:class:`repro.serve.EmbeddingStore`) and checkpoint save/load
(:mod:`repro.utils.checkpoint`). Hashing the dtype and shape alongside the
payload means a transposed, reshaped, or down-cast table never collides
with the original.
"""

from __future__ import annotations

import hashlib

import numpy as np

#: most bytes of a non-contiguous array copied at once to feed the digest
_COPY_BYTES = 1 << 20


def array_sha256(*arrays: np.ndarray) -> str:
    """Hex sha256 fingerprint of one or more arrays (order-sensitive).

    The payload is the array's C-order bytes. A non-contiguous array (a
    column view, a transpose) is fed in row blocks of at most
    ``_COPY_BYTES``, never copied whole. A 0-d array hashes as shape
    ``(1,)``, the shape ``np.ascontiguousarray`` gives it."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.asarray(array)
        if array.ndim == 0:
            array = array.reshape(1)
        digest.update(f"{array.dtype.str}|{array.shape}|".encode("ascii"))
        if array.flags.c_contiguous:
            digest.update(array.data)
            continue
        rows = max(_COPY_BYTES // array[0].nbytes, 1)
        for start in range(0, len(array), rows):
            digest.update(np.ascontiguousarray(array[start:start + rows]).data)
    return digest.hexdigest()
