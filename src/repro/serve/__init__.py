"""Batched top-K serving subsystem.

The retrieval path the evaluation protocol never exercised: snapshot the
multi-order embeddings out of the propagation engine into an immutable
:class:`EmbeddingStore`, score user blocks against the full catalog with
a blocked matmul and CSR exclusion masks (:class:`TopKRetriever`), and
front it all with :class:`RecommendationService` — the one mutable
object: it holds the current ``(store, retriever)`` pair and an archive
of earlier stores, answers ``recommend(users, k)`` / ``recommend_cold``,
and swaps the pair through ``refresh()`` / ``reload()`` / ``recover()``.
For catalogs where the exact scan is too slow, :mod:`repro.serve.ann`
provides the opt-in approximate path (:class:`IVFIndex` +
:class:`ApproxRetriever`: coarse-quantized inverted lists, int8
compressed-domain scoring, exact float re-rank) behind the same retriever
interface — exact retrieval stays the default and the oracle. The online
tier lives in :mod:`repro.serve.http`: a stdlib HTTP server with a
request-coalescing :class:`DynamicBatcher`, a watcher thread that keeps
the service fresh, and an on-demand cold-user extraction path
(:class:`RecommendationHTTPServer`, CLI ``repro.cli serve``).
"""

from repro.serve.retriever import (
    ExclusionMask,
    MatrixBackend,
    ScorerBackend,
    TopKResult,
    TopKRetriever,
    backend_for,
)
from repro.serve.ann import ApproxRetriever, IVFIndex
from repro.serve.store import EmbeddingStore, SnapshotIntegrityError, model_version
from repro.serve.service import RecommendationService
from repro.serve.http import (
    DynamicBatcher,
    RecommendationHTTPServer,
    ServerBusy,
)

__all__ = [
    "ApproxRetriever",
    "DynamicBatcher",
    "ExclusionMask",
    "IVFIndex",
    "MatrixBackend",
    "ScorerBackend",
    "TopKResult",
    "TopKRetriever",
    "backend_for",
    "EmbeddingStore",
    "SnapshotIntegrityError",
    "model_version",
    "RecommendationService",
    "RecommendationHTTPServer",
    "ServerBusy",
]
