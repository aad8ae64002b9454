"""Approximate + quantized top-K retrieval (IVF shortlist, exact re-rank).

The million-item retrieval path: a seeded k-means coarse quantizer builds
IVF-style inverted lists over the item embedding snapshot
(:class:`IVFIndex`), probed lists are scored in the compressed domain
(float32 / symmetric per-dim int8 — :mod:`repro.serve.ann.quant`),
and the surviving shortlist is re-ranked exactly
(:class:`ApproxRetriever`, a drop-in for
:class:`~repro.serve.retriever.TopKRetriever`). The exact blocked path
stays the default everywhere and is the correctness oracle for this one.
"""

from repro.serve.ann.kmeans import kmeans
from repro.serve.ann.quant import (
    QUANT_KINDS,
    QuantizedItems,
    quantize_int8,
)
from repro.serve.ann.index import IVFIndex, default_num_lists
from repro.serve.ann.retriever import ApproxRetriever

__all__ = [
    "QUANT_KINDS",
    "ApproxRetriever",
    "IVFIndex",
    "QuantizedItems",
    "default_num_lists",
    "kmeans",
    "quantize_int8",
]
