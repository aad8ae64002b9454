"""Multi-behavior user–item interaction graph substrate.

Besides the graph container this package hosts the
:class:`~repro.graph.engine.PropagationEngine` — the shared message-passing
engine (fused multi-behavior SpMM, normalization, propagation cache) that
every graph recommender builds on.
"""

from repro.graph.interaction_graph import MultiBehaviorGraph, GraphStats
from repro.graph.engine import PropagationEngine, bipartite_laplacian
from repro.graph.layered import (
    LayeredBlock,
    LayeredNodeBlocks,
    sample_neighbors,
    resolve_fanout,
    parse_fanout,
    validate_fanout,
)
from repro.graph.sampling import (
    NegativeSampler,
    sample_pairwise_batch,
    PairwiseBatch,
)

__all__ = [
    "MultiBehaviorGraph",
    "GraphStats",
    "PropagationEngine",
    "bipartite_laplacian",
    "LayeredBlock",
    "LayeredNodeBlocks",
    "sample_neighbors",
    "resolve_fanout",
    "parse_fanout",
    "validate_fanout",
    "NegativeSampler",
    "sample_pairwise_batch",
    "PairwiseBatch",
]
