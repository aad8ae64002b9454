"""GNMR reproduction: Multi-Behavior Enhanced Recommendation with
Cross-Interaction Collaborative Relation Modeling (ICDE 2021).

Public entry points:

* :mod:`repro.core` — the GNMR model and its configuration.
* :mod:`repro.models` — all baseline recommenders from the paper's Table II.
* :mod:`repro.data` — datasets, synthetic generators, splits, CSV ingestion.
* :mod:`repro.graph` — the multi-behavior user–item interaction graph.
* :mod:`repro.eval` — HR@N / NDCG@N and the sampled ranking protocol.
* :mod:`repro.train` — the generic pairwise trainer.
* :mod:`repro.serve` — batched top-K serving.
* :mod:`repro.experiments` — the paper's tables and figures as one experiment table.
* :mod:`repro.tensor`, :mod:`repro.nn` — the from-scratch autograd and
  neural-network substrates everything else is built on.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
