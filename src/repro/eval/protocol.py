"""The sampled ranking evaluation protocol (1 positive vs 99 negatives)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.data.negatives import EvalCandidates
from repro.eval import metrics as M


class Scorer(Protocol):
    """Anything that can score (user, item) pairs — all recommenders do."""

    def score(self, users: np.ndarray, items: np.ndarray) -> np.ndarray:
        """Return preference scores for parallel user/item index arrays."""
        ...


@dataclass
class EvaluationResult:
    """Metrics over a candidate set, queryable at any cutoff N.

    ``ranks`` holds the 0-based rank of each user's positive, from which all
    reported metrics are derived.
    """

    ranks: np.ndarray
    top_ns: tuple[int, ...] = (1, 3, 5, 7, 9, 10)
    _cache: dict[str, float] = field(default_factory=dict, repr=False)

    def hr(self, n: int = 10) -> float:
        key = f"hr@{n}"
        if key not in self._cache:
            self._cache[key] = M.hit_ratio(self.ranks, n)
        return self._cache[key]

    def ndcg(self, n: int = 10) -> float:
        key = f"ndcg@{n}"
        if key not in self._cache:
            self._cache[key] = M.ndcg(self.ranks, n)
        return self._cache[key]

    def recall(self, n: int = 10) -> float:
        """Recall@N — equals HR@N under the one-positive protocol, and is
        the conventional name under full-catalog ranking."""
        return self.hr(n)

    def mrr(self) -> float:
        if "mrr" not in self._cache:
            self._cache["mrr"] = M.mrr(self.ranks)
        return self._cache["mrr"]

    def as_dict(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for n in self.top_ns:
            out[f"HR@{n}"] = self.hr(n)
            out[f"NDCG@{n}"] = self.ndcg(n)
        out["MRR"] = self.mrr()
        return out

    def __len__(self) -> int:
        return len(self.ranks)


def evaluate_full_ranking(model: Scorer, train, test_users: np.ndarray,
                          test_items: np.ndarray,
                          batch_users: int = 64,
                          use_serving: bool = True,
                          retriever: str = "exact",
                          ann: dict | None = None) -> EvaluationResult:
    """Rank each held-out positive against the *entire* catalog.

    The sampled 99-negative protocol (the paper's) is cheap but noisy; this
    mode ranks against every item the user has not interacted with under
    the target behavior — the strict Recall@K/NDCG@K variant used by later
    work, and exactly the workload the serving layer optimizes. Scoring
    runs through :mod:`repro.serve` backends: a blocked matmul over the
    model's serving embeddings when it has them, brute-force pairwise
    scoring otherwise; known training positives are suppressed with one
    vectorized CSR exclusion pass per block.

    Parameters
    ----------
    train:
        The training :class:`~repro.data.dataset.InteractionDataset`,
        used to mask out known positives.
    use_serving:
        Allow the factored fast path (``False`` forces brute force, e.g.
        to cross-check the serving embeddings).
    retriever:
        ``"exact"`` (default) — exhaustive ranks, exactly as served by
        the blocked scan. ``"ivf"`` — ranks through
        :class:`~repro.serve.ann.ApproxRetriever` (requires a factored
        model): each positive's rank is its position in the retrieved
        top-``eval_k`` list, or ``num_items`` when the approximate
        shortlist missed it, so metrics are exact at every cutoff
        ``N ≤ eval_k`` given the retrieval and measure the *deployed*
        approximate quality (recall loss included).
    ann:
        Options for ``retriever="ivf"``: ``nprobe``, ``quant``,
        ``num_lists``, ``shortlist_k``, ``seed`` (index/search dials) and
        ``eval_k`` (retrieval depth, default 100).
    """
    from repro.serve import ExclusionMask, ScorerBackend, backend_for

    test_users = np.asarray(test_users, dtype=np.int64)
    test_items = np.asarray(test_items, dtype=np.int64)
    num_items = train.num_items
    if use_serving:
        backend = backend_for(model, num_items=num_items)
    else:
        backend = ScorerBackend(model, num_items=num_items)
    seen = ExclusionMask.from_dataset(train, behaviors="target")
    if retriever == "ivf":
        return _evaluate_approx_ranking(backend, seen, test_users,
                                        test_items, num_items,
                                        batch_users, ann)
    if retriever != "exact":
        raise ValueError(f"unknown retriever {retriever!r}; "
                         "expected 'exact' or 'ivf'")
    ranks = np.empty(test_users.size, dtype=np.int64)
    for start in range(0, test_users.size, batch_users):
        stop = min(start + batch_users, test_users.size)
        block = test_users[start:stop]
        scores = np.asarray(backend.score_block(block), dtype=np.float64)
        positives = test_items[start:stop]
        positive_scores = scores[np.arange(block.size), positives]
        # mask known positives so they never rank as competitors (the
        # held-out positive itself is absent from the training graph, so
        # its score is read before masking and stays untouched)
        seen.apply(block, scores)
        better = np.sum(scores > positive_scores[:, None], axis=1)
        ties = np.sum(scores == positive_scores[:, None], axis=1) - 1
        ranks[start:stop] = better + np.maximum(ties, 0)
    return EvaluationResult(ranks=ranks)


def _evaluate_approx_ranking(backend, seen, test_users, test_items,
                             num_items: int, batch_users: int,
                             ann: dict | None) -> EvaluationResult:
    """Positive ranks under truncated approximate retrieval."""
    from repro.serve import ApproxRetriever

    options = dict(ann or {})
    eval_k = int(options.pop("eval_k", 100))
    approx = ApproxRetriever(backend, exclude=seen,
                             batch_users=batch_users, **options)
    result = approx.retrieve(test_users, eval_k)
    # rank = position of the held-out positive in the retrieved list;
    # shortlist misses count as num_items (a miss at every cutoff)
    ranks = np.full(test_users.size, num_items, dtype=np.int64)
    hit_rows, hit_cols = np.nonzero(result.items == test_items[:, None])
    ranks[hit_rows] = hit_cols
    return EvaluationResult(ranks=ranks)


def evaluate_model(model: Scorer, candidates: EvalCandidates,
                   batch_size: int = 512) -> EvaluationResult:
    """Score every candidate list with ``model`` and rank the positives.

    Scoring is batched over users to bound peak memory for wide candidate
    sets; each batch flattens (user, item) pairs into parallel index arrays.
    """
    num_users, width = candidates.items.shape
    ranks = np.empty(num_users, dtype=np.int64)
    for start in range(0, num_users, batch_size):
        stop = min(start + batch_size, num_users)
        block_users = np.repeat(candidates.users[start:stop], width)
        block_items = candidates.items[start:stop].reshape(-1)
        scores = model.score(block_users, block_items).reshape(stop - start, width)
        ranks[start:stop] = M.ranks_of_positives(scores)
    return EvaluationResult(ranks=ranks)
