"""The multi-behavior user–item interaction graph G = {U, V, E}.

The paper's computation graph: nodes are the union of users and items; an
edge (u_i, v_j, k) exists when x^k_{ij} = 1. We store one CSR adjacency per
behavior type (users × items), plus cached normalized variants used by the
message-passing layers, and a merged "any behavior" view used by
single-graph baselines such as NGCF.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.tensor.sparse import SparseAdjacency


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics in the format of the paper's Table I."""

    num_users: int
    num_items: int
    num_interactions: int
    behavior_names: tuple[str, ...]
    interactions_per_behavior: dict[str, int] = field(default_factory=dict)
    density: float = 0.0

    def as_row(self) -> dict[str, object]:
        """One Table-I row: dataset sizes and the behavior-type inventory."""
        return {
            "User #": self.num_users,
            "Item #": self.num_items,
            "Interaction #": self.num_interactions,
            "Interactive Behavior Type": "{" + ", ".join(self.behavior_names) + "}",
        }


def _read_only_stack(adjacencies: list[SparseAdjacency], dtype) -> SparseAdjacency:
    """Vstack K adjacencies into one (K·N) × M CSR for the fused SpMM, its
    arrays and its transpose's arrays made read-only."""
    stacked = sp.vstack([a.matrix for a in adjacencies], format="csr")
    stack = SparseAdjacency(stacked, dtype=dtype, precompute_transpose=True)
    for matrix in (stack.matrix, stack._transposed()):
        for part in (matrix.data, matrix.indices, matrix.indptr):
            part.flags.writeable = False
    return stack


class MultiBehaviorGraph:
    """Per-behavior bipartite adjacency over users and items.

    Parameters
    ----------
    num_users, num_items:
        Node counts (users indexed 0..I-1, items 0..J-1).
    behavior_names:
        Ordered behavior-type names; index in this tuple is the behavior id
        ``k``. By convention the *target* behavior is the last entry unless
        stated otherwise by the dataset.
    interactions:
        Mapping behavior name → (user_idx, item_idx) integer arrays.
    """

    def __init__(self, num_users: int, num_items: int,
                 behavior_names: tuple[str, ...] | list[str],
                 interactions: dict[str, tuple[np.ndarray, np.ndarray]]):
        self.num_users = int(num_users)
        self.num_items = int(num_items)
        self.behavior_names = tuple(behavior_names)
        if set(interactions) != set(self.behavior_names):
            raise ValueError(
                f"interaction keys {sorted(interactions)} do not match "
                f"behavior names {sorted(self.behavior_names)}"
            )
        self._adjacency: dict[str, SparseAdjacency] = {}
        for name in self.behavior_names:
            users, items = interactions[name]
            users = np.asarray(users, dtype=np.int64)
            items = np.asarray(items, dtype=np.int64)
            if users.size and (users.min() < 0 or users.max() >= num_users):
                raise ValueError(f"user index out of range for behavior {name!r}")
            if items.size and (items.min() < 0 or items.max() >= num_items):
                raise ValueError(f"item index out of range for behavior {name!r}")
            matrix = sp.csr_matrix(
                (np.ones(users.size), (users, items)),
                shape=(num_users, num_items),
            )
            # collapse duplicate (u, i) pairs to a single binary edge
            matrix.data[:] = 1.0
            matrix.sum_duplicates()
            matrix.data[:] = 1.0
            self._adjacency[name] = SparseAdjacency(matrix)
        self._merged_cache: SparseAdjacency | None = None
        self._stacks: dict[tuple, tuple[SparseAdjacency, SparseAdjacency]] = {}

    # ------------------------------------------------------------------
    @property
    def num_behaviors(self) -> int:
        return len(self.behavior_names)

    def adjacency(self, behavior: str) -> SparseAdjacency:
        """Raw binary users×items adjacency for one behavior type."""
        return self._adjacency[behavior]

    def merged_adjacency(self) -> SparseAdjacency:
        """Union over behavior types (binary), for single-graph baselines."""
        if self._merged_cache is None:
            total = None
            for name in self.behavior_names:
                m = self._adjacency[name].matrix
                total = m if total is None else total + m
            total = total.tocsr()
            total.data[:] = 1.0
            self._merged_cache = SparseAdjacency(total)
        return self._merged_cache

    def normalized_stacks(self, behaviors: tuple[str, ...],
                          normalization: str | None, dtype,
                          ) -> tuple[SparseAdjacency, SparseAdjacency]:
        """Fused user-side ``(K·I) × J`` and item-side ``(K·J) × I`` stacks.

        Behavior ``k`` of ``behaviors`` occupies rows ``[k·N, (k+1)·N)``,
        degree-normalized as ``normalization`` asks (see
        :meth:`SparseAdjacency.normalized`; ``None`` keeps raw sums), with
        values in ``dtype`` and the backward transpose precomputed. Built
        once per ``(behaviors, normalization, dtype)`` and shared by every
        engine over this graph, so their arrays are read-only: one model
        cannot change another's structure.
        """
        behaviors, dtype = tuple(behaviors), np.dtype(dtype)
        key = (behaviors, normalization, dtype)
        stacks = self._stacks.get(key)
        if stacks is None:
            user_side: list[SparseAdjacency] = []
            item_side: list[SparseAdjacency] = []
            for behavior in behaviors:
                # the raw transpose is built here and dropped with the
                # other intermediates, not cached on the raw adjacency:
                # nothing but this build reads it
                raw = self._adjacency[behavior]
                user_adj = raw
                item_adj = SparseAdjacency(raw.matrix.T.tocsr(), dtype=raw.dtype)
                if normalization is not None:
                    user_adj = user_adj.normalized(normalization)
                    item_adj = item_adj.normalized(normalization)
                user_side.append(user_adj.astype(dtype))
                item_side.append(item_adj.astype(dtype))
            stacks = (_read_only_stack(user_side, dtype),
                      _read_only_stack(item_side, dtype))
            self._stacks[key] = stacks
        return stacks

    # ------------------------------------------------------------------
    def user_degree(self, behavior: str) -> np.ndarray:
        return self._adjacency[behavior].row_degrees()

    def user_items(self, behavior: str, user: int) -> np.ndarray:
        """Item neighbors N(i, k) of a user under one behavior."""
        matrix = self._adjacency[behavior].matrix
        return matrix.indices[matrix.indptr[user]:matrix.indptr[user + 1]]

    def interaction_count(self, behavior: str | None = None) -> int:
        if behavior is not None:
            return int(self._adjacency[behavior].nnz)
        return int(sum(self._adjacency[b].nnz for b in self.behavior_names))

    def stats(self) -> GraphStats:
        per_behavior = {b: int(self._adjacency[b].nnz) for b in self.behavior_names}
        total = sum(per_behavior.values())
        cells = self.num_users * self.num_items * self.num_behaviors
        return GraphStats(
            num_users=self.num_users,
            num_items=self.num_items,
            num_interactions=total,
            behavior_names=self.behavior_names,
            interactions_per_behavior=per_behavior,
            density=total / cells if cells else 0.0,
        )
