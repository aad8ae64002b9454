"""Layered (per-hop) blocks: sampling, structure, exactness, sparse grads."""

import numpy as np
import pytest
import scipy.sparse as sp
from helpers import layered_oracle as oracle
from hypothesis import given, settings, strategies as st

from repro.core import GNMR, GNMRConfig
from repro.data import leave_one_out_split, taobao_like
from repro.graph import MultiBehaviorGraph, PropagationEngine
from repro.graph.layered import sample_neighbors
from repro.models import NGCF
from repro.tensor import RowSparseGrad, Tensor


@pytest.fixture(scope="module")
def engine():
    data = taobao_like(num_users=80, num_items=160, seed=3)
    return PropagationEngine(data.graph(), normalization="row")


@pytest.fixture(scope="module")
def single_engine():
    data = taobao_like(num_users=40, num_items=90, seed=3)
    return PropagationEngine.bipartite(data.graph())


@pytest.fixture(scope="module")
def tiny_split():
    return leave_one_out_split(taobao_like(num_users=60, num_items=150, seed=0))


@pytest.fixture(scope="module")
def gnmr(tiny_split):
    model = GNMR(tiny_split.train, GNMRConfig(pretrain=False, seed=0,
                                              dropout=0.0))
    model.eval()
    return model


class TestSampleNeighbors:
    def test_fanout_caps_each_row(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        rng = np.random.default_rng(0)
        nodes = np.arange(engine.num_users)
        sampled = sample_neighbors(matrix, nodes, fanout=2, rng=rng)
        degrees = np.diff(matrix.indptr)
        assert sampled.size == int(np.minimum(degrees, 2).sum())

    def test_none_fanout_keeps_everything(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        nodes = np.arange(engine.num_users)
        sampled = sample_neighbors(matrix, nodes, fanout=None,
                                   rng=np.random.default_rng(0))
        assert sampled.size == matrix.nnz

    def test_sampled_ids_are_real_neighbors(self, engine):
        matrix = engine.user_adjacencies[0].matrix
        node = int(np.argmax(np.diff(matrix.indptr)))  # busiest user
        row = set(matrix.indices[matrix.indptr[node]:matrix.indptr[node + 1]].tolist())
        sampled = sample_neighbors(matrix, np.array([node]), fanout=3,
                                   rng=np.random.default_rng(1))
        assert set(sampled.tolist()) <= row


class TestLayeredBlock:
    """Block-structure properties of the multi-behavior (GNMR) shape."""

    def test_seed_level_maps_round_trip(self, engine):
        seeds_u = np.array([0, 5, 17])
        seeds_i = np.array([2, 9])
        block = engine.layered_subgraph(seeds_u, seeds_i, hops=2, fanout=3,
                                        rng=np.random.default_rng(0))
        for level in range(3):  # nested levels: seeds live at every level
            local_u = block.localize_users(level, seeds_u)
            local_i = block.localize_items(level, seeds_i)
            np.testing.assert_array_equal(
                block.user_levels[level][local_u], seeds_u)
            np.testing.assert_array_equal(
                block.item_levels[level][local_i], seeds_i)

    def test_localize_rejects_absent_ids(self, engine):
        block = engine.layered_subgraph(np.array([0]), np.array([0]), hops=0,
                                        fanout=1, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(block.user_levels[0], [0])
        with pytest.raises(KeyError, match=r"user ids not in block: \[1, 2\]"):
            block.localize_users(0, np.array([0, 2, 1]))

    def test_localize_on_empty_level_names_missing_ids(self, engine):
        # the cold-user block has no seed items, so its top item level is
        # empty: a lookup there must name the ids, not trip an index error
        block = engine.layered_subgraph(np.array([0, 3]),
                                        np.empty(0, dtype=np.int64),
                                        hops=2, fanout=None)
        assert block.item_levels[2].size == 0
        with pytest.raises(KeyError, match=r"item ids not in block: \[5\]"):
            block.localize_items(2, np.array([5]))
        assert block.localize_items(2, np.empty(0, dtype=np.int64)).size == 0

    def test_hop_edges_are_subset_of_full_graph(self, engine):
        block = engine.layered_subgraph(np.arange(6), np.arange(4), hops=2,
                                        fanout=4, rng=np.random.default_rng(2))
        sides = ((block.user_hops, block.user_levels, block.item_levels,
                  engine.user_adjacencies),
                 (block.item_hops, block.item_levels, block.user_levels,
                  engine.item_adjacencies))
        checked = 0
        for hops, dst_levels, src_levels, adjacencies in sides:
            for level, hop in enumerate(hops):
                dst, src = dst_levels[level + 1], src_levels[level]
                for k in range(block.num_behaviors):
                    full = adjacencies[k].matrix
                    coo = hop.stack.matrix[k * dst.size:(k + 1) * dst.size].tocoo()
                    for r, c in zip(coo.row, coo.col):
                        assert full[dst[r], src[c]] != 0.0
                    checked += coo.nnz
        assert checked > 0

    def test_deterministic_under_seeded_rng(self, engine):
        a = engine.layered_subgraph(np.arange(5), np.arange(5), hops=2,
                                    fanout=3, rng=np.random.default_rng(7))
        b = engine.layered_subgraph(np.arange(5), np.arange(5), hops=2,
                                    fanout=3, rng=np.random.default_rng(7))
        for level in range(3):
            np.testing.assert_array_equal(a.user_levels[level],
                                          b.user_levels[level])
            np.testing.assert_array_equal(a.item_levels[level],
                                          b.item_levels[level])
        for hop_a, hop_b in zip(a.user_hops + a.item_hops,
                                b.user_hops + b.item_hops):
            assert (hop_a.stack.matrix != hop_b.stack.matrix).nnz == 0

    def test_row_renormalization_gives_means(self, engine):
        block = engine.layered_subgraph(np.arange(10), np.arange(10), hops=2,
                                        fanout=3, rng=np.random.default_rng(0))
        for hop in block.user_hops + block.item_hops:
            sums = np.asarray(hop.stack.matrix.sum(axis=1)).ravel()
            np.testing.assert_allclose(sums[sums > 0], 1.0)

    def test_full_fanout_hop_matches_engine_messages(self, engine):
        # with every node seeded and no cap, the one hop is the whole
        # graph and the renormalization is the identity
        rng = np.random.default_rng(0)
        block = engine.layered_subgraph(np.arange(engine.num_users),
                                        np.arange(engine.num_items),
                                        hops=1, fanout=None, rng=rng)
        assert block.user_levels[1].size == engine.num_users
        h_item = Tensor(rng.standard_normal((engine.num_items, 8)))
        full = engine.propagate_user(h_item)
        hop = block.user_hops[0].propagate(h_item)
        np.testing.assert_allclose(hop.data, full.data, atol=1e-12)

    def test_hop_propagation_shapes_and_gradients(self, engine):
        block = engine.layered_subgraph(np.arange(4), np.arange(4), hops=1,
                                        fanout=2, rng=np.random.default_rng(0))
        h_user = Tensor(np.random.default_rng(1).standard_normal(
            (block.user_levels[0].size, 6)), requires_grad=True)
        out = block.item_hops[0].propagate(h_user)
        assert out.shape == (block.item_levels[1].size,
                             block.num_behaviors, 6)
        out.sum().backward()
        assert h_user.grad.shape == h_user.shape

    def test_multi_behavior_engine_rejects_single_api(self, engine):
        with pytest.raises(RuntimeError, match="layered_subgraph\\(\\)"):
            engine.layered_subgraph_nodes(np.array([0]))


class TestLayeredNodeBlocks:
    """Block-structure properties of the single-graph (NGCF) shape."""

    def test_every_level_contains_seeds(self, single_engine):
        seeds = np.array([0, 1, 50])
        blocks = single_engine.layered_subgraph_nodes(
            seeds, hops=2, fanout=3, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(blocks.levels[2], seeds)
        for level in range(3):
            np.testing.assert_array_equal(
                blocks.levels[level][blocks.localize(level, seeds)], seeds)
        with pytest.raises(KeyError, match="node ids not in block"):
            blocks.localize(2, np.array([2]))

    def test_self_loops_survive_slicing(self, single_engine):
        blocks = single_engine.layered_subgraph_nodes(
            np.array([3, 60]), hops=2, fanout=2, rng=np.random.default_rng(0))
        for level, hop in enumerate(blocks.hops):
            # row r of the hop is node levels[level+1][r]; its own column
            # in the (nested) wider level carries the identity message
            own = hop.matrix[np.arange(hop.shape[0]),
                             blocks.restrict(level + 1)]
            assert np.all(np.asarray(own).ravel() > 0)

    def test_hop_edges_are_subset_of_full_graph(self, single_engine):
        blocks = single_engine.layered_subgraph_nodes(
            np.array([0, 4, 45]), hops=2, fanout=3,
            rng=np.random.default_rng(1))
        full = single_engine.adjacency.matrix
        for level, hop in enumerate(blocks.hops):
            coo = hop.matrix.tocoo()
            assert coo.nnz > 0
            for r, c in zip(coo.row, coo.col):
                assert (hop.matrix[r, c]
                        == full[blocks.levels[level + 1][r],
                                blocks.levels[level][c]])

    def test_deterministic_under_seeded_rng(self, single_engine):
        a, b = (single_engine.layered_subgraph_nodes(
            np.array([0, 4]), hops=2, fanout=3, rng=np.random.default_rng(5))
            for _ in range(2))
        for level in range(3):
            np.testing.assert_array_equal(a.levels[level], b.levels[level])
        for hop_a, hop_b in zip(a.hops, b.hops):
            assert (hop_a.matrix != hop_b.matrix).nnz == 0

    def test_propagate_shape(self, single_engine):
        blocks = single_engine.layered_subgraph_nodes(
            np.array([0, 4]), hops=2, fanout=3, rng=np.random.default_rng(1))
        h = Tensor(np.ones((blocks.levels[0].size, 5)))
        assert blocks.propagate(0, h).shape == (blocks.levels[1].size, 5)

    def test_single_engine_rejects_bipartite_api(self, single_engine):
        with pytest.raises(RuntimeError, match="layered_subgraph_nodes"):
            single_engine.layered_subgraph(np.array([0]), np.array([0]))


class TestStructure:
    def test_levels_shrink_toward_seeds(self, gnmr):
        users = np.arange(6); items = np.arange(12)
        block = gnmr.engine.layered_subgraph(users, items, hops=2,
                                             fanout=5,
                                             rng=np.random.default_rng(0))
        u_sizes = [level.size for level in block.user_levels]
        i_sizes = [level.size for level in block.item_levels]
        assert u_sizes[0] >= u_sizes[1] >= u_sizes[2]
        assert i_sizes[0] >= i_sizes[1] >= i_sizes[2]
        np.testing.assert_array_equal(block.user_levels[2], np.arange(6))
        np.testing.assert_array_equal(block.item_levels[2], np.arange(12))

    def test_levels_are_nested(self, gnmr):
        block = gnmr.engine.layered_subgraph(
            np.arange(4), np.arange(8), hops=2, fanout=4,
            rng=np.random.default_rng(1))
        for level in (1, 2):
            assert np.isin(block.user_levels[level],
                           block.user_levels[level - 1]).all()
            assert np.isin(block.item_levels[level],
                           block.item_levels[level - 1]).all()

    def test_hop_shapes_match_levels(self, gnmr):
        block = gnmr.engine.layered_subgraph(
            np.arange(4), np.arange(8), hops=2, fanout=4,
            rng=np.random.default_rng(2))
        k = block.num_behaviors
        for level, hop in enumerate(block.user_hops):
            rows, cols = hop.stack.shape
            assert rows == k * block.user_levels[level + 1].size
            assert cols == block.item_levels[level].size

    def test_schedule_mismatch_rejected(self, gnmr):
        with pytest.raises(ValueError, match="hops"):
            gnmr.engine.layered_subgraph(np.arange(4), np.arange(8), hops=2,
                                         fanout=(5,),
                                         rng=np.random.default_rng(0))


class TestExactness:
    """At fanout=None the seed outputs reproduce full-graph values."""

    def test_gnmr_scores_exact_at_unlimited_fanout(self, gnmr):
        users = np.arange(10); pos = np.arange(10); neg = np.arange(10, 20)
        full_pos, full_neg = gnmr.batch_scores(users, pos, neg)
        block = gnmr.extract_block(users, pos, neg, fanout=None,
                                   rng=np.random.default_rng(0))
        lay_pos, lay_neg = gnmr.block_batch_scores(users, pos, neg, block)
        np.testing.assert_allclose(lay_pos.data, full_pos.data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lay_neg.data, full_neg.data,
                                   rtol=1e-12, atol=1e-12)

    def test_ngcf_scores_exact_at_unlimited_fanout(self, tiny_split):
        model = NGCF(tiny_split.train, seed=0, num_layers=2)
        model.eval()
        users = np.arange(10); pos = np.arange(10); neg = np.arange(10, 20)
        full_pos, full_neg = model.batch_scores(users, pos, neg)
        block = model.extract_block(users, pos, neg, fanout=None,
                                    rng=np.random.default_rng(0))
        lay_pos, lay_neg = model.block_batch_scores(users, pos, neg, block)
        np.testing.assert_allclose(lay_pos.data, full_pos.data,
                                   rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(lay_neg.data, full_neg.data,
                                   rtol=1e-12, atol=1e-12)

    def test_zero_layer_model_matches_full(self, tiny_split):
        model = GNMR(tiny_split.train, GNMRConfig(pretrain=False, seed=0,
                                                  num_layers=0, dropout=0.0))
        model.eval()
        users = np.arange(5); pos = np.arange(5); neg = np.arange(5, 10)
        full_pos, _ = model.batch_scores(users, pos, neg)
        block = model.extract_block(users, pos, neg, fanout=3,
                                    rng=np.random.default_rng(0))
        lay_pos, _ = model.block_batch_scores(users, pos, neg, block)
        np.testing.assert_allclose(lay_pos.data, full_pos.data)


class TestGradients:
    def test_row_sparse_grads_reach_tables(self, tiny_split):
        model = GNMR(tiny_split.train, GNMRConfig(pretrain=False, seed=0))
        users = np.arange(6); pos = np.arange(6); neg = np.arange(6, 12)
        block = model.extract_block(users, pos, neg, fanout=(4, 2),
                                    rng=np.random.default_rng(0))
        pos_s, neg_s = model.block_batch_scores(users, pos, neg, block)
        loss = (1.0 - pos_s + neg_s).relu().sum()
        loss = loss + model.l2_batch(users, pos, neg, 1e-4)
        loss.backward()
        assert isinstance(model.user_embeddings.grad, RowSparseGrad)
        assert isinstance(model.item_embeddings.grad, RowSparseGrad)
        # the sparse grad covers at most the widest level set
        assert (model.user_embeddings.grad.nnz_rows
                <= block.user_levels[0].size)

    def test_layered_training_converges(self, tiny_split):
        from repro.train import TrainConfig, Trainer

        model = GNMR(tiny_split.train,
                     GNMRConfig(pretrain=False, seed=0, num_layers=1))
        config = TrainConfig(epochs=6, steps_per_epoch=4, batch_users=12,
                             per_user=2, propagation="async", workers=0,
                             fanout=8, seed=0)
        history = Trainer(model, tiny_split.train, config).run()
        losses = history.series("loss")
        assert losses[-1] < losses[0]


# ----------------------------------------------------------------------
# bit identity with the per-behaviour scipy builder (helpers.layered_oracle)
# ----------------------------------------------------------------------

def _csr_bits(matrix):
    return [matrix.shape] + [(a.dtype.str, a.tobytes()) for a in
                             (matrix.indptr, matrix.indices, matrix.data)]


def _assert_same_adjacency(got, want):
    assert _csr_bits(got.matrix) == _csr_bits(want.matrix)
    assert _csr_bits(got._transposed()) == _csr_bits(want._transposed())


def _assert_same_levels(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        np.testing.assert_array_equal(a, b)


def _assert_block_matches_oracle(engine, seed_users, seed_items, hops, fanout,
                                 seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = engine.layered_subgraph(seed_users, seed_items, hops=hops,
                                  fanout=fanout, rng=rng)
    want = oracle.sample_layered_bipartite(
        [a.matrix for a in engine.user_adjacencies],
        [a.matrix for a in engine.item_adjacencies],
        seed_users, seed_items, hops, fanout, oracle_rng, dtype=engine.dtype,
        renormalize=engine.normalization == "row")
    _assert_same_levels(got.user_levels, want.user_levels)
    _assert_same_levels(got.item_levels, want.item_levels)
    for got_hop, want_hop in zip(got.user_hops + got.item_hops,
                                 want.user_hops + want.item_hops, strict=True):
        assert got_hop.num_dst == want_hop.num_dst
        _assert_same_adjacency(got_hop.stack, want_hop.stack)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


def _assert_node_blocks_match_oracle(engine, seeds, hops, fanout, seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = engine.layered_subgraph_nodes(seeds, hops=hops, fanout=fanout,
                                        rng=rng)
    want = oracle.sample_layered_square(engine.adjacency.matrix, seeds, hops,
                                        fanout, oracle_rng, dtype=engine.dtype)
    _assert_same_levels(got.levels, want.levels)
    for got_hop, want_hop in zip(got.hops, want.hops, strict=True):
        _assert_same_adjacency(got_hop, want_hop)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def graph_and_request(draw):
    """A sparse random graph (empty rows included) and a block request."""
    num_users = draw(st.integers(1, 24))
    num_items = draw(st.integers(1, 30))
    k = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    interactions = {}
    for name in (f"b{i}" for i in range(k)):
        # from no edge at all to hubs well over any fanout drawn below
        count = int(draw(st.sampled_from([0.0, 0.03, 0.15, 0.5]))
                    * num_users * num_items)
        interactions[name] = (rng.integers(0, num_users, count),
                              rng.integers(0, num_items, count))
    graph = MultiBehaviorGraph(num_users, num_items, tuple(interactions),
                               interactions)
    hops = draw(st.integers(0, 3))
    cap = st.one_of(st.none(), st.integers(1, 4))
    # a schedule must match the hop count and may not be empty
    schedule = st.lists(cap, min_size=hops, max_size=hops)
    fanout = draw(st.one_of(cap, schedule) if hops else cap)
    seed_users = draw(st.lists(st.integers(0, num_users - 1), max_size=6))
    seed_items = draw(st.lists(st.integers(0, num_items - 1), max_size=6))
    return (graph, np.array(seed_users, dtype=np.int64),
            np.array(seed_items, dtype=np.int64), hops, fanout,
            draw(st.integers(0, 2**16)))


class TestBitIdenticalToOracle:
    """Blocks are the bits of the per-behaviour scipy construction.

    Level sets, ``indptr`` / ``indices`` / ``data`` of every hop and of its
    cached transpose (raw bytes and dtype), and the rng state after the
    call: training trajectories, the cross-worker golden and ``hr_at_10``
    rest on all three.
    """

    @given(graph_and_request(),
           st.sampled_from(["row", "sym", None]),
           st.sampled_from(["float32", "float64"]))
    @settings(max_examples=120, deadline=None)
    def test_bipartite_blocks(self, request_, normalization, dtype):
        graph, seed_users, seed_items, hops, fanout, seed = request_
        engine = PropagationEngine(graph, normalization=normalization,
                                   dtype=dtype)
        _assert_block_matches_oracle(engine, seed_users, seed_items, hops,
                                     fanout, seed)

    @given(graph_and_request(), st.sampled_from(["float32", "float64"]))
    @settings(max_examples=60, deadline=None)
    def test_square_blocks(self, request_, dtype):
        graph, seed_users, seed_items, hops, fanout, seed = request_
        engine = PropagationEngine.bipartite(graph, dtype=dtype)
        seeds = np.concatenate([seed_users, graph.num_users + seed_items])
        _assert_node_blocks_match_oracle(engine, seeds, hops, fanout, seed)

    @given(graph_and_request(), st.one_of(st.none(), st.integers(1, 4)))
    @settings(max_examples=60, deadline=None)
    def test_sample_neighbors_returns_the_oracle_array(self, request_, fanout):
        graph, seed_users, _, _, _, seed = request_
        engine = PropagationEngine(graph)
        for adjacency in engine.user_adjacencies:
            rng, oracle_rng = (np.random.default_rng(seed),
                               np.random.default_rng(seed))
            got = sample_neighbors(adjacency.matrix, seed_users, fanout, rng)
            want = oracle.sample_neighbors(adjacency.matrix, seed_users,
                                           fanout, oracle_rng)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    @pytest.mark.parametrize("normalization", ["row", "sym", None])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("fanout", [None, 3, (None, 2), (4, None, 2)])
    def test_fixed_bipartite_cases(self, normalization, dtype, fanout):
        data = taobao_like(num_users=80, num_items=160, seed=3)
        engine = PropagationEngine(data.graph(), normalization=normalization,
                                   dtype=dtype)
        hops = len(fanout) if isinstance(fanout, tuple) else 2
        _assert_block_matches_oracle(engine, np.array([0, 5, 17, 5]),
                                     np.array([2, 9]), hops, fanout, seed=4)
        # the cold-user request: one seed user, no seed item, so the top
        # item level — the frontier of the last item hop — is empty
        _assert_block_matches_oracle(engine, np.array([3]),
                                     np.empty(0, dtype=np.int64), hops,
                                     fanout, seed=5)

    @pytest.mark.parametrize("fanout", [None, 3, (5, None)])
    def test_fixed_square_cases(self, single_engine, fanout):
        _assert_node_blocks_match_oracle(single_engine, np.array([0, 4, 45]),
                                         2, fanout, seed=6)

    def test_ordinary_block_takes_the_two_pass_sort(self, engine,
                                                    monkeypatch):
        calls = _count_lexsort(monkeypatch)
        engine.layered_subgraph(np.arange(6), np.arange(4), hops=2, fanout=2,
                                rng=np.random.default_rng(0))
        assert calls == []

    def test_tied_keys_fall_back_to_lexsort(self, monkeypatch):
        # keys with one decimal: ties inside a row and across the cap, where
        # only lexsort's by-position tie-break says which edge is kept
        class CoarseKeys:
            def __init__(self):
                self.rng = np.random.default_rng(0)

            def random(self, size):
                return np.round(self.rng.random(size), 1)

        matrix = sp.random(40, 600, density=0.3, format="csr",
                           random_state=np.random.default_rng(1))
        nodes = np.arange(40)
        assert np.diff(matrix.indptr).max() > 100
        want = oracle.sample_neighbors(matrix, nodes, 7, CoarseKeys())
        calls = _count_lexsort(monkeypatch)
        got = sample_neighbors(matrix, nodes, 7, CoarseKeys())
        np.testing.assert_array_equal(got, want)
        assert len(calls) == 1

        # the smallest straddle: keys 0.5 at ranks 2-5 of a cap of 3
        row = sp.csr_matrix(np.ones((1, 6)))

        class Straddle:
            def random(self, size):
                return np.array([0.9, 0.5, 0.5, 0.5, 0.1, 0.5])

        np.testing.assert_array_equal(
            sample_neighbors(row, np.array([0]), 3, Straddle()), [4, 1, 2])
        assert len(calls) == 2

    def test_wide_frontier_falls_back_to_lexsort(self, monkeypatch):
        # 70 000 frontier rows do not fit the uint16 row ids of the fast path
        matrix = sp.random(70_000, 40, density=0.08, format="csr",
                           random_state=np.random.default_rng(2))
        nodes = np.arange(70_000)
        want = oracle.sample_neighbors(matrix, nodes, 2,
                                       np.random.default_rng(3))
        calls = _count_lexsort(monkeypatch)
        rng = np.random.default_rng(3)
        got = sample_neighbors(matrix, nodes, 2, rng)
        np.testing.assert_array_equal(got, want)
        assert len(calls) == 1
        # one row fewer than the limit takes the fast path, same answer
        narrow = nodes[:65_535]
        want = oracle.sample_neighbors(matrix, narrow, 2,
                                       np.random.default_rng(3))
        got = sample_neighbors(matrix, narrow, 2, np.random.default_rng(3))
        np.testing.assert_array_equal(got, want)
        assert len(calls) == 2  # the oracle's own call, not a fallback


def _count_lexsort(monkeypatch) -> list:
    """Record every ``np.lexsort`` call made from here on."""
    calls = []
    real = np.lexsort

    def counted(keys, *args, **kwargs):
        calls.append(len(keys[0]))
        return real(keys, *args, **kwargs)

    monkeypatch.setattr(np, "lexsort", counted)
    return calls
