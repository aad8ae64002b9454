"""Engines over one graph share its normalized adjacency stacks.

``MultiBehaviorGraph.normalized_stacks`` builds each
``(behaviors, normalization, dtype)`` stack pair once; every
:class:`~repro.graph.PropagationEngine` over the graph reads the same
read-only arrays, and keeps its own version and propagation cache.
"""

import numpy as np
import pytest

from repro.core import GNMR, GNMRConfig
from repro.data import InteractionDataset, taobao_like
from repro.graph import PropagationEngine
from repro.train import TrainConfig
from repro.utils import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def dataset():
    return taobao_like(num_users=30, num_items=50, seed=4)


def _rebuilt(dataset):
    """An identical dataset (and so a graph of its own) from the same arrays."""
    interactions = {}
    for name in dataset.behavior_names:
        users, items, timestamps = dataset.arrays(name)
        interactions[name] = {"users": users, "items": items,
                              "timestamps": timestamps}
    return InteractionDataset(dataset.name, dataset.num_users,
                              dataset.num_items, dataset.behavior_names,
                              dataset.target_behavior, interactions)


def _model(dataset, seed, **overrides):
    return GNMR(dataset, GNMRConfig(pretrain=False, seed=seed, **overrides))


def _stack_arrays(engine):
    return [part
            for stack in (engine._user_stack, engine._item_stack)
            for matrix in (stack.matrix, stack._transposed())
            for part in (matrix.data, matrix.indices, matrix.indptr)]


def _assert_bits_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


class TestShared:
    def test_two_models_hold_the_identical_stacks(self, dataset):
        first, second = _model(dataset, 1), _model(dataset, 2)
        assert first.engine._user_stack is second.engine._user_stack
        assert first.engine._item_stack is second.engine._item_stack
        assert first.engine is not second.engine

    @pytest.mark.parametrize("overrides", [
        {"graph_behaviors": ("cart", "purchase")},
        {"aggregator": "sum"},
        {"dtype": "float32"},
    ], ids=["behavior-subset", "sum-aggregator", "float32"])
    def test_each_key_gets_its_own_stacks(self, dataset, overrides):
        default = _model(dataset, 1, dtype="float64")
        other = _model(dataset, 1, **{"dtype": "float64", **overrides})
        for a, b in zip(_stack_arrays(default.engine),
                        _stack_arrays(other.engine)):
            assert not np.shares_memory(a, b)
        again = _model(dataset, 2, **{"dtype": "float64", **overrides})
        assert again.engine._user_stack is other.engine._user_stack

    def test_float64_and_float32_engines_differ(self, dataset):
        graph = dataset.graph()
        wide = PropagationEngine(graph, dtype="float64")
        narrow = PropagationEngine(graph, dtype="float32")
        assert wide._user_stack is not narrow._user_stack
        assert wide._user_stack.dtype == np.float64
        assert narrow._user_stack.dtype == np.float32

    def test_shared_arrays_are_read_only(self, dataset):
        engine = PropagationEngine(dataset.graph())
        for part in _stack_arrays(engine):
            with pytest.raises(ValueError):
                part[:1] = 0

    def test_graph_adjacency_stays_writable(self, dataset):
        """Freezing the stacks never reaches the graph's raw adjacencies."""
        graph = dataset.graph()
        PropagationEngine(graph, normalization=None, dtype="float64",
                          behaviors=graph.behavior_names[:1])
        raw = graph.adjacency(graph.behavior_names[0]).matrix
        assert raw.data.flags.writeable and raw.indices.flags.writeable


class TestBitEqualToAGraphOfItsOwn:
    @pytest.mark.parametrize("normalization", ["row", "sym", None])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_propagation_blocks_and_stacks(self, dataset, normalization, dtype):
        shared = PropagationEngine(dataset.graph(), normalization=normalization,
                                   dtype=dtype)
        PropagationEngine(dataset.graph(), normalization=normalization,
                          dtype=dtype)                  # a second reader
        own = PropagationEngine(_rebuilt(dataset).graph(),
                                normalization=normalization, dtype=dtype)
        assert own._user_stack is not shared._user_stack
        _assert_bits_equal(_stack_arrays(shared), _stack_arrays(own))

        rng = np.random.default_rng(0)
        h_item = rng.standard_normal((dataset.num_items, 8)).astype(dtype)
        h_user = rng.standard_normal((dataset.num_users, 8)).astype(dtype)
        _assert_bits_equal(
            [shared.propagate_user(h_item).data,
             shared.propagate_item(h_user).data],
            [own.propagate_user(h_item).data, own.propagate_item(h_user).data])

        got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
        got = shared.layered_subgraph(np.array([0, 3, 7]), np.array([2, 11]),
                                      hops=2, fanout=3, rng=got_rng)
        want = own.layered_subgraph(np.array([0, 3, 7]), np.array([2, 11]),
                                    hops=2, fanout=3, rng=want_rng)
        _assert_bits_equal(got.user_levels + got.item_levels,
                           want.user_levels + want.item_levels)
        for got_hop, want_hop in zip(got.user_hops + got.item_hops,
                                     want.user_hops + want.item_hops,
                                     strict=True):
            assert got_hop.num_dst == want_hop.num_dst
            _assert_bits_equal(
                [got_hop.stack.matrix.data, got_hop.stack.matrix.indices,
                 got_hop.stack.matrix.indptr],
                [want_hop.stack.matrix.data, want_hop.stack.matrix.indices,
                 want_hop.stack.matrix.indptr])
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_full_graph_tables_and_fingerprint(self, dataset):
        shared = _model(dataset, 3)
        _model(dataset, 4)                              # shares the stacks
        own = _model(_rebuilt(dataset), 3)
        assert shared.propagation_fingerprint() == own.propagation_fingerprint()
        _assert_bits_equal([*shared.serving_embeddings()],
                           [*own.serving_embeddings()])


class TestEnginesStaySeparate:
    def test_training_one_model_leaves_the_other(self, dataset):
        trained, bystander = _model(dataset, 1), _model(dataset, 2)
        before = [table.copy() for table in bystander.serving_embeddings()]
        tables = bystander.engine.cached("gnmr.tables", pytest.fail)
        version = bystander.engine.version
        trained.fit(dataset, TrainConfig(epochs=1, steps_per_epoch=2,
                                         batch_users=8, seed=0))
        assert trained.engine.version > 0
        assert bystander.engine.version == version
        assert bystander.engine.cached("gnmr.tables", pytest.fail) is tables
        _assert_bits_equal(list(bystander.serving_embeddings()), before)
        assert trained.engine._user_stack is bystander.engine._user_stack

    def test_second_model_restores_the_first_ones_checkpoint(
            self, dataset, tmp_path, monkeypatch):
        """The serving bring-up: a fresh model over the graph that was just
        trained on serves the stored tables without propagating."""
        source = _model(dataset, 1)
        source.fit(dataset, TrainConfig(epochs=1, steps_per_epoch=2,
                                        batch_users=8, seed=0))
        path = save_checkpoint(source, tmp_path / "m.npz")
        calls = []
        propagate = GNMR.propagate

        def counted(self):
            calls.append(self)
            return propagate(self)

        monkeypatch.setattr(GNMR, "propagate", counted)
        fresh = _model(dataset, 2)
        assert fresh.engine._user_stack is source.engine._user_stack
        load_checkpoint(fresh, path)
        served = fresh.serving_embeddings()
        assert calls == []
        _assert_bits_equal(list(served), list(source.serving_embeddings()))
