"""Configurable-dtype compute path: API, float32 gradients, seed parity.

Three layers of protection:

* the default-dtype switch/context behaves and never leaks between tests;
* the autograd ops that power the models pass numerical gradient checks
  under float32 with appropriately loosened tolerances;
* the float64 path stays *bit-identical* to the pre-refactor substrate —
  golden scores recorded from the seed implementation must reproduce
  exactly (seed parity).
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.tensor import (
    SparseAdjacency,
    Tensor,
    check_gradients,
    default_dtype,
    dtype_tolerances,
    get_default_dtype,
    set_default_dtype,
)
from repro.tensor import functional as F
from repro.tensor.tensor import concat, stack, where


@pytest.fixture(autouse=True)
def _restore_default_dtype():
    previous = get_default_dtype()
    yield
    set_default_dtype(previous)


class TestDefaultDtypeAPI:
    def test_default_is_float64(self):
        assert get_default_dtype() == np.dtype(np.float64)

    def test_set_and_restore(self):
        set_default_dtype("float32")
        assert Tensor([1.0, 2.0]).dtype == np.float32
        set_default_dtype("float64")
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_context_manager_scopes(self):
        with default_dtype("float32"):
            assert Tensor(3.0).dtype == np.float32
        assert Tensor(3.0).dtype == np.float64

    def test_context_manager_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with default_dtype("float32"):
                raise RuntimeError("boom")
        assert get_default_dtype() == np.dtype(np.float64)

    def test_rejects_non_float_dtype(self):
        with pytest.raises(ValueError):
            set_default_dtype(np.int32)

    def test_constructors_honor_dtype(self):
        with default_dtype("float32"):
            assert Tensor.zeros(2, 3).dtype == np.float32
            assert Tensor.ones(4).dtype == np.float32

    def test_scalars_adopt_operand_dtype(self):
        """float32 graphs stay float32 through scalar arithmetic."""
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = ((x * 2.0 + 1.0) / 3.0 - 0.5).maximum(0.0)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    @pytest.mark.parametrize("build", [
        lambda x: where(np.array([True, False, True]), x, 0.0),
        lambda x: where(np.array([True, False, True]), [1, 2, 3], x),
        lambda x: stack([x, [0, 0, 0]]),
        lambda x: concat([[0, 0], x]),
    ], ids=["where", "where-left", "stack", "concat"])
    def test_free_functions_adopt_operand_dtype(self, build):
        """``where`` / ``stack`` / ``concat`` wrap python operands at the
        Tensor operand's dtype, as the methods do: float32 stays float32."""
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        out = build(x)
        assert out.dtype == np.float32
        out.sum().backward()
        assert x.grad.dtype == np.float32

    def test_astype_roundtrips_gradient(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x.astype(np.float32)
        assert y.dtype == np.float32
        (y * 2.0).sum().backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_allclose(x.grad, 2.0)


class TestItem:
    def test_scalar_item(self):
        assert Tensor(5.0).item() == 5.0

    def test_multi_element_item_raises_value_error(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor([1.0, 2.0]).item()


class TestSparseTransposeCache:
    def test_T_shares_cache_both_directions(self):
        adj = SparseAdjacency(sp.random(5, 7, density=0.5, random_state=0))
        transposed = adj.T
        assert transposed._transpose_cache is adj.matrix
        assert adj._transpose_cache is transposed.matrix

    def test_precompute_transpose_eager(self):
        adj = SparseAdjacency(sp.random(5, 7, density=0.5, random_state=0),
                              precompute_transpose=True)
        assert adj._transpose_cache is not None

    def test_dtype_follows_default(self):
        with default_dtype("float32"):
            adj = SparseAdjacency(sp.random(4, 4, density=0.5, random_state=1))
        assert adj.dtype == np.float32
        assert adj.normalized("row").dtype == np.float32
        assert adj.T.dtype == np.float32


class TestFloat32Gradients:
    """The grad-check suite's core ops re-run under float32."""

    TOL = dtype_tolerances("float32")

    def _tensor(self, rng, shape, scale=1.0):
        return Tensor((rng.standard_normal(shape) * scale).astype(np.float32),
                      requires_grad=True)

    def test_arithmetic_chain(self):
        rng = np.random.default_rng(0)
        a = self._tensor(rng, (3, 4))
        b = self._tensor(rng, (3, 4))
        check_gradients(lambda a, b: a * b + a - b / 2.0, [a, b], **self.TOL)

    def test_matmul(self):
        rng = np.random.default_rng(1)
        a = self._tensor(rng, (4, 3))
        b = self._tensor(rng, (3, 5))
        check_gradients(lambda a, b: a.matmul(b), [a, b], **self.TOL)

    def test_nonlinearities(self):
        rng = np.random.default_rng(2)
        x = self._tensor(rng, (6,))
        check_gradients(lambda x: x.sigmoid(), [x], **self.TOL)
        check_gradients(lambda x: x.tanh(), [x], **self.TOL)
        check_gradients(lambda x: (x + 3.0).relu(), [x], **self.TOL)

    def test_softmax(self):
        rng = np.random.default_rng(3)
        x = self._tensor(rng, (4, 3))
        check_gradients(lambda x: F.softmax(x, axis=-1), [x], **self.TOL)

    def test_reductions_and_shapes(self):
        rng = np.random.default_rng(4)
        x = self._tensor(rng, (3, 4))
        check_gradients(lambda x: x.sum(axis=1), [x], **self.TOL)
        check_gradients(lambda x: x.mean(axis=0), [x], **self.TOL)
        check_gradients(lambda x: x.reshape(4, 3).transpose(), [x], **self.TOL)

    def test_gather_rows(self):
        rng = np.random.default_rng(5)
        x = self._tensor(rng, (6, 3))
        idx = np.array([0, 2, 2, 5])
        check_gradients(lambda x: x.gather_rows(idx), [x], **self.TOL)

    def test_sparse_matmul(self):
        rng = np.random.default_rng(6)
        with default_dtype("float32"):
            adj = SparseAdjacency(sp.random(5, 7, density=0.5, random_state=7))
        h = self._tensor(rng, (7, 3))
        check_gradients(lambda h: adj.matmul(h), [h], **self.TOL)
        out = adj.matmul(h)
        assert out.dtype == np.float32

    def test_gnmr_layer_float32(self):
        from repro.core.layers import GNMRPropagationLayer

        rng = np.random.default_rng(7)
        with default_dtype("float32"):
            layer = GNMRPropagationLayer(dim=4, memory_dims=2, num_heads=2, rng=rng)
            adjacencies = [
                SparseAdjacency(sp.random(5, 8, density=0.4, random_state=s))
                for s in (1, 2)
            ]
        source = self._tensor(rng, (8, 4))

        def fused(source):
            return layer(stack([a.matmul(source) for a in adjacencies], axis=1))

        out = fused(source)
        assert out.dtype == np.float32
        check_gradients(fused, [source], **self.TOL)


class TestSeedParity:
    """float64 results must be bit-identical to the pre-refactor substrate.

    The golden scores below were recorded from the seed implementation
    (per-behavior SpMM loop, hand-rolled adjacency building) immediately
    before the PropagationEngine refactor. Any bit-level drift in the
    float64 path shows up here.
    """

    GNMR_GOLDEN = np.array([
        0.32729831588482305, -0.037324087565587964, -0.07302223270344582,
        -0.04509849138475442, 0.2542494706788363, 0.522932900736781,
        -0.018301873393090477, 0.37108517224946636,
    ])
    NGCF_GOLDEN = np.array([
        0.021098157681668374, -0.12854861938771572, 0.15116226220590295,
        -0.03985173114034231, 0.06980060167427604, -0.10979619558273532,
        0.06382377564325978, -0.1428940685413741,
    ])

    @pytest.fixture(scope="class")
    def dataset(self, frozen_taobao):
        return frozen_taobao

    def test_gnmr_float64_bit_identical(self, dataset):
        from repro.core import GNMR, GNMRConfig

        model = GNMR(dataset, GNMRConfig(pretrain=False, seed=0, num_layers=2))
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert scores.dtype == np.float64
        assert (scores == self.GNMR_GOLDEN).all(), (
            f"float64 seed parity broken: max diff "
            f"{np.abs(scores - self.GNMR_GOLDEN).max():.3e}"
        )

    def test_ngcf_float64_bit_identical(self, dataset):
        from repro.models.ngcf import NGCF

        model = NGCF(dataset, embedding_dim=8, num_layers=2, seed=0)
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert (scores == self.NGCF_GOLDEN).all(), (
            f"float64 seed parity broken: max diff "
            f"{np.abs(scores - self.NGCF_GOLDEN).max():.3e}"
        )

    def test_gnmr_float32_tracks_float64(self, dataset):
        """The fast path approximates the reference path to f32 precision."""
        from repro.core import GNMR, GNMRConfig

        model = GNMR(dataset, GNMRConfig(pretrain=False, seed=0, num_layers=2,
                                         dtype="float32"))
        model.eval()
        scores = model.score(np.arange(8), np.arange(8, 16))
        assert scores.dtype == np.float32
        np.testing.assert_allclose(scores, self.GNMR_GOLDEN, atol=1e-4)
