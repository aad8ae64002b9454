"""Gradient checks for every primitive op in the autograd engine."""

import numpy as np
import pytest

from repro.nn.module import Parameter
from repro.tensor import RowSparseGrad, Tensor, check_gradients
from repro.tensor.tensor import concat, stack

RNG = np.random.default_rng(0)


def t(shape, requires_grad=True):
    return Tensor(RNG.standard_normal(shape), requires_grad=requires_grad)


class TestElementwise:
    def test_add_same_shape(self):
        check_gradients(lambda a, b: a + b, [t((3, 4)), t((3, 4))])

    def test_add_broadcast_vector(self):
        check_gradients(lambda a, b: a + b, [t((3, 4)), t((4,))])

    def test_add_broadcast_scalar_tensor(self):
        check_gradients(lambda a, b: a + b, [t((3, 4)), t(())])

    def test_add_python_scalar(self):
        check_gradients(lambda a: a + 2.5, [t((2, 3))])

    def test_radd(self):
        check_gradients(lambda a: 2.5 + a, [t((2, 3))])

    def test_sub(self):
        check_gradients(lambda a, b: a - b, [t((3, 2)), t((3, 2))])

    def test_rsub(self):
        check_gradients(lambda a: 1.0 - a, [t((3, 2))])

    def test_neg(self):
        check_gradients(lambda a: -a, [t((4,))])

    def test_mul_broadcast_keepdim(self):
        check_gradients(lambda a, b: a * b, [t((3, 4)), t((3, 1))])

    def test_div(self):
        a, b = t((3, 3)), t((3, 3))
        b.data = b.data + 3.0 * np.sign(b.data)  # keep away from zero
        check_gradients(lambda a, b: a / b, [a, b])

    def test_rdiv(self):
        a = t((3,))
        a.data = a.data + 3.0 * np.sign(a.data)
        check_gradients(lambda a: 2.0 / a, [a])

    def test_pow(self):
        a = t((3, 3))
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: a ** 3, [a])
        check_gradients(lambda a: a ** 0.5, [a])

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            t((2,)) ** t((2,))


class TestUnary:
    def test_exp(self):
        check_gradients(lambda a: a.exp(), [t((3, 3))])

    def test_log(self):
        a = t((3, 3))
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: a.log(), [a])

    def test_sqrt(self):
        a = t((3, 3))
        a.data = np.abs(a.data) + 0.5
        check_gradients(lambda a: a.sqrt(), [a])

    def test_abs(self):
        a = t((3, 3))
        a.data = a.data + 0.5 * np.sign(a.data)  # keep away from kink
        check_gradients(lambda a: a.abs(), [a])

    def test_relu(self):
        a = t((4, 4))
        a.data = a.data + 0.3 * np.sign(a.data)
        check_gradients(lambda a: a.relu(), [a])

    def test_leaky_relu(self):
        a = t((4, 4))
        a.data = a.data + 0.3 * np.sign(a.data)
        check_gradients(lambda a: a.leaky_relu(0.1), [a])

    def test_sigmoid(self):
        check_gradients(lambda a: a.sigmoid(), [t((3, 4))])

    def test_tanh(self):
        check_gradients(lambda a: a.tanh(), [t((3, 4))])

    def test_maximum(self):
        a, b = t((3, 3)), t((3, 3))
        b.data = a.data + np.where(RNG.random((3, 3)) > 0.5, 0.7, -0.7)
        check_gradients(lambda a, b: a.maximum(b), [a, b])


class TestReductions:
    def test_sum_all(self):
        check_gradients(lambda a: a.sum(), [t((3, 4))])

    def test_sum_axis(self):
        check_gradients(lambda a: a.sum(axis=0), [t((3, 4))])
        check_gradients(lambda a: a.sum(axis=1, keepdims=True), [t((3, 4))])

    def test_sum_multi_axis(self):
        check_gradients(lambda a: a.sum(axis=(0, 2)), [t((2, 3, 4))])

    def test_sum_negative_axis(self):
        check_gradients(lambda a: a.sum(axis=-1), [t((2, 3))])

    def test_mean(self):
        check_gradients(lambda a: a.mean(), [t((3, 4))])
        check_gradients(lambda a: a.mean(axis=1), [t((3, 4))])

    def test_mean_value(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert float(a.mean().data) == pytest.approx(2.5)

    def test_max_axis(self):
        a = t((4, 5))
        check_gradients(lambda a: a.max(axis=1), [a])

    def test_max_all(self):
        check_gradients(lambda a: a.max(), [t((4, 5))])

    def test_min(self):
        check_gradients(lambda a: a.min(axis=0), [t((4, 5))])

    def test_sum_view_never_becomes_a_stored_grad(self):
        """``sum`` hands its broadcast view on uncopied; what a leaf or a
        row-sparse grad keeps is its own writable memory."""
        dense = Parameter(np.ones((3, 4)))
        table = Parameter(np.ones((5, 4)))
        (dense.sum() + table.embedding_rows(np.array([0, 2])).sum()).backward()
        assert isinstance(table.grad, RowSparseGrad)
        for grad in (dense.grad, table.grad.values):
            assert grad.flags.writeable and grad.flags.owndata

    def test_max_ties_split_gradient(self):
        a = Tensor(np.array([[2.0, 2.0, 1.0]]), requires_grad=True)
        a.max(axis=1).sum().backward()
        np.testing.assert_allclose(a.grad, [[0.5, 0.5, 0.0]])


class TestMatmul:
    def test_matrix_matrix(self):
        check_gradients(lambda a, b: a.matmul(b), [t((3, 5)), t((5, 2))])

    def test_matmul_operator(self):
        check_gradients(lambda a, b: a @ b, [t((3, 5)), t((5, 2))])

    def test_vector_vector(self):
        check_gradients(lambda a, b: a.matmul(b), [t((4,)), t((4,))])

    def test_vector_matrix(self):
        check_gradients(lambda a, b: a.matmul(b), [t((4,)), t((4, 3))])

    def test_matrix_vector(self):
        check_gradients(lambda a, b: a.matmul(b), [t((3, 4)), t((4,))])

    def test_batched(self):
        check_gradients(lambda a, b: a.matmul(b), [t((2, 3, 4)), t((2, 4, 5))])

    def test_batched_4d(self):
        check_gradients(lambda a, b: a.matmul(b), [t((2, 2, 3, 4)), t((2, 2, 4, 3))])

    def test_batched_times_vector(self):
        check_gradients(lambda a, b: a.matmul(b), [t((2, 3, 4)), t((4,))])

    def test_matrix_broadcast_into_batch(self):
        check_gradients(lambda a, b: a.matmul(b), [t((3, 4)), t((5, 4, 2))])

    @pytest.mark.parametrize("shapes", [
        ((4, 3, 5), (5, 2)),        # (N, K, d) @ (d, p): one flat GEMM each
        ((2, 3, 2, 5), (5, 3)),     # two batch axes flatten alike
    ], ids=["batch@matrix", "4d@matrix"])
    def test_shared_right_operand(self, shapes):
        # (N, K, d) @ (d,) is test_batched_times_vector; the general rule
        # (2-D @ 2-D, 4-D @ 4-D) is pinned by test_matrix_matrix and
        # test_batched_4d
        check_gradients(lambda a, b: a.matmul(b), [t(shape) for shape in shapes])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("weight", [(16, 16), (16, 128), (16,)],
                             ids=["square", "wide", "vector"])
    def test_shared_right_operand_forward_is_np_matmul(self, dtype, k, weight):
        """GNMR's per-node K messages times a layer weight, any K: the one
        flat GEMM gives ``np.matmul``'s bits. K = 1 rows and a 1-D weight
        stay per-entry products (a GEMV rounds apart from a GEMM row)."""
        rng = np.random.default_rng(k)
        a = rng.standard_normal((300, k, 16)).astype(dtype)
        b = rng.standard_normal(weight).astype(dtype)
        np.testing.assert_array_equal(Tensor(a).matmul(Tensor(b)).data, np.matmul(a, b))


class TestOnlyNeededGradients:
    """A broadcast ``(…, 1)`` factor is contracted, and a constant operand
    of any binary op gets no gradient at all — not one computed and then
    dropped."""

    @pytest.mark.parametrize("shapes", [((3, 4, 5), (3, 4, 1)),
                                        ((3, 4, 1), (3, 4, 5)),
                                        ((6, 1), (6, 3))],
                             ids=["right", "left", "2d"])
    def test_mul_by_trailing_singleton(self, shapes):
        check_gradients(lambda a, b: a * b, [t(shape) for shape in shapes])

    @pytest.mark.parametrize("shapes", [((3, 4, 5), (3, 4, 1)),
                                        ((6, 1), (6, 3)),
                                        ((2, 3), (3,))],
                             ids=["softmax-denominator", "left", "vector"])
    def test_div_by_broadcast_divisor(self, shapes):
        a, b = (t(shape) for shape in shapes)
        b.data = np.abs(b.data) + 1.0
        check_gradients(lambda a, b: a / b, [a, b])

    def test_mul_by_trailing_singleton_keeps_float32(self):
        a = Tensor(RNG.standard_normal((3, 4)).astype(np.float32), requires_grad=True)
        b = Tensor(RNG.standard_normal((3, 1)).astype(np.float32), requires_grad=True)
        (a * b).sum().backward()
        assert b.grad.dtype == np.float32 and b.grad.shape == (3, 1)
        np.testing.assert_allclose(b.grad[:, 0], a.data.sum(axis=1),
                                   rtol=1e-6, atol=1e-6)

    OPS = {
        "add": lambda a, b: a + b,
        "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b,
        "div": lambda a, b: a / b,
        "maximum": lambda a, b: a.maximum(b),
        "matmul": lambda a, b: a.matmul(b.T),
        "batch-matmul": lambda a, b: a.reshape(3, 2, 2).matmul(b.T[:2]),
    }

    @pytest.mark.parametrize("constant", [0, 1], ids=["left", "right"])
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_constant_operand_gets_none(self, op, constant):
        fn = self.OPS[op]
        inputs = [t((3, 4)), t((3, 4))]
        # away from zero (div) and from each other (maximum ties)
        inputs[1].data = np.abs(inputs[1].data) + 3.0
        inputs[constant].requires_grad = False
        out = fn(*inputs)
        seen = []
        closure = out._backward

        def spy(grad):
            seen.append(closure(grad))
            return seen[-1]

        out._backward = spy
        out.sum().backward()
        assert seen[0][constant] is None
        assert seen[0][1 - constant] is not None
        assert inputs[constant].grad is None
        check_gradients(fn, inputs)


class TestShapeOps:
    def test_reshape(self):
        check_gradients(lambda a: a.reshape(6, 2), [t((3, 4))])
        check_gradients(lambda a: a.reshape((2, 6)), [t((3, 4))])

    def test_transpose_default(self):
        check_gradients(lambda a: a.transpose(), [t((3, 4))])

    def test_transpose_axes(self):
        check_gradients(lambda a: a.transpose(1, 0, 2), [t((2, 3, 4))])

    def test_swapaxes(self):
        check_gradients(lambda a: a.swapaxes(-1, -2), [t((2, 3, 4))])

    def test_squeeze(self):
        check_gradients(lambda a: a.squeeze(1), [t((3, 1, 4))])

    def test_getitem_slice(self):
        check_gradients(lambda a: a[1:3], [t((5, 4))])

    def test_getitem_fancy(self):
        idx = np.array([0, 2, 2])
        check_gradients(lambda a: a[idx], [t((5, 4))])

    def test_getitem_pair_index(self):
        rows = np.array([0, 1, 2])
        cols = np.array([1, 0, 3])
        check_gradients(lambda a: a[rows, cols], [t((4, 4))])

    def test_gather_rows_duplicates_accumulate(self):
        a = Tensor(np.eye(3), requires_grad=True)
        idx = np.array([1, 1, 1])
        a.gather_rows(idx).sum().backward()
        np.testing.assert_allclose(a.grad[1], [3.0, 3.0, 3.0])
        np.testing.assert_allclose(a.grad[0], 0.0)

    def test_gather_rows_nd_indices(self):
        idx = np.array([[0, 1], [2, 0]])
        out = t((3, 4)).gather_rows(idx)
        assert out.shape == (2, 2, 4)
        check_gradients(lambda a: a.gather_rows(idx), [t((3, 4))])

    def test_concat(self):
        check_gradients(lambda a, b: concat([a, b], axis=0), [t((2, 3)), t((4, 3))])
        check_gradients(lambda a, b: concat([a, b], axis=1), [t((2, 3)), t((2, 2))])

    def test_stack(self):
        check_gradients(lambda a, b: stack([a, b], axis=0), [t((2, 3)), t((2, 3))])
        check_gradients(lambda a, b: stack([a, b], axis=-1), [t((2, 3)), t((2, 3))])
