"""Tensor engine tests: forward semantics of each primitive, hand-written
adjoints against central finite differences, and the graph-replay
contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundusvit import autodiff as ad
from fundusvit.autodiff import NonFiniteError, ShapeError, Tensor
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.training import dual_bce_loss

from helpers import check_op_gradients


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(t(np.eye(2)), t([[1.0, 2.0], [3.0, 4.0]]))
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_projector_selects_row(self):
        out = ad.matmul(t([[1.0, 0.0], [0.0, 0.0]]), t([[5.0, 6.0], [7.0, 8.0]]))
        np.testing.assert_array_equal(out.data, [[5.0, 6.0], [0.0, 0.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        expected = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    expected[i, j] += a[i, k] * b[k, j]
        out = ad.matmul(t(a), t(b))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(t(np.zeros((2, 3))), t(np.zeros((2, 2))))


class TestSoftmax:
    def test_symmetry(self):
        out = ad.softmax(t([[0.0, 0.0, 0.0]]), axis=1)
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_exp_ln2(self):
        out = ad.softmax(t([[0.0, math.log(2.0)]]), axis=1)
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance_keeps_large_inputs_finite(self):
        big = ad.softmax(t([[1000.0, 1001.0]]), axis=1)
        small = ad.softmax(t([[0.0, 1.0]]), axis=1)
        assert np.all(np.isfinite(big.data))
        np.testing.assert_allclose(big.data, small.data, atol=1e-15)

    def test_invalid_axis(self):
        with pytest.raises(ShapeError):
            ad.softmax(t([[1.0, 2.0]]), axis=2)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8), st.integers(1, 5))
    def test_rows_sum_to_one_and_nonnegative(self, row, rows):
        x = np.tile(np.asarray(row), (rows, 1)) + np.arange(rows)[:, None]
        out = ad.softmax(t(x), axis=1)
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_vector_collapses_to_bias(self):
        out = ad.layer_norm(t([[5.0, 5.0, 5.0, 5.0]]), t(np.ones(4)), t(np.zeros(4)))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_already_normalized_pair(self):
        out = ad.layer_norm(t([[1.0, -1.0]]), t(np.ones(2)), t(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-9)

    def test_random_vector_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 8)) * 3 + 2
        out = ad.layer_norm(t(x), t(np.ones(8)), t(np.zeros(8)), eps=1e-5).data
        assert abs(out.mean()) < 1e-9
        var_in = ((x - x.mean()) ** 2).mean()
        np.testing.assert_allclose(out.var(), var_in / (var_in + 1e-5), rtol=1e-9)

    def test_direct_recomputation_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        out = ad.layer_norm(t(x), t(gain), t(bias), eps=1e-5).data
        for i in range(3):
            mu = x[i].mean()
            var = ((x[i] - mu) ** 2).mean()
            expected = gain * (x[i] - mu) / math.sqrt(var + 1e-5) + bias
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(t(np.zeros((2, 0))), t(np.ones(1)), t(np.zeros(1)))

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(ValueError):
            ad.layer_norm(t([[1.0, 2.0]]), t(np.ones(2)), t(np.zeros(2)), eps=0.0)


class TestBackwardContract:
    def test_sum_gradient_is_ones(self):
        x = t(np.arange(6.0).reshape(2, 3))
        ad.backward(ad.tsum(x))
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_elementwise_square_gradient(self):
        x = t([[1.0, 2.0, 3.0]])
        ad.backward(ad.tsum(ad.mul(x, x)))
        np.testing.assert_allclose(x.grad, [[2.0, 4.0, 6.0]], atol=1e-12)

    def test_double_backward_rejected(self):
        x = t([[1.0, 2.0]])
        loss = ad.tsum(x)
        ad.backward(loss)
        with pytest.raises(RuntimeError, match="already"):
            ad.backward(loss)

    def test_distinct_losses_accumulate(self):
        x = t([[1.0, 2.0]])
        ad.backward(ad.tsum(x))
        ad.backward(ad.tsum(ad.mul(x, 2.0)))
        np.testing.assert_array_equal(x.grad, [[3.0, 3.0]])

    def test_losses_sharing_an_op_output_accumulate_once(self):
        x = t([[1.0, 2.0]])
        y = ad.mul(x, 2.0)
        ad.backward(ad.tsum(y))
        ad.backward(ad.tsum(ad.mul(y, 3.0)))
        np.testing.assert_array_equal(x.grad, [[8.0, 8.0]])
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(t([[1.0, 2.0]]), 2.0))

    def test_untracked_loss_rejected(self):
        with pytest.raises(ValueError, match="not tracked"):
            ad.backward(ad.tsum(t([[1.0]], grad=False)))

    def test_trace_visits_each_tracked_tensor_once(self):
        x = t([[1.0, 2.0]])
        y = ad.mul(x, x)
        loss = ad.tsum(ad.add(y, y))
        order = ad.trace(loss)
        assert len(order) == len({id(n) for n in order})
        assert all(n.requires_grad for n in order)
        # parents always precede children
        position = {id(n): i for i, n in enumerate(order)}
        for node in order:
            for parent in node.parents:
                if parent.requires_grad:
                    assert position[id(parent)] < position[id(node)]


class TestPrimitiveGradients:
    """Every adjoint against central finite differences (64-bit)."""

    def setup_method(self):
        self.rng = np.random.default_rng(42)

    def leaf(self, *shape, offset=0.0):
        return t(self.rng.normal(size=shape) + offset)

    def test_matmul(self):
        a, b = self.leaf(3, 4), self.leaf(4, 2)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.matmul(a, b), ad.matmul(a, b))),
                           [a, b])

    def test_add_same_shape(self):
        a, b = self.leaf(2, 3), self.leaf(2, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_add_bias_row_broadcast(self):
        a, b = self.leaf(4, 3), self.leaf(1, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_mul_tensor_and_scalar(self):
        a, b = self.leaf(2, 3), self.leaf(2, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.mul(a, b), 1.7)), [a, b])

    def test_relu(self):
        a = self.leaf(3, 3)  # entries away from 0 with overwhelming probability
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.relu(a), ad.relu(a))), [a])

    def test_gelu(self):
        a = self.leaf(3, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.gelu(a), ad.gelu(a))), [a])

    def test_log(self):
        a = t(self.rng.uniform(0.5, 2.0, size=(2, 3)))
        check_op_gradients(lambda: ad.tsum(ad.log(a)), [a])

    def test_clip(self):
        a = t(np.array([[-0.8, -0.2, 0.3, 0.9]]))
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.clip(a, -0.5, 0.5),
                                                  ad.clip(a, -0.5, 0.5))), [a])

    def test_softmax_both_axes(self):
        for axis in (0, 1):
            a = self.leaf(3, 4)
            check_op_gradients(
                lambda a=a, axis=axis: ad.tsum(ad.mul(ad.softmax(a, axis),
                                                      ad.softmax(a, axis))), [a])

    def test_layer_norm_full_affine(self):
        x, g, b = self.leaf(3, 5), self.leaf(5, offset=1.0), self.leaf(5)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b))),
            [x, g, b])

    def test_layer_norm_scalar_affine(self):
        x, g, b = self.leaf(1, 6), self.leaf(1, offset=1.0), self.leaf(1)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b))),
            [x, g, b])

    def test_transpose_narrow_concat(self):
        a, b = self.leaf(3, 4), self.leaf(3, 4)
        def build():
            merged = ad.concat([a, ad.transpose(ad.transpose(b))], axis=1)
            piece = ad.narrow(merged, 1, 2, 3)
            return ad.tsum(ad.mul(piece, piece))
        check_op_gradients(build, [a, b])

    def test_sum(self):
        b = self.leaf(2, 2)
        check_op_gradients(lambda: ad.mul(ad.tsum(ad.mul(b, b)), 0.5), [b])


def per_head_attention(q, k, v, heads):
    """The engine's old attention layer, one head at a time; kept only as
    the reference for the fused ``attention`` primitive."""
    dh = q.shape[1] // heads
    outs = []
    for h in range(heads):
        qh, kh, vh = (ad.narrow(a, 1, h * dh, dh) for a in (q, k, v))
        scores = ad.mul(ad.matmul(qh, ad.transpose(kh)), 1.0 / math.sqrt(dh))
        outs.append(ad.matmul(ad.softmax(scores, axis=1), vh))
    return ad.concat(outs, axis=1)


class TestFusedPrimitives:
    """``linear`` and ``attention`` against finite differences and against
    the compositions they replace (64-bit)."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def leaf(self, *shape):
        return t(self.rng.normal(size=shape))

    def test_linear_gradients(self):
        x, w, b = self.leaf(5, 3), self.leaf(3, 4), self.leaf(1, 4)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))), [x, w, b])

    def test_linear_matches_matmul_plus_bias(self):
        x, w, b = self.leaf(5, 3), self.leaf(3, 4), self.leaf(1, 4)
        np.testing.assert_array_equal(ad.linear(x, w, b).data,
                                      ad.add(ad.matmul(x, w), b).data)

    def test_linear_untracked_input_gets_no_gradient(self):
        x, w, b = t(self.rng.normal(size=(5, 3)), grad=False), self.leaf(3, 4), self.leaf(1, 4)
        ad.backward(ad.tsum(ad.linear(x, w, b)))
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_linear_shape_errors(self):
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros((2, 3))), t(np.zeros((4, 2))), t(np.zeros((1, 2))))
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros((2, 3))), t(np.zeros((3, 2))), t(np.zeros(2)))

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_gradients(self, heads):
        q, k, v = self.leaf(5, 8), self.leaf(5, 8), self.leaf(5, 8)  # N != D
        weights = t(self.rng.normal(size=(5, 8)), grad=False)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.attention(q, k, v, heads), weights)), [q, k, v])

    @pytest.mark.parametrize("heads", [1, 2, 4])
    def test_attention_matches_per_head_composition(self, heads):
        q, k, v = self.leaf(6, 8), self.leaf(6, 8), self.leaf(6, 8)
        weights = t(self.rng.normal(size=(6, 8)), grad=False)

        def run(layer):
            out = layer()
            ad.backward(ad.tsum(ad.mul(out, weights)))
            grads = [a.grad.copy() for a in (q, k, v)]
            ad.zero_grads([q, k, v])
            return out.data, grads

        scale = 1.0 / math.sqrt(8 // heads)
        fused, fused_grads = run(lambda: ad.attention(ad.mul(q, scale), k, v, heads))
        ref, ref_grads = run(lambda: per_head_attention(q, k, v, heads))
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)
        for g, g_ref in zip(fused_grads, ref_grads):
            np.testing.assert_allclose(g, g_ref, rtol=0, atol=1e-12)

    def test_attention_score_overflow_is_an_error(self):
        huge = Tensor(np.full((3, 4), 1e20, dtype=np.float32), requires_grad=True)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError, match="attention"):
            ad.attention(huge, huge, huge, 2)

    def test_attention_nan_upstream_gradient_is_an_error(self):
        q, k, v = self.leaf(3, 4), self.leaf(3, 4), self.leaf(3, 4)
        out = ad.attention(q, k, v, 2)
        out.grad = np.full(out.shape, np.nan)
        with pytest.raises(NonFiniteError, match="backward through attention"):
            ad.backward(ad.tsum(out))

    def test_attention_shape_errors(self):
        a = t(np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            ad.attention(a, a, a, 3)
        with pytest.raises(ShapeError):
            ad.attention(a, t(np.zeros((2, 4))), a, 2)


class TestGraphSize:
    def test_training_graph_node_count_is_pinned(self):
        # 13 nodes per encoder block (2 norms, 6 linears, the query scale,
        # attention, the activation, 2 residual adds), 19 more in the
        # forward pass (the class token's broadcast over the stack among
        # them) and 10 in the loss; a layer spelled out in small ops again
        # changes this count
        cfg = ModelConfig(height=32, width=32, patch=16, dim=16, depth=2, heads=2,
                          agg_hidden=16)
        model = DualHeadViT(cfg, seed=0, dtype=np.float64)
        image = np.random.default_rng(0).random((32, 32, 3))
        loss = dual_bce_loss((0.0, 1.0), model.forward(image)).total
        assert sum(node.op != "leaf" for node in ad.trace(loss)) == 55


class TestNumericGuards:
    def test_log_of_zero_is_an_error(self):
        with pytest.raises(NonFiniteError):
            ad.log(t([[0.0, 1.0]]))

    def test_overflow_is_an_error(self):
        huge = t(np.full((2, 2), 1e308))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            ad.mul(huge, huge)

    def test_bounded_inputs_stay_finite(self):
        rng = np.random.default_rng(0)
        x = t(rng.uniform(-1e4, 1e4, size=(4, 4)))
        out = ad.softmax(ad.layer_norm(x, t(np.ones(4)), t(np.zeros(4))), axis=1)
        assert np.all(np.isfinite(out.data))

    def test_no_general_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((2, 3))), t(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.mul(t(np.zeros((2, 3))), t(np.zeros((2, 1))))


class TestDeterminism:
    def test_identical_inputs_identical_outputs_and_grads(self):
        def run():
            rng = np.random.default_rng(123)
            x = t(rng.normal(size=(4, 4)))
            w = t(rng.normal(size=(4, 4)))
            loss = ad.tsum(ad.softmax(ad.matmul(x, w), axis=1))
            ad.backward(loss)
            return loss.item(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = run()
        l2, gx2, gw2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_float32_leaves_stay_float32(self):
        x = Tensor(np.ones((2, 2), dtype=np.float32), requires_grad=True)
        out = ad.mul(x, 2.0)
        assert out.dtype == np.float32


class TestStackedShapes:
    """The shape rules widened for (B, T, D) stacks, against finite
    differences (64-bit) and against the 2-d forms slice by slice."""

    def setup_method(self):
        self.rng = np.random.default_rng(17)

    def leaf(self, *shape):
        return t(self.rng.normal(size=shape))

    def weights(self, *shape):
        return t(self.rng.normal(size=shape), grad=False)

    def test_batched_matmul_gradients(self):
        a, b = self.leaf(3, 2, 4), self.leaf(3, 4, 5)
        w = self.weights(3, 2, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.matmul(a, b), w)), [a, b])

    def test_batched_matmul_is_per_slice(self):
        a, b = self.leaf(3, 2, 4), self.leaf(3, 4, 5)
        out = ad.matmul(a, b).data
        for i in range(3):
            single = ad.matmul(t(a.data[i]), t(b.data[i])).data
            np.testing.assert_array_equal(out[i], single)

    def test_matmul_stack_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.matmul(t(np.zeros((2, 2, 3))), t(np.zeros((3, 3, 2))))
        with pytest.raises(ShapeError):
            ad.matmul(t(np.zeros((2, 2, 3))), t(np.zeros((3, 2))))

    @pytest.mark.parametrize("b_shape", [(4, 3), (1, 4, 3)])
    def test_add_table_over_the_stack(self, b_shape):
        a, b = self.leaf(2, 4, 3), self.leaf(*b_shape)
        w = self.weights(2, 4, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), w)), [a, b])

    def test_add_row_over_a_stack_of_rows(self):
        a, b = self.leaf(3, 1, 4), self.leaf(1, 4)
        w = self.weights(3, 1, 4)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), w)), [a, b])

    def test_add_other_broadcasts_rejected(self):
        for b_shape in [(1, 3), (3,), (2, 1, 3), (4, 1)]:
            with pytest.raises(ShapeError):
                ad.add(t(np.zeros((2, 4, 3))), t(np.zeros(b_shape)))

    def test_stacked_linear_gradients(self):
        x, w, b = self.leaf(2, 3, 4), self.leaf(4, 5), self.leaf(1, 5)
        u = self.weights(2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [x, w, b])

    def test_stacked_linear_is_per_slice(self):
        x, w, b = self.leaf(3, 1, 4), self.leaf(4, 2), self.leaf(1, 2)
        out = ad.linear(x, w, b).data
        for i in range(3):
            np.testing.assert_array_equal(out[i], ad.linear(t(x.data[i]), w, b).data)

    def test_transpose_of_the_last_two_axes(self):
        a = self.leaf(2, 3, 4)
        w = self.weights(2, 4, 3)
        np.testing.assert_array_equal(ad.transpose(a).data, a.data.transpose(0, 2, 1))
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.transpose(a), w)), [a])

    @pytest.mark.parametrize("heads", [1, 2])
    def test_batched_attention_gradients(self, heads):
        q, k, v = self.leaf(2, 5, 4), self.leaf(2, 5, 4), self.leaf(2, 5, 4)
        w = self.weights(2, 5, 4)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.attention(q, k, v, heads), w)), [q, k, v])

    def test_batched_attention_is_per_slice(self):
        q, k, v = (Tensor(self.rng.normal(size=(3, 6, 8)).astype(np.float32))
                   for _ in range(3))
        out = ad.attention(q, k, v, 4).data
        for i in range(3):
            single = ad.attention(Tensor(q.data[i]), Tensor(k.data[i]),
                                  Tensor(v.data[i]), 4).data
            np.testing.assert_array_equal(out[i], single)


class TestStackedGraph:
    def test_node_count_does_not_grow_with_the_stack(self):
        cfg = ModelConfig(height=32, width=32, patch=16, dim=16, depth=2, heads=2,
                          agg_hidden=16)
        model = DualHeadViT(cfg, seed=0, dtype=np.float64)
        images = np.random.default_rng(1).random((8, 32, 32, 3))

        def nodes(loss):
            return sum(node.op != "leaf" for node in ad.trace(loss))

        one = nodes(dual_bce_loss((0.0, 1.0), model.forward(images[0])).total)
        eight = nodes(dual_bce_loss([(0.0, 1.0)] * 8, model.forward(images)).total)
        assert one == eight <= 56


class TestTaskStackedShapes:
    """The shape rules widened for a task stack (a leading K axis on the
    parameters, (K, B, T, D) activations), against finite differences
    (64-bit) and against each task's own slice, bit for bit (32-bit)."""

    def setup_method(self):
        self.rng = np.random.default_rng(29)

    def leaf(self, *shape):
        return t(self.rng.normal(size=shape))

    def weights(self, *shape):
        return t(self.rng.normal(size=shape), grad=False)

    def leaf32(self, *shape):
        return Tensor(self.rng.normal(size=shape).astype(np.float32), requires_grad=True)

    @staticmethod
    def grads(build, leaves):
        ad.zero_grads(leaves)
        out = build()
        ad.backward(ad.tsum(out))
        return out.data, [leaf.grad.copy() for leaf in leaves]

    def test_linear_on_a_shared_input_gradients(self):
        x, w, b = self.leaf(2, 3, 4), self.leaf(3, 4, 5), self.leaf(3, 1, 5)
        u = self.weights(3, 2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [x, w, b])

    def test_linear_on_per_task_inputs_gradients(self):
        x, w, b = self.leaf(3, 2, 3, 4), self.leaf(3, 4, 5), self.leaf(3, 1, 5)
        u = self.weights(3, 2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [x, w, b])

    @pytest.mark.parametrize("shared", [True, False])
    def test_linear_is_per_task(self, shared):
        x = self.leaf32(2, 3, 4) if shared else self.leaf32(3, 2, 3, 4)
        w, b = self.leaf32(3, 4, 5), self.leaf32(3, 1, 5)
        out, (gx, gw, gb) = self.grads(lambda: ad.linear(x, w, b), [x, w, b])
        gx_sum = 0
        for k in range(3):
            xk = Tensor(x.data if shared else x.data[k], requires_grad=True)
            wk, bk = (Tensor(a.data[k], requires_grad=True) for a in (w, b))
            out_k, (gxk, gwk, gbk) = self.grads(lambda: ad.linear(xk, wk, bk), [xk, wk, bk])
            np.testing.assert_array_equal(out[k], out_k)
            np.testing.assert_array_equal(gw[k], gwk)
            np.testing.assert_array_equal(gb[k], gbk)
            if shared:
                gx_sum = gx_sum + gxk
            else:
                np.testing.assert_array_equal(gx[k], gxk)
        if shared:  # a shared input's gradient gathers every task's share
            np.testing.assert_allclose(gx, gx_sum, rtol=1e-6)

    def test_linear_task_shape_errors(self):
        w, b = t(np.zeros((3, 4, 5))), t(np.zeros((3, 1, 5)))
        for x_shape in [(2, 3, 3, 4), (3, 4), (1, 3, 2, 3, 4)]:
            with pytest.raises(ShapeError):
                ad.linear(t(np.zeros(x_shape)), w, b)
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros((2, 3, 4))), w, t(np.zeros((1, 5))))

    @pytest.mark.parametrize("width", [5, 1])
    def test_layer_norm_per_task_affine_gradients(self, width):
        x = self.leaf(3, 2, 4, 5)
        g, b = self.leaf(3, width), self.leaf(3, width)
        u = self.weights(3, 2, 4, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), u)), [x, g, b])

    @pytest.mark.parametrize("width", [5, 1])
    def test_layer_norm_is_per_task(self, width):
        x, g, b = self.leaf32(3, 2, 4, 5), self.leaf32(3, width), self.leaf32(3, width)
        out, grads = self.grads(lambda: ad.layer_norm(x, g, b), [x, g, b])
        for k in range(3):
            parts = [Tensor(a.data[k], requires_grad=True) for a in (x, g, b)]
            out_k, grads_k = self.grads(lambda: ad.layer_norm(*parts), parts)
            np.testing.assert_array_equal(out[k], out_k)
            for full, single in zip(grads, grads_k):
                np.testing.assert_array_equal(full[k], single)

    def test_layer_norm_task_shape_errors(self):
        for x_shape, g_shape in [((2, 2, 4, 5), (3, 5)), ((3, 2, 4, 5), (3, 4)),
                                 ((3, 2, 4, 5), (3, 1, 5))]:
            with pytest.raises(ShapeError):
                ad.layer_norm(t(np.zeros(x_shape)), t(np.ones(g_shape)),
                              t(np.zeros(g_shape)))

    @pytest.mark.parametrize("b_shape", [(3, 4, 5), (3, 1, 4, 5)])
    def test_add_task_table_over_the_stack_gradients(self, b_shape):
        a, b = self.leaf(3, 2, 4, 5), self.leaf(*b_shape)
        u = self.weights(3, 2, 4, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b, axis=1), u)), [a, b])

    def test_add_task_table_is_per_task(self):
        a, b = self.leaf32(3, 2, 4, 5), self.leaf32(3, 4, 5)
        out, (_, gb) = self.grads(lambda: ad.add(a, b, axis=1), [a, b])
        for k in range(3):
            ak, bk = (Tensor(x.data[k], requires_grad=True) for x in (a, b))
            out_k, (_, gbk) = self.grads(lambda: ad.add(ak, bk), [ak, bk])
            np.testing.assert_array_equal(out[k], out_k)
            np.testing.assert_array_equal(gb[k], gbk)

    def test_add_broadcast_needs_its_axis(self):
        # (3, 4, 5) fits (3, 3, 4, 5) along axis 1, and along axis 0 only as
        # a table shared by the leading axis: each axis is its own rule
        a, b = self.leaf32(3, 3, 4, 5), self.leaf32(3, 4, 5)
        along_0 = ad.add(a, b).data
        along_1 = ad.add(a, b, axis=1).data
        np.testing.assert_array_equal(along_0, a.data + b.data[None])
        np.testing.assert_array_equal(along_1, a.data + b.data[:, None])
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((3, 2, 4, 5))), t(np.zeros((2, 4, 5))), axis=1)

    def test_per_task_sum_gradients(self):
        a, u = self.leaf(3, 2, 1, 2), self.weights(3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.tsum(ad.mul(a, a), 1), u)), [a])

    def test_per_task_sum_is_per_task(self):
        a = self.leaf32(3, 8, 1, 2)
        sums = ad.tsum(a, 1)
        assert sums.shape == (3,)
        for k in range(3):
            assert sums.data[k] == ad.tsum(Tensor(a.data[k])).data

    @pytest.mark.parametrize("heads", [1, 2])
    def test_attention_with_a_task_axis_gradients(self, heads):
        q, k, v = self.leaf(2, 2, 5, 4), self.leaf(2, 2, 5, 4), self.leaf(2, 2, 5, 4)
        u = self.weights(2, 2, 5, 4)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.attention(q, k, v, heads), u)), [q, k, v])

    def test_attention_with_a_task_axis_is_per_task(self):
        q, k, v = self.leaf32(3, 2, 6, 8), self.leaf32(3, 2, 6, 8), self.leaf32(3, 2, 6, 8)
        out, grads = self.grads(lambda: ad.attention(q, k, v, 4), [q, k, v])
        for i in range(3):
            parts = [Tensor(a.data[i], requires_grad=True) for a in (q, k, v)]
            out_i, grads_i = self.grads(lambda: ad.attention(*parts, 4), parts)
            np.testing.assert_array_equal(out[i], out_i)
            for full, single in zip(grads, grads_i):
                np.testing.assert_array_equal(full[i], single)

    def test_matmul_with_a_task_axis_gradients(self):
        a, b = self.leaf(2, 3, 1, 4), self.leaf(2, 3, 4, 5)
        u = self.weights(2, 3, 1, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.matmul(a, b), u)), [a, b])
