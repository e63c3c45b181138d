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
        out = ad.softmax(t([[0.0, 0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-15)

    def test_exp_ln2(self):
        out = ad.softmax(t([[0.0, math.log(2.0)]]))
        np.testing.assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance_keeps_large_inputs_finite(self):
        big = ad.softmax(t([[1000.0, 1001.0]]))
        small = ad.softmax(t([[0.0, 1.0]]))
        assert np.all(np.isfinite(big.data))
        np.testing.assert_allclose(big.data, small.data, atol=1e-15)

    def test_invalid_axis(self):
        # softmax runs over the last axis; there is no axis to choose
        for axis in (-1, 0, 2):
            with pytest.raises(TypeError):
                ad.softmax(t([[1.0, 2.0]]), axis=axis)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1e4, 1e4), min_size=1, max_size=8), st.integers(1, 5))
    def test_rows_sum_to_one_and_nonnegative(self, row, rows):
        x = np.tile(np.asarray(row), (rows, 1)) + np.arange(rows)[:, None]
        out = ad.softmax(t(x))
        assert np.all(out.data >= 0)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-6)


class TestLayerNorm:
    def test_constant_vector_collapses_to_bias(self):
        out = ad.layer_norm(t([[5.0, 5.0, 5.0, 5.0]]), t(np.ones((1, 4))),
                            t(np.zeros((1, 4))))
        np.testing.assert_array_equal(out.data, np.zeros((1, 4)))

    def test_already_normalized_pair(self):
        out = ad.layer_norm(t([[1.0, -1.0]]), t(np.ones((1, 2))), t(np.zeros((1, 2))))
        np.testing.assert_allclose(out.data, [[1.0, -1.0]] / np.sqrt(1.0 + 1e-5),
                                   rtol=0, atol=1e-15)

    def test_random_vector_statistics(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 8)) * 3 + 2
        out = ad.layer_norm(t(x), t(np.ones((1, 8))), t(np.zeros((1, 8)))).data
        assert abs(out.mean()) < 1e-9
        var_in = ((x - x.mean()) ** 2).mean()
        np.testing.assert_allclose(out.var(), var_in / (var_in + 1e-5), rtol=1e-9)

    def test_direct_recomputation_oracle(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(3, 5))
        gain = rng.normal(size=5)
        bias = rng.normal(size=5)
        out = ad.layer_norm(t(x[None]), t(gain[None]), t(bias[None])).data[0]
        for i in range(3):
            mu = x[i].mean()
            var = ((x[i] - mu) ** 2).mean()
            expected = gain * (x[i] - mu) / math.sqrt(var + 1e-5) + bias
            np.testing.assert_allclose(out[i], expected, atol=1e-12)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(ShapeError):
            ad.layer_norm(t(np.zeros((1, 2, 0))), t(np.ones((1, 1))), t(np.zeros((1, 1))))

    def test_eps_is_the_engine_constant(self):
        assert ad.LAYER_NORM_EPS == 1e-5
        for eps in (0.0, 1e-5):  # the model passes none, so none is taken
            with pytest.raises(TypeError):
                ad.layer_norm(t([[1.0, 2.0]]), t(np.ones((1, 2))), t(np.zeros((1, 2))),
                              eps=eps)


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

    def test_first_gradient_is_the_array_its_adjoint_returned(self):
        x = t([[1.0, -2.0, 3.0]])
        y = ad.relu(x)
        returned, vjp = [], y._vjp

        def recording(g):
            returned.extend(vjp(g))
            return returned

        y._vjp = recording
        ad.backward(ad.tsum(y))
        assert x.grad is returned[0]

    def test_later_gradients_sum_out_of_place_in_the_leaf_dtype(self):
        x = Tensor(np.ones((1, 2), dtype=np.float32), requires_grad=True)
        ad.backward(ad.tsum(ad.mul(x, t([[2.0, 3.0]]))))
        first = x.grad
        assert first.dtype == np.float32
        ad.backward(ad.tsum(x))
        assert x.grad.dtype == np.float32 and x.grad is not first
        np.testing.assert_array_equal(x.grad, [[3.0, 4.0]])
        np.testing.assert_array_equal(first, [[2.0, 3.0]])

    def test_parents_handed_one_array_accumulate_apart(self):
        # add's adjoint passes its incoming gradient to both parents
        a, b = t([[1.0, 2.0]]), t([[3.0, 4.0]])
        ad.backward(ad.tsum(ad.add(a, b)))
        ad.backward(ad.tsum(ad.mul(a, 2.0)))
        np.testing.assert_array_equal(a.grad, [[3.0, 3.0]])
        np.testing.assert_array_equal(b.grad, [[1.0, 1.0]])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            ad.backward(ad.mul(t([[1.0, 2.0]]), 2.0))

    def test_untracked_loss_rejected(self):
        with pytest.raises(ValueError, match="not tracked"):
            ad.backward(ad.tsum(t([[1.0]], grad=False)))

    def test_non_tensor_loss_rejected(self):
        with pytest.raises(TypeError, match="expects a Tensor"):
            ad.backward(np.float64(1.0))

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
        a, b = self.leaf(1, 4, 3), self.leaf(1, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), ad.add(a, b))), [a, b])

    def test_mul_tensor_and_scalar(self):
        a, b = self.leaf(2, 3), self.leaf(2, 3)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.mul(a, b), 1.7)), [a, b])

    def test_relu(self):
        a = self.leaf(3, 3)  # entries away from 0 with overwhelming probability
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.relu(a), ad.relu(a))), [a])

    def test_log(self):
        a = t(self.rng.uniform(0.5, 2.0, size=(2, 3)))
        check_op_gradients(lambda: ad.tsum(ad.log(a)), [a])

    def test_clip(self):
        a = t(np.array([[-0.8, -0.2, 0.3, 0.9]]))
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.clip(a, -0.5, 0.5),
                                                  ad.clip(a, -0.5, 0.5))), [a])

    def test_softmax(self):
        a = self.leaf(3, 4)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.softmax(a), ad.softmax(a))), [a])

    def test_layer_norm_full_affine(self):
        x, g, b = self.leaf(1, 3, 5), self.leaf(1, 5, offset=1.0), self.leaf(1, 5)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b))),
            [x, g, b])

    def test_layer_norm_scalar_affine(self):
        x, g, b = self.leaf(1, 1, 6), self.leaf(1, 1, offset=1.0), self.leaf(1, 1)
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
        outs.append(ad.matmul(ad.softmax(scores), vh))
    return ad.concat(outs, axis=1)


class TestFusedPrimitives:
    """``linear`` and ``attention`` against finite differences and against
    the compositions they replace (64-bit)."""

    def setup_method(self):
        self.rng = np.random.default_rng(11)

    def leaf(self, *shape):
        return t(self.rng.normal(size=shape))

    def test_linear_gradients(self):
        x, w, b = self.leaf(1, 1, 5, 3), self.leaf(1, 3, 4), self.leaf(1, 1, 4)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.linear(x, w, b), ad.linear(x, w, b))), [x, w, b])

    def test_linear_matches_matmul_plus_bias(self):
        x, w, b = self.leaf(1, 1, 5, 3), self.leaf(1, 3, 4), self.leaf(1, 1, 4)
        np.testing.assert_array_equal(ad.linear(x, w, b).data[:, 0],
                                      ad.add(ad.matmul(t(x.data[:, 0]), w),
                                             t(b.data[:, 0])).data)

    def test_linear_untracked_input_gets_no_gradient(self):
        x = t(self.rng.normal(size=(1, 1, 5, 3)), grad=False)
        w, b = self.leaf(1, 3, 4), self.leaf(1, 1, 4)
        ad.backward(ad.tsum(ad.linear(x, w, b)))
        assert x.grad is None and w.grad is not None and b.grad is not None

    def test_linear_shape_errors(self):
        for x_shape, w_shape, b_shape in [
                ((1, 1, 2, 3), (1, 4, 2), (1, 1, 2)),  # inner extents differ
                ((1, 1, 2, 3), (1, 3, 2), (1, 2)),     # a bias without its task axis
                ((1, 2, 3), (1, 3, 2), (1, 1, 2)),     # a (B, T, Din) input, no task axis
                ((2, 3), (3, 2), (1, 2)),              # a (T, Din) input, a 2-d weight
                ((1, 1, 2, 3), (3, 2), (1, 2))]:       # a 2-d weight on a stack
            with pytest.raises(ShapeError):
                ad.linear(t(np.zeros(x_shape)), t(np.zeros(w_shape)),
                          t(np.zeros(b_shape)))

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


def head_bounds(q, k, heads):
    """``max_i |q_i| * max_j |k_j|`` of each head slice of (..., N, D)
    arrays, shaped (..., heads): the score bound ``attention`` tests."""
    *lead, n, d = q.shape

    def norms(a):
        return np.linalg.norm(a.reshape(*lead, n, heads, d // heads), axis=-1).max(axis=-2)

    return norms(np.float64(q)) * norms(np.float64(k))


def head_paths(q, k, v, heads):
    """The path ``attention`` takes for each head slice of (..., N, D)
    arrays, shaped (..., heads): "bounded" (unshifted, normalised after the
    product) or "former" (scanned, shifted and normalised before it). The
    row norms are squared in the arrays' dtype, as ``attention`` squares
    them, so a square past float max makes a slice "former"."""
    *lead, n, d = q.shape
    dh = d // heads
    if n <= dh:
        return np.full((*lead, heads), "former")

    def norms(a):
        a = a.reshape(*lead, n, heads, dh)
        with np.errstate(over="ignore", invalid="ignore"):
            return np.float64(np.sqrt((a * a).sum(axis=-1).max(axis=-2)))

    bounded = (norms(q) * norms(k) <= ad.SCORE_BOUND) & np.isfinite(norms(v))
    return np.where(bounded, "bounded", "former")


def normalised_first_attention(q, k, v, heads):
    """``attention``'s forward before it normalised late: a finiteness scan
    of every score, the row-max shift, exp, row sum and divide, then the
    product with v and the op's output check. The oracle for the inputs the
    op must refuse."""
    *lead, n, d = q.shape
    dh = d // heads

    def split(a):
        return a.reshape(*lead, n, heads, dh).swapaxes(-2, -3)

    p = split(q) @ split(k).swapaxes(-1, -2)
    if not np.isfinite(p).all():
        raise NonFiniteError("attention produced non-finite scores")
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ split(v)).swapaxes(-2, -3).reshape(*lead, n, d)
    if not np.isfinite(out).all():
        raise NonFiniteError("attention produced non-finite values")
    return out


class TestBoundedAttention:
    """``attention`` takes one of two paths per head slice: bounded
    (unshifted, normalised after the product) where ``SCORE_BOUND`` bounds
    the scores and v's squared row norms are finite, and former (scanned,
    shifted and normalised before the product) elsewhere, and for every
    slice when N <= dh."""

    def setup_method(self):
        self.rng = np.random.default_rng(23)

    def normal(self, *shape, scale=1.0, dtype=np.float64):
        return (scale * self.rng.normal(size=shape)).astype(dtype)

    @pytest.mark.parametrize("n,q_scale,path", [(5, 0.3, "bounded"), (5, 6.0, "former"),
                                                (4, 6.0, "former")])
    def test_gradients_on_each_path(self, n, q_scale, path):
        q, k, v = t(self.normal(n, 8, scale=q_scale)), t(self.normal(n, 8)), \
            t(self.normal(n, 8))
        assert (head_paths(q.data, k.data, v.data, 2) == path).all()
        weights = t(self.normal(n, 8), grad=False)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.attention(q, k, v, 2), weights)), [q, k, v])

    @pytest.mark.parametrize("v_scale,path", [(1e150, "bounded"), (1e300, "former")])
    def test_large_values_with_gradients(self, v_scale, path):
        # bounded scores; v's squared row norms below or past float max
        q, k = t(self.normal(4, 4, scale=0.3)), t(self.normal(4, 4))
        v = t(self.normal(4, 4, scale=v_scale))
        assert (head_paths(q.data, k.data, v.data, 2) == path).all()
        weights = t(self.normal(4, 4, scale=1.0 / v_scale), grad=False)
        out = ad.attention(q, k, v, 2)
        np.testing.assert_allclose(out.data, normalised_first_attention(
            q.data, k.data, v.data, 2), rtol=1e-12)
        check_op_gradients(
            lambda: ad.tsum(ad.mul(ad.attention(q, k, v, 2), weights)), [q, k])

    def test_few_tokens_run_the_former_forward_bit_for_bit(self):
        # N = 5 <= dh = 8: no bound, every slice takes the former path
        q, k, v = (self.normal(2, 3, 5, 32, dtype=np.float32) for _ in range(3))
        assert (head_paths(q, k, v, 4) == "former").all()
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), 4).data
        assert out.tobytes() == normalised_first_attention(q, k, v, 4).tobytes()

    @pytest.mark.parametrize("mixed", [False, True])
    def test_many_tokens_run_the_former_forward_bit_for_bit_past_the_bound(self, mixed):
        # N = 17 > dh = 8: a slice past SCORE_BOUND divides its product by
        # l = 1, so its bytes are the former forward's
        heads, dh = 4, 8
        q, k, v = (self.normal(2, 3, 17, heads * dh, dtype=np.float32) for _ in range(3))
        q *= 30.0
        if mixed:
            q[0, 1] *= 1e-3          # image 1 of stack 0: every head bounded
            q[1, :, :, :dh] *= 1e-3  # head 0 of stack 1: bounded
        paths = head_paths(q, k, v, heads)
        assert set(paths.ravel()) == ({"bounded", "former"} if mixed else {"former"})
        out = ad.attention(Tensor(q), Tensor(k), Tensor(v), heads).data
        former = paths == "former"
        got, want = (a.reshape(2, 3, 17, heads, dh).swapaxes(-2, -3)[former]
                     for a in (out, normalised_first_attention(q, k, v, heads)))
        assert got.tobytes() == want.tobytes()

    def test_each_slice_of_a_mixed_stack_equals_its_stack_of_one(self):
        heads = 2
        q, k, v, w = (self.normal(4, 6, 8, dtype=np.float32) for _ in range(4))
        q *= 0.3
        q[1] *= 30.0         # image 1: both heads former
        q[2, :, :4] *= 30.0  # image 2: head 0 former, head 1 not
        v[3, :, 4:] *= 1e20  # image 3: head 1 former (its squared norms overflow)
        w[3] *= 1e-20
        assert head_paths(q, k, v, heads).tolist() == [
            ["bounded", "bounded"], ["former", "former"], ["former", "bounded"],
            ["bounded", "former"]]

        def run(qd, kd, vd, wd):
            leaves = [Tensor(a.copy(), requires_grad=True) for a in (qd, kd, vd)]
            out = ad.attention(*leaves, heads)
            ad.backward(ad.tsum(ad.mul(out, Tensor(wd))))
            return [out.data] + [leaf.grad for leaf in leaves]

        stacked = run(q, k, v, w)
        for i in range(len(q)):
            single = run(q[i], k[i], v[i], w[i])
            for got, want in zip(stacked, single):
                assert got.dtype == np.float32
                assert got[i].tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_guards_raise_exactly_where_the_former_forward_raises(self, dtype):
        info = np.finfo(dtype)
        values = [np.inf, -np.inf, np.nan, info.max, -info.max, info.max / 8,
                  np.sqrt(info.max), np.sqrt(info.max) / 2, info.max ** 0.25,
                  info.max / 1e9, info.max / 1e12, 1e4]
        base = [self.normal(3, 5, 4, dtype=dtype) for _ in range(3)]
        places = [(0, 1, 2), (0, 1, slice(None)), (0,), (slice(None),)]
        outcomes = set()
        for targets in ("q", "k", "v", "qk", "qkv"):
            for value in values:
                for place in places:
                    q, k, v = (a.copy() for a in base)
                    for name, a in zip("qkv", (q, k, v)):
                        if name in targets:
                            a[place] = value
                    with np.errstate(all="ignore"):
                        try:
                            expected = normalised_first_attention(q, k, v, 2)
                        except NonFiniteError as exc:
                            expected = str(exc)
                        try:
                            got = ad.attention(Tensor(q), Tensor(k), Tensor(v), 2).data
                        except NonFiniteError as exc:
                            got = str(exc)
                    case = (targets, value, place)
                    if isinstance(expected, str):
                        assert got == expected, case
                        outcomes.add(expected)
                    else:
                        assert not isinstance(got, str), (case, got)
                        np.testing.assert_allclose(got, expected, rtol=1e-4,
                                                   atol=1e-6 * np.abs(expected).max(),
                                                   err_msg=str(case))
                        outcomes.add("finite")
        assert outcomes == {"finite", "attention produced non-finite scores",
                            "attention produced non-finite values"}

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_largest_values_of_each_path_stay_finite(self, dtype):
        # every score is exactly 16 (SCORE_BOUND, bounded E = e^16) or 64
        # (former E = P = 1 / n); each row of v puts its whole norm in one
        # column, the largest column sums of E v a norm allows. A row norm
        # leaves the bounded path where its square passes float max, at
        # sqrt(float max)
        n, heads = 5, 2
        info = np.finfo(dtype)
        paths = set()
        for q_value in (4.0, 8.0):
            q = np.zeros((n, 4), dtype)
            q[:, ::2] = q_value
            assert (head_bounds(q, q, heads) == q_value ** 2).all()
            for value in (np.sqrt(info.max) / 2, np.sqrt(info.max) * 2, info.max / 2):
                v = np.zeros((n, 4), dtype)
                v[:, ::2] = value
                paths.update(head_paths(q, q, v, heads).ravel())
                out = ad.attention(Tensor(q), Tensor(q.copy()), Tensor(v), heads).data
                np.testing.assert_allclose(
                    out, normalised_first_attention(q, q, v, heads), rtol=1e-6)
        assert paths == {"bounded", "former"}

    @pytest.mark.parametrize("bound", [0.5 * ad.SCORE_BOUND, 2.0 * ad.SCORE_BOUND])
    def test_float32_output_near_the_per_head_reference(self, bound):
        heads, dh = 4, 8
        q, k, v = (self.normal(12, heads * dh) for _ in range(3))
        scale = 1.0 / math.sqrt(dh)
        # scale q so that the largest head bound of the scaled scores is ``bound``
        q *= bound / (scale * head_bounds(q, k, heads).max())
        q, k, v = (a.astype(np.float32) for a in (q, k, v))
        paths = head_paths(q * np.float32(scale), k, v, heads)
        assert (paths == "bounded").all() if bound < ad.SCORE_BOUND \
            else (paths == "former").any()
        fused = ad.attention(ad.mul(Tensor(q), scale), Tensor(k), Tensor(v), heads).data
        ref = per_head_attention(*(t(a, grad=False) for a in (q, k, v)), heads).data
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-6)


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
        loss = dual_bce_loss([[1]], model.forward(image[None])).total
        assert sum(node.op != "leaf" for node in ad.trace(loss)) == 55


class TestRelu:
    """``relu`` against its former ``np.where(a > 0, a, 0.0)`` form, bit for
    bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bytes_equal_the_where_form(self, dtype):
        info = np.finfo(dtype)
        special_values = [-0.0, 0.0, info.smallest_subnormal, -info.smallest_subnormal,
                          info.tiny, -info.tiny, info.max, -info.max, 1.5, -2.5]
        ordinary = np.random.default_rng(3).normal(size=300)
        for values in (special_values, ordinary):
            # every length and offset, so vector loops and their scalar tails
            # both see each value
            for n in range(1, 40):
                x = np.resize(np.asarray(values, dtype=dtype), n)
                out = ad.relu(Tensor(x)).data
                assert out.dtype == dtype
                np.testing.assert_array_equal(
                    out.view(f"u{out.itemsize}"),
                    np.where(x > 0, x, 0.0).astype(dtype).view(f"u{out.itemsize}"))
        assert not np.signbit(ad.relu(Tensor(np.full((5, 3), -0.0, dtype))).data).any()

    def test_non_finite_inputs_are_errors(self):
        for value in (np.inf, np.nan):
            with pytest.raises(NonFiniteError, match="relu"):
                ad.relu(Tensor(np.array([1.0, value], dtype=np.float32)))


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
        out = ad.softmax(ad.layer_norm(x, t(np.ones((4, 4))), t(np.zeros((4, 4)))))
        assert np.all(np.isfinite(out.data))

    def test_no_general_broadcasting(self):
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((2, 3))), t(np.zeros(3)))
        with pytest.raises(ShapeError):
            ad.mul(t(np.zeros((2, 3))), t(np.zeros((2, 1))))


class TestInputGuards:
    def test_non_float_data_is_cast_to_float64(self):
        x = Tensor(np.arange(3))
        assert x.dtype == np.float64
        np.testing.assert_array_equal(x.data, [0.0, 1.0, 2.0])

    def test_item_requires_a_scalar(self):
        assert t([[2.5]]).item() == 2.5
        with pytest.raises(ShapeError, match="scalar"):
            t([1.0, 2.0]).item()

    def test_transpose_requires_two_axes(self):
        with pytest.raises(ShapeError, match="at least 2 axes"):
            ad.transpose(t([1.0, 2.0]))

    @pytest.mark.parametrize("axis, start, length, match", [
        (-1, 0, 1, "invalid"), (2, 0, 1, "invalid"),
        (1, -1, 1, "out of range"), (1, 0, 0, "out of range"), (1, 2, 2, "out of range")])
    def test_narrow_outside_the_tensor_rejected(self, axis, start, length, match):
        with pytest.raises(ShapeError, match=match):
            ad.narrow(t(np.zeros((2, 3))), axis, start, length)

    def test_concat_of_nothing_rejected(self):
        with pytest.raises(ShapeError, match="at least one"):
            ad.concat([], 0)


class TestDeterminism:
    def test_identical_inputs_identical_outputs_and_grads(self):
        def run():
            rng = np.random.default_rng(123)
            x = t(rng.normal(size=(4, 4)))
            w = t(rng.normal(size=(4, 4)))
            loss = ad.tsum(ad.softmax(ad.matmul(x, w)))
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
    """The shape rules over (B, T, D) image stacks, against finite
    differences (64-bit) and against single images slice by slice."""

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

    @pytest.mark.parametrize("b_shape", [(1, 4, 3), (2, 4, 3)])
    def test_add_table_over_the_stack(self, b_shape):
        a, b = self.leaf(b_shape[0], 2, *b_shape[1:]), self.leaf(*b_shape)
        w = self.weights(b_shape[0], 2, *b_shape[1:])
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), w)), [a, b])

    def test_add_row_over_a_stack_of_rows(self):
        a, b = self.leaf(1, 3, 1, 4), self.leaf(1, 1, 4)
        w = self.weights(1, 3, 1, 4)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), w)), [a, b])

    def test_add_other_broadcasts_rejected(self):
        # (4, 3) and (1, 4, 3) broadcast over axis 0, which add does not do
        for b_shape in [(1, 3), (3,), (4, 3), (1, 4, 3), (4, 1)]:
            with pytest.raises(ShapeError):
                ad.add(t(np.zeros((2, 4, 3))), t(np.zeros(b_shape)))

    def test_stacked_linear_gradients(self):
        x, w, b = self.leaf(1, 2, 3, 4), self.leaf(1, 4, 5), self.leaf(1, 1, 5)
        u = self.weights(1, 2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [x, w, b])

    def test_stacked_linear_is_per_slice(self):
        x, w, b = self.leaf(1, 3, 1, 4), self.leaf(1, 4, 2), self.leaf(1, 1, 2)
        out = ad.linear(x, w, b).data
        for i in range(3):
            np.testing.assert_array_equal(out[:, i:i + 1],
                                          ad.linear(t(x.data[:, i:i + 1]), w, b).data)

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

        one = nodes(dual_bce_loss([[1]], model.forward(images[0][None])).total)
        eight = nodes(dual_bce_loss([[1] * 8], model.forward(images)).total)
        assert one == eight <= 56


class TestTaskStackedShapes:
    """The shape rules of a task stack (a leading K axis on the parameters,
    (K, B, T, D) activations), against finite differences (64-bit) and
    against each task's own K = 1 slice, bit for bit (32-bit)."""

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
        # the model's patches: one untracked view of a (B, T, Din) stack
        x = Tensor(np.broadcast_to(self.rng.normal(size=(2, 3, 4)), (3, 2, 3, 4)))
        w, b = self.leaf(3, 4, 5), self.leaf(3, 1, 5)
        u = self.weights(3, 2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [w, b])

    def test_linear_on_per_task_inputs_gradients(self):
        x, w, b = self.leaf(3, 2, 3, 4), self.leaf(3, 4, 5), self.leaf(3, 1, 5)
        u = self.weights(3, 2, 3, 5)
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.linear(x, w, b), u)), [x, w, b])

    @pytest.mark.parametrize("shared", [True, False])
    def test_linear_is_per_task(self, shared):
        if shared:  # one view of the images for every task, as the model passes
            x = Tensor(np.broadcast_to(self.leaf32(2, 3, 4).data, (3, 2, 3, 4)))
        else:
            x = self.leaf32(3, 2, 3, 4)
        w, b = self.leaf32(3, 4, 5), self.leaf32(3, 1, 5)
        leaves = [w, b] if shared else [x, w, b]
        out, grads = self.grads(lambda: ad.linear(x, w, b), leaves)
        for k in range(3):
            xk = Tensor(x.data[k:k + 1], requires_grad=not shared)
            wk, bk = (Tensor(a.data[k:k + 1], requires_grad=True) for a in (w, b))
            leaves_k = [wk, bk] if shared else [xk, wk, bk]
            out_k, grads_k = self.grads(lambda: ad.linear(xk, wk, bk), leaves_k)
            np.testing.assert_array_equal(out[k:k + 1], out_k)
            for full, single in zip(grads, grads_k):
                np.testing.assert_array_equal(full[k:k + 1], single)

    def test_linear_task_shape_errors(self):
        w, b = t(np.zeros((3, 4, 5))), t(np.zeros((3, 1, 5)))
        for x_shape in [(2, 3, 3, 4), (3, 4), (2, 3, 4), (1, 3, 2, 3, 4)]:
            with pytest.raises(ShapeError):
                ad.linear(t(np.zeros(x_shape)), w, b)
        with pytest.raises(ShapeError):
            ad.linear(t(np.zeros((3, 2, 3, 4))), w, t(np.zeros((1, 5))))

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
            parts = [Tensor(a.data[k:k + 1], requires_grad=True) for a in (x, g, b)]
            out_k, grads_k = self.grads(lambda: ad.layer_norm(*parts), parts)
            np.testing.assert_array_equal(out[k:k + 1], out_k)
            for full, single in zip(grads, grads_k):
                np.testing.assert_array_equal(full[k:k + 1], single)

    def test_layer_norm_task_shape_errors(self):
        for x_shape, g_shape in [((2, 2, 4, 5), (3, 5)), ((3, 2, 4, 5), (3, 4)),
                                 ((3, 2, 4, 5), (3, 1, 5)), ((1, 2, 4, 5), (5,))]:
            with pytest.raises(ShapeError):
                ad.layer_norm(t(np.zeros(x_shape)), t(np.ones(g_shape)),
                              t(np.zeros(g_shape)))

    @pytest.mark.parametrize("b_shape", [(3, 4, 5), (3, 1, 5)])  # a table, a class token
    def test_add_task_table_over_the_stack_gradients(self, b_shape):
        a, b = self.leaf(3, 2, *b_shape[1:]), self.leaf(*b_shape)
        u = self.weights(3, 2, *b_shape[1:])
        check_op_gradients(lambda: ad.tsum(ad.mul(ad.add(a, b), u)), [a, b])

    def test_add_task_table_is_per_task(self):
        a, b = self.leaf32(3, 2, 4, 5), self.leaf32(3, 4, 5)
        out, (_, gb) = self.grads(lambda: ad.add(a, b), [a, b])
        for k in range(3):
            ak, bk = (Tensor(x.data[k:k + 1], requires_grad=True) for x in (a, b))
            out_k, (_, gbk) = self.grads(lambda: ad.add(ak, bk), [ak, bk])
            np.testing.assert_array_equal(out[k:k + 1], out_k)
            np.testing.assert_array_equal(gb[k:k + 1], gbk)

    def test_add_broadcast_needs_its_axis(self):
        # (3, 4, 5) fits (3, 3, 4, 5) along axis 1 or as a table shared by
        # axis 0; add broadcasts over axis 1 only
        a, b = self.leaf32(3, 3, 4, 5), self.leaf32(3, 4, 5)
        np.testing.assert_array_equal(ad.add(a, b).data, a.data + b.data[:, None])
        for b_shape in [(2, 4, 5), (1, 2, 4, 5)]:  # over axis 0
            with pytest.raises(ShapeError):
                ad.add(t(np.zeros((3, 2, 4, 5))), t(np.zeros(b_shape)))

    def test_add_keeps_no_size_one_axis(self):
        # b leaves axis 1 out; a kept size-1 axis is no form add takes
        with pytest.raises(ShapeError):
            ad.add(t(np.zeros((3, 2, 4, 5))), t(np.zeros((3, 1, 4, 5))))

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
