"""Classifier architecture tests: patch geometry, the aggregation head, the
full forward pass against a straight-line recomputation, and structural
invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundusvit import autodiff as ad
from fundusvit import model as model_module
from fundusvit.autodiff import ShapeError, Tensor
from fundusvit.model import (DualHeadViT, ModelConfig, aggregate_patches,
                             average_prediction, patchify)
from fundusvit.training import dual_bce_loss

from helpers import reference_forward, reference_trunc_normal, unpatchify

TINY = ModelConfig(height=32, width=32, patch=16, dim=16, depth=2, heads=2,
                   agg_hidden=16)

# Frozen output of DualHeadViT(TINY, seed=7, float64) on the seed-99 image,
# computed once by the straight-line recomputation in helpers.py.
GOLDEN_P_CLS = [0.500129318850323, 0.499870681149677]
GOLDEN_P_AGG = [0.502008407536515, 0.497991592463485]
GOLDEN_WEIGHTS = [0.136762433355659, 0.136762433355659, 0.136762433355659,
                  0.589712699933022]


def head_shapes(dim, hidden):
    """The ``agg.*`` parameter names and per-task shapes of a model with
    feature width ``dim`` and aggregation width ``hidden``."""
    cfg = ModelConfig(height=16, width=16, patch=16, dim=dim, depth=1, heads=1,
                      agg_hidden=hidden)
    return [(n, s) for n, s in DualHeadViT.parameter_shapes(cfg) if n.startswith("agg.")]


def random_head(dim, hidden, seed, dtype=np.float64):
    """The ``agg.*`` parameters of one task (K = 1), drawn normal."""
    rng = np.random.default_rng(seed)
    return {n: Tensor(rng.normal(size=(1, *s)).astype(dtype), requires_grad=True)
            for n, s in head_shapes(dim, hidden)}


def zero_head(dim, hidden):
    """The ``agg.*`` parameters of one task (K = 1), all zero."""
    return {n: Tensor(np.zeros((1, *s)), requires_grad=True)
            for n, s in head_shapes(dim, hidden)}


def one_task(features):
    """An N x D feature matrix as the (1, 1, N, D) features of one task and
    one image."""
    return Tensor(np.asarray(features)[None, None])


class TestPatchify:
    def test_single_patch(self):
        image = np.random.default_rng(0).random((16, 16, 3))
        rows = patchify(image[None], 16)[0]
        assert rows.shape == (1, 768)

    def test_full_resolution_patch_grid(self):
        image = np.zeros((512, 512, 3), dtype=np.float32)
        assert patchify(image[None], 16)[0].shape == (1024, 768)
        assert ModelConfig.full_resolution().n_patches == 1024

    def test_round_trip(self):
        image = np.random.default_rng(1).random((64, 64, 3))
        rows = patchify(image[None], 16)[0]
        np.testing.assert_array_equal(unpatchify(rows, 64, 64, 16), image)

    def test_layout_is_row_major_with_interleaved_channels(self):
        image = np.arange(2 * 4 * 3, dtype=np.float64).reshape(2, 4, 3)
        rows = patchify(image[None], 2)[0]
        # patch 0 covers columns 0..1; its first entries are pixel (0,0) rgb
        np.testing.assert_array_equal(rows[0, :6], image[0, :2].reshape(-1))
        # patch 1 covers columns 2..3
        np.testing.assert_array_equal(rows[1, :6], image[0, 2:4].reshape(-1))

    def test_non_divisible_extent_rejected(self):
        with pytest.raises(ShapeError):
            patchify(np.zeros((1, 30, 32, 3)), 16)


class TestAggregatePatches:
    def test_identical_rows_return_that_row(self):
        v = np.random.default_rng(2).normal(size=8)
        features = one_task(np.tile(v, (5, 1)))
        aggregated, weights = aggregate_patches(features, random_head(8, 6, seed=3))
        np.testing.assert_allclose(aggregated.data.ravel(), v, atol=1e-12)
        np.testing.assert_allclose(weights.data.sum(), 1.0, atol=1e-12)

    def test_zero_head_gives_exactly_uniform_weights(self):
        features = np.random.default_rng(4).normal(size=(7, 8))
        aggregated, weights = aggregate_patches(one_task(features), zero_head(8, 6))
        w = weights.data.ravel()
        assert np.all(w == w[0])
        np.testing.assert_allclose(w, 1.0 / 7.0, rtol=0, atol=1e-16)
        np.testing.assert_allclose(aggregated.data.ravel(), features.mean(axis=0),
                                   atol=1e-12)

    def test_direct_recomputation_oracle(self):
        rng = np.random.default_rng(5)
        features = rng.normal(size=(4, 8))
        head = random_head(8, 8, seed=6)
        aggregated, weights = aggregate_patches(one_task(features), head)
        h = {name: a.data[0] for name, a in head.items()}  # task 0

        def np_ln(x, gain, bias, eps=1e-5):
            mu = x.mean(-1, keepdims=True)
            var = ((x - mu) ** 2).mean(-1, keepdims=True)
            return gain * (x - mu) / np.sqrt(var + eps) + bias

        s = features @ h["agg.proj1.weight"] + h["agg.proj1.bias"]
        s = np.maximum(np_ln(s, h["agg.norm1.gain"], h["agg.norm1.bias"]), 0.0)
        s = (s @ h["agg.proj2.weight"] + h["agg.proj2.bias"]).T
        s = np.maximum(np_ln(s, h["agg.norm2.gain"], h["agg.norm2.bias"]), 0.0)
        e = np.exp(s - s.max())
        w = e / e.sum()
        np.testing.assert_allclose(weights.data.ravel(), w.ravel(), atol=1e-10)
        np.testing.assert_allclose(aggregated.data.ravel(), (w @ features).ravel(),
                                   atol=1e-10)

    def test_permutation_moves_weights_and_keeps_aggregate(self):
        rng = np.random.default_rng(7)
        features = rng.normal(size=(6, 8))
        head = random_head(8, 8, seed=8)
        agg1, w1 = aggregate_patches(one_task(features), head)
        perm = rng.permutation(6)
        agg2, w2 = aggregate_patches(one_task(features[perm]), head)
        np.testing.assert_allclose(w2.data.ravel(), w1.data.ravel()[perm], atol=1e-12)
        np.testing.assert_allclose(agg2.data, agg1.data, atol=1e-12)

    def test_empty_feature_matrix_rejected(self):
        with pytest.raises(ShapeError):
            aggregate_patches(one_task(np.zeros((0, 8))), zero_head(8, 4))
        with pytest.raises(ShapeError):  # features without their task axis
            aggregate_patches(Tensor(np.zeros((1, 3, 8))), zero_head(8, 4))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_weights_are_a_distribution(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        features = one_task(rng.normal(size=(n, 8)))
        _, weights = aggregate_patches(features, random_head(8, 8, seed=seed))
        w = weights.data.ravel()
        assert np.all(w >= 0)
        np.testing.assert_allclose(w.sum(), 1.0, atol=1e-6)


class TestForward:
    def test_probability_pairs_sum_to_one(self):
        model = DualHeadViT(TINY, seed=0, dtype=np.float64)
        image = np.random.default_rng(10).random((32, 32, 3))
        out = model.forward(image[None])
        np.testing.assert_allclose(out.p_cls.data.sum(), 1.0, atol=1e-6)
        np.testing.assert_allclose(out.p_agg.data.sum(), 1.0, atol=1e-6)

    def test_duplicate_image_bitwise_identical(self):
        model = DualHeadViT(TINY, seed=0)
        image = np.random.default_rng(11).random((32, 32, 3))
        a = model.forward(image[None].copy())
        b = model.forward(image[None].copy())
        np.testing.assert_array_equal(a.p_cls.data, b.p_cls.data)
        np.testing.assert_array_equal(a.p_agg.data, b.p_agg.data)

    def test_per_sample_independence(self):
        model = DualHeadViT(TINY, seed=0)
        rng = np.random.default_rng(12)
        image = rng.random((32, 32, 3))
        alone = model.predict(image[None])
        for _ in range(3):  # interleave other work, then re-evaluate
            model.predict(rng.random((32, 32, 3))[None])
        assert model.predict(image[None]).tolist() == alone.tolist()

    def test_golden_forward_matches_straight_line_recomputation(self):
        model = DualHeadViT(TINY, seed=7, dtype=np.float64)
        image = np.random.default_rng(99).random((32, 32, 3))
        out = model.forward(image[None])
        ref_cls, ref_agg, ref_w = reference_forward(model, image)
        np.testing.assert_allclose(out.p_cls.data.ravel(), ref_cls, atol=1e-12)
        np.testing.assert_allclose(out.p_agg.data.ravel(), ref_agg, atol=1e-12)
        np.testing.assert_allclose(out.patch_weights.data.ravel(), ref_w, atol=1e-12)
        np.testing.assert_allclose(out.p_cls.data.ravel(), GOLDEN_P_CLS, atol=1e-12)
        np.testing.assert_allclose(out.p_agg.data.ravel(), GOLDEN_P_AGG, atol=1e-12)
        np.testing.assert_allclose(out.patch_weights.data.ravel(), GOLDEN_WEIGHTS,
                                   atol=1e-12)

    def test_shape_mismatch_rejected(self):
        model = DualHeadViT(TINY, seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((1, 64, 64, 3)))


class TestPrediction:
    def test_average_of_heads(self):
        from fundusvit.model import HeadOutputs
        out_pair = lambda a, b: Tensor(np.array([[[[a, b]]]]))
        outputs = HeadOutputs(p_cls=out_pair(0.2, 0.8), p_agg=out_pair(0.4, 0.6),
                              patch_weights=Tensor(np.ones((1, 1, 1, 1))))
        assert average_prediction(outputs).shape == (1, 1)
        assert average_prediction(outputs) == pytest.approx(0.7, abs=1e-12)

    def test_equal_heads_pass_through(self):
        from fundusvit.model import HeadOutputs
        pair = Tensor(np.array([[[[0.35, 0.65]]]]))
        outputs = HeadOutputs(p_cls=pair, p_agg=pair,
                              patch_weights=Tensor(np.ones((1, 1, 1, 1))))
        assert average_prediction(outputs) == pytest.approx(0.65, abs=1e-12)


class TestStructure:
    @pytest.mark.parametrize("cfg", [
        TINY,
        ModelConfig(),
        ModelConfig(height=48, width=32, patch=16, dim=24, heads=3, depth=3,
                    agg_hidden=10, mlp_hidden=20),
    ])
    def test_param_count_is_pure_function_of_config(self, cfg):
        model = DualHeadViT(cfg, seed=1)
        assert sum(t.data.size for t in model.params.values()) == cfg.param_count()

    def test_position_row_zero_is_the_class_token_slot(self):
        model = DualHeadViT(TINY, seed=0)
        assert model.params["pos_embed"].shape == (1, TINY.n_patches + 1, TINY.dim)
        assert model.params["cls_token"].shape == (1, 1, TINY.dim)

    def test_initialization_conventions(self):
        model = DualHeadViT(TINY, seed=3)
        for name, tensor in model.params.items():
            if name.endswith(".gain"):
                np.testing.assert_array_equal(tensor.data, np.ones_like(tensor.data))
            elif name.endswith(".bias"):
                np.testing.assert_array_equal(tensor.data, np.zeros_like(tensor.data))
            else:
                assert np.abs(tensor.data).max() <= 2 * 0.02 + 1e-12

    def test_trunc_normal_matches_full_array_redraws(self):
        # shapes with no, one and several rejection rounds; the generator
        # state afterwards shows the same number of draws was consumed
        for seed in range(40):
            for shape in [(1,), (1, 7), (3, 5, 9), (1, 32, 64), (1, 768, 32)]:
                rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                out = model_module._trunc_normal(rng, shape, 0.02)
                ref = reference_trunc_normal(ref_rng, shape, 0.02)
                assert out.shape == shape
                assert out.tobytes() == ref.tobytes()
                assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_same_seed_same_parameters(self):
        a = DualHeadViT(TINY, seed=5)
        b = DualHeadViT(TINY, seed=5)
        for (_, ta), (_, tb) in zip(a.params.items(), b.params.items()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ShapeError):
            ModelConfig(height=30, width=32, patch=16)
        with pytest.raises(ShapeError):
            ModelConfig(dim=30, heads=4)
        for bad in ({"depth": 0}, {"depth": -1}, {"agg_hidden": 0}, {"mlp_hidden": 0}):
            with pytest.raises(ValueError):
                ModelConfig(**bad)

    def test_gradient_reaches_every_parameter_group(self):
        model = DualHeadViT(TINY, seed=1, dtype=np.float64)
        image = np.random.default_rng(0).random((32, 32, 3))
        loss = dual_bce_loss([[1]], model.forward(image[None])).total
        ad.backward(loss)
        for group, names in model.parameter_groups().items():
            assert any(model.params[n].grad is not None
                       and np.abs(model.params[n].grad).max() > 0
                       for n in names), f"no gradient reached group {group}"


class TestStacking:
    """A BxHxWx3 stack runs as one graph, and every image's result equals
    its result in a stack of one."""

    def test_stacked_predict_equals_single_predicts_bitwise(self):
        model = DualHeadViT(TINY, seed=3)  # float32, as trained and served
        images = np.random.default_rng(20).random((8, 32, 32, 3))
        singles = [model.predict(image[None])[:, 0] for image in images]
        assert singles[0].shape == (1,)
        # one HxWx3 image is still scored, as a stack of one (ROADMAP item 9)
        assert [model.predict(image).tolist() for image in images] == [
            s.tolist() for s in singles]
        for size in (1, 2, 8):
            stacked = model.predict(images[:size])
            assert stacked.shape == (1, size) and stacked.dtype == np.float64
            assert stacked.T.tolist() == [s.tolist() for s in singles[:size]]

    def test_stacked_forward_equals_single_forwards_bitwise(self):
        model = DualHeadViT(TINY, seed=3)
        images = np.random.default_rng(21).random((3, 32, 32, 3))
        out = model.forward(images)
        assert out.p_cls.shape == (1, 3, 1, 2)
        assert out.patch_weights.shape == (1, 3, TINY.n_patches, 1)
        for i, image in enumerate(images):
            alone = model.forward(image[None])
            for name in ("p_cls", "p_agg", "patch_weights"):
                np.testing.assert_array_equal(getattr(out, name).data[:, i:i + 1],
                                              getattr(alone, name).data)

    def test_stacked_loss_gradient_is_the_sum_of_single_gradients(self):
        model = DualHeadViT(TINY, seed=4, dtype=np.float64)
        rng = np.random.default_rng(22)
        images = rng.random((4, 32, 32, 3))
        labels = [1, 0, 0, 1]
        ad.backward(dual_bce_loss([labels], model.forward(images)).total)
        stacked = {name: t.grad.copy() for name, t in model.params.items()}
        ad.zero_grads(model.params.values())
        for image, y in zip(images, labels):
            ad.backward(dual_bce_loss([[y]], model.forward(image[None])).total)
        for name, t in model.params.items():
            np.testing.assert_allclose(stacked[name], t.grad, rtol=0, atol=1e-12,
                                       err_msg=name)

    def test_stack_cap(self):
        assert ModelConfig.full_resolution().stack_size == 1
        desk = ModelConfig(height=32, width=32, patch=16, dim=32, depth=2, heads=4)
        assert desk.stack_size >= 8
        assert ModelConfig().stack_size >= 8

    def test_bad_stacks_rejected(self):
        model = DualHeadViT(TINY, seed=0)
        with pytest.raises(ShapeError):
            model.forward(np.zeros((0, 32, 32, 3)))
        with pytest.raises(ShapeError):
            model.predict(np.zeros((2, 64, 64, 3)))
        with pytest.raises(ValueError):
            dual_bce_loss([[1]], model.forward(np.zeros((2, 32, 32, 3))))
        with pytest.raises(ValueError):  # two tasks' labels for one task's two images
            dual_bce_loss([[1], [0]], model.forward(np.zeros((2, 32, 32, 3))))
        image = np.zeros((32, 32, 3))  # one image is a stack of one, image[None]
        with pytest.raises(ShapeError):
            patchify(image, 16)
        with pytest.raises(ShapeError):
            model.forward(image)

    def test_stacked_patchify_is_per_image_patchify(self):
        images = np.random.default_rng(23).random((3, 32, 48, 3))
        rows = patchify(images, 16)
        assert rows.shape == (3, 6, 768)
        for i in range(3):
            np.testing.assert_array_equal(rows[i], patchify(images[i][None], 16)[0])


def recording_forward(monkeypatch):
    """Record tasks x images of every DualHeadViT forward."""
    sizes = []
    forward = DualHeadViT.forward

    def recorded(self, images):
        sizes.append(self.n_tasks * len(images))
        return forward(self, images)

    monkeypatch.setattr(DualHeadViT, "forward", recorded)
    return sizes


class TestTaskStack:
    """K classifiers as one model with a leading task axis on every
    parameter: each member computes what it computes alone, bit for bit."""

    def test_stack_and_member_round_trip(self):
        members = [DualHeadViT(TINY, seed=s) for s in (1, 2, 3)]
        stacked = DualHeadViT.stack(members)
        assert stacked.n_tasks == 3 and members[0].n_tasks == 1
        assert stacked.params["pos_embed"].shape == (3, TINY.n_patches + 1, TINY.dim)
        for k, m in enumerate(members):
            member = stacked.member(k)
            assert member.n_tasks == 1
            for (name, a), (_, b) in zip(member.params.items(),
                                         m.params.items()):
                assert np.shares_memory(a.data, stacked.params[name].data)
                np.testing.assert_array_equal(a.data, b.data)

    def test_arrays_without_a_task_axis_rejected(self):
        arrays = {n: t.data[0] for n, t in DualHeadViT(TINY, seed=0).params.items()}
        with pytest.raises(ShapeError, match="task"):
            DualHeadViT.from_arrays(TINY, arrays)
        with pytest.raises(ShapeError):
            DualHeadViT.from_arrays(TINY, {n: a[None][:0] for n, a in arrays.items()})

    def test_stacked_forward_loss_and_gradients_equal_members_bitwise(self):
        members = [DualHeadViT(TINY, seed=s) for s in (4, 5, 6)]
        stacked = DualHeadViT.stack(members)
        rng = np.random.default_rng(24)
        images = rng.random((4, 32, 32, 3))
        y = rng.integers(0, 2, size=(3, 4))
        out = stacked.forward(images)
        assert out.p_cls.shape == (3, 4, 1, 2)
        assert out.patch_weights.shape == (3, 4, TINY.n_patches, 1)
        loss = dual_bce_loss(y, out)
        assert loss.total.shape == (3,)
        ad.backward(ad.tsum(ad.mul(loss.total, 0.25)))
        for k, member in enumerate(members):
            alone = member.forward(images)
            loss_k = dual_bce_loss(y[k][None], alone)
            ad.backward(ad.mul(loss_k.total, 0.25))
            assert loss.total.data[k:k + 1].tolist() == loss_k.total.data.tolist()
            for name in ("p_cls", "p_agg", "patch_weights"):
                np.testing.assert_array_equal(getattr(out, name).data[k:k + 1],
                                              getattr(alone, name).data)
            for name, t in member.params.items():
                np.testing.assert_array_equal(stacked.params[name].grad[k:k + 1], t.grad,
                                              err_msg=name)

    def test_stacked_predict_equals_member_predicts_bitwise(self):
        members = [DualHeadViT(TINY, seed=s) for s in (7, 8)]
        stacked = DualHeadViT.stack(members)
        images = np.random.default_rng(25).random((5, 32, 32, 3))
        scores = stacked.predict(images)
        assert scores.shape == (2, 5)
        assert scores.tolist() == [m.predict(images)[0].tolist() for m in members]
        assert stacked.predict(images[0][None])[:, 0].tolist() == [
            m.predict(images[0][None])[:, 0][0] for m in members]

    def test_task_groups_split_the_stack_into_capped_member_views(self, monkeypatch):
        stacked = DualHeadViT.stack([DualHeadViT(TINY, seed=s) for s in range(11)])
        single = DualHeadViT(TINY, seed=0)
        assert stacked.task_groups(8) == [(slice(None), stacked)]
        assert single.task_groups(10 ** 6) == [(slice(None), single)]
        cap = 24
        monkeypatch.setattr(model_module, "STACK_SCORES", cap * (TINY.n_patches + 1) ** 2)
        for images in (1, 2, 4, 5, 12, 24, 30):
            groups = stacked.task_groups(images)
            assert [k for tasks, _ in groups for k in range(11)[tasks]] == list(range(11))
            for tasks, group in groups:
                assert group.n_tasks == len(range(11)[tasks])
                assert group.n_tasks * images <= cap or group.n_tasks == 1
                for name, param in group.params.items():
                    whole = stacked.params[name].data
                    assert np.shares_memory(param.data, whole)
                    np.testing.assert_array_equal(param.data, whole[tasks])
        assert [len(range(11)[tasks]) for tasks, _ in stacked.task_groups(4)] == [6, 5]
        assert len(stacked.task_groups(30)) == 11

    def test_desk_bank_predicts_in_one_forward(self, monkeypatch):
        stacked = DualHeadViT.stack([DualHeadViT(TINY, seed=s) for s in range(11)])
        sizes = recording_forward(monkeypatch)
        stacked.predict(np.random.default_rng(26).random((8, 32, 32, 3)))
        assert sizes == [88]

    def test_full_resolution_predict_holds_one_task_image_per_forward(self, monkeypatch):
        cfg = ModelConfig.full_resolution(dim=8, depth=1, heads=1, agg_hidden=4,
                                          mlp_hidden=8)
        members = [DualHeadViT(cfg, seed=s) for s in (1, 2)]
        stacked = DualHeadViT.stack(members)
        images = np.random.default_rng(27).random((2, 512, 512, 3))
        sizes = recording_forward(monkeypatch)
        scores = stacked.predict(images)
        assert sizes == [1, 1, 1, 1]
        assert scores.tolist() == [m.predict(images)[0].tolist() for m in members]
