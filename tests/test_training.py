"""Training-engine tests: the dual-head loss, Adam against a scalar oracle,
the decay schedule, rebalancing/splitting arithmetic, and end-to-end task
training on small synthetic datasets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fundusvit import autodiff as ad
from fundusvit.autodiff import Tensor
from fundusvit.checkpoint import ClassifierBank
from fundusvit.dataset import PreprocessOptions, read_manifest
from fundusvit.metrics import evaluate
from fundusvit.model import HeadOutputs, ModelConfig
from fundusvit.preprocess import AugmentParams
from fundusvit.synth import generate_dataset
from fundusvit import model as model_module
from fundusvit import preprocess, training
from fundusvit.training import (Adam, TrainConfig, dual_bce_loss, lr_schedule,
                                prepare_split, rebalance_and_split, task_label,
                                train_bank, train_task)

from helpers import assert_grad_close, finite_difference_grad
from test_model import recording_forward

SMALL_MODEL = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1,
                          heads=2, agg_hidden=8, mlp_hidden=16)
FAST_AUG = AugmentParams(rot_lo=-5.0, rot_hi=5.0)


def outputs_from(p_cls, p_agg):
    return HeadOutputs(p_cls=Tensor(np.array([p_cls])),
                       p_agg=Tensor(np.array([p_agg])),
                       patch_weights=Tensor(np.ones((1, 1))))


class TestDualBceLoss:
    def test_perfect_prediction_is_zero(self):
        loss = dual_bce_loss((0.0, 1.0), outputs_from([0.0, 1.0], [0.0, 1.0]))
        # the 1e-7 clamp leaves a vanishing residual
        assert loss.total.item() == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_uncertainty_is_ln2(self):
        loss = dual_bce_loss((0.0, 1.0), outputs_from([0.5, 0.5], [0.5, 0.5]))
        assert loss.total.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_evaluated_example(self):
        # -0.5*(ln 0.9 + ln 0.6) = 0.30809306...
        loss = dual_bce_loss((1.0, 0.0), outputs_from([0.9, 0.1], [0.6, 0.4]))
        assert loss.total.item() == pytest.approx(0.5 * (-math.log(0.9) - math.log(0.6)),
                                                  abs=1e-12)
        assert loss.total.item() == pytest.approx(0.3081, abs=1e-4)

    def test_total_is_mean_of_head_terms(self):
        loss = dual_bce_loss((0.0, 1.0), outputs_from([0.3, 0.7], [0.2, 0.8]))
        assert loss.total.item() == pytest.approx(
            0.5 * (loss.cls_term.item() + loss.agg_term.item()), abs=1e-12)
        assert loss.total.item() >= 0.0

    def test_non_one_hot_rejected(self):
        out = outputs_from([0.5, 0.5], [0.5, 0.5])
        for bad in ((1.0, 1.0), (0.0, 0.0), (0.5, 0.5), (1.0, 0.0, 0.0)):
            with pytest.raises(ValueError):
                dual_bce_loss(bad, out)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits_cls = Tensor(rng.normal(size=(1, 2)), requires_grad=True)
        logits_agg = Tensor(rng.normal(size=(1, 2)), requires_grad=True)

        def build():
            out = HeadOutputs(p_cls=ad.softmax(logits_cls, axis=1),
                              p_agg=ad.softmax(logits_agg, axis=1),
                              patch_weights=Tensor(np.ones((1, 1))))
            return dual_bce_loss((0.0, 1.0), out).total

        loss = build()
        ad.backward(loss)
        for leaf in (logits_cls, logits_agg):
            fd = finite_difference_grad(lambda: build().item(), leaf)
            assert_grad_close(leaf.grad, fd)


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        Adam([p]).step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_reaches_sign_scaled_steps(self):
        p = Tensor(np.array([0.0, 0.0]), requires_grad=True)
        opt = Adam([p])
        lr = 1e-3
        for _ in range(500):
            p.grad = np.array([2.5, -0.3])
            prev = p.data.copy()
            opt.step(lr)
        delta = p.data - prev
        np.testing.assert_allclose(delta, [-lr, lr], rtol=1e-3)

    def test_three_steps_match_scalar_oracle(self):
        # quadratic loss 0.5*(3 x^2 + 7 y^2); analytic gradients each step
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([p], beta1=0.9, beta2=0.999, eps=1e-8)
        lr = 0.01
        for _ in range(3):
            p.grad = np.array([3.0 * p.data[0], 7.0 * p.data[1]])
            opt.step(lr)

        def scalar_adam(theta, coeff):
            m = v = 0.0
            for t in range(1, 4):
                g = coeff * theta
                m = 0.9 * m + 0.1 * g
                v = 0.999 * v + 0.001 * g * g
                m_hat = m / (1 - 0.9 ** t)
                v_hat = v / (1 - 0.999 ** t)
                theta = theta - lr * m_hat / (math.sqrt(v_hat) + 1e-8)
            return theta

        assert p.data[0] == pytest.approx(scalar_adam(1.0, 3.0), abs=1e-12)
        assert p.data[1] == pytest.approx(scalar_adam(-2.0, 7.0), abs=1e-12)

    def test_step_clears_gradients(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([0.5])
        Adam([p]).step(0.1)
        assert p.grad is None


class TestLrSchedule:
    def test_documented_values(self):
        cfg = TrainConfig()
        assert lr_schedule(0, cfg) == 2e-4
        assert lr_schedule(4, cfg) == 2e-4
        assert lr_schedule(5, cfg) == 1e-4
        assert lr_schedule(9, cfg) == 1e-4
        assert lr_schedule(10, cfg) == 5e-5
        assert lr_schedule(12, cfg) == 5e-5

    def test_non_increasing_piecewise_constant(self):
        cfg = TrainConfig()
        values = [lr_schedule(e, cfg) for e in range(30)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        for start in range(0, 30, 5):
            assert len(set(values[start:start + 5])) == 1

    def test_negative_epoch_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(-1)


class TestRebalanceAndSplit:
    def test_published_counts(self):
        labels = [1] * 3270 + [0] * 5000
        samples = list(range(len(labels)))
        train, val = rebalance_and_split(samples, labels, n_nrg=4000,
                                         ratio=(4, 1), seed=0)
        train_pos = sum(1 for s in train if s < 3270)
        val_pos = sum(1 for s in val if s < 3270)
        assert (train_pos, val_pos) == (2616, 654)
        assert (len(train) - train_pos, len(val) - val_pos) == (3200, 800)

    def test_ten_samples_split_eight_two(self):
        labels = [1] * 5 + [0] * 5
        train, val = rebalance_and_split(list(range(10)), labels, None, (4, 1), seed=3)
        assert len(train) == 8 and len(val) == 2
        assert set(train) | set(val) == set(range(10))
        assert set(train) & set(val) == set()

    def test_seeded_reproducible(self):
        labels = [1] * 6 + [0] * 14
        a = rebalance_and_split(list(range(20)), labels, 10, (4, 1), seed=9)
        b = rebalance_and_split(list(range(20)), labels, 10, (4, 1), seed=9)
        assert a == b
        c = rebalance_and_split(list(range(20)), labels, 10, (4, 1), seed=10)
        assert a != c

    def test_all_positives_kept(self):
        labels = [1] * 7 + [0] * 13
        train, val = rebalance_and_split(list(range(20)), labels, 5, (4, 1), seed=1)
        kept_pos = {s for s in train + val if s < 7}
        assert kept_pos == set(range(7))
        assert len(train) + len(val) == 7 + 5

    def test_too_many_negatives_requested(self):
        with pytest.raises(ValueError, match="negatives"):
            rebalance_and_split([1, 2, 3], [1, 0, 0], n_nrg=5, ratio=(4, 1), seed=0)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    manifest = generate_dataset(root, n=12, seed=21, size=64, pos_fraction=0.5,
                                feature_rate=1.0)
    return manifest, read_manifest(manifest)


def quick_cfg(**kw):
    base = dict(epochs=2, batch_size=4, seed=5, lr0=1e-3, task="glaucoma")
    base.update(kw)
    return TrainConfig(**base)


class TestTrainTask:
    def test_runs_and_writes_outputs(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        [result] = train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(),
                              rows, manifest.parent, out_dir=tmp_path,
                              config_lines=["model.dim = 16"])
        assert result.checkpoint_path.is_file()
        assert (tmp_path / "glaucoma.log").is_file()
        assert len(result.history) == 2
        log = (tmp_path / "glaucoma.log").read_text()
        assert "epoch=0" in log and "model.dim = 16" in log

    def test_same_seed_bitwise_identical_checkpoints(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        a = tmp_path / "a"
        b = tmp_path / "b"
        train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(),
                   rows, manifest.parent, out_dir=a)
        train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(),
                   rows, manifest.parent, out_dir=b)
        assert (a / "glaucoma.ckpt").read_bytes() == (b / "glaucoma.ckpt").read_bytes()
        assert (a / "glaucoma.log").read_bytes() == (b / "glaucoma.log").read_bytes()

    def test_validation_is_deterministic(self, tiny_dataset):
        from fundusvit.dataset import load_input_image, prepare_input
        from fundusvit.training import _task_metric

        manifest, rows = tiny_dataset
        cfg = quick_cfg()
        [result] = train_task(SMALL_MODEL, cfg, FAST_AUG, PreprocessOptions(),
                              rows, manifest.parent)
        _, val_rows = rebalance_and_split(rows, [r.rg for r in rows], cfg.n_nrg,
                                          cfg.split, cfg.seed)
        val_images = [prepare_input(load_input_image(r, manifest.parent), r,
                                    manifest.parent, PreprocessOptions(),
                                    SMALL_MODEL.height,
                                    SMALL_MODEL.width)[0].astype(np.float64) / 255.0
                      for r in val_rows]
        val_y = [task_label(r, "glaucoma") for r in val_rows]
        m1 = _task_metric(result.model.predict(val_images), val_y, "glaucoma")
        m2 = _task_metric(result.model.predict(val_images), val_y, "glaucoma")
        assert m1 == m2 == result.best_metric

    def test_non_square_inputs_train_and_evaluate(self, tiny_dataset):
        manifest, rows = tiny_dataset
        wide = replace(SMALL_MODEL, width=64)  # 32 x 64: 2 x 4 patches
        [result] = train_task(wide, quick_cfg(epochs=1), FAST_AUG, PreprocessOptions(),
                              rows, manifest.parent)
        bank = ClassifierBank(("glaucoma",), result.stack, PreprocessOptions())
        report = evaluate(bank, rows, manifest.parent)
        assert report.n_samples == len(rows)
        assert 0.0 <= report.auc <= 1.0

    @pytest.mark.parametrize("tasks", [[], ["bank"], ["glaucoma", "feature11"]])
    def test_task_lists_other_than_single_tasks_rejected(self, tiny_dataset, tasks):
        manifest, rows = tiny_dataset
        with pytest.raises(ValueError, match="single tasks"):
            train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(), rows,
                       manifest.parent, tasks=tasks)

    def test_empty_dataset_rejected(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(),
                       [], tmp_path)

    def test_single_class_training_set_rejected(self, tiny_dataset):
        manifest, rows = tiny_dataset
        negatives = [r for r in rows if r.rg == 0]
        with pytest.raises(ValueError):
            train_task(SMALL_MODEL, quick_cfg(), FAST_AUG, PreprocessOptions(),
                       negatives, manifest.parent)


class TestTrainBank:
    def test_full_bank_trains_eleven_tasks(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                          PreprocessOptions(), rows, manifest.parent,
                          out_dir=tmp_path)
        assert len(bank.models) == 11
        assert not bank.skipped
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == sorted(
            f"{t}.ckpt" for t in bank.models)

    def test_feature_without_positives_is_skipped(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        stripped = [replace(r, features=r.features[:6] + (0,) + r.features[7:])
                    for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                          PreprocessOptions(), stripped, manifest.parent,
                          out_dir=tmp_path)
        assert len(bank.models) == 10
        assert bank.skipped == {"feature7": "no positive training samples"}
        assert "task=feature7 status=skipped" in (tmp_path / "bank.log").read_text()

    def test_feature_in_every_training_image_is_skipped(self, tiny_dataset, tmp_path):
        # one class either way is untrainable; the bank skips such a task
        # before training instead of failing midway with a partial bank
        manifest, rows = tiny_dataset
        marked = [replace(r, features=(1,) + r.features[1:6] + (0,) + r.features[7:])
                  for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                          PreprocessOptions(), marked, manifest.parent,
                          out_dir=tmp_path)
        assert bank.skipped == {"feature1": "no negative training samples",
                                "feature7": "no positive training samples"}
        assert len(bank.models) == 9
        lines = (tmp_path / "bank.log").read_text().splitlines()
        assert lines[2] == "task=feature1 status=skipped reason=no negative training samples"
        assert lines[8] == "task=feature7 status=skipped reason=no positive training samples"
        assert sorted(p.name for p in tmp_path.glob("*.ckpt")) == sorted(
            f"{t}.ckpt" for t in bank.models)

    def test_bank_member_equals_standalone_run(self, tiny_dataset, tmp_path):
        # the bank prepares once and shares the images; every member must
        # still write the bytes its own standalone run writes
        manifest, rows = tiny_dataset
        bank_dir = tmp_path / "bank"
        stripped = [replace(r, features=r.features[:2] + (0,) + r.features[3:])
                    for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=2), FAST_AUG,
                          PreprocessOptions(), stripped, manifest.parent,
                          out_dir=bank_dir, config_lines=["train.epochs = 2"])
        assert bank.skipped == {"feature3": "no positive training samples"}
        assert len(bank.models) == 10
        for task in bank.models:
            solo_dir = tmp_path / task
            train_task(SMALL_MODEL, quick_cfg(epochs=2, task=task), FAST_AUG,
                       PreprocessOptions(), stripped, manifest.parent,
                       out_dir=solo_dir, config_lines=["train.epochs = 2"])
            for name in (f"{task}.ckpt", f"{task}.log"):
                assert (bank_dir / name).read_bytes() == (solo_dir / name).read_bytes()

    def test_lockstep_tasks_share_one_forward_per_stack(self, tiny_dataset, monkeypatch):
        manifest, rows = tiny_dataset
        sizes = recording_forward(monkeypatch)
        augments = []

        def counting(images, *args):
            augments.append(len(images))
            return preprocess.augment(images, *args)

        monkeypatch.setattr(training, "augment", counting)
        results = train_task(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                             PreprocessOptions(), rows, manifest.parent,
                             tasks=["glaucoma", "feature1", "feature2"])
        assert [r.task for r in results] == ["glaucoma", "feature1", "feature2"]
        # 8 training images in minibatches of 4: two stacks of 3 tasks x 4
        # images, one augmentation each; validation of the 4 held-out images
        # is one more forward of all 3 tasks
        assert sizes == [12, 12, 12]
        assert augments == [4, 4]

    def test_memory_bound_bank_members_equal_standalone_runs(self, tiny_dataset, tmp_path,
                                                             monkeypatch):
        # room for 24 task-images of attention scores per forward: minibatch
        # stacks of 4 images, so the bank trains as stacks of 6 and 5 tasks
        monkeypatch.setattr(model_module, "STACK_SCORES",
                            24 * (SMALL_MODEL.n_patches + 1) ** 2)
        manifest, rows = tiny_dataset
        sizes = recording_forward(monkeypatch)
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                          PreprocessOptions(), rows, manifest.parent,
                          out_dir=tmp_path / "bank")
        assert len(bank.models) == 11
        assert max(sizes) <= 24 and 24 in sizes and 20 in sizes
        for task in ("glaucoma", "feature6", "feature10"):
            train_task(SMALL_MODEL, quick_cfg(epochs=1, task=task), FAST_AUG,
                       PreprocessOptions(), rows, manifest.parent,
                       out_dir=tmp_path / task)
            for name in (f"{task}.ckpt", f"{task}.log"):
                assert (tmp_path / "bank" / name).read_bytes() == \
                    (tmp_path / task / name).read_bytes()

    def test_full_resolution_bank_trains_one_task_image_per_forward(self, tmp_path,
                                                                     monkeypatch):
        manifest = generate_dataset(tmp_path / "data", n=6, seed=8, size=64,
                                    feature_rate=1.0)
        rows = read_manifest(manifest)
        cfg = ModelConfig.full_resolution(dim=8, depth=1, heads=1, agg_hidden=4,
                                          mlp_hidden=8)
        sizes = recording_forward(monkeypatch)
        results = train_task(cfg, quick_cfg(epochs=1), AugmentParams(enabled=False),
                             PreprocessOptions(), rows, manifest.parent,
                             tasks=["glaucoma", "feature1"])
        assert len(results) == 2
        assert sizes and set(sizes) == {1}

    def test_bank_prepares_each_row_once(self, tiny_dataset, monkeypatch):
        manifest, rows = tiny_dataset
        prepared = []
        original = training.prepare_input

        def counting(image, row, *args, **kwargs):
            prepared.append(row.image_id)
            return original(image, row, *args, **kwargs)

        monkeypatch.setattr(training, "prepare_input", counting)
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), FAST_AUG,
                          PreprocessOptions(), rows, manifest.parent)
        assert len(bank.models) == 11
        assert sorted(prepared) == sorted(r.image_id for r in rows)


class TestPreparedSplit:
    def test_given_inputs_train_the_same_bytes(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        cfg = quick_cfg(task="feature2")
        inputs = prepare_split(SMALL_MODEL, cfg, PreprocessOptions(), rows,
                               manifest.parent)
        assert inputs.train_images.shape == (len(inputs.train_rows), 32, 32, 3)
        assert inputs.train_images.dtype == np.uint8
        assert inputs.val_images.shape == (len(inputs.val_rows), 32, 32, 3)
        assert 0.0 <= inputs.val_images.min() and inputs.val_images.max() <= 1.0
        train_task(SMALL_MODEL, cfg, FAST_AUG, PreprocessOptions(), rows,
                   manifest.parent, out_dir=tmp_path / "given", inputs=inputs)
        train_task(SMALL_MODEL, cfg, FAST_AUG, PreprocessOptions(), rows,
                   manifest.parent, out_dir=tmp_path / "built")
        for name in ("feature2.ckpt", "feature2.log"):
            assert (tmp_path / "given" / name).read_bytes() == \
                (tmp_path / "built" / name).read_bytes()

    @pytest.mark.parametrize("change", ["height", "width", "prep", "seed", "split",
                                        "n_nrg", "rows"])
    def test_inputs_for_other_settings_rejected(self, tiny_dataset, change):
        manifest, rows = tiny_dataset
        model, cfg, prep = SMALL_MODEL, quick_cfg(), PreprocessOptions()
        inputs = prepare_split(model, cfg, prep, rows, manifest.parent)
        if change in ("height", "width"):
            model = replace(model, **{change: 48})
        elif change == "prep":
            prep = PreprocessOptions(od_crop=False)
        elif change == "rows":
            rows = rows[1:]
        else:
            cfg = replace(cfg, **{change: {"seed": 6, "split": (3, 1), "n_nrg": 5}[change]})
        with pytest.raises(ValueError, match="prepared for other"):
            train_task(model, cfg, FAST_AUG, prep, rows, manifest.parent, inputs=inputs)
