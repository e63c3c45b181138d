"""Training-engine tests: the dual-head loss, Adam against a scalar oracle,
the decay schedule, rebalancing/splitting arithmetic, and end-to-end task
training on small synthetic datasets."""

import math
from dataclasses import replace

import numpy as np
import pytest

from fundusvit import autodiff as ad
from fundusvit.autodiff import Tensor
from fundusvit.checkpoint import ClassifierBank, load_bank, load_checkpoint
from fundusvit.dataset import TASKS, ManifestRow, PreprocessOptions, read_manifest
from fundusvit.metrics import evaluate
from fundusvit.model import HeadOutputs, ModelConfig
from fundusvit.preprocess import AugmentParams
from fundusvit.synth import generate_dataset
from fundusvit import model as model_module
from fundusvit import preprocess, training
from fundusvit.training import (Adam, EpochRecord, MissingGradientError, TrainConfig,
                                best_record, dual_bce_loss, lr_schedule,
                                rebalance_and_split, train_bank, train_task)

from helpers import assert_grad_close, finite_difference_grad
from test_model import recording_forward

SMALL_MODEL = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1,
                          heads=2, agg_hidden=8, mlp_hidden=16)
AUG = AugmentParams()


def outputs_from(p_cls, p_agg):
    """Head outputs of one task and one image."""
    return HeadOutputs(p_cls=Tensor(np.array([[[p_cls]]])),
                       p_agg=Tensor(np.array([[[p_agg]]])),
                       patch_weights=Tensor(np.ones((1, 1, 1, 1))))


class TestDualBceLoss:
    def test_perfect_prediction_is_zero(self):
        loss = dual_bce_loss([[1]], outputs_from([0.0, 1.0], [0.0, 1.0]))
        # the 1e-7 clamp leaves a vanishing residual
        assert loss.total.item() == pytest.approx(0.0, abs=1e-6)

    def test_symmetric_uncertainty_is_ln2(self):
        loss = dual_bce_loss([[1]], outputs_from([0.5, 0.5], [0.5, 0.5]))
        assert loss.total.item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_hand_evaluated_example(self):
        # -0.5*(ln 0.9 + ln 0.6) = 0.30809306...
        loss = dual_bce_loss([[0]], outputs_from([0.9, 0.1], [0.6, 0.4]))
        assert loss.total.item() == pytest.approx(0.5 * (-math.log(0.9) - math.log(0.6)),
                                                  abs=1e-12)
        assert loss.total.item() == pytest.approx(0.3081, abs=1e-4)

    def test_total_is_mean_of_head_terms(self):
        loss = dual_bce_loss([[1]], outputs_from([0.3, 0.7], [0.2, 0.8]))
        assert loss.total.item() == pytest.approx(
            0.5 * (loss.cls_term.item() + loss.agg_term.item()), abs=1e-12)
        assert loss.total.item() >= 0.0

    def test_non_one_hot_rejected(self):
        # a label other than 0 or 1 has no one-hot pair
        out = outputs_from([0.5, 0.5], [0.5, 0.5])
        for bad in ([[0.5]], [[2]], [[-1]], [[1, 0]],
                    1, [1]):  # a label needs its task and image axes
            with pytest.raises(ValueError):
                dual_bce_loss(bad, out)

    def test_one_hot_pairs_rejected(self):
        # the loss builds each label's pair itself; a pair is no label
        out = outputs_from([0.5, 0.5], [0.5, 0.5])
        for pairs in ([[(0.0, 1.0)]], [[(1.0, 0.0)]], np.zeros((1, 1, 2))):
            with pytest.raises(ValueError, match=r"\(K, B\) 0/1 labels"):
                dual_bce_loss(pairs, out)

    def test_gradient_wrt_logits_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits_cls = Tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)
        logits_agg = Tensor(rng.normal(size=(1, 1, 1, 2)), requires_grad=True)

        def build():
            out = HeadOutputs(p_cls=ad.softmax(logits_cls),
                              p_agg=ad.softmax(logits_agg),
                              patch_weights=Tensor(np.ones((1, 1, 1, 1))))
            return dual_bce_loss([[1]], out).total

        loss = build()
        ad.backward(loss)
        for leaf in (logits_cls, logits_agg):
            fd = finite_difference_grad(lambda: build().item(), leaf)
            assert_grad_close(leaf.grad, fd)


def test_row_label_follows_the_task_order():
    row = ManifestRow("a", "a.ppm", 4, 4, rg=1, features=(0, 1, 0, 0, 0, 0, 0, 0, 0, 1))
    assert [row.label(task) for task in TASKS] == [1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1]
    with pytest.raises(ValueError):
        row.label("feature11")


class TestAdam:
    def test_zero_gradient_leaves_parameters_unchanged(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        before = p.data.copy()
        Adam([p]).step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_missing_gradient_is_refused(self):
        # a parameter off the loss path must not be decayed as if its gradient were zero
        on_path = Tensor(np.array([1.0]), requires_grad=True)
        off_path = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        on_path.grad = np.array([0.5])
        with pytest.raises(MissingGradientError,
                           match=r"parameter 1, shape \(2,\), has no gradient"):
            Adam([on_path, off_path]).step(lr=0.1)
        np.testing.assert_array_equal(off_path.data, [1.0, -2.0])

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
        opt = Adam([p])
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

    def test_gradient_of_another_shape_rejected(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(3)
        with pytest.raises(ad.ShapeError, match="gradient shape"):
            Adam([p]).step(0.1)
        np.testing.assert_array_equal(p.data, [1.0, -2.0])

    @pytest.mark.parametrize("bad_grad, error", [
        (None, MissingGradientError), (np.zeros(3), ad.ShapeError)])
    def test_refused_step_changes_nothing(self, bad_grad, error):
        # the later parameter's gradient is refused before the earlier one,
        # its moments or the step count move
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([a, b])
        a.grad, b.grad = np.array([0.5]), np.array([0.1, 0.2])
        opt.step(0.1)
        before = (opt.t, [x.copy() for x in (a.data, b.data, *opt.m, *opt.v)])
        a.grad, b.grad = np.array([0.5]), bad_grad
        with pytest.raises(error):
            opt.step(0.1)
        after = (opt.t, [a.data, b.data, *opt.m, *opt.v])
        assert before[0] == after[0] == 1
        for x, y in zip(before[1], after[1]):
            assert x.tobytes() == y.tobytes()

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
            lr_schedule(-1, TrainConfig())


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

    def test_unequal_lengths_rejected(self):
        for samples, labels in [([1, 2, 3], [1, 0]), ([1, 2], [1, 0, 0])]:
            with pytest.raises(ValueError, match="differ in length"):
                rebalance_and_split(samples, labels, n_nrg=None, ratio=(4, 1), seed=0)


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


def records(*metrics):
    return [EpochRecord(epoch, 1e-3, 0.5, m) for epoch, m in enumerate(metrics)]


class TestBestRecord:
    def test_a_tie_goes_to_the_later_epoch(self):
        history = records(0.2, 0.5, 0.5, 0.3)
        assert best_record(history) is history[2]

    def test_an_all_equal_history_picks_the_last_epoch(self):
        history = records(0.75, 0.75, 0.75)
        assert best_record(history) is history[-1]

    def test_a_falling_metric_picks_epoch_0(self):
        history = records(0.9, 0.6, 0.4, 0.1)
        assert best_record(history) is history[0]

    @pytest.mark.parametrize("metrics, best_epoch", [((0.5, 0.5), 1), ((0.6, 0.5), 0),
                                                     ((0.5, 0.6), 1)])
    def test_a_run_saves_and_logs_its_best_record_epoch(self, tiny_dataset, monkeypatch,
                                                        tmp_path, metrics, best_epoch):
        # the checkpoint holds the parameters of the epoch best_record picks:
        # epoch 0 of a two-epoch run is the end of a one-epoch run
        manifest, rows = tiny_dataset
        values = iter(metrics)
        monkeypatch.setattr(training, "_task_metric", lambda *args: next(values))
        _, [history] = train_task(SMALL_MODEL, quick_cfg(epochs=2), AUG,
                                  PreprocessOptions(), rows, manifest.parent,
                                  out_dir=tmp_path / "run")
        assert best_record(history).epoch == best_epoch
        values = iter([0.0])
        train_task(SMALL_MODEL, quick_cfg(epochs=1), AUG, PreprocessOptions(), rows,
                   manifest.parent, out_dir=tmp_path / "one")
        same = (tmp_path / "run" / "model.ckpt").read_bytes() == \
            (tmp_path / "one" / "model.ckpt").read_bytes()
        assert same == (best_epoch == 0)
        log = (tmp_path / "run" / "glaucoma.log").read_text()
        assert log.endswith(f"# best_epoch={best_epoch} "
                            f"best_val_metric={metrics[best_epoch]:.6f}\n")


class TestTrainTask:
    def test_runs_and_writes_outputs(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        _, [history] = train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(),
                                  rows, manifest.parent, out_dir=tmp_path,
                                  config_lines=["model.dim = 16"])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["glaucoma.log", "model.ckpt"]
        assert len(history) == 2
        log = (tmp_path / "glaucoma.log").read_text()
        assert "epoch=0" in log and "model.dim = 16" in log

    def test_same_seed_bitwise_identical_checkpoints(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        a = tmp_path / "a"
        b = tmp_path / "b"
        train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(),
                   rows, manifest.parent, out_dir=a)
        train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(),
                   rows, manifest.parent, out_dir=b)
        assert (a / "model.ckpt").read_bytes() == (b / "model.ckpt").read_bytes()
        assert (a / "glaucoma.log").read_bytes() == (b / "glaucoma.log").read_bytes()

    def test_validation_is_deterministic(self, tiny_dataset, tmp_path):
        from fundusvit.dataset import load_input_image, prepare_input
        from fundusvit.training import _task_metric

        manifest, rows = tiny_dataset
        cfg = quick_cfg()
        bank, [history] = train_task(SMALL_MODEL, cfg, AUG, PreprocessOptions(),
                                     rows, manifest.parent, out_dir=tmp_path)
        _, val_rows = rebalance_and_split(rows, [r.rg for r in rows], cfg.n_nrg,
                                          cfg.split, cfg.seed)
        val_images = [prepare_input(load_input_image(r, manifest.parent), r,
                                    manifest.parent, PreprocessOptions(),
                                    SMALL_MODEL.height,
                                    SMALL_MODEL.width)[0].astype(np.float64) / 255.0
                      for r in val_rows]
        val_y = [r.label("glaucoma") for r in val_rows]
        [s1], [s2] = bank.stacked.predict(val_images), bank.stacked.predict(val_images)
        m1 = _task_metric(s1, val_y, "glaucoma")
        m2 = _task_metric(s2, val_y, "glaucoma")
        assert m1 == m2 == best_record(history).val_metric

    def test_non_square_inputs_train_and_evaluate(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        wide = replace(SMALL_MODEL, width=64)  # 32 x 64: 2 x 4 patches
        bank, _ = train_task(wide, quick_cfg(epochs=1), AUG, PreprocessOptions(),
                             rows, manifest.parent, out_dir=tmp_path)
        report = evaluate(bank, rows, manifest.parent)
        assert report.n_samples == len(rows)
        assert 0.0 <= report.auc <= 1.0

    @pytest.mark.parametrize("tasks", [[], ["bank"], ["glaucoma", "feature11"],
                                       ["glaucoma", "glaucoma"], ["feature1", "glaucoma"],
                                       "glaucoma"])
    def test_task_lists_other_than_single_tasks_rejected(self, tiny_dataset, tasks,
                                                         monkeypatch, tmp_path):
        # refused before any work: no output directory, no prepared image
        manifest, rows = tiny_dataset
        prepared = []
        monkeypatch.setattr(training, "prepare_input",
                            lambda *args, **kwargs: prepared.append(args))
        with pytest.raises(ValueError, match="distinct and in TASKS order"):
            train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(), rows,
                       manifest.parent, out_dir=tmp_path / "out", tasks=tasks)
        assert not prepared and not (tmp_path / "out").exists()

    def test_empty_dataset_rejected(self, tiny_dataset, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(),
                       [], tmp_path, out_dir=tmp_path / "out")

    def test_empty_training_split_rejected(self, tiny_dataset, monkeypatch, tmp_path):
        # one positive and one negative at 4:1: each class group keeps
        # floor(1 * 4 / 5) = 0 training rows
        manifest, rows = tiny_dataset
        pair = [next(r for r in rows if r.rg == 1), next(r for r in rows if r.rg == 0)]
        prepared = []
        monkeypatch.setattr(training, "prepare_input",
                            lambda *args, **kwargs: prepared.append(args))
        with pytest.raises(ValueError, match="^empty training set after split$"):
            train_task(SMALL_MODEL, quick_cfg(split=(4, 1)), AUG,
                       PreprocessOptions(), pair, manifest.parent, out_dir=tmp_path)
        assert not prepared

    def test_single_class_training_set_rejected(self, tiny_dataset, monkeypatch, tmp_path):
        manifest, rows = tiny_dataset
        negatives = [r for r in rows if r.rg == 0]
        prepared = []
        monkeypatch.setattr(training, "prepare_input",
                            lambda *args, **kwargs: prepared.append(args))
        with pytest.raises(ValueError, match="single-class training set"):
            train_task(SMALL_MODEL, quick_cfg(), AUG, PreprocessOptions(),
                       negatives, manifest.parent, out_dir=tmp_path)
        assert not prepared  # the check comes before any image is prepared


def bank_preparation(monkeypatch, rows, base_dir, out_dir):
    """The task lists of a one-epoch ``train_bank`` run's ``train_task``
    calls and the image ids it prepared, asserting that every
    ``prepare_input`` call falls inside a ``train_task`` call."""
    calls, prepared, inside = [], [], []
    original_task, original_prepare = training.train_task, training.prepare_input

    def recording_task(*args, tasks=None, **kwargs):
        calls.append(list(tasks))
        inside.append(True)
        try:
            return original_task(*args, tasks=tasks, **kwargs)
        finally:
            inside.pop()

    def recording_prepare(image, row, *args, **kwargs):
        assert inside, "an image was prepared outside train_task"
        prepared.append(row.image_id)
        return original_prepare(image, row, *args, **kwargs)

    monkeypatch.setattr(training, "train_task", recording_task)
    monkeypatch.setattr(training, "prepare_input", recording_prepare)
    train_bank(SMALL_MODEL, quick_cfg(epochs=1), AUG, PreprocessOptions(), rows,
               base_dir, out_dir=out_dir)
    return calls, prepared


def assert_members_equal_standalone_runs(bank, bank_dir, tasks, rows, base, out,
                                         epochs, config_lines=()):
    """Each of ``tasks``, trained alone into ``out / task``, writes a K = 1
    checkpoint holding the parameters of its member of the bank (as trained
    and as saved in ``bank_dir``) and the log bytes the bank wrote for it."""
    saved = load_bank(bank_dir)
    assert saved.tasks == bank.tasks
    for task in tasks:
        train_task(SMALL_MODEL, quick_cfg(epochs=epochs, task=task), AUG,
                   PreprocessOptions(), rows, base, out_dir=out / task,
                   config_lines=config_lines)
        solo = load_checkpoint(out / task / "model.ckpt")
        assert solo.tasks == (task,)
        for stack in (bank.stacked, saved.stacked):
            member = stack.member(bank.tasks.index(task))
            for name, t in solo.stacked.params.items():
                assert member.params[name].data.tobytes() == t.data.tobytes(), (task, name)
        log = f"{task}.log"
        assert (bank_dir / log).read_bytes() == (out / task / log).read_bytes()


class TestTrainBank:
    def test_full_bank_trains_eleven_tasks(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), AUG,
                          PreprocessOptions(), rows, manifest.parent,
                          out_dir=tmp_path)
        assert len(bank.models) == 11
        assert bank.tasks == tuple(TASKS)
        assert "status=skipped" not in (tmp_path / "bank.log").read_text()
        assert [p.name for p in tmp_path.glob("*.ckpt")] == ["model.ckpt"]
        assert load_bank(tmp_path).tasks == bank.tasks

    def test_feature_without_positives_is_skipped(self, tiny_dataset, tmp_path):
        manifest, rows = tiny_dataset
        stripped = [replace(r, features=r.features[:6] + (0,) + r.features[7:])
                    for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), AUG,
                          PreprocessOptions(), stripped, manifest.parent,
                          out_dir=tmp_path)
        assert len(bank.models) == 10
        assert "feature7" not in bank.tasks
        lines = (tmp_path / "bank.log").read_text().splitlines()
        assert [line for line in lines if "status=skipped" in line] == [
            "task=feature7 status=skipped reason=no positive training samples"]

    @pytest.mark.parametrize("train", ["train_task", "train_bank"])
    def test_returned_bank_is_the_bank_read_back(self, tiny_dataset, tmp_path, train):
        # what a training run returns is what load_bank reads from its
        # out_dir: the same tasks, preprocessing and parameter bytes
        manifest, rows = tiny_dataset
        stripped = [replace(r, features=r.features[:6] + (0,) + r.features[7:])
                    for r in rows]
        prep = PreprocessOptions(bg_removal=False)
        args = (SMALL_MODEL, quick_cfg(epochs=1), AUG, prep, stripped, manifest.parent)
        if train == "train_task":
            bank, histories = train_task(*args, out_dir=tmp_path,
                                         tasks=["glaucoma", "feature2", "feature9"])
            assert bank.tasks == ("glaucoma", "feature2", "feature9")
            assert [len(h) for h in histories] == [1, 1, 1]
        else:
            bank = train_bank(*args, out_dir=tmp_path)
            assert "feature7" not in bank.tasks
        saved = load_bank(tmp_path)
        assert type(saved) is type(bank) is ClassifierBank
        assert (saved.tasks, saved.prep, saved.config) == (bank.tasks, prep, bank.config)
        assert list(saved.stacked.params) == list(bank.stacked.params)
        for name, t in bank.stacked.params.items():
            assert saved.stacked.params[name].data.tobytes() == t.data.tobytes(), name

    def test_feature_in_every_training_image_is_skipped(self, tiny_dataset, tmp_path):
        # one class either way is untrainable; the bank skips such a task
        # before training instead of failing midway with a partial bank
        manifest, rows = tiny_dataset
        marked = [replace(r, features=(1,) + r.features[1:6] + (0,) + r.features[7:])
                  for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), AUG,
                          PreprocessOptions(), marked, manifest.parent,
                          out_dir=tmp_path)
        assert bank.tasks == tuple(t for t in TASKS if t not in ("feature1", "feature7"))
        assert len(bank.models) == 9
        lines = (tmp_path / "bank.log").read_text().splitlines()
        assert lines[2] == "task=feature1 status=skipped reason=no negative training samples"
        assert lines[8] == "task=feature7 status=skipped reason=no positive training samples"
        assert sum("status=skipped" in line for line in lines) == 2
        assert [p.name for p in tmp_path.glob("*.ckpt")] == ["model.ckpt"]
        assert load_bank(tmp_path).tasks == bank.tasks

    def test_bank_member_equals_standalone_run(self, tiny_dataset, tmp_path):
        # the bank prepares once and shares the images; every member must
        # still hold the parameters, and write the log, of its own
        # standalone run
        manifest, rows = tiny_dataset
        bank_dir = tmp_path / "bank"
        stripped = [replace(r, features=r.features[:2] + (0,) + r.features[3:])
                    for r in rows]
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=2), AUG,
                          PreprocessOptions(), stripped, manifest.parent,
                          out_dir=bank_dir, config_lines=["train.epochs = 2"])
        assert "feature3" not in bank.tasks
        assert len(bank.models) == 10
        assert [line for line in (bank_dir / "bank.log").read_text().splitlines()
                if "status=skipped" in line] == [
            "task=feature3 status=skipped reason=no positive training samples"]
        assert_members_equal_standalone_runs(bank, bank_dir, bank.models, stripped,
                                             manifest.parent, tmp_path, epochs=2,
                                             config_lines=["train.epochs = 2"])

    def test_lockstep_tasks_share_one_forward_per_stack(self, tiny_dataset, monkeypatch,
                                                        tmp_path):
        manifest, rows = tiny_dataset
        sizes = recording_forward(monkeypatch)
        augments = []

        def counting(images, *args):
            augments.append(len(images))
            return preprocess.augment(images, *args)

        monkeypatch.setattr(training, "augment", counting)
        bank, _ = train_task(SMALL_MODEL, quick_cfg(epochs=1), AUG,
                             PreprocessOptions(), rows, manifest.parent, out_dir=tmp_path,
                             tasks=["glaucoma", "feature1", "feature2"])
        assert bank.tasks == ("glaucoma", "feature1", "feature2")
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
        bank = train_bank(SMALL_MODEL, quick_cfg(epochs=1), AUG,
                          PreprocessOptions(), rows, manifest.parent,
                          out_dir=tmp_path / "bank")
        assert len(bank.models) == 11
        assert max(sizes) <= 24 and 24 in sizes and 20 in sizes
        assert_members_equal_standalone_runs(bank, tmp_path / "bank",
                                             ("glaucoma", "feature6", "feature10"), rows,
                                             manifest.parent, tmp_path, epochs=1)

    def test_full_resolution_bank_trains_one_task_image_per_forward(self, tmp_path,
                                                                     monkeypatch):
        manifest = generate_dataset(tmp_path / "data", n=6, seed=8, size=64,
                                    feature_rate=1.0)
        rows = read_manifest(manifest)
        cfg = ModelConfig.full_resolution(dim=8, depth=1, heads=1, agg_hidden=4,
                                          mlp_hidden=8)
        sizes = recording_forward(monkeypatch)
        bank, _ = train_task(cfg, quick_cfg(epochs=1), AugmentParams(enabled=False),
                             PreprocessOptions(), rows, manifest.parent,
                             out_dir=tmp_path / "out", tasks=["glaucoma", "feature1"])
        assert bank.tasks == ("glaucoma", "feature1")
        assert sizes and set(sizes) == {1}

    def test_bank_prepares_each_row_once(self, tiny_dataset, monkeypatch, tmp_path):
        manifest, rows = tiny_dataset
        calls, prepared = bank_preparation(monkeypatch, rows, manifest.parent, tmp_path)
        assert calls == [list(TASKS)]
        assert sorted(prepared) == sorted(r.image_id for r in rows)

    def test_bank_with_a_skipped_feature_prepares_each_row_once(self, tiny_dataset,
                                                                monkeypatch, tmp_path):
        manifest, rows = tiny_dataset
        stripped = [replace(r, features=r.features[:6] + (0,) + r.features[7:])
                    for r in rows]
        calls, prepared = bank_preparation(monkeypatch, stripped, manifest.parent,
                                           tmp_path)
        assert calls == [[task for task in TASKS if task != "feature7"]]
        assert sorted(prepared) == sorted(r.image_id for r in rows)

