"""Metric tests: sweep-based ROC against brute-force recounts, the
sensitivity-at-specificity convention, AUC as a rank statistic, Hamming
axioms, and report assembly with stub classifier banks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundusvit import metrics
from fundusvit.autodiff import Tensor
from fundusvit.metrics import (CHALLENGE_DEV_PHASE, DegenerateLabelsError,
                               auc, evaluate_scores,
                               normalized_hamming, roc_curve,
                               tpr_at_specificity)
from fundusvit.model import HeadOutputs
from fundusvit.training import dual_bce_loss

from helpers import (brute_force_auc, brute_force_roc, brute_force_tpr_at_spec,
                     read_report)


def random_instance(seed, max_n=50):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    labels = rng.integers(0, 2, size=n)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    # quantized scores force plenty of ties
    scores = np.round(rng.random(n), 2)
    return scores, labels


class TestRocCurve:
    def test_perfect_separation_has_ideal_point(self):
        curve = roc_curve([0.9, 0.1], [1, 0])
        points = set(zip(curve.fpr.tolist(), curve.tpr.tolist()))
        assert (0.0, 1.0) in points

    def test_all_equal_scores_two_endpoints_only(self):
        curve = roc_curve([0.4, 0.4, 0.4], [1, 0, 1])
        assert len(curve.thresholds) == 2
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    def test_endpoints_always_present(self):
        curve = roc_curve([0.1, 0.5, 0.9, 0.7], [0, 1, 1, 0])
        assert (curve.fpr[0], curve.tpr[0]) == (0.0, 0.0)
        assert (curve.fpr[-1], curve.tpr[-1]) == (1.0, 1.0)

    def test_monotone(self):
        scores, labels = random_instance(3)
        curve = roc_curve(scores, labels)
        assert np.all(np.diff(curve.fpr) >= 0)
        assert np.all(np.diff(curve.tpr) >= 0)
        assert np.all(np.diff(curve.thresholds) < 0)

    def test_degenerate_labels_raise(self):
        with pytest.raises(DegenerateLabelsError):
            roc_curve([0.1, 0.2], [1, 1])
        with pytest.raises(DegenerateLabelsError):
            roc_curve([0.1, 0.2], [0, 0])

    def test_scores_and_labels_of_other_shapes_raise(self):
        for scores, labels in [([0.1, 0.2], [1, 0, 1]), ([[0.1, 0.2]], [[1, 0]]),
                               (0.1, 1)]:
            with pytest.raises(ValueError, match="equal-length vectors"):
                roc_curve(scores, labels)

    def test_non_binary_labels_raise(self):
        for labels in ([1, 2], [0.5, 1], [-1, 0]):
            with pytest.raises(ValueError, match="binary 0/1"):
                roc_curve([0.1, 0.2], labels)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_brute_force_recount(self, seed):
        scores, labels = random_instance(seed, max_n=12)
        curve = roc_curve(scores, labels)
        expected = brute_force_roc(scores, labels)
        assert len(curve.thresholds) == len(expected)
        for i, (t, fpr, tpr) in enumerate(expected):
            assert curve.thresholds[i] == t
            assert abs(curve.fpr[i] - fpr) < 1e-12
            assert abs(curve.tpr[i] - tpr) < 1e-12


class TestTprAtSpecificity:
    def test_perfectly_separable(self):
        assert tpr_at_specificity([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0], 0.95) == 1.0

    def test_positives_below_negatives(self):
        assert tpr_at_specificity([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0], 0.95) == 0.0

    def test_documented_mixed_case(self):
        # 20 negatives at 0.00..0.19; positives 4x0.05 and 6x0.50.
        # One negative may exceed the threshold (FPR 0.05); best TPR is 0.6.
        scores = [round(0.01 * i, 2) for i in range(20)] + [0.05] * 4 + [0.50] * 6
        labels = [0] * 20 + [1] * 10
        result = tpr_at_specificity(scores, labels, 0.95)
        assert result == pytest.approx(0.6, abs=1e-12)
        assert result == pytest.approx(brute_force_tpr_at_spec(scores, labels, 0.95),
                                       abs=1e-12)

    def test_specificity_outside_unit_interval_raises(self):
        curve = roc_curve([0.9, 0.1], [1, 0])
        assert curve.tpr_at(0.0) == curve.tpr_at(1.0) == 1.0
        for spec in (-0.01, 1.01, float("nan")):
            with pytest.raises(ValueError, match="outside"):
                curve.tpr_at(spec)

    def test_monotone_non_increasing_in_specificity(self):
        scores, labels = random_instance(17)
        values = [tpr_at_specificity(scores, labels, s)
                  for s in (0.0, 0.25, 0.5, 0.75, 0.9, 0.95, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


class TestAuc:
    def test_perfect(self):
        assert auc(roc_curve([0.9, 0.8, 0.1], [1, 1, 0])) == 1.0

    def test_chance_for_equal_scores(self):
        assert auc(roc_curve([0.5] * 6, [1, 0, 1, 0, 1, 0])) == 0.5

    def test_matches_pairwise_rank_statistic(self):
        scores, labels = random_instance(23, max_n=15)
        got = auc(roc_curve(scores, labels))
        assert got == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_invariant_under_strictly_increasing_transform(self, seed):
        scores, labels = random_instance(seed, max_n=20)
        a = auc(roc_curve(scores, labels))
        b = auc(roc_curve(np.exp(3.0 * scores) + 1.0, labels))
        assert a == pytest.approx(b, abs=1e-12)


class TestNormalizedHamming:
    def test_identical_is_zero(self):
        assert normalized_hamming([1, 0] * 5, [1, 0] * 5) == 0.0

    def test_complementary_is_one(self):
        v = np.random.default_rng(0).integers(0, 2, size=10)
        assert normalized_hamming(v, 1 - v) == 1.0

    def test_two_of_ten(self):
        a = [0] * 10
        b = [1, 1] + [0] * 8
        assert normalized_hamming(a, b) == pytest.approx(0.2, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            normalized_hamming([0, 1], [0, 1, 0])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_metric_axioms(self, seed):
        rng = np.random.default_rng(seed)
        x, y, z = (rng.integers(0, 2, size=10) for _ in range(3))
        dxy = normalized_hamming(x, y)
        assert dxy >= 0
        assert (dxy == 0) == bool(np.array_equal(x, y))
        assert dxy == normalized_hamming(y, x)
        assert dxy <= normalized_hamming(x, z) + normalized_hamming(z, y) + 1e-15


class TestEvaluateScores:
    def test_oracle_scores_are_perfect(self):
        ids = [f"img{i}" for i in range(6)]
        labels = [1, 1, 1, 0, 0, 0]
        scores = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0]
        truth = np.random.default_rng(1).integers(0, 2, size=(6, 10))
        report = evaluate_scores(ids, scores, labels, truth.astype(float), truth)
        assert report.tpr_at_95 == 1.0
        assert report.auc == 1.0
        assert report.nhd_mean == 0.0

    def test_constant_half_scores_predict_all_negative(self):
        # ties at the 0.5 threshold resolve negative, so NHD equals the
        # truth-bit rate per sample
        ids = [f"s{i}" for i in range(5)]
        labels = [1, 0, 1, 0, 1]
        g_scores = [0.9, 0.1, 0.8, 0.2, 0.7]
        truth = np.array([[1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                          [0] * 10,
                          [1] * 10,
                          [0, 1, 0, 1, 0, 1, 0, 1, 0, 1],
                          [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]])
        feature_scores = np.full((5, 10), 0.5)
        report = evaluate_scores(ids, g_scores, labels, feature_scores, truth)
        expected = {f"s{i}": truth[i].mean() for i in range(5)}
        assert report.per_sample_nhd == pytest.approx(expected)
        assert report.nhd_mean == pytest.approx(truth.mean(axis=1).mean())

    def test_one_roc_curve_per_report_and_rowwise_nhd(self, monkeypatch):
        # TPR@95 comes from the report's own curve; each row's NHD is the
        # value normalized_hamming gives that row alone
        rng = np.random.default_rng(4)
        ids = [f"s{i}" for i in range(40)]
        labels, g_scores = rng.integers(0, 2, 40), rng.random(40)
        f_scores, truth = rng.random((40, 10)), rng.integers(0, 2, (40, 10))
        built = []
        monkeypatch.setattr(metrics, "roc_curve",
                            lambda *a: built.append(a) or roc_curve(*a))
        report = evaluate_scores(ids, g_scores, labels, f_scores, truth)
        assert len(built) == 1
        assert report.tpr_at_95 == tpr_at_specificity(g_scores, labels, 0.95)
        assert report.per_sample_nhd == {
            ids[i]: normalized_hamming((f_scores[i] > 0.5).astype(int), truth[i])
            for i in range(40)}

    @pytest.mark.parametrize("truth", [np.full((2, 10), 2), np.zeros((2, 9), dtype=int)])
    def test_bad_flag_matrix_is_a_value_error(self, truth):
        with pytest.raises(ValueError, match="flag vectors"):
            evaluate_scores(["a", "b"], [0.9, 0.1], [1, 0], np.zeros((2, 10)), truth)

    def test_report_round_trip(self, tmp_path):
        ids = ["a", "b"]
        report = evaluate_scores(ids, [0.9, 0.1], [1, 0],
                                 np.zeros((2, 10)), np.zeros((2, 10), dtype=int))
        path = tmp_path / "report.txt"
        report.write(path)
        scalars, per_sample = read_report(path)
        assert scalars == {"tpr_at_95": report.tpr_at_95, "auc": report.auc,
                           "nhd_mean": report.nhd_mean,
                           "feature_threshold": report.feature_threshold,
                           "n_samples": report.n_samples}
        assert per_sample == report.per_sample_nhd

    def test_roc_table(self, tmp_path):
        report = evaluate_scores(["a", "b", "c"], [0.9, 0.5, 0.1], [1, 1, 0],
                                 np.zeros((3, 10)), np.zeros((3, 10), dtype=int))
        path = tmp_path / "roc.tsv"
        report.write_roc_table(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "threshold\tfpr\ttpr"
        assert len(lines) == len(report.roc.thresholds) + 1


def _loss_on(y):
    """``dual_bce_loss`` of one task's (1, B) labels ``y``."""
    p = Tensor(np.full((1, len(y), 1, 2), 0.5))
    return dual_bce_loss(y[None], HeadOutputs(p_cls=p, p_agg=p,
                                              patch_weights=Tensor(np.ones((1, len(y), 1, 1)))))


# each exact 0/1 check, with the message it refuses with
BINARY_CHECKS = {
    "roc labels": (lambda v: roc_curve([0.1, 0.2, 0.3], v), "labels must be binary 0/1"),
    "hamming pred": (lambda v: normalized_hamming(v, [0, 1, 1]),
                     "flag vectors must be binary 0/1"),
    "hamming truth": (lambda v: normalized_hamming([0, 1, 1], v),
                      "flag vectors must be binary 0/1"),
    "loss labels": (_loss_on, r"y must be the forward's \(K, B\) 0/1 labels"),
}


@pytest.mark.parametrize("check", BINARY_CHECKS)
@pytest.mark.parametrize("values, accepted", [
    (np.array([0, 1, 1]), True),
    (np.array([0.0, 1.0, 1.0]), True),
    (np.array([False, True, True]), True),
    (np.array([0, 1, 2]), False),
    (np.array([0, 1, -1]), False),
    (np.array([0.0, 1.0, 0.5]), False),
    (np.array([0.0, 1.0, np.nan]), False),
], ids=["int", "float", "bool", "2", "-1", "0.5", "nan"])
def test_exact_binary_checks_accept_only_zero_and_one(check, values, accepted):
    run, message = BINARY_CHECKS[check]
    if accepted:
        run(values)
    else:
        with pytest.raises(ValueError, match=f"^{message}"):
            run(values)


def test_published_numbers_are_recorded_as_non_reproducible():
    assert CHALLENGE_DEV_PHASE["tpr_at_95"] == pytest.approx(0.8570)
    assert CHALLENGE_DEV_PHASE["nhd"] == pytest.approx(0.1250)
    assert CHALLENGE_DEV_PHASE["detector_auc"] == pytest.approx(0.995)
    assert CHALLENGE_DEV_PHASE["reproducible_here"] is False
