"""Screening metrics: ROC, AUC, sensitivity at fixed specificity, and the
normalized Hamming distance over the ten feature flags.

Published development-phase results of the original challenge entry this
pipeline re-implements (TPR@95 = 85.70%, NHD = 0.1250, detector AUC 0.995)
were measured on the JustRAIGS dataset and are NOT reproducible here: the
dataset does not ship with this package. They are recorded below for
reference only; the test suite substitutes property-based checks on
synthetic data.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .atomic import write_atomic
from .checkpoint import TASKS

CHALLENGE_DEV_PHASE = {
    "tpr_at_95": 0.8570,
    "nhd": 0.1250,
    "detector_auc": 0.995,
    "reproducible_here": False,
}

N_FEATURES = 10
DEFAULT_FEATURE_THRESHOLD = 0.5


class DegenerateLabelsError(ValueError):
    """Scores cannot be ranked: positives or negatives are missing."""


@dataclass(frozen=True)
class RocCurve:
    """ROC points, one per distinct score, thresholds descending.

    A sample is classified positive at threshold t when its score is >= t.
    The first point is (FPR 0, TPR 0) at a threshold above every score; the
    last is (1, 1) at the minimum score.
    """

    thresholds: np.ndarray
    fpr: np.ndarray
    tpr: np.ndarray


def _check_binary(scores, labels) -> tuple[np.ndarray, np.ndarray]:
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.ndim != 1 or labels.shape != scores.shape:
        raise ValueError(f"scores/labels must be equal-length vectors, got "
                         f"{scores.shape} and {labels.shape}")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be binary 0/1")
    labels = labels.astype(np.int64)
    pos, neg = int(labels.sum()), int((1 - labels).sum())
    if pos == 0 or neg == 0:
        raise DegenerateLabelsError(f"need at least one positive and one negative "
                                    f"label, got {pos} positives / {neg} negatives")
    return scores, labels


def roc_curve(scores, labels) -> RocCurve:
    """Single sorted sweep; tied scores share one threshold point."""
    scores, labels = _check_binary(scores, labels)
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    distinct = np.nonzero(np.diff(s))[0]
    cut = np.concatenate([distinct, [len(s) - 1]])
    cum_tp = np.cumsum(y)[cut]
    cum_fp = np.cumsum(1 - y)[cut]
    n_pos, n_neg = cum_tp[-1], cum_fp[-1]
    thresholds = np.concatenate([[np.inf], s[cut]])
    tpr = np.concatenate([[0.0], cum_tp / n_pos])
    fpr = np.concatenate([[0.0], cum_fp / n_neg])
    return RocCurve(thresholds=thresholds, fpr=fpr, tpr=tpr)


def tpr_at_specificity(scores, labels, specificity: float = 0.95) -> float:
    """Max achievable sensitivity with FPR <= 1 - specificity.

    Only realized threshold points count; no interpolation between them.
    """
    if not 0.0 <= specificity <= 1.0:
        raise ValueError(f"specificity {specificity} outside [0, 1]")
    curve = roc_curve(scores, labels)
    feasible = curve.fpr <= (1.0 - specificity) + 1e-12
    return float(curve.tpr[feasible].max())


def auc(curve: RocCurve) -> float:
    """Trapezoidal area under the ROC curve (tie-corrected rank statistic)."""
    return float(np.trapezoid(curve.tpr, curve.fpr))


def normalized_hamming(pred: Sequence[int], truth: Sequence[int]) -> float:
    """Fraction of positions where the two binary flag vectors disagree."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape or pred.ndim != 1:
        raise ValueError(f"flag vectors must have equal length, got "
                         f"{pred.shape} and {truth.shape}")
    if not (np.isin(pred, (0, 1)).all() and np.isin(truth, (0, 1)).all()):
        raise ValueError("flag vectors must be binary 0/1")
    return float(np.mean(pred != truth))


@dataclass
class EvalReport:
    """Evaluation summary for one dataset pass."""

    tpr_at_95: float
    auc: float
    nhd_mean: float
    per_sample_nhd: dict[str, float]
    feature_threshold: float
    n_samples: int
    roc: RocCurve | None = None

    def to_lines(self) -> list[str]:
        lines = [
            f"tpr_at_95 = {self.tpr_at_95:.6f}",
            f"auc = {self.auc:.6f}",
            f"nhd_mean = {self.nhd_mean:.6f}",
            f"feature_threshold = {self.feature_threshold:.6f}",
            f"n_samples = {self.n_samples}",
        ]
        lines += [f"nhd.{image_id} = {value:.6f}"
                  for image_id, value in self.per_sample_nhd.items()]
        return lines

    def write(self, path: str | Path) -> None:
        write_atomic(path, "\n".join(self.to_lines()) + "\n")

    def write_roc_table(self, path: str | Path) -> None:
        if self.roc is None:
            raise ValueError("no ROC curve attached to this report")
        rows = ["threshold\tfpr\ttpr"]
        rows += [f"{t:.9g}\t{f:.9f}\t{p:.9f}"
                 for t, f, p in zip(self.roc.thresholds, self.roc.fpr, self.roc.tpr)]
        write_atomic(path, "\n".join(rows) + "\n")


def evaluate_scores(image_ids: Sequence[str],
                    glaucoma_scores: Sequence[float],
                    glaucoma_labels: Sequence[int],
                    feature_scores: np.ndarray,
                    feature_truth: np.ndarray,
                    threshold: float = DEFAULT_FEATURE_THRESHOLD) -> EvalReport:
    """Assemble a report from already-computed per-sample scores.

    Feature flags are thresholded with "score > threshold means positive"
    (ties negative); per-sample NHD values are averaged over samples.
    """
    curve = roc_curve(glaucoma_scores, glaucoma_labels)
    feature_scores = np.asarray(feature_scores, dtype=np.float64)
    feature_truth = np.asarray(feature_truth)
    preds = (feature_scores > threshold).astype(int)
    per_sample = {
        image_id: normalized_hamming(preds[i], feature_truth[i])
        for i, image_id in enumerate(image_ids)
    }
    return EvalReport(
        tpr_at_95=tpr_at_specificity(glaucoma_scores, glaucoma_labels, 0.95),
        auc=auc(curve),
        nhd_mean=float(np.mean(list(per_sample.values()))) if per_sample else 0.0,
        per_sample_nhd=per_sample,
        feature_threshold=threshold,
        n_samples=len(image_ids),
        roc=curve)


def evaluate(bank, rows, base_dir: str | Path,
             threshold: float = DEFAULT_FEATURE_THRESHOLD,
             collect_scores: bool = False):
    """Score a labeled dataset with a classifier bank: one predict of the
    bank's task stack per ``config.stack_size`` prepared images.

    ``bank`` must expose ``prep`` (preprocessing options), ``config``, a
    ``models`` mapping with a ``glaucoma`` entry plus any of ``feature1`` ..
    ``feature10``, and their task stack ``stacked``, in ``models`` order;
    feature tasks missing from the bank (skipped at training time) predict
    probability 0. Returns the report, plus the raw score arrays when
    ``collect_scores`` is set.
    """
    from .dataset import load_input_image, prepare_input, to_unit

    ids = [row.image_id for row in rows]
    g_labels = [row.rg for row in rows]
    # one column per task: glaucoma, then feature1 .. feature10
    scores = np.zeros((len(rows), len(TASKS)))
    columns = [TASKS.index(task) for task in bank.models]
    f_truth = np.array([row.features for row in rows], dtype=int).reshape(-1, N_FEATURES)
    size = bank.config.stack_size
    for start in range(0, len(rows), size):
        chunk = slice(start, start + size)
        stack = to_unit(np.stack([
            prepare_input(load_input_image(row, base_dir), row, base_dir, bank.prep,
                          bank.config.height, bank.config.width)[0] for row in rows[chunk]]))
        scores[chunk, columns] = bank.stacked.predict(stack).T
    g_scores, f_scores = scores[:, 0], scores[:, 1:]
    report = evaluate_scores(ids, g_scores, g_labels, f_scores, f_truth, threshold)
    if collect_scores:
        return report, g_scores, np.asarray(g_labels), f_scores, f_truth
    return report
