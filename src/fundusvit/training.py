"""Training engine: the dual-head cross-entropy loss, Adam with a stepped
learning-rate decay, class rebalancing with a 4:1 train/validation split,
and the eleven-task training orchestration (one referable-glaucoma
classifier plus ten independent feature classifiers).

Everything is reproducible from the config seed: per-purpose generators are
derived from (seed, stream tag, ...) seed sequences, so per-image work can
be reordered or parallelized without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .atomic import write_atomic
from .autodiff import Tensor
from .checkpoint import TASKS, ClassifierBank, save_checkpoint
from .dataset import (ManifestRow, PreprocessOptions, load_input_image,
                      prepare_input, to_unit)
from .metrics import tpr_at_specificity
from .model import DualHeadViT, HeadOutputs, ModelConfig
from .preprocess import AugmentDraws, AugmentParams, augment

# Seed-stream tags (arbitrary distinct constants).
_STREAM_INIT = 1
_STREAM_SPLIT = 2
_STREAM_SHUFFLE = 3
_STREAM_AUGMENT = 4

PROB_CLAMP = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol. The learning-rate schedule, split ratio and
    initial rate follow the published protocol; batch size, epoch count and
    the Adam moment constants are implementation defaults."""

    lr0: float = 2e-4
    lr_decay: float = 0.5
    lr_decay_every: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    batch_size: int = 8
    epochs: int = 30
    seed: int = 0
    split: tuple[int, int] = (4, 1)
    task: str = "glaucoma"
    n_nrg: int | None = None

    def __post_init__(self):
        if self.task not in TASKS and self.task != "bank":
            raise ValueError(f"unknown task {self.task!r}")
        for name in ("batch_size", "epochs", "lr_decay_every"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if min(self.split) < 0 or sum(self.split) == 0:
            raise ValueError(f"split needs nonnegative parts with a positive sum, "
                             f"got {self.split}")


@dataclass
class LossValue:
    """Total training loss and the two per-head cross-entropy terms."""

    total: Tensor
    cls_term: Tensor
    agg_term: Tensor


def dual_bce_loss(y, outputs: HeadOutputs) -> LossValue:
    """Cross-entropy of both heads against one-hot pairs.

    ``y`` is one pair, or a (B, 2) sequence of pairs for the B images of a
    stacked forward. Each head contributes -sum_i y_i log p_i, summed over
    the stack, with probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP];
    the total is the mean of the two terms.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.ndim not in (1, 2) or y_arr.shape[-1] != 2 \
            or not np.isin(y_arr, (0.0, 1.0)).all() or (y_arr.sum(axis=-1) != 1.0).any():
        raise ValueError(f"y must be a one-hot pair or a sequence of them, got {y!r}")
    # -y, so that each head term is one sum with no negation node after it
    target = Tensor((-y_arr).reshape(outputs.p_cls.shape).astype(outputs.p_cls.dtype))

    def head_term(p: Tensor) -> Tensor:
        return ad.tsum(ad.mul(target, ad.log(ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))))

    cls_term = head_term(outputs.p_cls)
    agg_term = head_term(outputs.p_agg)
    total = ad.mul(ad.add(cls_term, agg_term), 0.5)
    return LossValue(total=total, cls_term=cls_term, agg_term=agg_term)


class Adam:
    """Adam with bias correction; ``step`` applies the update and clears the
    gradients (the engine's single reset point)."""

    def __init__(self, params: Sequence[Tensor], beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ad.ShapeError(f"gradient shape {g.shape} does not match "
                                    f"parameter shape {p.data.shape}")
            self.m[i] = b1 * self.m[i] + (1 - b1) * g
            self.v[i] = b2 * self.v[i] + (1 - b2) * g * g
            m_hat = self.m[i] / (1 - b1 ** self.t)
            v_hat = self.v[i] / (1 - b2 ** self.t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)
        ad.zero_grads(self.params)


def lr_schedule(epoch: int, cfg: TrainConfig = TrainConfig()) -> float:
    """Initial rate scaled by the decay factor once per decay period."""
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return cfg.lr0 * cfg.lr_decay ** (epoch // cfg.lr_decay_every)


def rebalance_and_split(samples: Sequence, labels: Sequence[int],
                        n_nrg: int | None, ratio: tuple[int, int],
                        seed: int) -> tuple[list, list]:
    """Keep every positive (RG) sample, subsample the negatives to ``n_nrg``
    (None keeps all), then split each class train:val by ``ratio``.

    The two returned lists partition the selected set; membership is a pure
    function of (labels, n_nrg, ratio, seed).
    """
    samples = list(samples)
    labels = [int(v) for v in labels]
    if len(labels) != len(samples):
        raise ValueError("samples and labels differ in length")
    rng = np.random.default_rng(np.random.SeedSequence((int(seed), _STREAM_SPLIT)))
    pos = [s for s, y in zip(samples, labels) if y == 1]
    neg = [s for s, y in zip(samples, labels) if y == 0]
    if n_nrg is not None:
        if n_nrg > len(neg):
            raise ValueError(f"requested {n_nrg} negatives, only {len(neg)} available")
        neg = [neg[i] for i in rng.choice(len(neg), size=n_nrg, replace=False)]
    train: list = []
    val: list = []
    r_train, r_val = ratio
    for group in (pos, neg):
        order = rng.permutation(len(group))
        n_train = int(np.floor(len(group) * r_train / (r_train + r_val)))
        train += [group[i] for i in order[:n_train]]
        val += [group[i] for i in order[n_train:]]
    return train, val


def task_label(row: ManifestRow, task: str) -> int:
    if task == "glaucoma":
        return row.rg
    return row.features[int(task.removeprefix("feature")) - 1]


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float


@dataclass
class TaskResult:
    task: str
    model: DualHeadViT
    history: list[EpochRecord]
    best_epoch: int
    best_metric: float
    log_lines: list[str]
    checkpoint_path: Path | None = None


def _augment_rng(seed: int, epoch: int, index: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence((int(seed), _STREAM_AUGMENT, int(epoch), int(index))))


@dataclass(frozen=True)
class PreparedSplit:
    """A rebalance/split with its images prepared: the (N, H, W, 3) uint8
    train stack, the unit-scaled validation stack (None if no rows) and the
    rows, extents, prep and split ``settings`` they were prepared for."""

    settings: tuple
    train_rows: list[ManifestRow]
    train_images: np.ndarray
    val_rows: list[ManifestRow]
    val_images: np.ndarray | None


def _split_settings(model_cfg: ModelConfig, train_cfg: TrainConfig, prep, rows) -> tuple:
    return (tuple(rows), model_cfg.height, model_cfg.width, prep,
            train_cfg.n_nrg, train_cfg.split, train_cfg.seed)


def prepare_split(model_cfg: ModelConfig, train_cfg: TrainConfig,
                  prep: PreprocessOptions, rows: Sequence[ManifestRow],
                  base_dir: str | Path) -> PreparedSplit:
    """Rebalance and split ``rows`` by the referable-glaucoma label, then
    prepare every image once; nothing here depends on the task."""
    train_rows, val_rows = rebalance_and_split(rows, [r.rg for r in rows], train_cfg.n_nrg,
                                               train_cfg.split, train_cfg.seed)
    if not train_rows:
        raise ValueError("empty training set after split" if rows else "empty dataset")

    def prepared(split):
        return np.stack([prepare_input(load_input_image(r, base_dir), r, base_dir, prep,
                                       model_cfg.height, model_cfg.width)[0]
                         for r in split])

    return PreparedSplit(_split_settings(model_cfg, train_cfg, prep, rows), train_rows,
                         prepared(train_rows), val_rows,
                         to_unit(prepared(val_rows)) if val_rows else None)


def _validation_metric(model: DualHeadViT, val_images: np.ndarray,
                       val_labels: list[int], task: str) -> float:
    scores = model.predict(val_images)
    if task == "glaucoma":
        return tpr_at_specificity(scores, val_labels, 0.95)
    return float(np.mean([(s > 0.5) == y for s, y in zip(scores, val_labels)]))


def train_task(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path | None = None,
               config_lines: Sequence[str] = (),
               inputs: PreparedSplit | None = None) -> TaskResult:
    """Train one binary task end to end on ``inputs``, the ``prepare_split``
    of ``rows`` (built here when None; inputs prepared for other rows,
    extents, prep or split settings raise ValueError).

    Loops: seeded shuffle, then per minibatch, for each ``model_cfg.stack_size``
    images (the whole minibatch at desk and default scale, one image at
    512x512), one stacked augmentation with per-image draws, one stacked
    forward, dual-head loss and backward; then one Adam step. Keeps the
    parameters from the epoch with the best validation metric and, when
    ``out_dir`` is given, writes ``<task>.ckpt`` and ``<task>.log`` there.
    """
    task = train_cfg.task
    if task not in TASKS:
        raise ValueError(f"train_task needs a single task, got {task!r}")
    if inputs is None:
        inputs = prepare_split(model_cfg, train_cfg, prep, rows, base_dir)
    elif inputs.settings != _split_settings(model_cfg, train_cfg, prep, rows):
        raise ValueError("inputs were prepared for other rows, extents or settings")
    train_y = [task_label(r, task) for r in inputs.train_rows]
    if len(set(train_y)) < 2:
        raise ValueError(f"single-class training set for task {task!r}")
    val_y = [task_label(r, task) for r in inputs.val_rows]

    model = DualHeadViT(model_cfg,
                        seed=np.random.SeedSequence(
                            (train_cfg.seed, _STREAM_INIT, TASKS.index(task))
                        ).generate_state(1)[0],
                        dtype=np.float32)
    optimizer = Adam(model.parameters(), train_cfg.beta1, train_cfg.beta2,
                     train_cfg.adam_eps)

    log_lines = [f"# fundusvit training log, task={task}"]
    log_lines += [f"# {line}" for line in config_lines]
    log_lines.append("# note: batch_size, epochs and adam moment constants are "
                     "implementation defaults, not protocol values")

    history: list[EpochRecord] = []
    best_metric = -np.inf
    best_epoch = -1
    best_state: dict[str, np.ndarray] = {}
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((train_cfg.seed, _STREAM_SHUFFLE, epoch)))
        order = shuffle_rng.permutation(len(train_y))
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + train_cfg.batch_size]]
            inv = 1.0 / len(batch)
            for first in range(0, len(batch), model_cfg.stack_size):
                stack = batch[first:first + model_cfg.stack_size]
                images = to_unit(augment(inputs.train_images[stack], aug, [
                    AugmentDraws.sample(_augment_rng(train_cfg.seed, epoch, idx), aug)
                    for idx in stack]))
                y = [(1.0 - train_y[idx], float(train_y[idx])) for idx in stack]
                loss = dual_bce_loss(y, model.forward(images))
                epoch_loss += loss.total.item()
                ad.backward(ad.mul(loss.total, inv))
            optimizer.step(lr)
        train_loss = epoch_loss / len(order)
        val_metric = _validation_metric(model, inputs.val_images, val_y, task) \
            if val_y else float("nan")
        history.append(EpochRecord(epoch, lr, train_loss, val_metric))
        log_lines.append(f"epoch={epoch} lr={lr:.6e} train_loss={train_loss:.6f} "
                         f"val_metric={val_metric:.6f}")
        # without a validation set keep the latest parameters; with one, ties
        # keep the later epoch: equal validation, lower train loss
        if not val_y or val_metric >= best_metric:
            best_metric = val_metric if val_y else -np.inf
            best_epoch = epoch
            best_state = {name: t.data.copy() for name, t in model.named_parameters()}
    for name, data in best_state.items():
        model.params[name].data = data
    log_lines.append(f"# best_epoch={best_epoch} best_val_metric={best_metric:.6f}")

    result = TaskResult(task=task, model=model, history=history,
                        best_epoch=best_epoch, best_metric=best_metric,
                        log_lines=log_lines)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        result.checkpoint_path = out_dir / f"{task}.ckpt"
        save_checkpoint(result.checkpoint_path, model, prep, task)
        write_atomic(out_dir / f"{task}.log", "\n".join(log_lines) + "\n")
    return result


def train_bank(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path | None = None,
               config_lines: Sequence[str] = ()) -> ClassifierBank:
    """Train all eleven tasks independently with the same base seed, each
    ``train_task`` call on one shared ``prepare_split`` of the rows.

    A feature task whose training split has no positive sample is skipped
    with a warning recorded in the bank log; everything else is exactly a
    ``train_task`` run, so a bank member is bitwise identical to a
    standalone run with the same seed.
    """
    inputs = prepare_split(model_cfg, train_cfg, prep, rows, base_dir)
    models: dict[str, DualHeadViT] = {}
    skipped: dict[str, str] = {}
    bank_lines = ["# fundusvit bank log"]
    for task in TASKS:
        if task != "glaucoma" and not any(task_label(r, task) for r in inputs.train_rows):
            reason = "no positive training samples"
            skipped[task] = reason
            bank_lines.append(f"task={task} status=skipped reason={reason}")
            continue
        result = train_task(model_cfg, replace(train_cfg, task=task), aug, prep, rows,
                            base_dir, out_dir=out_dir, config_lines=config_lines,
                            inputs=inputs)
        models[task] = result.model
        bank_lines.append(f"task={task} status=trained "
                          f"best_epoch={result.best_epoch} "
                          f"best_val_metric={result.best_metric:.6f}")
    if out_dir is not None:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        write_atomic(Path(out_dir) / "bank.log", "\n".join(bank_lines) + "\n")
    return ClassifierBank(models=models, prep=prep, config=model_cfg, skipped=skipped)
