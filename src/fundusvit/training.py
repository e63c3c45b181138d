"""Training engine: the dual-head cross-entropy loss, Adam with a stepped
learning-rate decay, class rebalancing with a 4:1 train/validation split,
and the eleven-task training orchestration (one referable-glaucoma
classifier plus ten independent feature classifiers).

Everything is reproducible from the config seed: per-purpose generators are
derived from (seed, stream tag, ...) seed sequences, so per-image work can
be reordered or parallelized without changing results.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    ``y`` is one pair, a (B, 2) sequence of pairs for the B images of a
    stacked forward, or (K, B, 2) pairs for a task stack's. Each head
    contributes -sum_i y_i log p_i, summed over the stack, with
    probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; the total is the
    mean of the two terms. A task stack's terms are (K,) vectors, one sum
    per task.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.ndim not in (1, 2, 3) or y_arr.shape[-1] != 2 \
            or not np.isin(y_arr, (0.0, 1.0)).all() or (y_arr.sum(axis=-1) != 1.0).any():
        raise ValueError(f"y must be a one-hot pair or a sequence of them, got {y!r}")
    # -y, so that each head term is one sum with no negation node after it
    target = Tensor((-y_arr).reshape(outputs.p_cls.shape).astype(outputs.p_cls.dtype))
    lead = int(outputs.p_cls.ndim == 4)  # a task stack's (K, B, 1, 2) pairs

    def head_term(p: Tensor) -> Tensor:
        return ad.tsum(ad.mul(target, ad.log(ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))),
                       lead)

    cls_term = head_term(outputs.p_cls)
    agg_term = head_term(outputs.p_agg)
    total = ad.mul(ad.add(cls_term, agg_term), 0.5)
    return LossValue(total=total, cls_term=cls_term, agg_term=agg_term)


class Adam:
    """Adam with bias correction; ``step`` applies the update and clears the
    gradients (the engine's single reset point). Moments and parameters are
    updated in place, with the roundings of the textbook expressions, so a
    task stack's K-fold moments need few temporaries."""

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
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if g.shape != p.data.shape:
                raise ad.ShapeError(f"gradient shape {g.shape} does not match "
                                    f"parameter shape {p.data.shape}")
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            step = m / (1 - b1 ** self.t)
            step *= lr
            v_hat = v / (1 - b2 ** self.t)
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.eps
            step /= v_hat
            p.data -= step
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
    model: DualHeadViT | None  # set when training ends
    history: list[EpochRecord]
    best_epoch: int
    best_metric: float
    log_lines: list[str]
    checkpoint_path: Path | None = None
    # the run's best-state task stack, one per train_task call; model is its member
    stack: DualHeadViT | None = None


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


def _task_metric(scores: np.ndarray, labels: Sequence[int], task: str) -> float:
    """Validation metric: TPR at 95% specificity for glaucoma, accuracy at
    0.5 for a feature."""
    if task == "glaucoma":
        return tpr_at_specificity(scores, labels, 0.95)
    return float(np.mean([(s > 0.5) == y for s, y in zip(scores, labels)]))


def train_task(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path | None = None,
               config_lines: Sequence[str] = (),
               inputs: PreparedSplit | None = None,
               tasks: Sequence[str] | None = None) -> list[TaskResult]:
    """Train binary ``tasks`` (default: ``train_cfg.task`` alone; one task
    is a bank of one) in lockstep on ``inputs``, the ``prepare_split`` of
    ``rows`` (built here when None; inputs prepared for other rows, extents,
    prep or split settings raise ValueError). Returns one result per task.

    The tasks differ only in labels and initial values: the shuffle order
    and the augmentation draws are keyed by (seed, epoch, image). Loops:
    seeded shuffle, then per minibatch, for each ``model_cfg.stack_size``
    images (the whole minibatch at desk and default scale, one image at
    512x512), one stacked augmentation with per-image draws, then for each
    of the task stack's ``task_groups`` beside those images (all 11 tasks
    at desk and default scale, one at 512x512) one forward, one loss summed
    over its tasks and one backward; then one Adam step. Each task keeps the
    parameters from its epoch with the best validation metric and, when
    ``out_dir`` is given, writes ``<task>.ckpt`` and ``<task>.log`` there,
    the bytes it would write trained alone.
    """
    tasks = [train_cfg.task] if tasks is None else list(tasks)
    if not tasks or not set(tasks) <= set(TASKS):
        raise ValueError(f"train_task needs single tasks, got {tasks!r}")
    if inputs is None:
        inputs = prepare_split(model_cfg, train_cfg, prep, rows, base_dir)
    elif inputs.settings != _split_settings(model_cfg, train_cfg, prep, rows):
        raise ValueError("inputs were prepared for other rows, extents or settings")
    train_y = np.array([[task_label(r, task) for r in inputs.train_rows] for task in tasks])
    for task, y in zip(tasks, train_y):
        if len(set(y)) < 2:
            raise ValueError(f"single-class training set for task {task!r}")
    val_y = [[task_label(r, task) for r in inputs.val_rows] for task in tasks]

    def initial(task):  # each task's own initial values
        return DualHeadViT(model_cfg, seed=np.random.SeedSequence(
            (train_cfg.seed, _STREAM_INIT, TASKS.index(task))).generate_state(1)[0])

    model = DualHeadViT.stack([initial(task) for task in tasks])
    groups = model.task_groups(min(model_cfg.stack_size, train_cfg.batch_size))
    # the groups' parameters view the stack's arrays, which Adam updates in place
    optimizer = Adam([p for _, group in groups for p in group.parameters()],
                     train_cfg.beta1, train_cfg.beta2, train_cfg.adam_eps)

    results = [TaskResult(task, model=None, history=[], best_epoch=-1, best_metric=-np.inf,
                          log_lines=[f"# fundusvit training log, task={task}",
                                     *[f"# {line}" for line in config_lines],
                                     "# note: batch_size, epochs and adam moment constants "
                                     "are implementation defaults, not protocol values"])
               for task in tasks]
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg)
        shuffle_rng = np.random.default_rng(
            np.random.SeedSequence((train_cfg.seed, _STREAM_SHUFFLE, epoch)))
        order = shuffle_rng.permutation(train_y.shape[1])
        epoch_loss = np.zeros(len(tasks))
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + train_cfg.batch_size]]
            inv = 1.0 / len(batch)
            for first in range(0, len(batch), model_cfg.stack_size):
                stack = batch[first:first + model_cfg.stack_size]
                images = to_unit(augment(inputs.train_images[stack], aug, [
                    AugmentDraws.sample(_augment_rng(train_cfg.seed, epoch, idx), aug)
                    for idx in stack]))
                for group_tasks, group in groups:
                    y = train_y[group_tasks][:, stack]
                    loss = dual_bce_loss(np.stack([1.0 - y, y], axis=-1),
                                         group.forward(images))
                    epoch_loss[group_tasks] += loss.total.data
                    ad.backward(ad.tsum(ad.mul(loss.total, inv)))
                    del loss  # free the graph before the next forward
            optimizer.step(lr)
        val_metric = [float("nan")] * len(tasks)
        if inputs.val_rows:
            scores = model.predict(inputs.val_images)
            val_metric = [_task_metric(*args) for args in zip(scores, val_y, tasks)]
        if epoch == 0:  # made past the training peak; epoch 0 writes every slice
            best_state = {name: np.empty_like(t.data) for name, t in model.params.items()}
        for k, result in enumerate(results):
            train_loss = float(epoch_loss[k] / len(order))
            result.history.append(EpochRecord(epoch, lr, train_loss, val_metric[k]))
            result.log_lines.append(f"epoch={epoch} lr={lr:.6e} train_loss={train_loss:.6f} "
                                    f"val_metric={val_metric[k]:.6f}")
            # without a validation set keep the latest parameters; with one,
            # ties keep the later epoch: equal validation, lower train loss
            if not inputs.val_rows or val_metric[k] >= result.best_metric:
                result.best_metric = val_metric[k] if inputs.val_rows else -np.inf
                result.best_epoch = epoch
                for name, t in model.named_parameters():
                    best_state[name][k] = t.data[k]

    best = DualHeadViT.from_arrays(model_cfg, best_state)
    for k, result in enumerate(results):
        result.stack, result.model = best, best.member(k)
        result.log_lines.append(f"# best_epoch={result.best_epoch} "
                                f"best_val_metric={result.best_metric:.6f}")
        if out_dir is not None:
            out_dir = Path(out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            result.checkpoint_path = out_dir / f"{result.task}.ckpt"
            save_checkpoint(result.checkpoint_path, result.model, prep, result.task)
            write_atomic(out_dir / f"{result.task}.log", "\n".join(result.log_lines) + "\n")
    return results


def train_bank(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path | None = None,
               config_lines: Sequence[str] = ()) -> ClassifierBank:
    """Train all eleven tasks independently with the same base seed, as one
    lockstep ``train_task`` call on one shared ``prepare_split`` of the rows.

    A feature task whose training split holds one class (no positive, or
    no negative sample) is skipped before training, with its reason in the
    bank log; every other member is bitwise identical to a standalone run
    with the same seed. The bank holds the run's best-state task stack.
    """
    inputs = prepare_split(model_cfg, train_cfg, prep, rows, base_dir)
    skipped: dict[str, str] = {}
    for task in TASKS[1:]:
        present = {task_label(r, task) for r in inputs.train_rows}
        if present != {0, 1}:
            skipped[task] = f"no {'positive' if 1 not in present else 'negative'} " \
                            "training samples"
    trained = train_task(model_cfg, train_cfg, aug, prep, rows, base_dir, out_dir=out_dir,
                         config_lines=config_lines, inputs=inputs,
                         tasks=[task for task in TASKS if task not in skipped])
    results = {r.task: r for r in trained}
    bank_lines = ["# fundusvit bank log", *[
        f"task={task} status=skipped reason={skipped[task]}" if task in skipped
        else f"task={task} status=trained best_epoch={results[task].best_epoch} "
             f"best_val_metric={results[task].best_metric:.6f}" for task in TASKS]]
    if out_dir is not None:  # train_task made the directory
        write_atomic(Path(out_dir) / "bank.log", "\n".join(bank_lines) + "\n")
    return ClassifierBank(tuple(results), trained[0].stack, prep, skipped)
