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
from .checkpoint import CHECKPOINT_NAME, ClassifierBank, save_checkpoint
from .dataset import (TASKS, ManifestRow, PreprocessOptions, load_input_image,
                      ordered_tasks, prepare_input, to_unit)
from .metrics import DEFAULT_FEATURE_THRESHOLD, tpr_at_specificity
from .model import DualHeadViT, HeadOutputs, ModelConfig
from .preprocess import AugmentDraws, AugmentParams, augment

# Seed-stream tags (arbitrary distinct constants); _rng(seed, tag, ...) draws a stream.
_STREAM_INIT = 1
_STREAM_SPLIT = 2
_STREAM_SHUFFLE = 3
_STREAM_AUGMENT = 4

PROB_CLAMP = 1e-7


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(key))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization protocol. The learning-rate schedule, split ratio and
    initial rate follow the published protocol; batch size and epoch count
    are implementation defaults, as are ``Adam``'s moment constants."""

    lr0: float = 2e-4
    lr_decay: float = 0.5
    lr_decay_every: int = 5
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
        if not 0.0 < self.lr0 < np.inf:
            raise ValueError(f"lr0 must be positive and finite, got {self.lr0}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ValueError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.seed < 0:  # numpy's seed sequences take no negative entropy
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.n_nrg is not None and self.n_nrg < 0:
            raise ValueError(f"n_nrg must be nonnegative, got {self.n_nrg}")
        if min(self.split) < 1:  # so every class group puts a row into validation
            raise ValueError(f"split parts must be at least 1, got {self.split}")


@dataclass
class LossValue:
    """Total training loss and the two per-head cross-entropy terms."""

    total: Tensor
    cls_term: Tensor
    agg_term: Tensor


def dual_bce_loss(y, outputs: HeadOutputs) -> LossValue:
    """Cross-entropy of both heads against the (K, B) 0/1 labels ``y`` of a
    forward of K tasks over B images, as one-hot pairs. Each head contributes
    -sum_i y_i log p_i, a (K,) vector of sums over each task's images, with
    probabilities clamped to [PROB_CLAMP, 1 - PROB_CLAMP]; the total is the
    mean of the two terms.
    """
    y_arr = np.asarray(y, dtype=np.float64)
    if y_arr.shape != outputs.p_cls.shape[:2] or not ((y_arr == 0) | (y_arr == 1)).all():
        raise ValueError(f"y must be the forward's (K, B) 0/1 labels, got {y!r}")
    # negated one-hot pairs, so each head term is one sum with no negation node after it
    target = Tensor((-np.stack([1.0 - y_arr, y_arr], -1))[..., None, :]
                    .astype(outputs.p_cls.dtype))

    def head_term(p: Tensor) -> Tensor:
        return ad.tsum(ad.mul(target, ad.log(ad.clip(p, PROB_CLAMP, 1.0 - PROB_CLAMP))),
                       1)

    cls_term = head_term(outputs.p_cls)
    agg_term = head_term(outputs.p_agg)
    total = ad.mul(ad.add(cls_term, agg_term), 0.5)
    return LossValue(total=total, cls_term=cls_term, agg_term=agg_term)


class MissingGradientError(ValueError):
    """A parameter off the loss path reached an optimizer step with no gradient."""


class Adam:
    """Adam with bias correction; ``step`` applies the update and clears the
    gradients (the engine's single reset point). Moments and parameters are
    updated in place, with the roundings of the textbook expressions, so a
    task stack's K-fold moments need few temporaries."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: Sequence[Tensor]):
        self.params = list(params)
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self, lr: float) -> None:
        for i, p in enumerate(self.params):  # a refused step changes nothing
            if p.grad is None:
                raise MissingGradientError(f"parameter {i}, shape {p.data.shape}, has no gradient")
            if p.grad.shape != p.data.shape:
                raise ad.ShapeError(f"gradient shape {p.grad.shape} does not match "
                                    f"parameter shape {p.data.shape}")
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            step = m / (1 - b1 ** self.t)
            step *= lr
            v_hat = v / (1 - b2 ** self.t)
            np.sqrt(v_hat, out=v_hat)
            v_hat += self.EPS
            step /= v_hat
            p.data -= step
        ad.zero_grads(self.params)


def lr_schedule(epoch: int, cfg: TrainConfig) -> float:
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
    rng = _rng(int(seed), _STREAM_SPLIT)
    pos = [s for s, y in zip(samples, labels) if y == 1]
    neg = [s for s, y in zip(samples, labels) if y == 0]
    if n_nrg is not None:
        if n_nrg > len(neg):
            raise ValueError(f"requested {n_nrg} negatives, only {len(neg)} available")
        neg = [neg[i] for i in rng.choice(len(neg), size=n_nrg, replace=False)]
    train, val = [], []
    r_train, r_val = ratio
    for group in (pos, neg):
        order = rng.permutation(len(group))
        n_train = int(np.floor(len(group) * r_train / (r_train + r_val)))
        train += [group[i] for i in order[:n_train]]
        val += [group[i] for i in order[n_train:]]
    return train, val


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_metric: float


def best_record(history: Sequence[EpochRecord]) -> EpochRecord:
    """The epoch with the highest validation metric; ties go to the later
    epoch (equal validation, lower train loss)."""
    return max(reversed(history), key=lambda r: r.val_metric)


def _prepared(rows: Sequence[ManifestRow], base_dir: str | Path,
              prep: PreprocessOptions, model_cfg: ModelConfig) -> np.ndarray:
    """The (N, H, W, 3) uint8 stack of ``rows``' prepared images."""
    return np.stack([prepare_input(load_input_image(r, base_dir), r, base_dir, prep,
                                   model_cfg.height, model_cfg.width)[0] for r in rows])


def _task_metric(scores: np.ndarray, labels: Sequence[int], task: str) -> float:
    """Validation metric: TPR at 95% specificity for glaucoma, accuracy at
    the report's feature-flag threshold for a feature."""
    if task == "glaucoma":
        return tpr_at_specificity(scores, labels, 0.95)
    return float(np.mean([(s > DEFAULT_FEATURE_THRESHOLD) == y
                          for s, y in zip(scores, labels)]))


def _best_text(history: Sequence[EpochRecord]) -> str:
    best = best_record(history)
    return f"best_epoch={best.epoch} best_val_metric={best.val_metric:.6f}"


def _log_text(task: str, history: Sequence[EpochRecord],
              config_lines: Sequence[str]) -> str:
    """``<task>.log``: the config echo, one line per epoch and the chosen epoch."""
    return "\n".join([f"# fundusvit training log, task={task}",
                      *[f"# {line}" for line in config_lines],
                      "# note: batch_size, epochs and adam moment constants "
                      "are implementation defaults, not protocol values",
                      *[f"epoch={r.epoch} lr={r.lr:.6e} train_loss={r.train_loss:.6f} "
                        f"val_metric={r.val_metric:.6f}" for r in history],
                      f"# {_best_text(history)}\n"])


def train_task(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path,
               config_lines: Sequence[str] = (),
               tasks: Sequence[str] | None = None
               ) -> tuple[ClassifierBank, list[list[EpochRecord]]]:
    """Train binary ``tasks`` (default: ``train_cfg.task`` alone; one task
    is a bank of one; otherwise distinct tasks in ``TASKS`` order) in
    lockstep on ``rows``, rebalanced and split by the referable-glaucoma
    label. Any other task list, or a task with one class in the training
    split, raises ValueError before any image is prepared; then every image
    is prepared (crop, background removal, resize) once for all the tasks.
    Returns the bank it saved, as ``load_bank(out_dir)`` reads it back, and
    each task's per-epoch history, in the bank's task order.

    The tasks differ only in labels and initial values: the shuffle order
    and the augmentation draws are keyed by (seed, epoch, image). Loops:
    seeded shuffle, then per minibatch, for each ``model_cfg.stack_size``
    images (the whole minibatch at desk and default scale, one image at
    512x512), one stacked augmentation with per-image draws, then for each
    of the task stack's ``task_groups`` beside those images (all 11 tasks
    at desk and default scale, one at 512x512) one forward, one loss summed
    over its tasks and one backward; then one Adam step. Each task keeps the
    parameters of its ``best_record`` epoch, the values it would reach
    trained alone, and writes ``<task>.log`` into ``out_dir``; the run
    writes them all as one ``model.ckpt`` there.
    """
    tasks = ordered_tasks([train_cfg.task] if tasks is None else tasks)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)  # an unwritable output fails before any work
    train_rows, val_rows = rebalance_and_split(rows, [r.rg for r in rows], train_cfg.n_nrg,
                                               train_cfg.split, train_cfg.seed)
    if not train_rows:
        raise ValueError("empty training set after split" if rows else "empty dataset")
    train_y = np.array([[r.label(task) for r in train_rows] for task in tasks])
    for task, y in zip(tasks, train_y):
        if len(set(y)) < 2:
            raise ValueError(f"single-class training set for task {task!r}")
    val_y = [[r.label(task) for r in val_rows] for task in tasks]
    train_images = _prepared(train_rows, base_dir, prep, model_cfg)
    val_images = to_unit(_prepared(val_rows, base_dir, prep, model_cfg))

    def initial(task):  # each task's own initial values
        return DualHeadViT(model_cfg, seed=np.random.SeedSequence(
            (train_cfg.seed, _STREAM_INIT, TASKS.index(task))).generate_state(1)[0])

    model = DualHeadViT.stack([initial(task) for task in tasks])
    groups = model.task_groups(min(model_cfg.stack_size, train_cfg.batch_size))
    # the groups' parameters view the stack's arrays, which Adam updates in place
    optimizer = Adam([p for _, group in groups for p in group.params.values()])

    histories: list[list[EpochRecord]] = [[] for _ in tasks]
    for epoch in range(train_cfg.epochs):
        lr = lr_schedule(epoch, train_cfg)
        order = _rng(train_cfg.seed, _STREAM_SHUFFLE, epoch).permutation(train_y.shape[1])
        epoch_loss = np.zeros(len(tasks))
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [int(idx) for idx in order[start:start + train_cfg.batch_size]]
            inv = 1.0 / len(batch)
            for first in range(0, len(batch), model_cfg.stack_size):
                stack = batch[first:first + model_cfg.stack_size]
                images = to_unit(augment(train_images[stack], aug, [
                    AugmentDraws.sample(_rng(train_cfg.seed, _STREAM_AUGMENT, epoch, idx))
                    for idx in stack]))
                for group_tasks, group in groups:
                    y = train_y[group_tasks][:, stack]
                    loss = dual_bce_loss(y, group.forward(images))
                    epoch_loss[group_tasks] += loss.total.data
                    ad.backward(ad.tsum(ad.mul(loss.total, inv)))
                    del loss  # free the graph before the next forward
            optimizer.step(lr)
        metric = [_task_metric(*a) for a in zip(model.predict(val_images), val_y, tasks)]
        if epoch == 0:  # made past the training peak; epoch 0 writes every slice
            best_state = {name: np.empty_like(t.data) for name, t in model.params.items()}
        for k, history in enumerate(histories):
            history.append(EpochRecord(epoch, lr, float(epoch_loss[k]) / len(order), metric[k]))
            if best_record(history) is history[-1]:
                for name, t in model.params.items():
                    best_state[name][k] = t.data[k]

    bank = ClassifierBank(tasks, DualHeadViT.from_arrays(model_cfg, best_state), prep)
    save_checkpoint(out_dir / CHECKPOINT_NAME, bank.stacked, prep, tasks)
    for task, history in zip(tasks, histories):
        write_atomic(out_dir / f"{task}.log", _log_text(task, history, config_lines))
    return bank, histories


def train_bank(model_cfg: ModelConfig, train_cfg: TrainConfig,
               aug: AugmentParams, prep: PreprocessOptions,
               rows: Sequence[ManifestRow], base_dir: str | Path,
               out_dir: str | Path,
               config_lines: Sequence[str] = ()) -> ClassifierBank:
    """Train all eleven tasks independently with the same base seed, as one
    lockstep ``train_task`` call, which prepares every image once for all
    of them.

    A feature task whose training split holds one class (no positive, or
    no negative sample) is skipped before training, with its reason in the
    bank log; every other member is bitwise identical to a standalone run
    with the same seed. Returns the bank that call saved, its trained members
    as one task stack, as ``load_bank(out_dir)`` reads it back.
    """
    train_rows, _ = rebalance_and_split(rows, [r.rg for r in rows], train_cfg.n_nrg,
                                        train_cfg.split, train_cfg.seed)
    skipped: dict[str, str] = {}
    for task in TASKS[1:]:
        present = {r.label(task) for r in train_rows}
        if present != {0, 1}:
            skipped[task] = f"no {'negative' if 1 in present else 'positive'} training samples"
    bank, histories = train_task(model_cfg, train_cfg, aug, prep, rows, base_dir,
                                 out_dir=out_dir, config_lines=config_lines,
                                 tasks=[task for task in TASKS if task not in skipped])
    trained = dict(zip(bank.tasks, histories))
    bank_lines = ["# fundusvit bank log", *[
        f"task={task} status=skipped reason={skipped[task]}" if task in skipped
        else f"task={task} status=trained {_best_text(trained[task])}" for task in TASKS]]
    write_atomic(Path(out_dir) / "bank.log", "\n".join(bank_lines) + "\n")
    return bank
