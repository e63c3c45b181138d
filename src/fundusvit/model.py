"""Dual-head vision-transformer classifier.

An input image is cut into P x P patches, linearly embedded, prepended with
a learnable class token, offset by a learnable position embedding, and run
through a stack of pre-norm transformer encoder blocks. Two heads each
produce a 2-way probability pair:

* the class-token head: a linear map on the encoder's class-token output;
* the patch-aggregation head: a learnable softmax-weighted sum of the
  encoder's patch-token outputs, fed to a final linear map.

Test-time prediction is the mean of the two heads' positive-class
probabilities.

Every model is a task stack of K >= 1 independent classifiers on a stack
of B >= 1 images: every parameter has a leading task axis K, the K tasks
share the images, and the activations are (K, B, T, D). Every product and
sum keeps per-task and per-image slices, so a member's output for an image
is, bit for bit, what it computes for that image in a stack of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, add, attention, concat, layer_norm,
                       linear, matmul, mul, narrow, no_grad, relu, softmax,
                       transpose)

INIT_STD = 0.02
# Attention scores per head that one stacked forward may hold: a training
# stack keeps every task's and image's T x T exponentiated scores in each
# layer and head for backward, so tasks x images per forward <= max(1,
# STACK_SCORES // T^2). Desk and default configs take a whole minibatch of an 11-task bank;
# 512x512 (1025 tokens) takes one image of one task.
STACK_SCORES = 1 << 16

# Read by no code here: perfbench's tracer wraps this entry by name and
# refuses to install without it (ROADMAP item 9).
_ACTIVATIONS = {"relu": relu}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters; every parameter shape derives from these."""

    height: int = 64
    width: int = 64
    patch: int = 16
    dim: int = 64
    depth: int = 4
    heads: int = 4
    agg_hidden: int = 64
    mlp_hidden: int | None = None

    def __post_init__(self):
        for name in ("height", "width", "patch", "dim", "heads", "depth",
                     "agg_hidden", "mlp_hidden"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.height % self.patch or self.width % self.patch:
            raise ShapeError(f"image {self.height}x{self.width} not divisible by "
                             f"patch {self.patch}")
        if self.dim % self.heads:
            raise ShapeError(f"dim {self.dim} not divisible by heads {self.heads}")

    @property
    def n_patches(self) -> int:
        return (self.height // self.patch) * (self.width // self.patch)

    @property
    def patch_features(self) -> int:
        return 3 * self.patch * self.patch

    @property
    def stack_size(self) -> int:
        """Task-images per stacked forward (see ``STACK_SCORES``)."""
        return max(1, STACK_SCORES // (self.n_patches + 1) ** 2)

    @property
    def mlp_width(self) -> int:
        return self.mlp_hidden if self.mlp_hidden is not None else 4 * self.dim

    @classmethod
    def full_resolution(cls, **overrides) -> "ModelConfig":
        """512x512 inputs with 16-pixel patches (1024 patch tokens)."""
        return cls(**{"height": 512, "width": 512, "patch": 16, **overrides})

    def param_count(self) -> int:
        d, m, a = self.dim, self.mlp_width, self.agg_hidden
        block = (2 * d                      # ln1
                 + 4 * (d * d + d)          # q, k, v, out projections
                 + 2 * d                    # ln2
                 + d * m + m + m * d + d)   # mlp
        return (self.patch_features * d + d         # patch projection
                + d                                  # class token
                + (self.n_patches + 1) * d           # position table
                + self.depth * block
                + d * 2 + 2                          # class-token head
                + d * a + a + 2 * a                  # agg proj1 + its norm
                + a + 1 + 2                          # agg proj2 + scalar norm
                + d * 2 + 2)                         # final fc on aggregated feature


def patchify(images: np.ndarray, patch: int) -> np.ndarray:
    """Flatten a BxHxWx3 stack into B matrices of N x (3 P^2).

    Row k is patch k in row-major patch order; within a patch, values are
    laid out (row, column, channel) row-major, so the three channels of a
    pixel stay adjacent.
    """
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[-1] != 3:
        raise ShapeError(f"expected a BxHxWx3 stack, got shape {images.shape}")
    b, h, w, _ = images.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    tiles = images.reshape(b, gh, patch, gw, patch, 3).transpose(0, 1, 3, 2, 4, 5)
    return tiles.reshape(b, gh * gw, 3 * patch * patch)


def aggregate_patches(features: Tensor, params: dict[str, Tensor]) -> tuple[Tensor, Tensor]:
    """Weighted sum of patch-token features under the ``agg.*`` entries of
    a task stack's parameter map: two projections, each followed by a layer
    norm and ReLU, then a softmax over patches.

    The second norm acts across the N per-patch scores (scalar gain/bias);
    normalizing each single-element score vector would pin every score to
    zero and freeze the weights at uniform.

    ``features`` is a task stack's (K, B, N, D). Returns ``(aggregated,
    weights)``: per task and image, a (1, D) convex combination of the N
    feature rows and the (N, 1) nonnegative weights that produced it
    (summing to 1), as (K, B, 1, D) and (K, B, N, 1).
    """
    if features.ndim != 4 or features.shape[-2] == 0:
        raise ShapeError(f"expected (K, B, N, D) features with N > 0, got "
                         f"{features.shape}")
    p = params
    s = linear(features, p["agg.proj1.weight"], p["agg.proj1.bias"])
    s = relu(layer_norm(s, p["agg.norm1.gain"], p["agg.norm1.bias"]))
    s = linear(s, p["agg.proj2.weight"], p["agg.proj2.bias"])
    s = transpose(s)  # (1, N): normalize the score distribution across patches
    s = relu(layer_norm(s, p["agg.norm2.gain"], p["agg.norm2.bias"]))
    w = softmax(s)
    aggregated = matmul(w, features)
    return aggregated, transpose(w)


@dataclass
class HeadOutputs:
    """Outputs of a stacked forward: two probability pairs and the patch
    weights of each task and image."""

    p_cls: Tensor        # (K, B, 1, 2) class-token head probabilities
    p_agg: Tensor        # (K, B, 1, 2) aggregation head probabilities
    patch_weights: Tensor  # (K, B, N, 1), nonnegative, each image's sums to 1


def average_prediction(outputs: HeadOutputs) -> np.ndarray:
    """Test-time prediction: mean of the two heads' positive probabilities,
    in float64, one per task and image."""
    return 0.5 * (outputs.p_cls.data[..., 0, 1].astype(np.float64)
                  + outputs.p_agg.data[..., 0, 1].astype(np.float64))


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    out = rng.standard_normal(shape)
    flat = out.reshape(-1)
    # Only the rejected positions are redrawn, in index order, each round.
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0]
    return out * std


class DualHeadViT:
    """A task stack of ``n_tasks`` = K >= 1 classifiers (``DualHeadViT(config,
    seed)`` is one, K = 1); class index 1 is the positive class.

    Parameters live in an ordered name -> Tensor map (the checkpoint
    manifest order), each with a leading task axis K. Forward runs the K
    members on one stack of images; there are no cross-sample operations,
    and every product keeps per-task and per-image shapes, so a member's
    result for an image is the same in any task or image stack.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1217)))
        arrays = {}
        for name, shape in self.parameter_shapes(config):
            shape = (1, *shape)
            if name.endswith(".gain"):
                data = np.ones(shape)
            elif name.endswith(".bias"):
                data = np.zeros(shape)
            else:  # projection weights, the class token and the position table
                data = _trunc_normal(rng, shape, INIT_STD)
            arrays[name] = data.astype(dtype)
        self._bind(config, arrays)

    @classmethod
    def from_arrays(cls, config: ModelConfig,
                    arrays: dict[str, np.ndarray]) -> "DualHeadViT":
        """A model holding ``arrays`` (name -> (K, ...) array, taken without
        a copy) as its parameters; no initial values are drawn."""
        model = cls.__new__(cls)
        model._bind(config, arrays)
        return model

    @classmethod
    def stack(cls, members: list["DualHeadViT"]) -> "DualHeadViT":
        """One task stack of the tasks of ``members`` (one config), in order."""
        return cls.from_arrays(members[0].config, {
            name: np.concatenate([m.params[name].data for m in members])
            for name in members[0].params})

    def member(self, index: int | slice) -> "DualHeadViT":
        """Task ``index`` as a stack of K = 1, or a slice of the tasks as a
        smaller stack (views, no copy)."""
        if not isinstance(index, slice):
            index = slice(index, index + 1)
        return self.from_arrays(self.config,
                                {n: t.data[index] for n, t in self.params.items()})

    def task_groups(self, images: int) -> list[tuple[slice, "DualHeadViT"]]:
        """Consecutive task slices and their member views, each as many
        tasks as fit beside ``images`` images in one forward of at most
        ``config.stack_size`` task-images (at least one task);
        ``[(slice(None), self)]`` when every task fits."""
        per = max(1, self.config.stack_size // images)
        if per >= self.n_tasks:
            return [(slice(None), self)]
        return [(slice(i, i + per), self.member(slice(i, i + per)))
                for i in range(0, self.n_tasks, per)]

    def _bind(self, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
        self.config = config
        self.params: dict[str, Tensor] = {}
        shapes = self.parameter_shapes(config)
        first = arrays.get(shapes[0][0])  # the task axis K, read off the first one
        self.n_tasks = len(first) if first is not None and first.ndim else 0
        for name, shape in shapes:
            if not self.n_tasks or name not in arrays \
                    or arrays[name].shape != (self.n_tasks, *shape):
                raise ShapeError(f"parameter {name} must have shape (K, *{shape}), "
                                 f"K >= 1 tasks as in every other parameter")
            self.params[name] = Tensor(arrays[name], requires_grad=True)
        self.dtype = self.params["cls_token"].dtype

    @staticmethod
    def parameter_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...]]]:
        d, m, a = config.dim, config.mlp_width, config.agg_hidden
        shapes: list[tuple[str, tuple[int, ...]]] = [
            ("patch_proj.weight", (config.patch_features, d)),
            ("patch_proj.bias", (1, d)),
            ("cls_token", (1, d)),
            ("pos_embed", (config.n_patches + 1, d)),
        ]
        for i in range(config.depth):
            b = f"block{i}"
            shapes += [
                (f"{b}.ln1.gain", (d,)), (f"{b}.ln1.bias", (d,)),
                (f"{b}.attn.q.weight", (d, d)), (f"{b}.attn.q.bias", (1, d)),
                (f"{b}.attn.k.weight", (d, d)), (f"{b}.attn.k.bias", (1, d)),
                (f"{b}.attn.v.weight", (d, d)), (f"{b}.attn.v.bias", (1, d)),
                (f"{b}.attn.out.weight", (d, d)), (f"{b}.attn.out.bias", (1, d)),
                (f"{b}.ln2.gain", (d,)), (f"{b}.ln2.bias", (d,)),
                (f"{b}.mlp.fc1.weight", (d, m)), (f"{b}.mlp.fc1.bias", (1, m)),
                (f"{b}.mlp.fc2.weight", (m, d)), (f"{b}.mlp.fc2.bias", (1, d)),
            ]
        shapes += [
            ("mlp_head.weight", (d, 2)), ("mlp_head.bias", (1, 2)),
            ("agg.proj1.weight", (d, a)), ("agg.proj1.bias", (1, a)),
            ("agg.norm1.gain", (a,)), ("agg.norm1.bias", (a,)),
            ("agg.proj2.weight", (a, 1)), ("agg.proj2.bias", (1, 1)),
            ("agg.norm2.gain", (1,)), ("agg.norm2.bias", (1,)),
            ("final_fc.weight", (d, 2)), ("final_fc.bias", (1, 2)),
        ]
        return shapes

    def parameter_groups(self) -> dict[str, list[str]]:
        """Coarse grouping used by the gradient-flow check."""
        groups: dict[str, list[str]] = {}
        for name in self.params:
            if name.startswith(("agg.", "final_fc.")):
                key = "agg_head"
            elif name.startswith("mlp_head."):
                key = "mlp_head"
            else:
                key = name.split(".")[0]
            groups.setdefault(key, []).append(name)
        return groups

    def _attention(self, x: Tensor, block: str) -> Tensor:
        p = self.params
        heads = self.config.heads
        q, k, v = (linear(x, p[f"{block}.attn.{n}.weight"], p[f"{block}.attn.{n}.bias"])
                   for n in "qkv")
        q = mul(q, 1.0 / math.sqrt(self.config.dim // heads))
        merged = attention(q, k, v, heads)
        return linear(merged, p[f"{block}.attn.out.weight"], p[f"{block}.attn.out.bias"])

    def _encoder(self, x: Tensor) -> Tensor:
        p = self.params
        for i in range(self.config.depth):
            b = f"block{i}"
            attended = self._attention(
                layer_norm(x, p[f"{b}.ln1.gain"], p[f"{b}.ln1.bias"]), b)
            x = add(x, attended)
            hidden = layer_norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.bias"])
            hidden = relu(linear(hidden, p[f"{b}.mlp.fc1.weight"], p[f"{b}.mlp.fc1.bias"]))
            hidden = linear(hidden, p[f"{b}.mlp.fc2.weight"], p[f"{b}.mlp.fc2.bias"])
            x = add(x, hidden)
        return x

    def _stack(self, images: np.ndarray) -> np.ndarray:
        """``images`` as a nonempty BxHxWx3 stack of the configured extents."""
        cfg = self.config
        images = np.asarray(images)
        if images.shape[1:] != (cfg.height, cfg.width, 3) or not len(images):
            raise ShapeError(f"input shape {images.shape} is not a nonempty "
                             f"(B, {cfg.height}, {cfg.width}, 3) stack")
        return images

    def forward(self, images: np.ndarray) -> HeadOutputs:
        """Run a nonempty BxHxWx3 stack (values pre-scaled to [0, 1]) as one
        graph, every task on the same images; one image is a stack of one."""
        cfg = self.config
        stack = self._stack(images)
        p = self.params
        patches = patchify(stack.astype(self.dtype, copy=False), cfg.patch)
        # every task reads the same patches: one (K, B, N, 3P^2) view, no copy
        x = linear(Tensor(np.broadcast_to(patches, (self.n_tasks, *patches.shape))),
                   p["patch_proj.weight"], p["patch_proj.bias"])
        # the class token repeated over the stack: a (1, D) row added to zeros
        cls = add(Tensor(np.zeros((self.n_tasks, len(stack), 1, cfg.dim),
                                  dtype=self.dtype)), p["cls_token"])
        x = concat([cls, x], axis=-2)
        x = add(x, p["pos_embed"])
        x = self._encoder(x)
        cls_out = narrow(x, x.ndim - 2, 0, 1)
        patch_out = narrow(x, x.ndim - 2, 1, cfg.n_patches)
        p_cls = softmax(linear(cls_out, p["mlp_head.weight"], p["mlp_head.bias"]))
        aggregated, weights = aggregate_patches(patch_out, p)
        p_agg = softmax(linear(aggregated, p["final_fc.weight"], p["final_fc.bias"]))
        return HeadOutputs(p_cls, p_agg, weights)

    def predict(self, images: np.ndarray):
        """Positive-class probability, the mean of the two heads, in float64: (K, B)
        for a nonempty BxHxWx3 stack, (K,) for one HxWx3 image (ROADMAP item 9).
        Each forward takes at most ``config.stack_size`` images of one task group."""
        stack = self._stack(images[None] if np.ndim(images) == 3 else images)
        size = min(len(stack), self.config.stack_size)
        with no_grad():
            scores = np.concatenate([np.concatenate(
                [average_prediction(group.forward(stack[i:i + size]))
                 for i in range(0, len(stack), size)], axis=-1)
                for _, group in self.task_groups(size)])
        return scores[:, 0] if np.ndim(images) == 3 else scores
