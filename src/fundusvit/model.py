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

The model runs stacks of images: activations are (B, T, D), and every
product keeps per-image shapes, so an image's output does not depend on the
other images in its stack, bit for bit.

A task stack holds K independent classifiers in one model: every parameter
gets a leading task axis K, the K tasks share the input stack, and the
activations are (K, B, T, D). Every product and sum keeps per-task slices,
so each member computes exactly what it computes alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, add, attention, concat, gelu,
                       layer_norm, linear, matmul, mul, narrow, no_grad, relu,
                       softmax, transpose)

LAYER_NORM_EPS = 1e-5
INIT_STD = 0.02
# Attention scores per head that one stacked forward may hold: a training
# stack keeps every task's and image's T x T probabilities in each layer and
# head for backward, so tasks x images per forward <= max(1, STACK_SCORES //
# T^2). Desk and default configs take a whole minibatch of an 11-task bank;
# 512x512 (1025 tokens) takes one image of one task.
STACK_SCORES = 1 << 16

_ACTIVATIONS = {"relu": relu, "gelu": gelu}


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
    activation: str = "relu"
    mlp_hidden: int | None = None

    def __post_init__(self):
        for name in ("height", "width", "patch", "dim", "heads"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.height % self.patch or self.width % self.patch:
            raise ShapeError(f"image {self.height}x{self.width} not divisible by "
                             f"patch {self.patch}")
        if self.dim % self.heads:
            raise ShapeError(f"dim {self.dim} not divisible by heads {self.heads}")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

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


def patchify(image: np.ndarray, patch: int) -> np.ndarray:
    """Flatten an HxWx3 image into an N x (3 P^2) matrix, or a BxHxWx3 stack
    into B such matrices.

    Row k is patch k in row-major patch order; within a patch, values are
    laid out (row, column, channel) row-major, so the three channels of a
    pixel stay adjacent.
    """
    image = np.asarray(image)
    if image.ndim not in (3, 4) or image.shape[-1] != 3:
        raise ShapeError(f"expected an HxWx3 image or a BxHxWx3 stack, got shape "
                         f"{image.shape}")
    *lead, h, w, _ = image.shape
    if h % patch or w % patch:
        raise ShapeError(f"image {h}x{w} not divisible by patch {patch}")
    gh, gw = h // patch, w // patch
    k = len(lead)
    tiles = image.reshape(*lead, gh, patch, gw, patch, 3).transpose(
        *range(k), k, k + 2, k + 1, k + 3, k + 4)
    return tiles.reshape(*lead, gh * gw, 3 * patch * patch)


@dataclass
class AggregationHead:
    """Learnable patch-weighting head: two projections, each followed by a
    layer norm and ReLU, then a softmax over patches. Its tensors may carry
    a leading task axis, as a task stack's parameters do.

    The second norm acts across the N per-patch scores (scalar gain/bias);
    normalizing each single-element score vector would pin every score to
    zero and freeze the weights at uniform.
    """

    proj1_w: Tensor
    proj1_b: Tensor
    norm1_gain: Tensor
    norm1_bias: Tensor
    proj2_w: Tensor
    proj2_b: Tensor
    norm2_gain: Tensor
    norm2_bias: Tensor
    eps: float = LAYER_NORM_EPS


def aggregate_patches(features: Tensor, head: AggregationHead) -> tuple[Tensor, Tensor]:
    """Weighted sum of patch-token features.

    ``features`` is an N x D matrix, a (B, N, D) stack or a task stack's
    (K, B, N, D). Returns ``(aggregated, weights)``: a (1, D) convex
    combination of the feature rows and the (N, 1) nonnegative weights that
    produced it (summing to 1), with the same leading axes as ``features``.
    """
    if features.ndim < 2 or features.shape[-2] == 0:
        raise ShapeError(f"expected a nonempty N x D feature matrix or a stack of "
                         f"them, got {features.shape}")
    s = linear(features, head.proj1_w, head.proj1_b)
    s = relu(layer_norm(s, head.norm1_gain, head.norm1_bias, head.eps))
    s = linear(s, head.proj2_w, head.proj2_b)
    s = transpose(s)  # (1, N): normalize the score distribution across patches
    s = relu(layer_norm(s, head.norm2_gain, head.norm2_bias, head.eps))
    w = softmax(s, axis=-1)
    aggregated = matmul(w, features)
    return aggregated, transpose(w)


@dataclass
class HeadOutputs:
    """Outputs of a stacked forward: two probability pairs and the patch
    weights of each image."""

    p_cls: Tensor        # (B, 1, 2) class-token head probabilities
    p_agg: Tensor        # (B, 1, 2) aggregation head probabilities
    patch_weights: Tensor  # (B, N, 1), nonnegative, each image's sums to 1
    # a task stack's outputs have a leading K axis: (K, B, 1, 2), (K, B, N, 1)


def average_prediction(outputs: HeadOutputs) -> np.ndarray:
    """Test-time prediction: mean of the two heads' positive probabilities,
    in float64, one per image ((1, 2) pairs give a scalar), with a leading
    task axis for a task stack."""
    return 0.5 * (outputs.p_cls.data[..., 0, 1].astype(np.float64)
                  + outputs.p_agg.data[..., 0, 1].astype(np.float64))


def _trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """Normal(0, std) resampled until every draw lies within 2 std."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


class DualHeadViT:
    """The full classifier; class index 1 is the positive class.

    Parameters live in an ordered name -> Tensor map (the checkpoint
    manifest order). Forward runs a stack of images; there are no
    cross-sample operations, and every product keeps per-image shapes, so
    an image's result is the same in any stack.

    A task stack (``n_tasks`` = K, from :meth:`stack`) gives every
    parameter a leading K axis and runs K members on one image stack;
    ``n_tasks`` is None for a single classifier.
    """

    def __init__(self, config: ModelConfig, seed: int = 0, dtype=np.float32):
        rng = np.random.default_rng(np.random.SeedSequence((int(seed), 0x1217)))
        arrays = {}
        for name, shape in self.parameter_shapes(config):
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
        """A model holding ``arrays`` (name -> array, taken without a copy)
        as its parameters; no initial values are drawn."""
        model = cls.__new__(cls)
        model._bind(config, arrays)
        return model

    @classmethod
    def stack(cls, members: list["DualHeadViT"]) -> "DualHeadViT":
        """A task stack of single classifiers with one config, in order; a
        stack of one views its member's arrays instead of copying them."""
        if len(members) == 1:
            return cls.from_arrays(members[0].config, {
                name: t.data[None] for name, t in members[0].params.items()})
        return cls.from_arrays(members[0].config, {
            name: np.stack([m.params[name].data for m in members])
            for name in members[0].params})

    def member(self, index: int | slice) -> "DualHeadViT":
        """Task ``index`` of a task stack as a single classifier, or a slice
        of its tasks as a smaller stack (views, no copy)."""
        return self.from_arrays(self.config,
                                {n: t.data[index] for n, t in self.params.items()})

    def _bind(self, config: ModelConfig, arrays: dict[str, np.ndarray]) -> None:
        self.config = config
        self.params: dict[str, Tensor] = {}
        shapes = self.parameter_shapes(config)
        name, shape = shapes[0]
        # a leading task axis, if any, read off the first parameter
        lead = arrays[name].shape[:-len(shape)][:1] if name in arrays else ()
        self.n_tasks = lead[0] if lead else None
        for name, shape in shapes:
            if name not in arrays or arrays[name].shape != lead + shape:
                raise ShapeError(f"parameter {name} must have shape {lead + shape}")
            self.params[name] = Tensor(arrays[name], requires_grad=True)
        self.dtype = self.params["cls_token"].dtype
        p = self.params
        self.agg_head = AggregationHead(
            p["agg.proj1.weight"], p["agg.proj1.bias"],
            p["agg.norm1.gain"], p["agg.norm1.bias"],
            p["agg.proj2.weight"], p["agg.proj2.bias"],
            p["agg.norm2.gain"], p["agg.norm2.bias"])

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

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())

    def parameters(self) -> list[Tensor]:
        return list(self.params.values())

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
        act = _ACTIVATIONS[self.config.activation]
        for i in range(self.config.depth):
            b = f"block{i}"
            attended = self._attention(
                layer_norm(x, p[f"{b}.ln1.gain"], p[f"{b}.ln1.bias"], LAYER_NORM_EPS), b)
            x = add(x, attended)
            hidden = layer_norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.bias"], LAYER_NORM_EPS)
            hidden = act(linear(hidden, p[f"{b}.mlp.fc1.weight"], p[f"{b}.mlp.fc1.bias"]))
            hidden = linear(hidden, p[f"{b}.mlp.fc2.weight"], p[f"{b}.mlp.fc2.bias"])
            x = add(x, hidden)
        return x

    def _stack(self, images: np.ndarray) -> np.ndarray:
        """``images`` as a BxHxWx3 stack; one HxWx3 image is a stack of one."""
        cfg = self.config
        images = np.asarray(images)
        stack = images[None] if images.ndim == 3 else images
        if stack.ndim != 4 or stack.shape[1:] != (cfg.height, cfg.width, 3) \
                or not len(stack):
            raise ShapeError(f"input shape {images.shape} does not match configured "
                             f"{(cfg.height, cfg.width, 3)} or a nonempty stack of it")
        return stack

    def forward(self, images: np.ndarray) -> HeadOutputs:
        """Run one HxWx3 image or a BxHxWx3 stack (values pre-scaled to
        [0, 1]) as one graph; one image is a stack of one. A task stack runs
        every task on the same images."""
        cfg = self.config
        stack = self._stack(images)
        p = self.params
        tasks = () if self.n_tasks is None else (self.n_tasks,)
        patches = Tensor(patchify(stack.astype(self.dtype, copy=False), cfg.patch))
        x = linear(patches, p["patch_proj.weight"], p["patch_proj.bias"])
        # the class token repeated over the stack: a (1, D) row added to zeros
        cls = add(Tensor(np.zeros((*tasks, len(stack), 1, cfg.dim), dtype=self.dtype)),
                  p["cls_token"], axis=len(tasks))
        x = concat([cls, x], axis=-2)
        x = add(x, p["pos_embed"], axis=len(tasks))
        x = self._encoder(x)
        cls_out = narrow(x, x.ndim - 2, 0, 1)
        patch_out = narrow(x, x.ndim - 2, 1, cfg.n_patches)
        p_cls = softmax(linear(cls_out, p["mlp_head.weight"], p["mlp_head.bias"]),
                        axis=-1)
        aggregated, weights = aggregate_patches(patch_out, self.agg_head)
        p_agg = softmax(linear(aggregated, p["final_fc.weight"], p["final_fc.bias"]),
                        axis=-1)
        return HeadOutputs(p_cls, p_agg, weights)

    def predict(self, images: np.ndarray):
        """Positive-class probability, the mean of the two heads: a float
        for one HxWx3 image, a (B,) float64 array for a BxHxWx3 stack, with
        a leading task axis for a task stack. Each forward takes at most
        ``config.stack_size`` task-images: all tasks and as many images as
        fit, or one image of as many tasks as fit."""
        stack = self._stack(images)
        k = self.n_tasks or 1
        per_forward = min(k, self.config.stack_size)
        size = self.config.stack_size // per_forward
        groups = [self] if per_forward == k else [
            self.member(slice(i, i + per_forward)) for i in range(0, k, per_forward)]
        with no_grad():
            scores = np.concatenate([np.concatenate(
                [average_prediction(group.forward(stack[i:i + size]))
                 for i in range(0, len(stack), size)], axis=-1) for group in groups])
        if np.ndim(images) == 3:
            scores = scores[..., 0]
        return float(scores) if scores.ndim == 0 else scores
