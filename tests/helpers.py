"""Shared test oracles: finite differences, a straight-line numpy forward
pass, and brute-force metric recounts. Everything here is deliberately
independent of the implementation paths it checks (loops instead of
vectorized sweeps, no autodiff involvement). The inverses, loaders and the
report reader at the end exist only for the tests; the pipeline never calls
them."""

from __future__ import annotations

from pathlib import Path
from typing import Mapping

import numpy as np

from fundusvit import autodiff as ad
from fundusvit.detections import DiscDetection, load_detection_file
from fundusvit.metrics import auc, roc_curve

FD_STEP = 1e-4
GRAD_RTOL = 1e-4
GRAD_ATOL = 1e-7


def finite_difference_grad(f, tensor: ad.Tensor, step: float = FD_STEP) -> np.ndarray:
    """Central differences of the scalar ``f()`` w.r.t. every entry of
    ``tensor.data`` (perturbed in place, restored afterwards)."""
    grad = np.zeros_like(tensor.data)
    flat = tensor.data.reshape(-1)
    gflat = grad.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            f_plus = f()
            flat[i] = orig - step
            f_minus = f()
            flat[i] = orig
            gflat[i] = (f_plus - f_minus) / (2.0 * step)
    return grad


def assert_grad_close(g_ad: np.ndarray, g_fd: np.ndarray, what: str = "") -> None:
    np.testing.assert_allclose(g_ad, g_fd, rtol=GRAD_RTOL, atol=GRAD_ATOL,
                               err_msg=f"gradient mismatch {what}")


def check_op_gradients(build, leaves: list[ad.Tensor], step: float = FD_STEP) -> None:
    """``build()`` recomputes a scalar Tensor from ``leaves``; compares its
    reverse-mode gradients against central differences for every leaf."""
    loss = build()
    ad.backward(loss)
    for i, leaf in enumerate(leaves):
        fd = finite_difference_grad(lambda: build().item(), leaf, step)
        assert leaf.grad is not None, f"leaf {i} received no gradient"
        assert_grad_close(leaf.grad, fd, what=f"leaf {i}")
    ad.zero_grads(leaves)


# ---------------------------------------------------------------------------
# straight-line numpy forward pass (no autodiff, loop-based patch handling)


def _np_layer_norm(x, gain, bias, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return gain * (xc / np.sqrt(var + eps)) + bias


def _np_softmax(x, axis):
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def _np_patchify(image, patch):
    h, w, _ = image.shape
    rows = []
    for py in range(h // patch):
        for px in range(w // patch):
            tile = image[py * patch:(py + 1) * patch, px * patch:(px + 1) * patch, :]
            rows.append(tile.reshape(-1))
    return np.stack(rows)


def reference_forward(model, image: np.ndarray):
    """Recompute the full forward pass with plain numpy.

    Returns (p_cls, p_agg, weights) as flat float arrays.
    """
    cfg = model.config
    p = {name: t.data.astype(np.float64) for name, t in model.named_parameters()}
    act = (lambda v: np.maximum(v, 0.0)) if cfg.activation == "relu" else None
    assert act is not None, "reference covers the relu configuration"

    x = _np_patchify(np.asarray(image, dtype=np.float64), cfg.patch)
    x = x @ p["patch_proj.weight"] + p["patch_proj.bias"]
    x = np.concatenate([p["cls_token"], x], axis=0)
    x = x + p["pos_embed"]
    dh = cfg.dim // cfg.heads
    for i in range(cfg.depth):
        b = f"block{i}"
        a = _np_layer_norm(x, p[f"{b}.ln1.gain"], p[f"{b}.ln1.bias"])
        q = a @ p[f"{b}.attn.q.weight"] + p[f"{b}.attn.q.bias"]
        k = a @ p[f"{b}.attn.k.weight"] + p[f"{b}.attn.k.bias"]
        v = a @ p[f"{b}.attn.v.weight"] + p[f"{b}.attn.v.bias"]
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            heads.append(_np_softmax(scores, axis=1) @ v[:, sl])
        x = x + (np.concatenate(heads, axis=1) @ p[f"{b}.attn.out.weight"]
                 + p[f"{b}.attn.out.bias"])
        hid = _np_layer_norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.bias"])
        hid = act(hid @ p[f"{b}.mlp.fc1.weight"] + p[f"{b}.mlp.fc1.bias"])
        x = x + (hid @ p[f"{b}.mlp.fc2.weight"] + p[f"{b}.mlp.fc2.bias"])

    cls_out = x[:1]
    patches = x[1:]
    p_cls = _np_softmax(cls_out @ p["mlp_head.weight"] + p["mlp_head.bias"], axis=1)

    s = patches @ p["agg.proj1.weight"] + p["agg.proj1.bias"]
    s = np.maximum(_np_layer_norm(s, p["agg.norm1.gain"], p["agg.norm1.bias"]), 0.0)
    s = (s @ p["agg.proj2.weight"] + p["agg.proj2.bias"]).T
    s = np.maximum(_np_layer_norm(s, p["agg.norm2.gain"], p["agg.norm2.bias"]), 0.0)
    weights = _np_softmax(s, axis=1)
    aggregated = weights @ patches
    p_agg = _np_softmax(aggregated @ p["final_fc.weight"] + p["final_fc.bias"], axis=1)
    return p_cls.ravel(), p_agg.ravel(), weights.ravel()


def min_relu_preactivation(model, image: np.ndarray) -> float:
    """Smallest |pre-activation| over every ReLU site in the forward pass.

    Central finite differences are only a valid gradient oracle when no
    parameter perturbation can flip a ReLU input across zero, so gradient
    checks assert this margin is comfortably larger than the step size.
    """
    cfg = model.config
    assert cfg.activation == "relu"
    p = {name: t.data.astype(np.float64) for name, t in model.named_parameters()}
    margins = []

    x = _np_patchify(np.asarray(image, dtype=np.float64), cfg.patch)
    x = x @ p["patch_proj.weight"] + p["patch_proj.bias"]
    x = np.concatenate([p["cls_token"], x], axis=0)
    x = x + p["pos_embed"]
    dh = cfg.dim // cfg.heads
    for i in range(cfg.depth):
        b = f"block{i}"
        a = _np_layer_norm(x, p[f"{b}.ln1.gain"], p[f"{b}.ln1.bias"])
        q = a @ p[f"{b}.attn.q.weight"] + p[f"{b}.attn.q.bias"]
        k = a @ p[f"{b}.attn.k.weight"] + p[f"{b}.attn.k.bias"]
        v = a @ p[f"{b}.attn.v.weight"] + p[f"{b}.attn.v.bias"]
        heads = []
        for h in range(cfg.heads):
            sl = slice(h * dh, (h + 1) * dh)
            scores = q[:, sl] @ k[:, sl].T / np.sqrt(dh)
            heads.append(_np_softmax(scores, axis=1) @ v[:, sl])
        x = x + (np.concatenate(heads, axis=1) @ p[f"{b}.attn.out.weight"]
                 + p[f"{b}.attn.out.bias"])
        hid = _np_layer_norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.bias"])
        pre = hid @ p[f"{b}.mlp.fc1.weight"] + p[f"{b}.mlp.fc1.bias"]
        margins.append(np.abs(pre).min())
        x = x + (np.maximum(pre, 0.0) @ p[f"{b}.mlp.fc2.weight"]
                 + p[f"{b}.mlp.fc2.bias"])

    patches = x[1:]
    s = patches @ p["agg.proj1.weight"] + p["agg.proj1.bias"]
    pre1 = _np_layer_norm(s, p["agg.norm1.gain"], p["agg.norm1.bias"])
    margins.append(np.abs(pre1).min())
    s = np.maximum(pre1, 0.0)
    s = (s @ p["agg.proj2.weight"] + p["agg.proj2.bias"]).T
    pre2 = _np_layer_norm(s, p["agg.norm2.gain"], p["agg.norm2.bias"])
    margins.append(np.abs(pre2).min())
    return float(min(margins))


# ---------------------------------------------------------------------------
# brute-force metric oracles (O(n^2) recounts, integer-exact feasibility)


def brute_force_roc(scores, labels):
    """Recount TP/FP at every candidate threshold (classify s >= t positive)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = int(len(labels) - n_pos)
    points = [(np.inf, 0.0, 0.0)]
    for t in sorted(set(scores.tolist()), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= t and y == 0)
        points.append((t, fp / n_neg, tp / n_pos))
    return points


def brute_force_tpr_at_spec(scores, labels, spec=0.95):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    n_neg = int((labels == 0).sum())
    best = 0.0
    for t, fpr, tpr in brute_force_roc(scores, labels):
        # integer-exact feasibility: fp/n_neg <= 1 - spec
        if round(fpr * n_neg) <= (1.0 - spec) * n_neg + 1e-9:
            best = max(best, tpr)
    return best


def brute_force_auc(scores, labels):
    """Pairwise rank statistic with half credit for ties."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


# ---------------------------------------------------------------------------
# test-only inverses and loaders


def unpatchify(rows: np.ndarray, height: int, width: int, patch: int) -> np.ndarray:
    """Inverse of ``model.patchify`` for one image."""
    rows = np.asarray(rows)
    gh, gw = height // patch, width // patch
    assert rows.shape == (gh * gw, 3 * patch * patch), rows.shape
    tiles = rows.reshape(gh, gw, patch, patch, 3).transpose(0, 2, 1, 3, 4)
    return tiles.reshape(height, width, 3)


def normalized(det: DiscDetection, width: int, height: int) -> tuple[float, ...]:
    """A pixel-space detection back in [0, 1] image coordinates."""
    return (det.cx / width, det.cy / height, det.w / width, det.h / height)


def load_detections(directory, extents: Mapping[str, tuple[int, int]]) -> dict:
    """Load every ``<image-id>.txt`` under ``directory``.

    ``extents`` maps image id to (width, height); a detection file for an
    unknown id is an error, an id with no file simply gets no entry.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"detections directory not found: {directory}")
    result = {}
    for path in sorted(directory.glob("*.txt")):
        if path.stem not in extents:
            raise ValueError(f"{path}: no manifest extents for image id {path.stem!r}")
        width, height = extents[path.stem]
        result[path.stem] = load_detection_file(path, width, height)
    return result


def detector_auc(scores, labels) -> float:
    """ROC AUC of per-image max detector confidence against presence flags."""
    return auc(roc_curve(scores, labels))


def read_report(path) -> tuple[dict[str, float], dict[str, float]]:
    """A written report's scalar values and its per-sample ``nhd.<id>``
    values."""
    scalars: dict[str, float] = {}
    per_sample: dict[str, float] = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(" = ")
        if key.startswith("nhd."):
            per_sample[key.removeprefix("nhd.")] = float(value)
        else:
            scalars[key] = float(value)
    return scalars, per_sample
