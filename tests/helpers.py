"""Shared test oracles: finite differences, a straight-line numpy forward
pass, and brute-force metric recounts. Everything here is deliberately
independent of the implementation paths it checks (loops instead of
vectorized sweeps, no autodiff involvement). The reference image kernels
are the preprocessing expressions the pipeline's faster kernels must match
byte for byte, and the reference renderer and truncated-normal draw are the
full-grid and full-array forms whose bytes and random-generator state the
faster ones reproduce. The inverses, loaders and the report reader at the
end exist only for the tests; the pipeline never calls them."""

from __future__ import annotations

import ctypes
import math
from pathlib import Path
from typing import Mapping

import numpy as np

from scipy import ndimage

from fundusvit import autodiff as ad
from fundusvit.detections import DiscDetection, load_detection_file
from fundusvit.metrics import auc, roc_curve
from fundusvit.preprocess import DEFAULT_BG_TAU, AugmentParams
from fundusvit.synth import CUP_COLOR, DISC_COLOR, NOTCH_COLOR, RETINA_COLOR, TICK_COLOR

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


def _np_layer_norm(x, gain, bias):
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    return gain * (xc / np.sqrt(var + 1e-5)) + bias


def _np_softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _np_patchify(image, patch):
    h, w, _ = image.shape
    rows = []
    for py in range(h // patch):
        for px in range(w // patch):
            tile = image[py * patch:(py + 1) * patch, px * patch:(px + 1) * patch, :]
            rows.append(tile.reshape(-1))
    return np.stack(rows)


def _np_forward(model, image: np.ndarray):
    """The full forward pass of ``model``'s first task in plain numpy: the
    flat (p_cls, p_agg, weights) and the smallest |pre-activation| over
    every ReLU site."""
    cfg = model.config
    assert cfg.activation == "relu", "reference covers the relu configuration"
    p = {name: t.data[0].astype(np.float64) for name, t in model.params.items()}
    margins = []

    def relu(pre):
        margins.append(np.abs(pre).min())
        return np.maximum(pre, 0.0)

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
            heads.append(_np_softmax(scores) @ v[:, sl])
        x = x + (np.concatenate(heads, axis=1) @ p[f"{b}.attn.out.weight"]
                 + p[f"{b}.attn.out.bias"])
        hid = _np_layer_norm(x, p[f"{b}.ln2.gain"], p[f"{b}.ln2.bias"])
        hid = relu(hid @ p[f"{b}.mlp.fc1.weight"] + p[f"{b}.mlp.fc1.bias"])
        x = x + (hid @ p[f"{b}.mlp.fc2.weight"] + p[f"{b}.mlp.fc2.bias"])

    cls_out = x[:1]
    patches = x[1:]
    p_cls = _np_softmax(cls_out @ p["mlp_head.weight"] + p["mlp_head.bias"])

    s = patches @ p["agg.proj1.weight"] + p["agg.proj1.bias"]
    s = relu(_np_layer_norm(s, p["agg.norm1.gain"], p["agg.norm1.bias"]))
    s = (s @ p["agg.proj2.weight"] + p["agg.proj2.bias"]).T
    s = relu(_np_layer_norm(s, p["agg.norm2.gain"], p["agg.norm2.bias"]))
    weights = _np_softmax(s)
    aggregated = weights @ patches
    p_agg = _np_softmax(aggregated @ p["final_fc.weight"] + p["final_fc.bias"])
    return p_cls.ravel(), p_agg.ravel(), weights.ravel(), float(min(margins))


def reference_forward(model, image: np.ndarray):
    """Recompute the full forward pass of ``model``'s first task with plain
    numpy.

    Returns (p_cls, p_agg, weights) as flat float arrays.
    """
    return _np_forward(model, image)[:3]


def min_relu_preactivation(model, image: np.ndarray) -> float:
    """Smallest |pre-activation| over every ReLU site in the forward pass
    of ``model``'s first task.

    Central finite differences are only a valid gradient oracle when no
    parameter perturbation can flip a ReLU input across zero, so gradient
    checks assert this margin is comfortably larger than the step size.
    """
    return _np_forward(model, image)[3]


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
# reference image kernels: the straightforward numpy expressions (channel
# reductions, np.unique + np.isin, a full 2-D gather for resizing, np.choose
# per channel) whose bytes the kernels in fundusvit.preprocess reproduce


_CROSS = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


def reference_remove_background(image: np.ndarray, tau: int = DEFAULT_BG_TAU) -> np.ndarray:
    """Zero the border-connected near-black region (max channel < tau).

    Dark pixels not connected (4-connectivity) to the image border are left
    untouched; so is everything at or above the threshold.
    """
    image = reference_require_rgb(image)
    dark = image.max(axis=2) < tau
    if not dark.any():
        return image.copy()
    labels, _ = ndimage.label(dark, structure=_CROSS)
    border = np.unique(np.concatenate([
        labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]]))
    border = border[border != 0]
    if border.size == 0:
        return image.copy()
    out = image.copy()
    out[np.isin(labels, border)] = 0
    return out


def reference_resize_bilinear(image: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Resize to th x tw with half-pixel-center bilinear sampling."""
    if th <= 0 or tw <= 0:
        raise ValueError(f"resize target must be positive, got {th}x{tw}")
    image = reference_require_rgb(image)
    h, w, _ = image.shape
    ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
    gx, gy = np.meshgrid(xs, ys)
    return reference_bilinear_sample(image[None], gx, gy)[0]


def reference_bilinear_sample(images: np.ndarray, xs: np.ndarray,
                              ys: np.ndarray) -> np.ndarray:
    """Sample a (B, H, W, 3) uint8 stack at fractional (B, h, w) or shared
    (h, w) coords, rounded back to uint8; out-of-bounds reads are zero."""
    b, h, w, _ = images.shape
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx = (xs - x0)[..., None]
    fy = (ys - y0)[..., None]
    # source pixel i sits at padded index i + 1, so every index clipped into
    # the padded array that was outside the image lands on the zero border;
    # each corner is one flat gather of uint8 pixels, widened exactly after
    flat = np.pad(images, ((0, 0), (1, 1), (1, 1), (0, 0))).reshape(-1, 3)
    first_row = np.arange(b).reshape(-1, 1, 1) * (h + 2)
    xa, xb = np.clip(x0 + 1, 0, w + 1), np.clip(x0 + 2, 0, w + 1)
    ya, yb = ((np.clip(y0 + k, 0, h + 1) + first_row) * (w + 2) for k in (1, 2))

    def corner(row, col):
        return flat.take(row + col, axis=0).astype(np.float64)

    top = corner(ya, xa) * (1 - fx) + corner(ya, xb) * fx
    bot = corner(yb, xa) * (1 - fx) + corner(yb, xb) * fx
    out = top * (1 - fy) + bot * fy
    return np.clip(np.rint(out, out=out), 0, 255, out=out).astype(np.uint8)


def reference_rotate(images: np.ndarray, degrees) -> np.ndarray:
    """Rotate each image of a BxHxWx3 stack counterclockwise about its
    center by its own angle; bilinear, zero fill. A zero angle copies."""
    images = reference_require_stack(images)
    degrees = np.broadcast_to(np.asarray(degrees, dtype=np.float64), images.shape[:1])
    out = images.copy()
    turn = np.flatnonzero(degrees != 0.0)
    if turn.size:
        h, w = images.shape[1:3]
        cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
        # one scalar cos/sin per image, the same values a single image gets
        c, s = np.array([(np.cos(t), np.sin(t))
                         for t in map(np.deg2rad, degrees[turn])]).T[..., None, None]
        dy, dx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
        out[turn] = reference_bilinear_sample(images[turn], cx + c * dx + s * dy,
                                              cy - s * dx + c * dy)
    return out


def reference_rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV for float arrays in [0, 1]."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    v = maxc
    spread = maxc - minc
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(maxc > 0, spread / np.where(maxc > 0, maxc, 1.0), 0.0)
        safe = np.where(spread > 0, spread, 1.0)
        rc = (maxc - r) / safe
        gc = (maxc - g) / safe
        bc = (maxc - b) / safe
    h = np.where(r == maxc, bc - gc,
                 np.where(g == maxc, 2.0 + rc - bc, 4.0 + gc - rc))
    h = np.where(spread > 0, (h / 6.0) % 1.0, 0.0)
    return np.stack([h, s, v], axis=-1)


def reference_hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(int) % 6
    r = np.choose(i, [v, q, p, p, t, v])
    g = np.choose(i, [t, v, v, q, p, p])
    b = np.choose(i, [p, p, t, v, v, q])
    return np.stack([r, g, b], axis=-1)


def reference_color_jitter(images: np.ndarray, sat, bright, hue) -> np.ndarray:
    """Scale saturation and brightness (clamped to [0, 1]) and hue
    (multiplicative, modulo 1) in HSV space, each image of a BxHxWx3 stack
    by its own factor of each kind; factors all 1 copy the image."""
    images = reference_require_stack(images)
    sat, bright, hue = (np.broadcast_to(np.asarray(f, dtype=np.float64), images.shape[:1])
                        for f in (sat, bright, hue))
    out = images.copy()
    moved = np.flatnonzero((sat != 1.0) | (bright != 1.0) | (hue != 1.0))
    if moved.size:
        hsv = reference_rgb_to_hsv(images[moved].astype(np.float64) / 255.0)
        hsv[..., 0] = (hsv[..., 0] * hue[moved, None, None]) % 1.0
        hsv[..., 1] = np.clip(hsv[..., 1] * sat[moved, None, None], 0.0, 1.0)
        hsv[..., 2] = np.clip(hsv[..., 2] * bright[moved, None, None], 0.0, 1.0)
        rgb = reference_hsv_to_rgb(hsv) * 255.0
        out[moved] = np.clip(np.rint(rgb, out=rgb), 0, 255, out=rgb).astype(np.uint8)
    return out


def reference_augment(images: np.ndarray, params: AugmentParams, draws) -> np.ndarray:
    """Apply, in fixed order: horizontal flip, vertical flip, rotation about
    the center (bilinear, zero fill), then saturation/brightness/hue scaling.

    ``images`` is a BxHxWx3 stack and ``draws`` a list of B
    ``AugmentDraws``: flipped per image, then rotated and colour-scaled with
    one call each, every image bit-identical to augmenting it alone.
    Disabled params, or identity draws (which short-circuit each stage
    exactly), reproduce the input bit for bit.
    """
    images = reference_require_stack(images).copy()
    if len(draws) != len(images):
        raise ValueError(f"{len(images)} images need as many draws, got {len(draws)}")
    if params.enabled:
        for i, d in enumerate(draws):
            if d.u_flip_h < params.p_flip_h:
                images[i] = images[i, :, ::-1]
            if d.u_flip_v < params.p_flip_v:
                images[i] = images[i, ::-1]
        images = reference_rotate(images, [d.rot_deg for d in draws])
        images = reference_color_jitter(images, *np.reshape(
            [(d.sat, d.bright, d.hue) for d in draws], (-1, 3)).T)
    return images


def reference_require_rgb(image: np.ndarray) -> np.ndarray:
    """``image`` as an HxWx3 array."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[-1] != 3:
        raise ValueError(f"expected an HxWx3 RGB image, got {image.shape}")
    return image


def reference_require_stack(images: np.ndarray) -> np.ndarray:
    """``images`` as a BxHxWx3 stack of RGB images."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[-1] != 3:
        raise ValueError(f"expected a BxHxWx3 stack of RGB images, got {images.shape}")
    return images


# ---------------------------------------------------------------------------
# reference random draws: every cue mask over the full pixel grid, and the
# truncated normal redrawing through full-array masks each round


def _reference_disc_mask(grid: np.ndarray, cx: float, cy: float, radius: float) -> np.ndarray:
    yy, xx = grid
    return (xx - cx) ** 2 + (yy - cy) ** 2 <= radius ** 2


def reference_render_sample(size: int, rng: np.random.Generator, positive: bool,
                            features: np.ndarray) -> tuple[np.ndarray, tuple[float, float, float]]:
    """The bytes, disc and draws ``synth.render_sample`` must reproduce."""
    img = rng.integers(0, 8, size=(size, size, 3)).astype(np.float64)
    center = (size - 1) / 2.0
    retina_r = 0.47 * size
    yy, xx = grid = np.mgrid[0:size, 0:size]
    rad2 = (xx - center) ** 2 + (yy - center) ** 2
    retina = rad2 <= retina_r ** 2
    shade = 1.0 - 0.35 * np.sqrt(rad2) / retina_r
    noise = rng.normal(0.0, 6.0, size=(size, size, 1))
    img[retina] = (RETINA_COLOR * shade[..., None] + noise)[retina]

    disc_r = rng.uniform(0.09, 0.12) * size
    offset = rng.uniform(0.18, 0.30) * size
    angle = rng.uniform(0.0, 2.0 * math.pi)
    dcx = center + offset * math.cos(angle)
    dcy = center + offset * math.sin(angle)
    img[_reference_disc_mask(grid, dcx, dcy, disc_r)] = DISC_COLOR
    img[_reference_disc_mask(grid, dcx, dcy, 0.45 * disc_r)] = CUP_COLOR

    if positive:
        notch_angle = rng.uniform(0.0, 2.0 * math.pi)
        nx = dcx + disc_r * math.cos(notch_angle)
        ny = dcy + disc_r * math.sin(notch_angle)
        notch = _reference_disc_mask(grid, nx, ny, 0.55 * disc_r)
        notch &= _reference_disc_mask(grid, dcx, dcy, disc_r)
        img[notch] = NOTCH_COLOR
    for k in np.nonzero(features)[0]:
        tick_angle = 2.0 * math.pi * (k + 0.5) / len(features)
        tx = dcx + 0.8 * disc_r * math.cos(tick_angle)
        ty = dcy + 0.8 * disc_r * math.sin(tick_angle)
        img[_reference_disc_mask(grid, tx, ty, 0.22 * disc_r)] = TICK_COLOR

    return np.clip(np.rint(img), 0, 255).astype(np.uint8), (dcx, dcy, disc_r)


def reference_trunc_normal(rng: np.random.Generator, shape, std: float) -> np.ndarray:
    """The values and draws ``model._trunc_normal`` must reproduce."""
    out = rng.standard_normal(shape)
    bad = np.abs(out) > 2.0
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum()))
        bad = np.abs(out) > 2.0
    return out * std


# ---------------------------------------------------------------------------
# the BLAS kernel the byte pins hold for


def openblas_core() -> str | None:
    """The name of the kernel numpy's bundled OpenBLAS picked for this CPU
    (``SkylakeX`` on AVX-512, ``Haswell`` on AVX2, or what
    ``OPENBLAS_CORETYPE`` forced), or None when numpy ships no
    scipy-openblas library or the library lacks the query."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:  # numpy has loaded this library already: the same handle
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


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
