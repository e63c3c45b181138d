"""Deterministic image preprocessing: disc-centered ROI cropping, background
removal, bilinear resizing and the training-time augmentation pipeline.

All operations take and return 8-bit RGB arrays (HxWx3 uint8 images; the
augmentation stages take BxHxWx3 stacks with per-image draws, one image
being a stack of one) and are pure functions of their inputs plus any random
draws supplied by the caller, so they parallelize across images. Every
kernel returns exactly the bytes of its plain reference expression, kept in
tests/helpers.py and compared byte for byte by tests/test_kernel_oracles.py.

The module needs numpy alone: background removal finds the border-connected
dark set with ``border_fill``, a numpy reconstruction from the border that
returns what ``scipy.ndimage.label`` (the tests' oracle) finds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detections import DiscDetection

ROI_SCALE = 3.0  # crop side = 3 * (w + h) / 2
DEFAULT_BG_TAU = 10


@dataclass(frozen=True)
class AugmentParams:
    """Augmentation switch and draw ranges. The draws themselves come from
    the training seed's streams."""

    enabled: bool = True
    p_flip_h: float = 0.5
    p_flip_v: float = 0.5
    rot_lo: float = -10.0
    rot_hi: float = 10.0
    sat_lo: float = 0.95
    sat_hi: float = 1.05
    bright_lo: float = 0.95
    bright_hi: float = 1.05
    hue_lo: float = 0.95
    hue_hi: float = 1.05

    def __post_init__(self):
        for name in ("p_flip_h", "p_flip_v"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for kind in ("rot", "sat", "bright", "hue"):
            lo, hi = getattr(self, f"{kind}_lo"), getattr(self, f"{kind}_hi")
            if not 0.0 <= hi - lo < np.inf:  # rng.uniform draws from finite widths
                raise ValueError(f"{kind}_lo must not exceed {kind}_hi, and {kind}_hi - "
                                 f"{kind}_lo must be finite; got {lo}, {hi}")


def roi_side(w: float, h: float) -> int:
    """Square crop side for a disc of size (w, h): 3*(w+h)/2, rounded to the
    nearest pixel with ties away from zero, and at least one pixel."""
    return max(1, int(np.floor(ROI_SCALE * (w + h) / 2.0 + 0.5)))


def crop_roi(image: np.ndarray, det: DiscDetection) -> np.ndarray:
    """Square crop centered on the detected disc, zero-padded at the image
    border so the disc stays centered."""
    if det.w <= 0 or det.h <= 0:
        raise ValueError(f"invalid detection: nonpositive size ({det.w}, {det.h})")
    image = _require_rgb(image)
    side = roi_side(det.w, det.h)
    cx = int(np.floor(det.cx + 0.5))
    cy = int(np.floor(det.cy + 0.5))
    x0 = cx - side // 2
    y0 = cy - side // 2
    out = np.zeros((side, side, 3), dtype=np.uint8)
    h, w, _ = image.shape
    sx0, sx1 = max(x0, 0), min(x0 + side, w)
    sy0, sy1 = max(y0, 0), min(y0 + side, h)
    if sx0 < sx1 and sy0 < sy1:
        out[sy0 - y0:sy1 - y0, sx0 - x0:sx1 - x0] = image[sy0:sy1, sx0:sx1]
    return out


def remove_background(image: np.ndarray, tau: int = DEFAULT_BG_TAU) -> np.ndarray:
    """Zero the border-connected near-black region (max channel < tau).

    Dark pixels not connected (4-connectivity) to the image border are left
    untouched; so is everything at or above the threshold.
    """
    image = _require_rgb(image)
    dark = np.maximum(np.maximum(image[..., 0], image[..., 1]), image[..., 2]) < tau
    if not dark.any():
        return image.copy()
    # one 0/1 factor per byte: a product over contiguous bytes is faster
    # than a boolean assignment or a product broadcast over the channels
    keep = np.repeat(~border_fill(dark), 3).view(np.uint8)
    return image * keep.reshape(image.shape)


def border_fill(dark: np.ndarray) -> np.ndarray:
    """The pixels of a 2-D boolean mask that a 4-connected path inside the
    mask joins to the mask's border (morphological reconstruction from the
    border frame, Vincent 1993).

    The seed is the dark pixels of the top and bottom rows and every pixel
    with an all-dark path along its row to the left or right edge. Outside
    a convex bright region, such as a fundus or a disc, every dark pixel
    has such a path, so when no dark pixel outside the seed has a seed
    pixel above or below it (left and right of the seed lie bright pixels
    or edges), the seed is the whole set. Otherwise whole row runs and
    column runs of dark pixels join the fill, in alternating passes,
    wherever one of their pixels is filled, until a row and a column pass
    add nothing.
    """
    scan = np.logical_and.accumulate
    fill = scan(dark, axis=1) | scan(dark[:, ::-1], axis=1)[:, ::-1]
    fill[[0, -1]] |= dark[[0, -1]]
    rim = dark & ~fill
    if not ((rim[1:] & fill[:-1]).any() or (rim[:-1] & fill[1:]).any()):
        return fill
    row_runs, col_runs = _run_ids(dark), _run_ids(dark.T).T
    count = np.count_nonzero(fill)
    while True:
        for runs in (row_runs, col_runs):
            hit = np.zeros(runs.max() + 1, dtype=bool)
            hit[runs[fill]] = True  # run 0, the bright pixels, is never hit
            fill = hit[runs]
        count, before = np.count_nonzero(fill), count
        if count == before:
            return fill


def _run_ids(mask: np.ndarray) -> np.ndarray:
    """Number the maximal runs of True along each row 1, 2, ... in reading
    order; False pixels get 0."""
    starts = mask.copy()  # a row's first pixel, if True, starts a new run
    starts[:, 1:] &= ~mask[:, :-1]
    return np.cumsum(starts).reshape(mask.shape) * mask


def resize_bilinear(image: np.ndarray, th: int, tw: int) -> np.ndarray:
    """Resize to th x tw with half-pixel-center bilinear sampling."""
    if th <= 0 or tw <= 0:
        raise ValueError(f"resize target must be positive, got {th}x{tw}")
    image = _require_rgb(image)
    h, w, _ = image.shape
    ys = np.clip((np.arange(th) + 0.5) * (h / th) - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(tw) + 0.5) * (w / tw) - 0.5, 0.0, w - 1.0)
    y0, x0 = np.floor(ys).astype(int), np.floor(xs).astype(int)
    fy, fx = (ys - y0)[:, None, None], (xs - x0)[:, None]
    # Separable: each source row the output reads is interpolated along x
    # once, then rows are blended. A neighbour clamped to the last row or
    # column always has weight 0.
    x1 = np.minimum(x0 + 1, w - 1)
    need, rank = np.unique(np.concatenate([y0, np.minimum(y0 + 1, h - 1)]),
                           return_inverse=True)
    rows = image.take(need, axis=0)
    across = rows.take(x0, axis=1) * (1 - fx) + rows.take(x1, axis=1) * fx
    out = across.take(rank[:th], axis=0) * (1 - fy) + across.take(rank[th:], axis=0) * fy
    # convex weights keep every value in [0, 255]: no clip before the cast
    return np.rint(out, out=out).astype(np.uint8)


def _bilinear_sample(images: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a (B, H, W, 3) uint8 stack at fractional (B, h, w) coords,
    rounded back to uint8; out-of-bounds reads are zero."""
    b, h, w, _ = images.shape
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    fx, fy = xs - x0, ys - y0
    # Channel planes with a two-pixel zero border: source pixel i sits at
    # padded index i + 2, so a top-left corner clipped into [-2, w] x [-2, h]
    # keeps all four corners of an out-of-bounds sample on the zero border.
    # Each corner is one gather of uint8 pixels, widened exactly after.
    pw = w + 4
    planes = np.zeros((3, b, h + 4, pw), dtype=np.uint8)
    planes[:, :, 2:-2, 2:-2] = np.moveaxis(images, -1, 0)
    flat = planes.reshape(3, -1)
    first_row = np.arange(b).reshape(-1, 1, 1) * (h + 4)
    nw = (np.clip(y0, -2, h) + 2 + first_row) * pw + np.clip(x0, -2, w) + 2
    gx = 1 - fx
    top = flat.take(nw, axis=1) * gx + flat.take(nw + 1, axis=1) * fx
    nw += pw
    bot = flat.take(nw, axis=1) * gx + flat.take(nw + 1, axis=1) * fx
    out = top * (1 - fy) + bot * fy
    # convex weights keep every value in [0, 255]: no clip before the cast
    return np.moveaxis(np.rint(out, out=out), 0, -1).astype(np.uint8, order="C")


def rotate(images: np.ndarray, degrees) -> np.ndarray:
    """Rotate each image of a BxHxWx3 stack counterclockwise about its center
    by its own angle; bilinear, zero fill. A zero angle is exact identity."""
    images = _require_stack(images)
    degrees = np.broadcast_to(np.asarray(degrees, dtype=np.float64), images.shape[:1])
    h, w = images.shape[1:3]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # one scalar cos/sin per image, the same values in any stack
    c, s = np.reshape([(np.cos(t), np.sin(t)) for t in map(np.deg2rad, degrees)],
                      (-1, 2)).T[..., None, None]
    dy, dx = np.meshgrid(np.arange(h) - cy, np.arange(w) - cx, indexing="ij")
    return _bilinear_sample(images, cx + c * dx + s * dy, cy - s * dx + c * dy)


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV for float arrays in [0, 1]."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    spread = maxc - np.minimum(np.minimum(r, g), b)
    hsv = np.zeros_like(rgb)
    np.divide(spread, maxc, out=hsv[..., 1], where=maxc > 0)
    hsv[..., 2] = maxc
    with np.errstate(divide="ignore", invalid="ignore"):
        # grey pixels divide 0 by 0 here; their hue stays 0
        rc = (maxc - r) / spread
        gc = (maxc - g) / spread
        bc = (maxc - b) / spread
        h = np.where(r == maxc, bc - gc,
                     np.where(g == maxc, 2.0 + rc - bc, 4.0 + gc - rc))
        np.remainder(h / 6.0, 1.0, out=hsv[..., 0], where=spread > 0)
    return hsv


# which of (v, q, p, t) red, green and blue take in each sixth of the hue circle
_SECTOR_PICKS = np.array([[0, 1, 2, 2, 3, 0], [3, 0, 0, 1, 2, 2], [2, 2, 3, 0, 0, 1]])


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    vqpt = np.stack([v, v * (1.0 - s * f), v * (1.0 - s), v * (1.0 - s * (1.0 - f))])
    sector = (i.astype(int) % 6)[None]
    return np.stack([np.take_along_axis(vqpt, picks[sector], 0)[0]
                     for picks in _SECTOR_PICKS], axis=-1)


def color_jitter(images: np.ndarray, sat, bright, hue) -> np.ndarray:
    """Scale saturation and brightness (clamped to [0, 1]) and hue
    (multiplicative, modulo 1) in HSV space, each image of a BxHxWx3 stack by
    its own factor of each kind; unit factors leave every 8-bit colour as is."""
    images = _require_stack(images)
    sat, bright, hue = (np.broadcast_to(np.asarray(f, dtype=np.float64), images.shape[:1])
                        for f in (sat, bright, hue))
    hsv = rgb_to_hsv(images / 255.0)
    hsv[..., 0] = (hsv[..., 0] * hue[:, None, None]) % 1.0
    hsv[..., 1] = np.clip(hsv[..., 1] * sat[:, None, None], 0.0, 1.0)
    hsv[..., 2] = np.clip(hsv[..., 2] * bright[:, None, None], 0.0, 1.0)
    # p, q and t lie in [0, v] and v in [0, 1]: no clip before the cast
    rgb = hsv_to_rgb(hsv) * 255.0
    return np.rint(rgb, out=rgb).astype(np.uint8)


@dataclass(frozen=True)
class AugmentDraws:
    """The six random draws one augmentation consumes, in draw order."""

    u_flip_h: float
    u_flip_v: float
    rot_deg: float
    sat: float
    bright: float
    hue: float

    @classmethod
    def sample(cls, rng: np.random.Generator, params: AugmentParams) -> "AugmentDraws":
        # Always consume exactly six draws so generator streams stay aligned.
        return cls(u_flip_h=float(rng.random()),
                   u_flip_v=float(rng.random()),
                   rot_deg=float(rng.uniform(params.rot_lo, params.rot_hi)),
                   sat=float(rng.uniform(params.sat_lo, params.sat_hi)),
                   bright=float(rng.uniform(params.bright_lo, params.bright_hi)),
                   hue=float(rng.uniform(params.hue_lo, params.hue_hi)))


def augment(images: np.ndarray, params: AugmentParams, draws) -> np.ndarray:
    """Apply, in fixed order: horizontal flip, vertical flip, rotation about
    the center (bilinear, zero fill), then saturation/brightness/hue scaling.

    ``images`` is a BxHxWx3 stack and ``draws`` a list of B
    ``AugmentDraws``: flipped per image, then rotated and colour-scaled with
    one call each, every image bit-identical to augmenting it in a stack of
    one. Disabled params, or identity draws (no flip, a zero angle, unit
    factors: each exact in its stage), reproduce the input bit for bit.
    """
    images = _require_stack(images).copy()
    if len(draws) != len(images):
        raise ValueError(f"{len(images)} images need as many draws, got {len(draws)}")
    if params.enabled:
        for i, d in enumerate(draws):
            if d.u_flip_h < params.p_flip_h:
                images[i] = images[i, :, ::-1]
            if d.u_flip_v < params.p_flip_v:
                images[i] = images[i, ::-1]
        images = rotate(images, [d.rot_deg for d in draws])
        images = color_jitter(images, *np.reshape(
            [(d.sat, d.bright, d.hue) for d in draws], (-1, 3)).T)
    return images


def _require_rgb(image: np.ndarray) -> np.ndarray:
    """``image`` as an HxWx3 array."""
    image = np.asarray(image)
    if image.ndim != 3 or image.shape[-1] != 3:
        raise ValueError(f"expected an HxWx3 RGB image, got {image.shape}")
    return image


def _require_stack(images: np.ndarray) -> np.ndarray:
    """``images`` as a BxHxWx3 stack of RGB images."""
    images = np.asarray(images)
    if images.ndim != 4 or images.shape[-1] != 3:
        raise ValueError(f"expected a BxHxWx3 stack of RGB images, got {images.shape}")
    return images
