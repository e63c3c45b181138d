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
returns what ``scipy.ndimage.label`` (the tests' oracle) finds. Rotation and
colour jitter compute on float64 channel planes, so each pass runs along
contiguous memory, and interleave the channels once, in ``_interleave``.
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
    h, w = dark.shape
    # The dark pixels before each row's first bright pixel and after its
    # last (argmin finds the first False from either end) have an all-dark
    # path to an edge. A row whose "first bright pixel" is dark has none: it
    # is dark end to end, and its reversed argmin is 0 too. So the seed is
    # three runs per row (seed, the rest, seed), written by one run-length
    # repeat.
    first = dark.argmin(axis=1)
    first[dark[np.arange(h), first]] = w
    lengths = np.empty((h, 3), dtype=np.intp)
    lengths[:, 0] = first
    lengths[:, 2] = dark[:, ::-1].argmin(axis=1)
    lengths[:, 1] = w - first - lengths[:, 2]
    fill = np.repeat(np.tile([True, False, True], h), lengths.reshape(-1)).reshape(h, w)
    del first, lengths  # before the rim's arrays
    fill[0] |= dark[0]
    fill[-1] |= dark[-1]
    rim = dark > fill  # dark and not yet filled
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
    y1, x1 = np.minimum(y0 + 1, h - 1), np.minimum(x0 + 1, w - 1)
    # Separable: each source row the output reads is interpolated along x
    # once, then rows are blended. A neighbour clamped to the last row or
    # column always has weight 0. Each x weight is repeated for the three
    # channels, so every blend runs along whole contiguous rows.
    fy, fx = (ys - y0)[:, None], np.repeat(xs - x0, 3)
    used = np.zeros(h, dtype=bool)
    used[y0] = used[y1] = True
    need = np.flatnonzero(used)
    rows = image.take(need, axis=0)
    across = rows.take(x0, axis=1).reshape(len(need), -1) * (1 - fx)
    across += rows.take(x1, axis=1).reshape(len(need), -1) * fx
    # a used source row's place in need
    out = across.take(need.searchsorted(y0), axis=0)
    out *= 1 - fy
    below = across.take(need.searchsorted(y1), axis=0)
    below *= fy
    out += below
    # convex weights keep every value in [0, 255]: no clip before the cast
    return np.rint(out, out=out).astype(np.uint8).reshape(th, tw, 3)


def _bilinear_sample(images: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Sample a (B, H, W, 3) uint8 stack at fractional (B, h, w) coords,
    rounded back to uint8; out-of-bounds reads are zero."""
    b, h, w, _ = images.shape
    x0, y0 = np.floor(xs), np.floor(ys)
    fx, fy = xs - x0, ys - y0
    # Pixels with a two-pixel zero border, each packed with a zero fourth
    # byte into one uint32: source pixel i sits at padded index i + 2, so a
    # top-left corner clipped into [-2, w] x [-2, h] keeps all four corners
    # of an out-of-bounds sample on the zero border, and each corner is one
    # gather of whole pixels.
    pw = w + 4
    padded = np.zeros((b, h + 4, pw, 4), dtype=np.uint8)
    for c in range(3):  # one channel at a time: whole rows per inner loop
        padded[:, 2:-2, 2:-2, c] = images[..., c]
    pixels = padded.view(np.uint32).reshape(-1)
    # the top-left corner's flat index, summed in float64: every term is an
    # integer far below 2**53, so the sum is exact
    nw = np.clip(y0, -2, h, out=y0)
    nw *= pw
    nw += np.clip(x0, -2, w, out=x0)
    nw += (np.arange(b) * (h + 4) * pw + 2 * pw + 2).reshape(-1, 1, 1)
    nw = nw.astype(np.intp)
    # (nw * (1 - fx) + ne * fx) * (1 - fy) + (sw * (1 - fx) + se * fx) * fy,
    # each product and sum formed once, in place, on float64 channel planes
    gx = 1 - fx
    top, corner, bot = (np.empty((3, b, h, w)) for _ in range(3))
    _corner(pixels, nw, top)
    top *= gx
    nw += 1
    _corner(pixels, nw, corner)
    corner *= fx
    top += corner
    nw += pw
    _corner(pixels, nw, corner)
    corner *= fx
    nw -= 1
    _corner(pixels, nw, bot)
    bot *= gx
    bot += corner
    bot *= fy
    top *= np.subtract(1, fy, out=gx)
    top += bot
    # convex weights keep every value in [0, 255]: no clip before the cast
    return _interleave(np.rint(top, out=top))


def _corner(pixels: np.ndarray, index: np.ndarray, out: np.ndarray) -> None:
    """Gather the packed pixels at ``index`` into ``out``'s three float64
    channel planes. The widening is exact (float64 holds every integer
    below 2**53), so a product of these planes equals the product of the
    uint8 gather that casts inside the multiply."""
    rgbx = pixels.take(index)[..., None].view(np.uint8)
    np.copyto(out, np.moveaxis(rgbx[..., :3], -1, 0))


def _interleave(planes: np.ndarray) -> np.ndarray:
    """(3, ...) float channel planes as a (..., 3) uint8 array; the values
    must be integers in [0, 255]."""
    out = np.empty((*planes.shape[1:], 3), dtype=np.uint8)
    for c in range(3):  # one channel at a time: whole rows per inner loop
        out[..., c] = planes[c]
    return out


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
    # a row and a column of offsets: the sums below broadcast to (B, H, W)
    dy, dx = (np.arange(h) - cy)[:, None], np.arange(w) - cx
    return _bilinear_sample(images, cx + c * dx + s * dy, cy - s * dx + c * dy)


# the smallest positive float64: a zero divided by it stays zero, and no
# nonzero spread or value is smaller
_TINY = np.finfo(np.float64).smallest_subnormal


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV for float arrays in [0, 1], by the hexcone
    formulas of Smith 1978. The result has the memory layout of ``rgb``, so
    channel planes (a moved-axis view) stay planes."""
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    maxc = np.maximum(np.maximum(r, g), b)
    spread = maxc - np.minimum(np.minimum(r, g), b)
    hsv = np.empty_like(rgb)
    np.copyto(hsv[..., 2], maxc)
    # Dividing by max(d, _TINY) for d >= 0 is dividing by d where d > 0,
    # and gives 0 where d = 0: a black pixel's saturation, and the channel
    # distances of a grey pixel, whose hue bc - gc is then 0.
    np.divide(spread, np.maximum(maxc, _TINY), out=hsv[..., 1])
    np.maximum(spread, _TINY, out=spread)
    rc, gc, bc = (np.divide(np.subtract(maxc, x), spread) for x in (r, g, b))
    b_hue = gc + 4.0
    b_hue -= rc
    rc += 2.0
    rc -= bc  # g's hue, 2 + rc - bc
    bc -= gc  # r's hue
    h = np.divide(np.where(r == maxc, bc, np.where(g == maxc, rc, b_hue)), 6.0,
                  out=hsv[..., 0])
    # h mod 1 as h - floor(h): for finite h both are the one rounding of the
    # same real, fmod(h, 1) (+ 1 if negative), so the bits agree, down to an
    # integer giving +0.0 and a tiny negative h rounding up to 1.0
    h -= np.floor(h)
    return hsv


# which of (v, q, p, t) red, green and blue take in each sixth of the hue
# circle, repeated so that any sector in [-12, 11] indexes its sector mod 6
_SECTOR_PICKS = np.tile([[0, 1, 2, 2, 3, 0], [3, 0, 0, 1, 2, 2], [2, 2, 3, 0, 0, 1]], 2)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB for float arrays in [0, 1] (Smith 1978): the
    sector floor(6h) mod 6 picks each channel from v, q, p and t."""
    h, s, v = hsv[..., 0], hsv[..., 1], hsv[..., 2]
    f = h * 6.0
    sector = np.floor(f)
    f -= sector
    vqpt = np.empty((4, *v.shape))
    np.copyto(vqpt[0], v)
    q, p, t = vqpt[1:]
    np.multiply(s, f, out=q)
    np.subtract(1.0, q, out=q)
    q *= v  # v * (1 - s * f)
    np.subtract(1.0, s, out=p)
    p *= v  # v * (1 - s)
    np.subtract(1.0, f, out=t)
    t *= s
    np.subtract(1.0, t, out=t)
    t *= v  # v * (1 - s * (1 - f))
    del f  # before the gather's arrays
    # one flat gather: channel c of a pixel reads vqpt at pick * n + pixel
    index = (_SECTOR_PICKS * v.size).take(sector.astype(np.intp), axis=1)
    index += np.arange(v.size).reshape(v.shape)
    return np.moveaxis(vqpt.take(index), 0, -1)


def color_jitter(images: np.ndarray, sat, bright, hue) -> np.ndarray:
    """Scale saturation and brightness (clamped to [0, 1]) and hue
    (multiplicative, modulo 1) in HSV space, each image of a BxHxWx3 stack by
    its own factor of each kind; unit factors leave every 8-bit colour as is."""
    images = _require_stack(images)
    sat, bright, hue = (np.broadcast_to(np.asarray(f, dtype=np.float64),
                                        images.shape[:1])[:, None, None]
                        for f in (sat, bright, hue))
    # channel planes: every pass reads and writes contiguous memory, and the
    # bytes interleave once, at the end
    planes = np.divide(np.moveaxis(images, -1, 0), 255.0,
                       out=np.empty((3, *images.shape[:-1])))
    hsv = rgb_to_hsv(np.moveaxis(planes, 0, -1))
    del planes  # before hsv_to_rgb's arrays: a lower peak at 512x512
    h, s, v = np.moveaxis(hsv, -1, 0)
    h *= hue
    h -= np.floor(h)  # mod 1, as in rgb_to_hsv
    s *= sat
    np.clip(s, 0.0, 1.0, out=s)
    v *= bright
    np.clip(v, 0.0, 1.0, out=v)
    rgb = np.moveaxis(hsv_to_rgb(hsv), -1, 0)
    rgb *= 255.0
    # p, q and t lie in [0, v] and v in [0, 1]: no clip before the cast
    return _interleave(np.rint(rgb, out=rgb))


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
