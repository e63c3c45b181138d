"""Preprocessing geometry tests: ROI cropping against a per-pixel oracle,
flood-fill background removal, bilinear resizing against a scalar-loop
resampler, and the augmentation pipeline's exactness contracts."""

import math
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from fundusvit.dataset import read_manifest
from fundusvit.detections import DiscDetection, load_detection_file, select_roi
from fundusvit.ppm import read_ppm, write_ppm
from fundusvit.preprocess import (BG_TAU, AugmentDraws, AugmentParams,
                                  augment, border_fill,
                                  color_jitter, crop_roi, hsv_to_rgb,
                                  remove_background, resize_bilinear,
                                  rgb_to_hsv, roi_side, rotate)
from fundusvit.synth import generate_dataset


def det(cx, cy, w, h, conf=0.9):
    return DiscDetection(cx=cx, cy=cy, w=w, h=h, confidence=conf)


def random_image(seed, h=40, w=40):
    return np.random.default_rng(seed).integers(0, 256, size=(h, w, 3),
                                                dtype=np.uint8)


def naive_crop(image, cx, cy, w, h):
    """Per-pixel copy with bounds checking (the independent oracle)."""
    side = int(math.floor(3.0 * (w + h) / 2.0 + 0.5))
    cxi = int(math.floor(cx + 0.5))
    cyi = int(math.floor(cy + 0.5))
    x0, y0 = cxi - side // 2, cyi - side // 2
    out = np.zeros((side, side, 3), dtype=np.uint8)
    hh, ww, _ = image.shape
    for yy in range(side):
        for xx in range(side):
            sy, sx = y0 + yy, x0 + xx
            if 0 <= sy < hh and 0 <= sx < ww:
                out[yy, xx] = image[sy, sx]
    return out


class TestCropRoi:
    def test_documented_geometry(self):
        # side = 3*(100+120)/2 = 330, x spans [335, 664], y spans [235, 564]
        rng = np.random.default_rng(0)
        image = rng.integers(0, 256, size=(800, 1000, 3), dtype=np.uint8)
        out = crop_roi(image, det(cx=500, cy=400, w=100, h=120))
        assert out.shape == (330, 330, 3)
        np.testing.assert_array_equal(out, image[235:565, 335:665])
        np.testing.assert_array_equal(out[0, 0], image[235, 335])
        np.testing.assert_array_equal(out[-1, -1], image[564, 664])

    def test_side_rounding(self):
        assert roi_side(100, 120) == 330
        assert roi_side(10, 11) == 32  # 31.5 rounds away from zero
        assert roi_side(10, 10) == 30

    def test_subpixel_disc_crops_one_pixel(self):
        # 3 * (0.1 + 0.1) / 2 = 0.3 px would round to an empty crop
        assert roi_side(0.1, 0.1) == 1
        image = random_image(3, h=64, w=64)
        out = crop_roi(image, det(cx=32, cy=32, w=0.1, h=0.1))
        np.testing.assert_array_equal(out, image[32:33, 32:33])

    def test_disc_spanning_third_of_image_returns_full_image(self):
        image = random_image(1, h=90, w=90)
        out = crop_roi(image, det(cx=45, cy=45, w=30, h=30))
        assert out.shape == (90, 90, 3)
        np.testing.assert_array_equal(out, image)

    def test_corner_detection_zero_pads(self):
        image = random_image(2, h=200, w=200)
        out = crop_roi(image, det(cx=10, cy=10, w=100, h=100))
        assert out.shape == (300, 300, 3)
        np.testing.assert_array_equal(out, naive_crop(image, 10, 10, 100, 100))
        # region outside the source image is exactly zero
        assert not out[:100, :100].any() or (out[:140, :140] == 0).all() is False
        np.testing.assert_array_equal(out[:140, :, :], 0)
        np.testing.assert_array_equal(out[:, :140, :], 0)

    def test_nonpositive_size_rejected(self):
        with pytest.raises(ValueError, match="nonpositive"):
            crop_roi(random_image(3), det(cx=5, cy=5, w=0, h=10))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_naive_oracle(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 256, size=(30, 36, 3), dtype=np.uint8)
        cx, cy = rng.uniform(0, 36), rng.uniform(0, 30)
        w, h = rng.uniform(1, 12), rng.uniform(1, 12)
        np.testing.assert_array_equal(crop_roi(image, det(cx, cy, w, h)),
                                      naive_crop(image, cx, cy, w, h))

    def test_shape_depends_only_on_box_size(self):
        a = crop_roi(random_image(4, 50, 50), det(10, 10, 8, 9))
        b = crop_roi(random_image(5, 120, 80), det(70, 40, 8, 9))
        assert a.shape == b.shape


def flood_fill_background(image, tau):
    """BFS from every border pixel over the dark mask (4-connectivity)."""
    dark = image.max(axis=2) < tau
    h, w = dark.shape
    keep = image.copy()
    seen = np.zeros_like(dark)
    queue = deque((y, x) for y in range(h) for x in range(w)
                  if (y in (0, h - 1) or x in (0, w - 1)) and dark[y, x])
    for y, x in queue:
        seen[y, x] = True
    while queue:
        y, x = queue.popleft()
        keep[y, x] = 0
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            ny, nx = y + dy, x + dx
            if 0 <= ny < h and 0 <= nx < w and dark[ny, nx] and not seen[ny, nx]:
                seen[ny, nx] = True
                queue.append((ny, nx))
    return keep


class TestRemoveBackground:
    def test_all_black_fixed_point(self):
        image = np.zeros((8, 8, 3), dtype=np.uint8)
        np.testing.assert_array_equal(remove_background(image, 10), image)

    def test_bright_disc_on_black_surround(self):
        image = np.zeros((21, 21, 3), dtype=np.uint8)
        yy, xx = np.mgrid[0:21, 0:21]
        disc = (yy - 10) ** 2 + (xx - 10) ** 2 <= 36
        image[disc] = (200, 150, 90)
        # stray dark noise in the surround
        image[1, 1] = (4, 3, 2)
        out = remove_background(image, 10)
        np.testing.assert_array_equal(out[disc], image[disc])
        np.testing.assert_array_equal(out[~disc], 0)
        np.testing.assert_array_equal(out, flood_fill_background(image, 10))

    def test_no_pixel_below_tau_is_identity(self):
        image = random_image(6) | 12  # every channel >= 12
        np.testing.assert_array_equal(remove_background(image, 10), image)

    def test_enclosed_dark_region_is_preserved(self):
        image = np.full((15, 15, 3), 80, dtype=np.uint8)
        image[7, 7] = 0  # dark but not border-connected
        out = remove_background(image, 10)
        np.testing.assert_array_equal(out, image)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2 ** 31 - 1))
    def test_matches_flood_fill_oracle(self, seed):
        rng = np.random.default_rng(seed)
        image = rng.integers(0, 40, size=(12, 14, 3), dtype=np.uint8)
        out = remove_background(image, 10)
        np.testing.assert_array_equal(out, flood_fill_background(image, 10))
        # never increases a pixel
        assert np.all(out.astype(int) <= image.astype(int))


def labelled_border_fill(dark):
    """The border-connected dark set as ``ndimage.label`` finds it: the
    component of a dark frame drawn around the mask."""
    framed = np.ones((dark.shape[0] + 2, dark.shape[1] + 2), dtype=bool)
    framed[1:-1, 1:-1] = dark
    labels, _ = ndimage.label(framed, structure=ndimage.generate_binary_structure(2, 1))
    return labels[1:-1, 1:-1] == labels[0, 0]


def spiral_maze(n):
    """A one-pixel dark corridor that winds from the top-left corner
    inwards between one-pixel bright walls: only its outer ring has a
    straight dark path to an edge."""
    dark = np.zeros((n, n), dtype=bool)
    y, x, dy, dx, turns = 0, 0, 0, 1, 0
    dark[0, 0] = True
    inside = lambda cy, cx: 0 <= cy < n and 0 <= cx < n  # noqa: E731
    while turns < 2:
        ny, nx = y + dy, x + dx
        if inside(ny, nx) and not dark[ny, nx] and \
                not (inside(ny + dy, nx + dx) and dark[ny + dy, nx + dx]):
            y, x, turns = ny, nx, 0
            dark[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return dark


class TestBorderFill:
    def test_random_masks_match_label(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            h, w = rng.integers(1, 40, size=2)
            dark = rng.random((h, w)) < rng.uniform(0.2, 0.8)
            np.testing.assert_array_equal(border_fill(dark), labelled_border_fill(dark))

    @pytest.mark.parametrize("shape", [(1, 1), (1, 2), (1, 37), (2, 1), (37, 1)])
    def test_single_row_and_column_masks_match_label(self, shape):
        rng = np.random.default_rng(sum(shape))
        for _ in range(200):
            dark = rng.random(shape) < 0.5
            np.testing.assert_array_equal(border_fill(dark), labelled_border_fill(dark))

    @pytest.mark.parametrize("h", [1, 2, 3])
    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_all_dark_fills_and_all_light_does_not(self, h, w):
        np.testing.assert_array_equal(border_fill(np.ones((h, w), dtype=bool)), True)
        np.testing.assert_array_equal(border_fill(np.zeros((h, w), dtype=bool)), False)

    @pytest.mark.parametrize("n", [9, 10, 82])
    def test_spiral_maze_fills_whole_corridor(self, n):
        # reachable only through many alternating row and column passes
        dark = spiral_maze(n)
        np.testing.assert_array_equal(labelled_border_fill(dark), dark)
        np.testing.assert_array_equal(border_fill(dark), dark)

    @pytest.mark.parametrize("size, n", [(128, 6), (512, 2)])
    def test_synthetic_crops_match_label(self, size, n, tmp_path):
        # the source sizes of the desk (32x32) and full-resolution runs
        manifest = generate_dataset(tmp_path, n=n, seed=5, size=size)
        for row in read_manifest(manifest):
            detection = select_roi(load_detection_file(
                tmp_path / row.detection_path, row.width, row.height))
            crop = crop_roi(read_ppm(tmp_path / row.image_path), detection)
            dark = crop.max(axis=2) < BG_TAU
            assert dark.any()
            np.testing.assert_array_equal(border_fill(dark), labelled_border_fill(dark))


class TestResize:
    def test_same_size_is_identity(self):
        image = random_image(7, 24, 24)
        np.testing.assert_array_equal(resize_bilinear(image, 24, 24), image)

    def test_checkerboard_average(self):
        image = np.zeros((2, 2, 3), dtype=np.uint8)
        image[0, 1] = image[1, 0] = 255
        out = resize_bilinear(image, 1, 1)
        assert out.shape == (1, 1, 3)
        assert out[0, 0, 0] in (127, 128)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError):
            resize_bilinear(random_image(8), 0, 8)
        with pytest.raises(ValueError):
            resize_bilinear(random_image(8), 8, 0)

    def naive_resize(self, image, th, tw):
        h, w, _ = image.shape
        out = np.zeros((th, tw, 3), dtype=np.uint8)
        img = image.astype(np.float64)
        for ty in range(th):
            for tx in range(tw):
                sy = min(max((ty + 0.5) * h / th - 0.5, 0.0), h - 1.0)
                sx = min(max((tx + 0.5) * w / tw - 0.5, 0.0), w - 1.0)
                y0, x0 = int(math.floor(sy)), int(math.floor(sx))
                y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
                fy, fx = sy - y0, sx - x0
                for c in range(3):
                    top = img[y0, x0, c] * (1 - fx) + img[y0, x1, c] * fx
                    bot = img[y1, x0, c] * (1 - fx) + img[y1, x1, c] * fx
                    out[ty, tx, c] = int(np.clip(np.rint(top * (1 - fy) + bot * fy),
                                                 0, 255))
        return out

    @pytest.mark.parametrize("shape,target", [((7, 5), 16), ((5, 7), 3),
                                              ((9, 9), 12), ((3, 11), 8)])
    def test_matches_scalar_loop_oracle(self, shape, target):
        image = np.random.default_rng(9).integers(0, 256, size=(*shape, 3),
                                                  dtype=np.uint8)
        np.testing.assert_array_equal(resize_bilinear(image, target, target),
                                      self.naive_resize(image, target, target))

    @pytest.mark.parametrize("th,tw", [(8, 16), (16, 5), (3, 1)])
    def test_non_square_target_matches_scalar_loop_oracle(self, th, tw):
        image = np.random.default_rng(11).integers(0, 256, size=(7, 9, 3),
                                                   dtype=np.uint8)
        out = resize_bilinear(image, th, tw)
        assert out.shape == (th, tw, 3)
        np.testing.assert_array_equal(out, self.naive_resize(image, th, tw))

    def test_large_upsample_matches_oracle_at_sampled_positions(self):
        # 7x5 source to 512x512; the scalar oracle checks 1500 random pixels
        rng = np.random.default_rng(10)
        image = rng.integers(0, 256, size=(7, 5, 3), dtype=np.uint8)
        out = resize_bilinear(image, 512, 512)
        img = image.astype(np.float64)
        h, w = 7, 5
        for _ in range(1500):
            ty, tx = int(rng.integers(0, 512)), int(rng.integers(0, 512))
            sy = min(max((ty + 0.5) * h / 512 - 0.5, 0.0), h - 1.0)
            sx = min(max((tx + 0.5) * w / 512 - 0.5, 0.0), w - 1.0)
            y0, x0 = int(math.floor(sy)), int(math.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            for c in range(3):
                top = img[y0, x0, c] * (1 - fx) + img[y0, x1, c] * fx
                bot = img[y1, x0, c] * (1 - fx) + img[y1, x1, c] * fx
                expected = int(np.clip(np.rint(top * (1 - fy) + bot * fy), 0, 255))
                assert out[ty, tx, c] == expected


class TestAugment:
    def setup_method(self):
        self.params = AugmentParams()

    def test_identity_draws_are_exact_identity(self):
        image = random_image(11)
        identity = AugmentDraws(u_flip_h=1.0, u_flip_v=1.0, rot_deg=0.0,
                                sat=1.0, bright=1.0, hue=1.0)
        out = augment(image[None], self.params, [identity])[0]
        np.testing.assert_array_equal(out, image)

    @pytest.mark.parametrize("h, w", [(1, 1), (2, 3), (31, 17), (32, 32), (512, 512)])
    def test_zero_angle_samples_every_pixel_at_its_centre(self, h, w):
        images = np.stack([random_image(22, h, w), random_image(23, h, w)])
        np.testing.assert_array_equal(rotate(images, [0.0, -0.0]), images)

    def test_unit_factors_return_every_colour_unchanged(self):
        # every 13th of the 2^24 8-bit colours, as one image column
        codes = np.arange(0, 1 << 24, 13)
        colours = np.stack([codes >> 16, (codes >> 8) & 255, codes & 255],
                           axis=-1).astype(np.uint8)[:, None]
        np.testing.assert_array_equal(color_jitter(colours[None], 1.0, 1.0, 1.0)[0],
                                      colours)

    def test_disabled_params_ignore_the_draws(self):
        images = random_image(16)[None]
        draws = AugmentDraws(u_flip_h=0.0, u_flip_v=0.0, rot_deg=7.0,
                             sat=1.05, bright=0.95, hue=1.02)
        out = augment(images, AugmentParams(enabled=False), [draws])
        np.testing.assert_array_equal(out, images)
        assert out is not images

    def test_both_flips_give_point_reflection(self):
        image = random_image(12)
        draws = AugmentDraws(u_flip_h=0.0, u_flip_v=0.0, rot_deg=0.0,
                             sat=1.0, bright=1.0, hue=1.0)
        out = augment(image[None], self.params, [draws])[0]
        np.testing.assert_array_equal(out, image[::-1, ::-1, :])

    def test_horizontal_flip_is_an_involution(self):
        image = random_image(13)
        draws = AugmentDraws(u_flip_h=0.0, u_flip_v=1.0, rot_deg=0.0,
                             sat=1.0, bright=1.0, hue=1.0)
        once = augment(image[None], self.params, [draws])
        twice = augment(once, self.params, [draws])
        np.testing.assert_array_equal(twice[0], image)

    def test_fixed_seed_bitwise_reproducible(self):
        image = random_image(14)
        out1 = augment(image[None], self.params,
                       [AugmentDraws.sample(np.random.default_rng(77))])
        out2 = augment(image[None], self.params,
                       [AugmentDraws.sample(np.random.default_rng(77))])
        np.testing.assert_array_equal(out1, out2)

    def test_draw_order_is_stable(self):
        d = AugmentDraws.sample(np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert d.u_flip_h == rng.random()
        assert d.u_flip_v == rng.random()
        assert d.rot_deg == rng.uniform(-10.0, 10.0)
        assert d.sat == rng.uniform(0.95, 1.05)
        assert d.bright == rng.uniform(0.95, 1.05)
        assert d.hue == rng.uniform(0.95, 1.05)

    def test_rotation_zero_fills_corners(self):
        image = np.full((21, 21, 3), 200, dtype=np.uint8)
        out = rotate(image[None], 45.0)[0]
        assert out.shape == image.shape
        assert out[0, 0].max() == 0 and out[-1, -1].max() == 0
        assert out[10, 10].min() > 0

    def test_color_jitter_ranges(self):
        image = random_image(15)
        out = color_jitter(image[None], sat=1.05, bright=0.95, hue=1.02)[0]
        assert out.dtype == np.uint8
        assert out.shape == image.shape

    def test_hsv_round_trip(self):
        rgb = np.random.default_rng(16).random((9, 9, 3))
        back = hsv_to_rgb(rgb_to_hsv(rgb))
        np.testing.assert_allclose(back, rgb, atol=1e-12)


unit = st.floats(0.0, 1.0)
hsv_factor = st.one_of(st.just(1.0), st.floats(0.8, 1.2))


@st.composite
def augment_draws(draw):
    """Draws that hit each short cut: no flip or both, a zero angle, and
    identity HSV factors, next to arbitrary values."""
    hsv = draw(st.one_of(st.just((1.0, 1.0, 1.0)),
                         st.tuples(hsv_factor, hsv_factor, hsv_factor)))
    return AugmentDraws(u_flip_h=draw(unit), u_flip_v=draw(unit),
                        rot_deg=draw(st.one_of(st.just(0.0), st.floats(-45.0, 45.0))),
                        sat=hsv[0], bright=hsv[1], hue=hsv[2])


@st.composite
def stacks(draw):
    """A B x H x W x 3 stack (B 1-5; odd, even, non-square and 1x1 extents)
    and one set of draws per image."""
    b = draw(st.integers(1, 5))
    h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    images = np.random.default_rng(seed).integers(0, 256, size=(b, h, w, 3),
                                                  dtype=np.uint8)
    return images, draw(st.lists(augment_draws(), min_size=b, max_size=b))


class TestStackedAugment:
    """Every image of a stacked call equals its call in a stack of one, bit
    for bit."""

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_augment(self, case):
        images, draws = case
        params = AugmentParams()
        out = augment(images, params, draws)
        assert out.shape == images.shape and out.dtype == np.uint8
        for image, d, got in zip(images, draws, out):
            np.testing.assert_array_equal(got, augment(image[None], params, [d])[0])

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_rotate(self, case):
        images, draws = case
        out = rotate(images, [d.rot_deg for d in draws])
        for image, d, got in zip(images, draws, out):
            np.testing.assert_array_equal(got, rotate(image[None], [d.rot_deg])[0])

    @settings(max_examples=60, deadline=None)
    @given(stacks())
    def test_color_jitter(self, case):
        images, draws = case
        out = color_jitter(images, [d.sat for d in draws], [d.bright for d in draws],
                           [d.hue for d in draws])
        for image, d, got in zip(images, draws, out):
            np.testing.assert_array_equal(
                got, color_jitter(image[None], d.sat, d.bright, d.hue)[0])

    def test_stack_leaves_its_input_alone(self):
        images = np.stack([random_image(20, 8, 6), random_image(21, 8, 6)])
        before = images.copy()
        draws = [AugmentDraws(0.0, 0.0, 9.0, 1.05, 0.95, 1.02)] * 2
        augment(images, AugmentParams(), draws)
        np.testing.assert_array_equal(images, before)

    def test_draw_count_must_match_stack(self):
        draws = [AugmentDraws(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)]
        with pytest.raises(ValueError, match="draws"):
            augment(np.zeros((2, 4, 4, 3), dtype=np.uint8), AugmentParams(), draws)

    def test_one_image_is_rejected(self):
        """The augmentation stages take stacks only; one image is a stack of one."""
        image = random_image(24, 8, 6)
        draw = AugmentDraws(1.0, 1.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="BxHxWx3"):
            augment(image, AugmentParams(), [draw])
        with pytest.raises(ValueError, match="BxHxWx3"):
            rotate(image, 0.0)
        with pytest.raises(ValueError, match="BxHxWx3"):
            color_jitter(image, 1.0, 1.0, 1.0)

    def test_per_image_kernels_reject_a_stack(self):
        images = np.stack([random_image(25, 8, 6)] * 2)
        with pytest.raises(ValueError, match="an HxWx3"):
            crop_roi(images, DiscDetection(3.0, 4.0, 2.0, 2.0, 0.9))
        with pytest.raises(ValueError, match="an HxWx3"):
            remove_background(images)
        with pytest.raises(ValueError, match="an HxWx3"):
            resize_bilinear(images, 4, 4)


class TestPpm:
    def test_round_trip(self, tmp_path):
        image = random_image(17, 13, 9)
        path = tmp_path / "x.ppm"
        write_ppm(path, image)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_header_comments_are_skipped(self, tmp_path):
        image = np.arange(2 * 2 * 3, dtype=np.uint8).reshape(2, 2, 3)
        raw = b"P6\n# a comment\n2 2\n# another\n255\n" + image.tobytes()
        path = tmp_path / "c.ppm"
        path.write_bytes(raw)
        np.testing.assert_array_equal(read_ppm(path), image)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="magic"):
            read_ppm(path)

    def test_truncated_raster_rejected(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00\x00")
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(path)

    @pytest.mark.parametrize("raw", [b"P6\n2 2\n", b"P6\n2 2 # no maxval\n", b""],
                             ids=["no-maxval", "comment-to-end", "empty"])
    def test_truncated_header_rejected(self, raw, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: truncated PPM header$"):
            read_ppm(path)

    @pytest.mark.parametrize("header,name", [
        (b"P6\n1_0 1\n255\n", "width"), (b"P6\n+2 1\n255\n", "width"),
        (b"P6\n2 x\n255\n", "height"), (b"P6\n2 1\n2_55\n", "maxval"),
        (b"P6\n2 \xd9\xa1\n255\n", "height"), (b"P6\n2 -1\n255\n", "height")],
        ids=["underscore", "plus", "letter", "maxval-underscore", "arabic-indic-digit",
             "minus"])
    def test_header_numbers_are_ascii_digits_only(self, header, name, tmp_path):
        path = tmp_path / "n.ppm"
        path.write_bytes(header + bytes(2 * 10 * 3))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: PPM {name} "
                                             f"must be ASCII decimal digits"):
            read_ppm(path)

    @pytest.mark.parametrize("image", [np.zeros((2, 2), np.uint8),
                                       np.zeros((2, 2, 4), np.uint8),
                                       np.zeros((1, 2, 2, 3), np.uint8),
                                       np.zeros((2, 2, 3))],
                             ids=["grey", "four-channel", "stack", "float"])
    def test_write_needs_one_hxwx3_uint8_image(self, image, tmp_path):
        path = tmp_path / "x.ppm"
        with pytest.raises(ValueError, match="HxWx3 uint8"):
            write_ppm(path, image)
        assert not path.exists()
