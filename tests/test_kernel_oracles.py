"""Byte-for-byte oracles for the preprocessing kernels: every kernel in
``fundusvit.preprocess`` must return exactly the bytes of the straightforward
reference expression kept in ``helpers`` (channel reductions, np.unique +
np.isin, a full 2-D gather, np.choose), on the inputs where the fast paths
differ most from it: grey and black pixels, channel ties, dark regions on
every border, 1x1 and non-square images, up- and downsampling."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fundusvit.dataset import PreprocessOptions, prepare_input, read_manifest, to_unit
from fundusvit.detections import load_detection_file, select_roi
from fundusvit.ppm import read_ppm
from fundusvit.preprocess import (AugmentDraws, AugmentParams, augment, color_jitter,
                                  crop_roi, hsv_to_rgb, remove_background,
                                  resize_bilinear, rgb_to_hsv, rotate)
from fundusvit.synth import generate_dataset

from helpers import (reference_augment, reference_color_jitter, reference_hsv_to_rgb,
                     reference_remove_background, reference_resize_bilinear,
                     reference_rgb_to_hsv, reference_rotate)

# channel values that make ties, grey (spread 0) and black (max 0) pixels
# common, and sit on both sides of the default background threshold
PALETTE = np.array([0, 1, 9, 10, 11, 127, 128, 254, 255], dtype=np.uint8)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def pixels(draw, shape):
    """A uint8 array of ``shape`` (last axis 3): uniform noise, palette
    values, grey pixels, or bright specks on a near-black field."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["uniform", "palette", "grey", "dark"]))
    if kind == "uniform":
        return rng.integers(0, 256, shape, dtype=np.uint8)
    if kind == "palette":
        return PALETTE[rng.integers(0, len(PALETTE), shape)]
    if kind == "grey":
        return np.repeat(PALETTE[rng.integers(0, len(PALETTE), (*shape[:-1], 1))], 3,
                         axis=-1)
    image = rng.integers(0, 12, shape, dtype=np.uint8)
    image[rng.random(shape[:-1]) < 0.4] = 200
    return image


@st.composite
def images(draw, max_side=12):
    """One HxWx3 image, 1x1 and non-square extents included."""
    shape = (draw(st.integers(1, max_side)), draw(st.integers(1, max_side)), 3)
    return draw(pixels(shape))


@st.composite
def stacks(draw, max_side=10):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, max_side)),
             draw(st.integers(1, max_side)), 3)
    return draw(pixels(shape))


@st.composite
def framed_images(draw):
    """Bright pixels with a dark blob, and a dark line along each border of
    a drawn subset, so dark regions touch every border in turn."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    image = rng.integers(20, 256, (h, w, 3), dtype=np.uint8)
    image[rng.random((h, w)) < draw(st.floats(0.0, 0.7))] = rng.integers(0, 12, 3)
    for side in draw(st.sets(st.sampled_from(["top", "bottom", "left", "right"]))):
        line = {"top": np.s_[0], "bottom": np.s_[-1],
                "left": np.s_[:, 0], "right": np.s_[:, -1]}[side]
        image[line] = rng.integers(0, 10, 3)
    return image


taus = st.one_of(st.just(10), st.integers(0, 255))
angles = st.one_of(st.sampled_from([0.0, 90.0, -90.0, 180.0, 45.0]),
                   st.floats(-360.0, 360.0))
factors = st.one_of(st.just(1.0), st.floats(0.8, 1.2), st.floats(-3.0, 3.0),
                    st.floats(-1e6, 1e6))


class TestRemoveBackground:
    @settings(max_examples=150, deadline=None)
    @given(st.one_of(images(), framed_images()), taus)
    def test_matches_reference(self, image, tau):
        assert_same_bytes(remove_background(image, tau),
                          reference_remove_background(image, tau))

    def test_returns_a_new_array(self):
        image = np.full((4, 5, 3), 200, dtype=np.uint8)
        out = remove_background(image, 10)
        assert out is not image and not np.shares_memory(out, image)


class TestToUnit:
    def test_every_value_is_its_float64_quotient_rounded_to_float32(self):
        # the model's float32 input, once the float64 quotient it cast down
        values = np.arange(256, dtype=np.uint8)
        assert_same_bytes(to_unit(values),
                          (values.astype(np.float64) / 255.0).astype(np.float32))


class TestResize:
    @settings(max_examples=150, deadline=None)
    @given(images(), st.integers(1, 40), st.integers(1, 40))
    def test_matches_reference(self, image, th, tw):
        assert_same_bytes(resize_bilinear(image, th, tw),
                          reference_resize_bilinear(image, th, tw))

    def test_edges(self):
        # 1x1 both ways, identity, and upsampling, whose last column and row
        # are clipped onto the source edge with a weight of exactly 0
        rng = np.random.default_rng(3)
        for (h, w), (th, tw) in [((1, 1), (5, 3)), ((3, 9), (1, 1)), ((5, 7), (5, 7)),
                                 ((2, 3), (17, 4)), ((80, 80), (32, 32)),
                                 ((7, 5), (512, 512))]:
            image = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
            assert_same_bytes(resize_bilinear(image, th, tw),
                              reference_resize_bilinear(image, th, tw))


class TestHsv:
    TIES = np.array([[0, 0, 0], [5, 5, 5], [255, 255, 255], [255, 255, 0],
                     [10, 10, 3], [3, 10, 10], [10, 3, 10], [0, 255, 255],
                     [255, 0, 0], [0, 255, 0], [0, 0, 255], [1, 0, 0]], dtype=np.uint8)

    def test_ties_grey_and_black(self):
        rgb = self.TIES / 255.0
        assert_same_bytes(rgb_to_hsv(rgb), reference_rgb_to_hsv(rgb))
        hsv = reference_rgb_to_hsv(rgb)
        assert_same_bytes(hsv_to_rgb(hsv), reference_hsv_to_rgb(hsv))

    @settings(max_examples=100, deadline=None)
    @given(stacks())
    def test_round_trip_matches_reference(self, images):
        rgb = images / 255.0
        assert_same_bytes(rgb_to_hsv(rgb), reference_rgb_to_hsv(rgb))
        hsv = reference_rgb_to_hsv(rgb)
        assert_same_bytes(hsv_to_rgb(hsv), reference_hsv_to_rgb(hsv))

    @settings(max_examples=100, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 20), st.just(3)),
                  elements=st.floats(0.0, 1.0)))
    def test_arbitrary_unit_floats(self, values):
        # read as RGB, and as HSV with hue 1.0 (the seventh sector) allowed
        assert_same_bytes(rgb_to_hsv(values), reference_rgb_to_hsv(values))
        assert_same_bytes(hsv_to_rgb(values), reference_hsv_to_rgb(values))


class TestAugmentStages:
    @settings(max_examples=100, deadline=None)
    @given(stacks(), st.data())
    def test_color_jitter(self, images, data):
        sat, bright, hue = (data.draw(st.lists(factors, min_size=len(images),
                                               max_size=len(images)))
                            for _ in range(3))
        assert_same_bytes(color_jitter(images, sat, bright, hue),
                          reference_color_jitter(images, sat, bright, hue))
        assert_same_bytes(color_jitter(images[0][None], sat[0], bright[0], hue[0]),
                          reference_color_jitter(images[0][None], sat[0], bright[0], hue[0]))

    @settings(max_examples=100, deadline=None)
    @given(stacks(), st.data())
    def test_rotate(self, images, data):
        degrees = data.draw(st.lists(angles, min_size=len(images), max_size=len(images)))
        assert_same_bytes(rotate(images, degrees), reference_rotate(images, degrees))
        assert_same_bytes(rotate(images[0][None], degrees[0]),
                          reference_rotate(images[0][None], degrees[0]))

    @settings(max_examples=100, deadline=None)
    @given(stacks(), st.data())
    def test_augment(self, images, data):
        unit = st.floats(0.0, 1.0)
        params = AugmentParams(enabled=data.draw(st.booleans()))
        draws = [AugmentDraws(data.draw(unit), data.draw(unit), data.draw(angles),
                              data.draw(factors), data.draw(factors), data.draw(factors))
                 for _ in images]
        assert_same_bytes(augment(images, params, draws),
                          reference_augment(images, params, draws))


# the ends of the default draw ranges, a negative hue, a hue far from 1 and
# zero saturation, one factor set per image of a stack
FACTOR_SETS = np.array([(0.95, 0.95, 0.95), (1.05, 1.05, 1.05), (0.95, 1.05, 1.05),
                        (1.05, 0.95, 0.95), (1.0, 1.0, -3.7), (1.0, 1.0, 1e6),
                        (0.0, 1.0, 1.0)])


def test_color_jitter_matches_reference_across_the_colour_cube():
    # every 101st of the 2**24 8-bit colours (101 is prime, so each channel
    # takes all 256 values), each under every factor set
    code = np.arange(0, 1 << 24, 101)
    colours = np.stack([code >> 16, (code >> 8) & 255, code & 255], axis=-1).astype(np.uint8)
    stack = np.broadcast_to(colours, (len(FACTOR_SETS), *colours.shape)).reshape(
        len(FACTOR_SETS), -1, 1, 3)
    assert_same_bytes(color_jitter(stack, *FACTOR_SETS.T),
                      reference_color_jitter(stack, *FACTOR_SETS.T))


def test_floor_difference_is_numpys_remainder_bit_for_bit():
    # the kernels take h mod 1 as h - floor(h); numpy's remainder is the
    # reference's form
    tiny, ulp_below_1, ulp_below_6 = 5e-324, np.nextafter(1.0, 0.0), np.nextafter(6.0, 0.0)
    edges = np.array([0.0, 1e-300, tiny, ulp_below_1, ulp_below_6, 2.0 ** 52 - 0.5,
                      1e300, 1.0, 6.0, 0.5])
    x = np.concatenate([edges, -edges, np.random.default_rng(4).normal(0.0, 3.0, 10_000)])
    got, want = x - np.floor(x), np.remainder(x, 1.0)
    assert_same_bytes(got, want)
    assert not np.signbit(got[len(edges)])  # -0.0 gives +0.0
    assert got[len(edges) + 2] == 1.0  # -5e-324 rounds up to 1.0


def test_full_resolution_draw_range_ends_match_reference():
    # 512x512, the full-resolution input: rotation at both ends of the
    # default range and at a nearly zero angle, colour jitter at the ends of
    # the default factor ranges
    image = np.random.default_rng(8).integers(0, 256, (512, 512, 3), dtype=np.uint8)
    stack = np.broadcast_to(image, (3, *image.shape))
    degrees = [10.0, -10.0, 1e-9]
    assert_same_bytes(rotate(stack, degrees), reference_rotate(stack, degrees))
    ends = FACTOR_SETS[:2].T
    assert_same_bytes(color_jitter(stack[:2], *ends), reference_color_jitter(stack[:2], *ends))


def test_full_resolution_prepare_and_augment_match_reference(tmp_path):
    # one 512x512 synthetic fundus, prepared and augmented at 512x512
    manifest = generate_dataset(tmp_path / "data", n=1, seed=9, size=512)
    [row] = read_manifest(manifest)
    base = manifest.parent
    image = read_ppm(base / row.image_path)
    prep = PreprocessOptions()
    prepared, detection = prepare_input(image, row, base, prep, 512, 512)
    assert detection is not None
    assert detection == select_roi(load_detection_file(base / row.detection_path,
                                                       row.width, row.height))
    reference = reference_resize_bilinear(
        reference_remove_background(crop_roi(image, detection)), 512, 512)
    assert_same_bytes(prepared, reference)
    params = AugmentParams()
    draws = AugmentDraws(u_flip_h=0.2, u_flip_v=0.7, rot_deg=7.5, sat=1.04,
                         bright=0.96, hue=1.03)
    assert_same_bytes(augment(prepared[None], params, [draws]),
                      reference_augment(reference[None], params, [draws]))
