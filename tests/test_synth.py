"""Synthetic dataset generator tests: determinism, label bookkeeping, the
geometric contract between rendered discs and their recorded detections,
and the renderer's bytes and draws against the full-grid reference."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fundusvit.dataset import read_manifest
from fundusvit.detections import load_detection_file
from fundusvit.ppm import read_ppm
from fundusvit.preprocess import crop_roi, roi_side
from fundusvit.synth import generate_dataset, render_sample

from helpers import reference_render_sample


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_sha256(root: Path) -> str:
    """One sha256 over every file's relative path and bytes, in path order."""
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(f"{p.relative_to(root).as_posix()}\n".encode())
            h.update(p.read_bytes())
    return h.hexdigest()


class TestDeterminism:
    def test_same_seed_byte_identical_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, n=8, seed=7, size=96)
        generate_dataset(b, n=8, seed=7, size=96)
        assert tree_digest(a) == tree_digest(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate_dataset(a, n=4, seed=7, size=96)
        generate_dataset(b, n=4, seed=8, size=96)
        assert tree_digest(a) != tree_digest(b)


class TestLabels:
    def test_class_balance_is_exact(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=10, seed=1, size=64,
                                    pos_fraction=0.3)
        rows = read_manifest(manifest)
        assert sum(r.rg for r in rows) == 3
        assert len(rows) == 10

    def test_negatives_carry_no_features(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=10, seed=2, size=64)
        for row in read_manifest(manifest):
            if row.rg == 0:
                assert row.features == (0,) * 10

    def test_feature_rate_one_sets_all_flags_on_positives(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=6, seed=3, size=64,
                                    feature_rate=1.0)
        for row in read_manifest(manifest):
            if row.rg == 1:
                assert row.features == (1,) * 10

    @pytest.mark.parametrize("rate", [-0.1, 1.5, float("nan")])
    def test_feature_rate_outside_unit_interval_rejected(self, rate, tmp_path):
        with pytest.raises(ValueError, match="feature_rate"):
            generate_dataset(tmp_path / "data", n=2, seed=3, size=32, feature_rate=rate)
        assert not (tmp_path / "data").exists()


class TestGeometry:
    def test_every_detection_crop_contains_the_full_disc(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=10, seed=4, size=128)
        rows = read_manifest(manifest)
        for row in rows:
            dets = load_detection_file(tmp_path / row.detection_path,
                                       row.width, row.height)
            assert len(dets) == 1
            det = dets[0]
            image = read_ppm(tmp_path / row.image_path)
            crop = crop_roi(image, det)
            side = roi_side(det.w, det.h)
            assert crop.shape == (side, side, 3)
            # the disc (radius w/2 around its center) lies inside the crop:
            # the crop spans 1.5*(w+h)/2 = 3*w/2 on each side of the center
            assert side // 2 >= det.w / 2
            # the brightest pixels (disc body) survive the crop
            assert crop.max() >= image.max() - 1

    def test_disc_is_off_center(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=8, seed=5, size=128)
        rows = read_manifest(manifest)
        for row in rows:
            det = load_detection_file(tmp_path / row.detection_path,
                                      row.width, row.height)[0]
            center_dist = np.hypot(det.cx - 128 / 2, det.cy - 128 / 2)
            assert center_dist > 0.15 * 128

    def test_background_is_near_black(self, tmp_path):
        manifest = generate_dataset(tmp_path, n=2, seed=6, size=96)
        row = read_manifest(manifest)[0]
        image = read_ppm(tmp_path / row.image_path)
        corners = np.stack([image[0, 0], image[0, -1], image[-1, 0], image[-1, -1]])
        assert corners.max() < 10


class TestSizeBound:
    def test_smallest_sizes_write_loadable_detections(self, tmp_path):
        for size in range(3, 9):
            for seed in range(20):
                root = tmp_path / f"s{size}_{seed}"
                for row in read_manifest(generate_dataset(root, n=2, seed=seed, size=size)):
                    dets = load_detection_file(root / row.detection_path, size, size)
                    assert len(dets) == 1


FEATURE_FLAGS = {
    "none": lambda rng: np.zeros(10, dtype=int),
    "random": lambda rng: (rng.random(10) < 0.5).astype(int),
    "all": lambda rng: np.ones(10, dtype=int),
}


def assert_renders_like_reference(size, seed, positive, flags):
    features = FEATURE_FLAGS[flags](np.random.default_rng((seed, size)))
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    image, disc = render_sample(size, rng, positive, features)
    ref_image, ref_disc = reference_render_sample(size, ref_rng, positive, features)
    assert image.dtype == np.uint8 and image.shape == (size, size, 3)
    assert image.tobytes() == ref_image.tobytes(), (size, seed, positive, flags)
    assert disc == ref_disc
    assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRendererOracle:
    """Each cue painted on its bounding box gives the full-grid bytes, disc
    and generator state, including circles clipped by the image edge."""

    @pytest.mark.parametrize("flags", sorted(FEATURE_FLAGS))
    @pytest.mark.parametrize("positive", [False, True])
    def test_matches_reference(self, positive, flags):
        for size in [*range(3, 41), 64, 96, 128]:
            assert_renders_like_reference(size, 100 + size, positive, flags)

    def test_full_resolution_image_matches_reference(self):
        assert_renders_like_reference(512, 7, True, "random")

    def test_small_tree_bytes_are_pinned(self, tmp_path):
        generate_dataset(tmp_path, n=6, seed=11, size=24)
        assert tree_sha256(tmp_path) == \
            "91ae372ba9e86007bd44e53c1df35ddf85da56afa0653ec2a35957df941fb182"
