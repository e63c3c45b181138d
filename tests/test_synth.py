"""Synthetic dataset generator tests: determinism, label bookkeeping and the
geometric contract between rendered discs and their recorded detections."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from fundusvit.dataset import read_manifest
from fundusvit.detections import load_detection_file
from fundusvit.ppm import read_ppm
from fundusvit.preprocess import crop_roi, roi_side
from fundusvit.synth import generate_dataset


def tree_digest(root: Path) -> dict[str, str]:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


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
