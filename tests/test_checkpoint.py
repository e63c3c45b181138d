"""Checkpoint format tests: bit-exact round-trips, manifest structure,
incompatibility detection, and atomic artifact writes."""

import numpy as np
import pytest

from fundusvit import atomic
from fundusvit.atomic import write_atomic
from fundusvit.checkpoint import (IncompatibleCheckpointError, load_bank,
                                  load_checkpoint, save_checkpoint)
from fundusvit import model as model_module
from fundusvit.dataset import ManifestRow, PreprocessOptions, write_manifest
from fundusvit.metrics import evaluate_scores
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.ppm import write_ppm
from fundusvit.synth import generate_dataset

CFG = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1, heads=2,
                  agg_hidden=8, mlp_hidden=16)


def make_model(seed=0):
    return DualHeadViT(CFG, seed=seed, dtype=np.float32)


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        model = make_model(seed=4)
        prep = PreprocessOptions(od_crop=False, bg_removal=True, bg_tau=12,
                                 confidence_floor=0.3)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, prep, "feature3")
        loaded, loaded_prep, task = load_checkpoint(path)
        assert task == "feature3"
        assert loaded_prep == prep
        assert loaded.config == CFG
        for (na, ta), (nb, tb) in zip(model.named_parameters(),
                                      loaded.named_parameters()):
            assert na == nb
            assert ta.data.tobytes() == tb.data.tobytes()
        # a second save is byte-identical to the first
        path2 = tmp_path / "m2.ckpt"
        save_checkpoint(path2, loaded, loaded_prep, task)
        assert path.read_bytes() == path2.read_bytes()

    def test_load_draws_no_initial_values(self, tmp_path, monkeypatch):
        model = make_model(seed=5)
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")

        def no_draws(*args, **kwargs):
            raise AssertionError("load_checkpoint drew an initial value")

        monkeypatch.setattr(model_module, "_trunc_normal", no_draws)
        loaded, _, _ = load_checkpoint(path)
        for (_, ta), (_, tb) in zip(model.named_parameters(), loaded.named_parameters()):
            assert tb.data.dtype == np.float32
            assert ta.data.tobytes() == tb.data.tobytes()

    def test_header_structure(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")
        raw = path.read_bytes()
        header = raw[:raw.find(b"\n---\n")].decode("ascii").splitlines()
        assert header[0] == "fundusvit-checkpoint v1"
        assert any(line == "model.dim = 16" for line in header)
        assert any(line == "task = glaucoma" for line in header)
        tensor_lines = [l for l in header if l.startswith("tensor ")]
        assert len(tensor_lines) == len(model.named_parameters())
        assert tensor_lines[0].startswith("tensor patch_proj.weight 768x16 @ 0")
        # offsets are cumulative over little-endian float32 payloads
        offsets = [int(l.rsplit("@", 1)[1]) for l in tensor_lines]
        sizes = [4 * int(np.prod([int(d) for d in l.split(" ")[2].split("x")]))
                 for l in tensor_lines]
        assert offsets == [sum(sizes[:i]) for i in range(len(sizes))]


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "missing.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"not-a-checkpoint\n---\n")
        with pytest.raises(IncompatibleCheckpointError):
            load_checkpoint(path)

    def test_truncated_payload(self, tmp_path):
        model = make_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, PreprocessOptions(), "glaucoma")
        raw = path.read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(raw[:-32])
        with pytest.raises(IncompatibleCheckpointError, match="out of range"):
            load_checkpoint(tmp_path / "cut.ckpt")

    def test_unknown_task(self, tmp_path):
        model = make_model()
        with pytest.raises(ValueError):
            save_checkpoint(tmp_path / "x.ckpt", model, PreprocessOptions(), "foo")


class TestBank:
    def test_load_bank_from_directory(self, tmp_path):
        prep = PreprocessOptions()
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1), prep, "glaucoma")
        save_checkpoint(tmp_path / "feature1.ckpt", make_model(2), prep, "feature1")
        bank = load_bank(tmp_path)
        assert set(bank.models) == {"glaucoma", "feature1"}
        assert bank.config == CFG

    def test_single_file_bank(self, tmp_path):
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1),
                        PreprocessOptions(), "glaucoma")
        bank = load_bank(tmp_path / "glaucoma.ckpt")
        assert set(bank.models) == {"glaucoma"}

    def test_mixed_architectures_rejected(self, tmp_path):
        prep = PreprocessOptions()
        save_checkpoint(tmp_path / "glaucoma.ckpt", make_model(1), prep, "glaucoma")
        other = DualHeadViT(ModelConfig(height=32, width=32, patch=16, dim=32,
                                        depth=1, heads=2, agg_hidden=8),
                            seed=0, dtype=np.float32)
        save_checkpoint(tmp_path / "feature1.ckpt", other, prep, "feature1")
        with pytest.raises(IncompatibleCheckpointError, match="differs"):
            load_bank(tmp_path)

    def test_bank_without_glaucoma_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "feature1.ckpt", make_model(1),
                        PreprocessOptions(), "feature1")
        with pytest.raises(IncompatibleCheckpointError, match="glaucoma"):
            load_bank(tmp_path)

    def test_empty_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_bank(tmp_path)


class TestAtomicWrites:
    """A write that fails midway leaves the previous file and no temporary
    file behind."""

    @staticmethod
    def fail_midway(monkeypatch, only=""):
        """Writes to temporary files whose name holds ``only`` fail midway."""
        real_open = open

        class HalfWritten:
            def __new__(cls, path, *args, **kwargs):
                if only not in str(path):
                    return real_open(path, *args, **kwargs)
                return super().__new__(cls)

            def __init__(self, *args, **kwargs):
                self.fh = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError("no space left on device")

        monkeypatch.setattr(atomic, "open", HalfWritten, raising=False)

    def test_helper_replaces_whole_files(self, tmp_path):
        path = tmp_path / "a.txt"
        write_atomic(path, "first\n")
        write_atomic(path, b"second\n")
        assert path.read_bytes() == b"second\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]

    def test_failed_checkpoint_write_keeps_the_previous_checkpoint(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "glaucoma.ckpt"
        save_checkpoint(path, make_model(seed=1), PreprocessOptions(), "glaucoma")
        before = path.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, make_model(seed=2), PreprocessOptions(), "glaucoma")
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["glaucoma.ckpt"]

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path,
                                                           monkeypatch):
        report = evaluate_scores(["a", "b"], [0.9, 0.1], [1, 0], np.zeros((2, 10)),
                                 np.zeros((2, 10), dtype=int))
        path, roc = tmp_path / "report.txt", tmp_path / "roc.tsv"
        report.write(path)
        report.write_roc_table(roc)
        before = path.read_bytes(), roc.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError):
            report.write(path)
        with pytest.raises(OSError):
            report.write_roc_table(roc)
        assert (path.read_bytes(), roc.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["report.txt", "roc.tsv"]

    def test_failed_image_and_manifest_writes_keep_the_previous_files(self, tmp_path,
                                                                      monkeypatch):
        image, manifest = tmp_path / "a.ppm", tmp_path / "m.tsv"
        write_ppm(image, np.zeros((2, 3, 3), dtype=np.uint8))
        rows = [ManifestRow("a", "a.ppm", 3, 2, 0, (0,) * 10)]
        write_manifest(manifest, rows)
        before = image.read_bytes(), manifest.read_bytes()
        self.fail_midway(monkeypatch)
        with pytest.raises(OSError):
            write_ppm(image, np.ones((4, 4, 3), dtype=np.uint8))
        with pytest.raises(OSError):
            write_manifest(manifest, [])
        assert (image.read_bytes(), manifest.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.ppm", "m.tsv"]

    def test_failed_synth_detection_write_keeps_the_previous_file(self, tmp_path,
                                                                  monkeypatch):
        generate_dataset(tmp_path, n=1, seed=0, size=32)
        detection = tmp_path / "detections" / "img0000.txt"
        before = detection.read_bytes()
        self.fail_midway(monkeypatch, only=".txt.")
        with pytest.raises(OSError):
            generate_dataset(tmp_path, n=1, seed=1, size=32)
        assert detection.read_bytes() == before
        assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]
