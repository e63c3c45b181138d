"""Fuzzing of checkpoint bytes through ``fundusvit infer`` on a bank
directory: whatever the damage, the command ends in a documented exit code
and never in a traceback. ``load_bank`` stacks the members into one task
stack, so every malformed member must be refused before that."""

import contextlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundusvit import cli
from fundusvit.checkpoint import save_checkpoint
from fundusvit.dataset import PreprocessOptions
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.synth import generate_dataset

CFG = ModelConfig(height=32, width=32, patch=16, dim=8, depth=1, heads=2,
                  agg_hidden=4, mlp_hidden=8)
TASKS = ("glaucoma", "feature1", "feature2")
FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


@pytest.fixture(scope="module")
def bank_bytes(tmp_path_factory):
    """The files of a good three-member bank, and an image to score."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = generate_dataset(root / "data", n=2, seed=1, size=64)
    files = {}
    for seed, task in enumerate(TASKS):
        path = root / f"{task}.ckpt"
        save_checkpoint(path, DualHeadViT(CFG, seed=seed), PreprocessOptions(), task)
        files[path.name] = path.read_bytes()
    return files, manifest.parent / "images" / "img0000.ppm"


def infer(files: dict[str, bytes], image: Path) -> int:
    """Run ``fundusvit infer`` on a bank directory holding ``files``."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            (Path(tmp) / name).write_bytes(data)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["infer", "--checkpoint", tmp, "--image", str(image)])


def test_intact_bank_infers(bank_bytes):
    files, image = bank_bytes
    assert infer(files, image) == 0


@FUZZ
@given(member=st.sampled_from(TASKS), cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_member_is_three(bank_bytes, member, cut):
    files, image = bank_bytes
    data = files[f"{member}.ckpt"]
    assert infer({**files, f"{member}.ckpt": data[:int(cut * len(data))]}, image) == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@FUZZ
@given(member=st.sampled_from(TASKS), where=st.floats(0.0, 1.0, exclude_max=True),
       mask=st.integers(1, 255), in_header=st.booleans())
def test_flipped_byte_never_escapes(bank_bytes, member, where, mask, in_header):
    files, image = bank_bytes
    data = bytearray(files[f"{member}.ckpt"])
    header = data.index(b"\n---\n") + 5
    at = int(where * header) if in_header else header + int(where * (len(data) - header))
    data[at] ^= mask
    # the format has no payload digest: a flipped weight that stays finite
    # is a valid, different model
    assert infer({**files, f"{member}.ckpt": bytes(data)}, image) in (0, 1, 3)


@FUZZ
@given(member=st.sampled_from(TASKS), name=st.sampled_from(["copy.ckpt", "zz.ckpt",
                                                            "a.ckpt"]))
def test_duplicated_member_is_three(bank_bytes, member, name):
    files, image = bank_bytes
    assert infer({**files, name: files[f"{member}.ckpt"]}, image) == 3


@pytest.mark.parametrize("change", ["config", "prep"])
def test_member_with_other_settings_is_three(bank_bytes, tmp_path, change):
    files, image = bank_bytes
    model_cfg = replace(CFG, dim=16) if change == "config" else CFG
    prep = PreprocessOptions(bg_tau=21) if change == "prep" else PreprocessOptions()
    odd = tmp_path / "feature2.ckpt"
    save_checkpoint(odd, DualHeadViT(model_cfg, seed=5), prep, "feature2")
    assert infer({**files, "feature2.ckpt": odd.read_bytes()}, image) == 3


def test_non_finite_weight_is_refused(bank_bytes):
    files, image = bank_bytes
    data = bytearray(files["feature1.ckpt"])
    at = data.index(b"\n---\n") + 5
    data[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    assert infer({**files, "feature1.ckpt": bytes(data)}, image) == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_weight_is_an_error_not_a_traceback(bank_bytes):
    # finite, so the loader takes it, but the forward pass overflows
    files, image = bank_bytes
    data = bytearray(files["feature1.ckpt"])
    at = data.index(b"\n---\n") + 5
    data[at:at + 4 * 768 * 8] = np.full(768 * 8, 3e38, dtype="<f4").tobytes()
    assert infer({**files, "feature1.ckpt": bytes(data)}, image) == 1
