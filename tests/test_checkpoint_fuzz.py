"""Fuzzing of checkpoint bytes through ``fundusvit infer`` on a bank's run
directory: whatever the damage, the command ends in a documented exit code
and never in a traceback. The bank is one file holding its task stack, so
every malformed file must be refused before the stack is built."""

import contextlib
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fundusvit import cli
from fundusvit.checkpoint import CHECKPOINT_NAME, _END, save_checkpoint
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
    """The checkpoint of a good three-member bank, and an image to score."""
    root = tmp_path_factory.mktemp("fuzz")
    manifest = generate_dataset(root / "data", n=2, seed=1, size=64)
    path = root / CHECKPOINT_NAME
    save_checkpoint(path, DualHeadViT.stack([DualHeadViT(CFG, seed=seed)
                                             for seed in range(len(TASKS))]),
                    PreprocessOptions(), TASKS)
    return path.read_bytes(), manifest.parent / "images" / "img0000.ppm"


def infer(data: bytes, image: Path) -> tuple[int, str]:
    """Run ``fundusvit infer`` on a run directory whose checkpoint holds
    ``data``: the exit code, and the error line, which must name the file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / CHECKPOINT_NAME
        path.write_bytes(data)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["infer", "--checkpoint", tmp, "--image", str(image)])
        if code == 3:
            assert f"incompatible checkpoint: {path}: " in err.getvalue()
        return code, err.getvalue()


def tasks_line(data: bytes, line: bytes) -> bytes:
    """``data`` with its tasks line replaced by ``line``."""
    start = data.index(b"\ntasks = ") + 1
    return data[:start] + line + data[data.index(b"\n", start):]


def test_intact_bank_infers(bank_bytes):
    data, image = bank_bytes
    assert infer(data, image)[0] == 0


@FUZZ
@given(cut=st.floats(0.0, 1.0, exclude_max=True))
def test_truncated_member_is_three(bank_bytes, cut):
    data, image = bank_bytes
    assert infer(data[:int(cut * len(data))], image)[0] == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@FUZZ
@given(where=st.floats(0.0, 1.0, exclude_max=True), mask=st.integers(1, 255),
       in_header=st.booleans())
def test_flipped_byte_never_escapes(bank_bytes, where, mask, in_header):
    data, image = bank_bytes
    data = bytearray(data)
    header = data.index(_END) + len(_END)
    at = int(where * header) if in_header else header + int(where * (len(data) - header))
    data[at] ^= mask
    # the format has no payload digest: a flipped weight that stays finite
    # is a valid, different model
    assert infer(bytes(data), image)[0] in (0, 1, 3)


@FUZZ
@given(member=st.sampled_from(TASKS), at=st.integers(0, len(TASKS) - 1))
def test_duplicated_member_is_three(bank_bytes, member, at):
    # a tasks line naming one member twice, in place of another member
    data, image = bank_bytes
    names = [*TASKS[:at], member, *TASKS[at + 1:]]
    if names == list(TASKS):
        names[(at + 1) % len(names)] = member
    assert infer(tasks_line(data, f"tasks = {' '.join(names)}".encode()), image)[0] == 3


@FUZZ
@given(names=st.lists(st.sampled_from([*TASKS, "feature11", "bank", "", "Glaucoma"]),
                      max_size=5))
def test_tasks_line_other_than_the_stack_is_three(bank_bytes, names):
    # unknown, repeated, out of order, empty, or a count that disagrees
    # with the tensor lines and the payload: each is refused, naming the file
    data, image = bank_bytes
    line = f"tasks = {' '.join(names)}".encode()
    assert infer(tasks_line(data, line), image)[0] == (0 if names == list(TASKS) else 3)


def test_non_finite_weight_is_refused(bank_bytes):
    data, image = bank_bytes
    data = bytearray(data)
    at = data.index(_END) + len(_END)
    data[at:at + 4] = np.array([np.nan], dtype="<f4").tobytes()
    assert infer(bytes(data), image)[0] == 3


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_weight_is_an_error_not_a_traceback(bank_bytes):
    # finite, so the loader takes it, but the forward pass overflows
    data, image = bank_bytes
    data = bytearray(data)
    at = data.index(_END) + len(_END)
    # the first member's patch projection, the head of the payload
    data[at:at + 4 * 768 * 8] = np.full(768 * 8, 3e38, dtype="<f4").tobytes()
    assert infer(bytes(data), image)[0] == 1
