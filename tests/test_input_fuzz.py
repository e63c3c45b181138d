"""Fuzzing of the input bytes the CLI reads: a damaged PPM header or
detection file given to ``fundusvit infer``, or a damaged manifest given to
``train`` and ``eval``, ends in a documented exit code (0 to 3), never in a
traceback from the readers or the preprocessing kernels behind them."""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fundusvit import cli, kv
from fundusvit.checkpoint import save_checkpoint
from fundusvit.dataset import PreprocessOptions
from fundusvit.model import DualHeadViT, ModelConfig
from fundusvit.synth import generate_dataset

CFG = ModelConfig(height=32, width=32, patch=16, dim=8, depth=1, heads=2,
                  agg_hidden=4, mlp_hidden=8)
# bytes that keep a mutated header or detection line close to parsing
NEAR_MISS = st.sampled_from(b"0123456789 \t\n#-+.eP")


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A checkpoint, and the bytes of a good image and its detection file."""
    root = tmp_path_factory.mktemp("inputfuzz")
    manifest = generate_dataset(root / "data", n=1, seed=2, size=64)
    ckpt = root / "glaucoma.ckpt"
    save_checkpoint(ckpt, DualHeadViT(CFG, seed=0), PreprocessOptions(), "glaucoma")
    data = manifest.parent
    return (ckpt, (data / "images" / "img0000.ppm").read_bytes(),
            (data / "detections" / "img0000.txt").read_bytes())


@st.composite
def mutated(draw, data: bytes, span: int) -> bytes:
    """``data`` with one to four byte replacements, insertions or deletions
    in its first ``span`` bytes."""
    buf = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, min(span, len(buf))))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        byte = draw(st.one_of(NEAR_MISS, st.integers(0, 255)))
        if op == "insert":
            buf.insert(pos, byte)
        elif pos < len(buf):
            if op == "replace":
                buf[pos] = byte
            else:
                del buf[pos]
    return bytes(buf)


def infer(ckpt: Path, image: bytes, detection: bytes) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "x.ppm").write_bytes(image)
        (Path(tmp) / "x.txt").write_bytes(detection)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            return cli.main(["infer", "--checkpoint", str(ckpt),
                             "--image", str(Path(tmp) / "x.ppm"),
                             "--detection", str(Path(tmp) / "x.txt")])


def test_intact_inputs_infer(inputs):
    assert infer(*inputs) == 0


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_header_and_detection_end_in_an_exit_code(inputs, data):
    ckpt, image, detection = inputs
    header_end = image.index(b"255\n") + 4
    image = data.draw(st.one_of(st.just(image), mutated(image, header_end)))
    detection = data.draw(st.one_of(st.just(detection),
                                    mutated(detection, len(detection))))
    assert infer(ckpt, image, detection) in (0, 1, 2, 3)


@pytest.fixture(scope="module")
def manifest_inputs(tmp_path_factory):
    """A dataset directory and its manifest's bytes, a one-epoch training
    config that reads ``fuzz.tsv`` there, and a checkpoint to evaluate."""
    root = tmp_path_factory.mktemp("manifestfuzz")
    manifest = generate_dataset(root / "data", n=6, seed=2, size=64)
    ckpt = root / "glaucoma.ckpt"
    save_checkpoint(ckpt, DualHeadViT(CFG, seed=0), PreprocessOptions(), "glaucoma")
    config = root / "run.cfg"
    config.write_text("\n".join([*kv.dump("model", CFG), "train.epochs = 1",
                                 "train.batch_size = 4",
                                 f"paths.manifest = {manifest.parent / 'fuzz.tsv'}"]))
    return manifest.parent, manifest.read_bytes(), config, ckpt


def train_and_eval(inputs, manifest: bytes) -> tuple[int, int]:
    base, _, config, ckpt = inputs
    (base / "fuzz.tsv").write_bytes(manifest)
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return (cli.main(["train", "--config", str(config), "--out", out]),
                cli.main(["eval", "--checkpoint", str(ckpt),
                          "--manifest", str(base / "fuzz.tsv"),
                          "--out", str(Path(out) / "report.txt")]))


def test_intact_manifest_trains_and_evaluates(manifest_inputs):
    assert train_and_eval(manifest_inputs, manifest_inputs[1]) == (0, 0)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_manifest_train_and_eval_end_in_an_exit_code(manifest_inputs, data):
    manifest = manifest_inputs[1]
    codes = train_and_eval(manifest_inputs, data.draw(mutated(manifest, len(manifest))))
    assert set(codes) <= {0, 1, 2, 3}
