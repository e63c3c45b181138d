"""Golden hashes of the bank flow: a seeded synth, an 11-task desk-scale
``train`` whose config sets ``train.task = bank``, with augmentation on,
then ``eval``. The run's one checkpoint, every training log, the bank log
and the report are pinned by sha256, so a change that moves any artifact
byte fails here and has to say why."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fundusvit import cli

from helpers import openblas_core

# model.ckpt holds float32 sgemm bits, which differ between OpenBLAS kernels,
# so it has one pin per kernel, each made with numpy's bundled OpenBLAS under
# OPENBLAS_CORETYPE=<kernel>. The logs and the report print rounded values:
# their one pin in GOLDEN holds on every kernel.
CHECKPOINT = {
    "SkylakeX": "97e6abbd4a04318e36377b65c296a3b2759352e726101ca85ea22cefe5873bf8",
    "Haswell": "bded7e4d595cbce66bff9f42b5150f0c4ba689b0459b3b42e7cab428b297c7cd",
}
# the /proc/cpuinfo flag of the instruction set each pinned kernel runs on
KERNEL_FLAG = {"SkylakeX": "avx512f", "Haswell": "avx2"}

CONFIG = """\
model.height = 32
model.width = 32
model.patch = 16
model.dim = 16
model.depth = 1
model.heads = 2
model.agg_hidden = 8
model.mlp_hidden = 16
train.epochs = 2
train.batch_size = 4
train.seed = 5
train.lr0 = 0.001
train.task = bank
paths.manifest = data/manifest.tsv
paths.out = bank
"""

GOLDEN = {
    "bank.log":
        "338bc5922bbb2383a1ec4268194088262541ca0fb2718bad557cca4ba01e7f0f",
    "feature1.log":
        "1b75f549608c3a923c0a1fd6a377be8dcbd2435c038642b5d7ea77e614b23bd0",
    "feature10.log":
        "e569ba380677a5f0dfdc608789e089c2b1750618f6aff5483af80ec978164b0d",
    "feature2.log":
        "0ceb723091031010845273892ca53d1673699fa0d8127efe8aed58cacce43e31",
    "feature3.log":
        "ae868a978748602da3cd2eab58b6f6cde0c8cf9a615ceffe49a0ca5147edf05e",
    "feature4.log":
        "135b67baadc5285c665e828f04102fd9460af1163126c9e340ce7479d9da3e5d",
    "feature5.log":
        "c74afde4ab59249e21725c971954d4ae1f4c460fb2c6aadecc1d3dd89ec43a93",
    "feature6.log":
        "e46b024871a2151970bc3d18007463a70eea16217b932187e9991f8cc3eb6831",
    "feature7.log":
        "7adbc9de99b36c644d1eacb2362998b8404bb67689680070365013a7e02d6bad",
    "feature8.log":
        "e09d036cdb8e33e9fc265b1dabb6fc8565e862e76e0414b6620a4f40d3900df2",
    "feature9.log":
        "f456b9c3d84e09c0f98c32fcd6ea70acbe698920fe1da3266c112b5bf213993b",
    "glaucoma.log":
        "cdb5ee1d3903a35fe8d44fa9342c06dea814531aecb63ca24a51e12033b9517f",
    "report.txt":
        "f80edec9e11f6fbc19cb334ad21479c9ac07ecc27194ad5131ee3632ddc7bdab",
}


def bank_flow_digests() -> dict[str, str]:
    """Run the flow in the working directory; the sha256 of each artifact.
    Relative paths keep the echoed config, and so the logs, independent of
    where it runs."""
    assert cli.main(["synth", "--n", "20", "--seed", "7", "--out", "data",
                     "--size", "64"]) == 0
    Path("run.cfg").write_text(CONFIG)
    assert cli.main(["train", "--config", "run.cfg"]) == 0
    assert cli.main(["eval", "--checkpoint", "bank", "--manifest", "data/manifest.tsv",
                     "--out", "bank/report.txt"]) == 0
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(Path("bank").iterdir())}


def check_digests(digests: dict[str, str], core: str | None) -> None:
    """``digests`` against the pins of OpenBLAS kernel ``core``."""
    assert core in CHECKPOINT, (
        f"no model.ckpt pin for OpenBLAS kernel "
        f"{core or 'unknown (no scipy-openblas library)'}; pinned kernels: "
        f"{', '.join(CHECKPOINT)}")
    assert digests == {**GOLDEN, "model.ckpt": CHECKPOINT[core]}, (
        f"the model.ckpt pin is the {core} kernel's; a .log, bank.log or report.txt "
        f"mismatch is a regression on any kernel")


def test_bank_flow_artifacts_match_golden_hashes(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    check_digests(bank_flow_digests(), openblas_core())


def _cpu_flags() -> set[str]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    return {flag for line in text.splitlines() if line.startswith("flags")
            for flag in line.partition(":")[2].split()}


def test_every_pinned_kernel_this_cpu_runs_matches_its_pins(tmp_path):
    # OPENBLAS_CORETYPE acts on the process it is set for, so each kernel
    # runs the flow in its own interpreter
    flags = _cpu_flags()
    kernels = [core for core in CHECKPOINT if KERNEL_FLAG[core] in flags]
    if not kernels:
        pytest.skip("this CPU runs none of the pinned OpenBLAS kernels")
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(Path(cli.__file__).resolve().parents[1]), str(tests)])
    script = ("import json, test_golden, helpers\n"
              "digests = test_golden.bank_flow_digests()\n"
              "print(json.dumps([helpers.openblas_core(), digests]))\n")
    for core in kernels:
        (tmp_path / core).mkdir()
        env = {**os.environ, "OPENBLAS_CORETYPE": core, "PYTHONPATH": path}
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path / core, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        ran, digests = json.loads(done.stdout.splitlines()[-1])
        assert ran == core
        check_digests(digests, core)
