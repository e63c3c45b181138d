"""Golden hashes of the bank flow: a seeded synth, an 11-task desk-scale
``train --task bank`` with augmentation on, then ``eval``. The run's one
checkpoint, every training log, the bank log and the report are pinned by
sha256, so a change that moves any artifact byte fails here and has to say
why."""

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
    "SkylakeX": "4a3707f003c0ece6a4c144ae194426698e08be9604150fad93c5d5cb57c0106a",
    "Haswell": "ac8fcf0e65fe9598477f83ca4dce7ee97a98230aa34cbd55fe51bd55cd19509d",
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
        "696c8d86d67affabd3105de531267de4d98eef6f3f916c6ca94ea82d58cea157",
    "feature10.log":
        "891a06f9c99a18bffddb61093c55f1eba1f09b40561a349425b1c21f3d9c2964",
    "feature2.log":
        "8d2fb15f36889db0464df5f31d311d63b5eb5dab62395ba3a956afe41505c043",
    "feature3.log":
        "269e2fdf97cc60e453b9c7b141da19f27c9965cedcd01553048db2097e43a975",
    "feature4.log":
        "fa0b639840483506ec16aa67c0a09cdb4be5460a40efec295e1f05af06032193",
    "feature5.log":
        "a17f0e5c5e6082524ab90be63cbb2c5576d7b225afea2c42c36ab201234fcc02",
    "feature6.log":
        "9c65adb3322f7b63bf7949cb0ccbf2fbff7076665c6734fa300458454ef3e6cf",
    "feature7.log":
        "ec35ae56cb7cac5d66708a1ad79a2622ad325319efa8a5643866793c0415d55a",
    "feature8.log":
        "2f71a4ccbb46948f18d5e542c7698cf409ce7d741b9db744ae54d01d73a61355",
    "feature9.log":
        "abd882533849170d4d70dd374779de4001a29ab08e9788e1d3fbc680a627037d",
    "glaucoma.log":
        "d5bf1167345b38e8bf80a507fa79135a58a1a8e21dfd427bd0e7de978a84949d",
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
