"""Tests of the benchmark itself. From the root of the repository:

    python3 -m pytest perfbench/test_perfbench.py

The rerun test runs the desk-train workload twice (about 20 s).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from fundusvit import autodiff, dataset, model, training  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def test_benchmark_json_lists_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == tracing.PER_LAYER


def test_wrappers_sit_under_the_names_callers_look_up():
    originals = {
        "model.matmul": model.matmul,
        "autodiff.matmul": autodiff.matmul,
        "activation": model._ACTIVATIONS["relu"],
        "training.augment": training.augment,
        "training.prepare_input": training.prepare_input,
        "dataset.resize_bilinear": dataset.resize_bilinear,
    }
    with tracing.Tracer():
        assert model.matmul.__wrapped__ is originals["model.matmul"]
        assert autodiff.matmul.__wrapped__ is originals["autodiff.matmul"]
        assert model._ACTIVATIONS["relu"].__wrapped__ is originals["activation"]
        assert training.augment.__wrapped__ is originals["training.augment"]
        assert training.prepare_input.__wrapped__ is originals["training.prepare_input"]
        assert dataset.resize_bilinear.__wrapped__ is originals["dataset.resize_bilinear"]
    assert model.matmul is originals["model.matmul"]
    assert model._ACTIVATIONS["relu"] is originals["activation"]
    assert training.augment is originals["training.augment"]


def test_a_layer_with_no_calls_fails_the_traced_run():
    tracer = tracing.Tracer()
    with tracer:
        net = model.DualHeadViT(workloads.DESK)
        net.predict(np.zeros((32, 32, 3)))
    assert tracer.calls["model.predict"] == 1
    assert tracer.calls["model.forward"] == 0  # the no-grad forward is part of predict
    with pytest.raises(tracing.WiringError, match="model.forward"):
        tracer.check_wiring()


def test_rerun_repeats_artifact_digest_and_every_count():
    first_record, first = _result(_bench("--workload", "desk-train", "--seed", "7",
                                         "--seconds", "1", "--trace", "1"))
    second_record, second = _result(_bench("--workload", "desk-train", "--seed", "7",
                                           "--seconds", "1", "--trace", "1"))
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
    assert first_record["digest"] == second_record["digest"]
    for name in tracing.EXACT:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["dataset.prepare_input.useful_ratio"]["value"] == 1.0


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "desk-train", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
