"""``tools/ab.py``'s record: the interleaved pairs, the summary verdicts and
the ``--out`` JSON file, with the benchmark runs replaced by fixed result
lines (no checkout is exported and no benchmark runs)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab)


def result(images_per_s, infer_ms):
    return {"correct": True,
            "metrics": {"eval_images_per_s": {"value": images_per_s},
                        "infer_ms_p50": {"value": infer_ms}}}


@pytest.fixture
def fake_runs(monkeypatch):
    """Base runs at 10 images/s and 100 ms, change runs 20% faster, with a
    little spread; the sides each call saw, in order."""
    calls = []
    counts = {"base": 0, "change": 0}

    def run_bench(root, args):
        side = "change" if root == ab.ROOT else "base"
        calls.append(side)
        i = counts[side]
        counts[side] += 1
        jitter = 0.01 * (i % 3)
        if side == "base":
            return result(10.0 + jitter, 100.0 - jitter)
        return result(12.0 + jitter, 80.0 - jitter)

    monkeypatch.setattr(ab, "export", lambda ref, target: None)
    monkeypatch.setattr(ab, "bench_files", lambda root: {})
    monkeypatch.setattr(ab, "run_bench", run_bench)
    return calls


def test_out_file_holds_every_run_and_the_table(tmp_path, fake_runs, capsys):
    out = tmp_path / "BENCH_x.json"
    assert ab.main(["--workload", "fullres-train", "--seed", "3", "--pairs", "4",
                    "--seconds", "5", "--out", str(out)]) == 0
    # the side that runs first alternates, base first
    assert fake_runs == ["base", "change", "change", "base"] * 2
    record = json.loads(out.read_text())
    assert {k: record[k] for k in ("ref", "workload", "seed", "seconds", "pairs")} \
        == {"ref": "HEAD~1", "workload": "fullres-train", "seed": 3, "seconds": 5,
            "pairs": 4}
    assert [len(record["runs"][side]) for side in ("base", "change")] == [4, 4]
    assert record["runs"]["change"][0] == result(12.0, 80.0)
    rows = {row["metric"]: row for row in record["summary"]}
    assert set(rows) == {"eval_images_per_s", "infer_ms_p50"}
    assert rows["eval_images_per_s"]["wins"] == "4/4"
    assert rows["eval_images_per_s"]["verdict"] == "gain"
    assert rows["infer_ms_p50"]["verdict"] == "gain"
    # the printed table carries the same rows
    printed = capsys.readouterr().out
    assert all(row["gap"] in printed for row in record["summary"])


def test_a_worse_change_is_flagged(fake_runs):
    base, change = [result(10.0, 100.0)] * 3, [result(7.0, 130.0)] * 3
    specs = {"eval_images_per_s": {"better": "higher", "bound": 0.24},
             "infer_ms_p50": {"better": "lower", "bound": 0.24}}
    rows = ab.summary(base, change, specs)
    assert [row[-1] for row in rows[1:]] == ["worse", "worse"]
