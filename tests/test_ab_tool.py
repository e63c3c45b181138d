"""``tools/ab.py``'s record: the interleaved pairs, the summary verdicts and
the ``--out`` JSON file, with the benchmark runs replaced by fixed result
lines (no checkout is exported and no benchmark runs)."""

import importlib.util
import json
import subprocess
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


def record_of(digest, workload="fullres-train"):
    return {"digest": digest, "workload": workload, "unscaled": {"setup_s": 0.5},
            "slowdown": {"setup": 1.1, "passes": 1.2}}


@pytest.fixture
def fake_runs(monkeypatch):
    """Base runs at 10 images/s and 100 ms, change runs 20% faster, with a
    little spread, each with one record line whose digest differs between
    the sides in the third pair only; the sides each call saw, in order."""
    calls = []
    counts = {"base": 0, "change": 0}

    def run_bench(root, args):
        side = "change" if root == ab.ROOT else "base"
        calls.append(side)
        i = counts[side]
        counts[side] += 1
        jitter = 0.01 * (i % 3)
        digest = "d1" if side == "change" and i == 2 else "d0"
        if side == "base":
            return result(10.0 + jitter, 100.0 - jitter), [record_of(digest)]
        return result(12.0 + jitter, 80.0 - jitter), [record_of(digest)]

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
    # each run's record line sits beside its result, in pair order
    assert record["records"]["base"] == [[record_of("d0")]] * 4
    assert [runs[0]["digest"] for runs in record["records"]["change"]] \
        == ["d0", "d0", "d1", "d0"]
    rows = {row["metric"]: row for row in record["summary"]}
    assert set(rows) == {"eval_images_per_s", "infer_ms_p50"}
    assert rows["eval_images_per_s"]["wins"] == "4/4"
    assert rows["eval_images_per_s"]["verdict"] == "gain"
    assert rows["infer_ms_p50"]["verdict"] == "gain"
    # the printed table carries the same rows
    printed = capsys.readouterr().out
    assert all(row["gap"] in printed for row in record["summary"])
    assert [line for line in printed.splitlines() if "digests" in line] == [
        "pair 1 digests agree", "pair 2 digests agree",
        "pair 3 digests differ: base d0, change d1", "pair 4 digests agree"]


def test_run_bench_keeps_each_record_line(monkeypatch):
    # fixed benchmark output: a table, then per workload a record line, then
    # the result line
    lines = ["metric  value", "record " + json.dumps(record_of("a1", "desk-train")),
             "record " + json.dumps(record_of("b2", "bank-screen")),
             json.dumps(result(10.0, 100.0))]

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout="\n".join(lines) + "\n")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    args = ab.argparse.Namespace(workload="all", seed=1, seconds=5)
    got, records = ab.run_bench(ab.ROOT, args)
    assert got == result(10.0, 100.0)
    assert records == [record_of("a1", "desk-train"), record_of("b2", "bank-screen")]
    assert ab.compare_digests(records, [record_of("a1"), record_of("b2")]) == "agree"
    assert ab.compare_digests(records, [record_of("a1"), record_of("b3")]) \
        == "differ: base a1 b2, change a1 b3"
    # a failed run keeps the record lines it printed, and no result
    monkeypatch.setattr(ab.subprocess, "run", lambda cmd, **kwargs:
                        subprocess.CompletedProcess(cmd, 1, stdout=lines[1] + "\n"))
    assert ab.run_bench(ab.ROOT, args) == (None, [record_of("a1", "desk-train")])


def test_a_worse_change_is_flagged(fake_runs):
    base, change = [result(10.0, 100.0)] * 3, [result(7.0, 130.0)] * 3
    specs = {"eval_images_per_s": {"better": "higher", "bound": 0.24},
             "infer_ms_p50": {"better": "lower", "bound": 0.24}}
    rows = ab.summary(base, change, specs)
    assert [row[-1] for row in rows[1:]] == ["worse", "worse"]
