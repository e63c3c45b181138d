"""Interleaved A/B runs of the benchmark: a git ref against this checkout.

Usage (from the repository root)::

    python tools/ab.py --workload bank-screen --seed 11 --seconds 30 --pairs 10
    python tools/ab.py --ref 4a92f72 --workload all --seed 11 --seconds 30 --pairs 10
    python tools/ab.py --workload fullres-train --seed 1 --out BENCH_label.json

The base side is the committed tree of ``--ref`` (default ``HEAD~1``),
exported with ``git archive`` into a temporary directory that is removed on
exit; an interrupted run leaves nothing registered in ``.git``. The change
side is this checkout as it stands, uncommitted edits included. Each pair
runs ``perfbench/run.py --trace 0`` once on each side, each in its own
checkout and process, with the same arguments; the side that runs first
alternates from pair to pair, base first in the first pair.

Each run's result line (the benchmark's last line of output) is printed as
it finishes, and after each pair whether the artifact digests of the two
sides' ``record`` lines agree. Then, per end-to-end metric, the table gives
each side's median and quartiles over its runs, the pairs the change won
(ties count for neither), the gap between the medians relative to the base
median, the base's interquartile range, and a verdict:

- ``gain``: the change won at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the base's
  interquartile range;
- ``worse``: the change's median is worse than the base's by more than the
  metric's bound in ``BENCHMARK.json``;
- ``-``: neither.

With ``--out``, the same record is also written to a JSON file: the
arguments, every run's result line by side (``runs.base``, ``runs.change``,
in pair order), beside it the objects of that run's ``record`` lines, one
per workload (``records.base``, ``records.change``), and the table as one
object per metric (``summary``).

A warning is printed when ``perfbench/`` differs between the two sides, as
both should measure with the same benchmark code. Standard library only.
The exit code is 1 when a run failed or reported ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(ref: str, target: Path) -> None:
    """Write the committed tree of ``ref`` into ``target``."""
    archive = subprocess.run(["git", "archive", "--format=tar", ref], cwd=ROOT,
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(target)], input=archive, check=True)


def bench_files(root: Path) -> dict[str, bytes]:
    """The files of ``root``'s benchmark, by relative path."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted((root / "perfbench").rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def run_bench(root: Path, args) -> tuple[dict | None, list[dict]]:
    """One benchmark run in ``root``: its result line, or None if it failed,
    and the objects of its ``record`` lines (the environment, the timings
    before scaling and the artifact digest), one per workload run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        cwd=root, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    records = [json.loads(line.removeprefix("record ")) for line in lines
               if line.startswith("record ")]
    if proc.returncode != 0 or not lines:
        return None, records
    return json.loads(lines[-1]), records


def compare_digests(base: list[dict], change: list[dict]) -> str:
    """Whether two runs' ``record`` lines name the same artifact digests."""
    a, b = ([r["digest"] for r in records] for records in (base, change))
    return "agree" if a == b else f"differ: base {' '.join(a)}, change {' '.join(b)}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(base: list[dict], change: list[dict], specs: dict[str, dict]) -> list[tuple]:
    """One table row per metric the runs reported."""
    rows = [("metric", "base q1/median/q3", "change q1/median/q3", "wins",
             "gap", "base IQR", "verdict")]
    for name in base[0]["metrics"]:
        spec = specs[name.rsplit(".", 1)[-1]]
        lower = spec["better"] == "lower"
        a = [r["metrics"][name]["value"] for r in base]
        b = [r["metrics"][name]["value"] for r in change]
        qa, qb = quartiles(a), quartiles(b)
        wins = sum((y < x) if lower else (y > x) for x, y in zip(a, b))
        gap = (qb[1] - qa[1]) / qa[1] if qa[1] else float("nan")
        better_by = (qa[1] - qb[1]) if lower else (qb[1] - qa[1])
        if wins >= 0.9 * len(a) and better_by > qa[2] - qa[0]:
            verdict = "gain"
        elif (-gap if not lower else gap) > spec["bound"]:
            verdict = "worse"
        else:
            verdict = "-"
        rows.append((name, "/".join(f"{q:.4g}" for q in qa),
                     "/".join(f"{q:.4g}" for q in qb), f"{wins}/{len(a)}",
                     f"{gap:+.1%}", f"{qa[2] - qa[0]:.4g}", verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="ab", description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", default="HEAD~1")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", type=Path, help="also write the runs and the "
                        "table to this JSON file, such as BENCH_<label>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    specs = {m["name"]: m for m in json.loads((ROOT / "BENCHMARK.json").read_text())
             ["end_to_end"]}
    runs: dict[str, list[dict]] = {"base": [], "change": []}
    records: dict[str, list[list[dict]]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {"base": Path(tmp), "change": ROOT}
        export(args.ref, roots["base"])
        if bench_files(roots["base"]) != bench_files(ROOT):
            print(f"ab: warning: perfbench/ differs between {args.ref} and this checkout",
                  file=sys.stderr)
        for pair in range(args.pairs):
            order = ("base", "change") if pair % 2 == 0 else ("change", "base")
            for side in order:
                result, side_records = run_bench(roots[side], args)
                print(f"pair {pair + 1} {side}: {json.dumps(result)}", flush=True)
                if result is None or not result["correct"]:
                    print(f"ab: the {side} run of pair {pair + 1} failed", file=sys.stderr)
                    return 1
                runs[side].append(result)
                records[side].append(side_records)
            verdict = compare_digests(records["base"][-1], records["change"][-1])
            print(f"pair {pair + 1} digests {verdict}", flush=True)
    rows = summary(runs["base"], runs["change"], specs)
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    print(f"base {args.ref} vs this checkout: {args.workload}, seed {args.seed}, "
          f"{args.seconds} s runs, {args.pairs} pairs")
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
    if args.out:
        record = {"ref": args.ref, "workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "pairs": args.pairs, "runs": runs,
                  "records": records,
                  "summary": [dict(zip(rows[0], row)) for row in rows[1:]]}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
