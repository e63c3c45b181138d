"""Benchmark for the fundusvit pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is the separate
traced run that reports the per-layer metrics. ``--workload all`` runs every
workload in a fresh process of its own. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it, starting with ``record``, holds the
environment, the seed, the sample counts and the artifact digest.

The exit code is 0 when a result was printed, 1 when the run could not
produce its metrics, 2 when the fundusvit sources are missing and 3 when the
trace wiring recorded no calls for a required layer.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("desk-train", "fullres-train", "bank-screen")

# (name, unit, better): the metrics a --trace 0 run reports and gates on.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "samples/s", "higher"),
    ("eval_images_per_s", "images/s", "higher"),
    ("infer_ms_p50", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("train_loss", "nats", "lower"),
]
# Printed and recorded, not gated. The 90th-percentile latency moves with
# the shared machine's slow spells from run to run; the screening quality
# depends on the seed far more than on the code, and can be 0.
UNGATED = [
    ("infer_ms_p90", "ms", "lower"),
    ("auc", "fraction", "higher"),
    ("tpr_at_95", "fraction", "higher"),
    ("nhd_mean", "fraction", "lower"),
    ("failed_frac", "fraction", "lower"),
]


# One BLAS thread, below nproc: a matmul's time then does not also depend on
# the state of a second shared vCPU.
BLAS_THREADS = 1


def _cap_threads() -> int:
    """Pin BLAS and OpenMP pools to ``BLAS_THREADS``; must run before numpy
    is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    return BLAS_THREADS


def _import_package() -> None:
    """Import fundusvit from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    if not (src / "fundusvit" / "__init__.py").is_file():
        raise ImportError(f"no fundusvit sources under {src}")
    sys.path.insert(0, str(src))
    import fundusvit
    if not Path(fundusvit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"fundusvit imported from {fundusvit.__file__}, not {src}")


def _environment(threads: int) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0))}


def _table(rows) -> str:
    widths = [max(len(str(r[i])) for r in rows) for i in range(len(rows[0]))]
    return "\n".join("  ".join(str(c).ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows)


def _fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def run_one(args) -> int:
    threads = _cap_threads()
    try:
        _import_package()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    import_s = time.perf_counter() - _START
    w = workloads.WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{w.name}-{os.getpid()}"
    try:
        result = workloads.measure(w, args.seed, args.seconds, bool(args.trace),
                                   import_s, workdir)
        if args.trace:
            values = result.per_layer()
            specs = tracing.PER_LAYER
        else:
            values = result.end_to_end()
            specs = END_TO_END
    except tracing.WiringError as exc:
        print(f"perfbench: trace wiring: {exc}", file=sys.stderr)
        return 3
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    problems = result.consistency_failures()
    failures = [f for p in result.passes for f in p.failures] + problems
    first = result.passes[0]
    ungated = dict(first.report, failed_frac=result.failed / result.attempted)
    if not args.trace:
        ungated["infer_ms_p90"] = values["infer_ms_p90"]

    print(f"workload {w.name}: {w.why}")
    print(f"seed {args.seed}, {len(result.passes)} passes "
          f"({len(result.timed)} timed, {len(result.traced)} traced)")
    if args.trace:
        spans = result.traced[0].spans
        busy = sum(s for _, s, _ in spans.values())
        rows = [("span", "calls", "self_s", "total_s", "self_share")]
        rows += [(name, calls, f"{self_s:.4f}", f"{total:.4f}", f"{self_s / busy:.1%}")
                 for name, (calls, self_s, total)
                 in sorted(spans.items(), key=lambda kv: -kv[1][1])]
        print(_table(rows))
    rows = [("metric", "value", "unit", "better")]
    rows += [(name, _fmt(values[name]), unit, better) for name, unit, better in specs]
    if not args.trace:
        rows += [(name, _fmt(ungated[name]), unit, f"{better} (not gated)")
                 for name, unit, better in UNGATED]
    print(_table(rows))
    for failure in failures:
        print(f"FAILED: {failure}")

    record = {
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": _environment(threads),
        "passes": len(result.passes), "timed_passes": len(result.timed),
        "traced_passes": len(result.traced),
        "infer_samples": sum(len(p.infer_ms) for p in result.timed),
        "digest": first.digest, "ungated": ungated,
    }
    if not args.trace:
        # what the clock read, before scaling to nominal machine speed
        record["unscaled"] = result.end_to_end(scaled=False)
        refs = [r for p in result.timed for r in p.ref_s]
        record["slowdown"] = {"setup": result.setup_slowdown,
                              "passes": result.run_slowdown,
                              "parts_ms": [1000.0 * statistics.median(r[i] for r in refs)
                                           for i in range(2)]}
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": result.attempted,
        "failed": result.failed + len(problems),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit, _ in specs},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {name} exited {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if code:
        return code
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
