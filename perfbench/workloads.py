"""The benchmark's workloads and the closed loop that measures them.

Every workload runs the user's flow, one process and one client, each step
waiting for the previous one: train (one task, or the 11-task bank), score a
held-out manifest with ``metrics.evaluate``, then score single images with
``fundusvit infer``. The workloads differ in scale and bank size, so each
stresses a different layer:

* ``desk-train``: 32x32 inputs, 5 tokens; Python per-op dispatch in the
  engine dominates, and each image is prepared once.
* ``fullres-train``: 512x512 inputs, 1025 tokens; the N x N attention and
  per-pixel preprocessing and augmentation dominate, not op dispatch.
* ``bank-screen``: the 11-task bank at desk scale; preprocessing repeats
  once per task, and ``infer`` reloads 11 checkpoints per call.

All inputs are synthetic and derive from the workload seed. A pass is one
train + evaluate + infer round; every pass of a run repeats the same work
and must write the same bytes.

The end-to-end timings come from small units, not from whole passes: each
``train_task`` call (``train_bank`` makes one per task), each ``evaluate``
call on a two-class chunk of the held-out manifest, and each ``infer``
call. The shared machine's speed switches between states every few seconds
and drifts over minutes, so a fixed reference loop is timed between the
stages of every pass, and the run's timings are scaled by its speed; the
README gives the evidence.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fundusvit import checkpoint, cli, dataset, metrics, synth, training
from fundusvit.model import ModelConfig
from fundusvit.preprocess import AugmentParams

import tracing

DESK = ModelConfig(height=32, width=32, patch=16, dim=32, depth=2, heads=4,
                   agg_hidden=32, mlp_hidden=64)
SETUP_REPEATS = 5
# p90 needs at least ten samples beyond it
MIN_INFER_SAMPLES = 100
# never start another pass this long after the warm-up ended
HARD_STOP_S = 120.0
# Reported timings are scaled to a machine on which the two parts of
# reference_loop() take this long, about their medians on the 2-vCPU machine
# the benchmark was built on.
REF_NOMINAL_S = (0.0085, 0.016)
_REF_MATRIX = np.random.default_rng(0).random((48, 48))
# 16 MB gathered at random: outgrows the private caches, so this part slows
# when neighbours crowd the shared cache and memory bus.
_REF_TABLE = np.random.default_rng(1).random(1 << 21)
_REF_INDEX = np.random.default_rng(2).permutation(1 << 19)


def reference_loop() -> tuple[float, float]:
    """Seconds two fixed pieces of work take: interpreter work with small
    matmuls, and random memory reads. The shared machine slows each of them
    in its own busy spells, and the pipeline in both."""
    start = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    x = _REF_MATRIX
    for _ in range(300):
        x = np.tanh(x @ _REF_MATRIX * 0.01) + _REF_MATRIX
    middle = time.perf_counter()
    for _ in range(3):
        _REF_TABLE[_REF_INDEX].sum()
    _REF_TABLE.sum()
    return middle - start, time.perf_counter() - middle


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    model: ModelConfig
    source_size: int      # side of the synthetic source images
    n_images: int         # training manifest, split 4:1 into train/val
    n_heldout: int        # held-out manifest scored by evaluate
    epochs: int
    bank: bool            # train_bank (11 tasks) instead of train_task
    infer_per_pass: int   # infer CLI calls per pass
    min_infer: int        # infer samples a latency run collects at least


WORKLOADS = {w.name: w for w in [
    Workload("desk-train",
             "per-op dispatch bound: 32x32 inputs, 5 tokens, one task; each "
             "image is prepared once",
             DESK, 128, 30, 20, 2, False, 10, MIN_INFER_SAMPLES),
    Workload("fullres-train",
             "N x N attention and per-pixel preprocessing bound: 512x512 "
             "inputs, 1025 tokens, one task",
             ModelConfig.full_resolution(), 512, 5, 6, 1, False, 4, 0),
    Workload("bank-screen",
             "the 11-task bank at desk scale: per-task re-preparation, "
             "no-grad predict over 11 models, checkpoint reloads per infer",
             DESK, 128, 30, 20, 1, True, 20, MIN_INFER_SAMPLES),
]}

PREP = dataset.PreprocessOptions()
AUG = AugmentParams()


@dataclass
class Inputs:
    rows: list
    base: Path
    heldout: list
    heldout_base: Path


def heldout_seed(seed: int) -> int:
    return int(np.random.SeedSequence((seed, 0x4E1D)).generate_state(1)[0])


def make_inputs(w: Workload, seed: int, root: Path) -> Inputs:
    train_manifest = synth.generate_dataset(root / "train", w.n_images, seed,
                                            size=w.source_size)
    heldout_manifest = synth.generate_dataset(root / "heldout", w.n_heldout,
                                              heldout_seed(seed), size=w.source_size)
    return Inputs(dataset.read_manifest(train_manifest), train_manifest.parent,
                  dataset.read_manifest(heldout_manifest), heldout_manifest.parent)


@dataclass
class PassResult:
    traced: bool
    train_s: float = math.nan
    samples: int = 0
    train_units: list = field(default_factory=list)  # (samples, s) per train_task
    eval_units: list = field(default_factory=list)   # (images, s) per evaluate
    infer_ms: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)        # reference_loop() results
    train_loss: float = math.nan
    report: dict = field(default_factory=dict)
    digest: str = ""
    attempted: int = 0
    failures: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)
    spans: dict = field(default_factory=dict)   # name -> (calls, self_s, total_s)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def _digest(directory: Path) -> str:
    """sha256 over every artifact a pass wrote, by relative name."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode())
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _last_epoch_loss(directory: Path) -> float:
    """Mean last-epoch train loss over the task logs a pass wrote."""
    losses = []
    for log in sorted(directory.glob("*.log")):
        epochs = [line for line in log.read_text().splitlines()
                  if line.startswith("epoch=")]
        if epochs:
            losses.append(float(epochs[-1].split("train_loss=")[1].split()[0]))
    return float(np.mean(losses)) if losses else math.nan


@contextlib.contextmanager
def task_clock(seconds: list, ref_s: list):
    """Append the wall time of every ``train_task`` call, including the
    calls ``train_bank`` makes, to ``seconds``, and time the reference loop
    after each into ``ref_s``."""
    original = training.train_task

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - start)
            ref_s.append(reference_loop())

    training.train_task = timed
    try:
        yield
    finally:
        training.train_task = original


def eval_chunks(rows) -> list[list[int]]:
    """Held-out row indices in chunks of one positive and one negative;
    ``evaluate`` needs both classes. Rows left over join the chunks in turn."""
    pos = [i for i, r in enumerate(rows) if r.rg]
    neg = [i for i, r in enumerate(rows) if not r.rg]
    chunks = [[p, n] for p, n in zip(pos, neg)]
    if not chunks:
        raise ValueError("the held-out manifest needs both classes")
    for k, i in enumerate(pos[len(chunks):] + neg[len(chunks):]):
        chunks[k % len(chunks)].append(i)
    return chunks


def _train(w: Workload, seed: int, inputs: Inputs, out: Path) -> int:
    """Train into ``out``; returns the number of training samples seen."""
    cfg = training.TrainConfig(lr0=5e-4, epochs=w.epochs, batch_size=8, seed=seed)
    if w.bank:
        bank = training.train_bank(w.model, cfg, AUG, PREP, inputs.rows,
                                   inputs.base, out_dir=out)
        n_tasks = len(bank.models)
    else:
        training.train_task(w.model, cfg, AUG, PREP, inputs.rows, inputs.base,
                            out_dir=out)
        n_tasks = 1
    train_rows, _ = training.rebalance_and_split(
        inputs.rows, [r.rg for r in inputs.rows], cfg.n_nrg, cfg.split, seed)
    return w.epochs * len(train_rows) * n_tasks


def _infer_argv(out: Path, row, base: Path) -> list[str]:
    return ["infer", "--checkpoint", str(out), "--image", str(base / row.image_path),
            "--detection", str(base / row.detection_path)]


def _expected_infer_output(bank, g_scores, f_scores, i: int) -> str:
    """What ``fundusvit infer`` must print for held-out image ``i``: the
    in-process predictions ``evaluate`` made on the same prepared image."""
    lines = [f"glaucoma {g_scores[i]:.6f}"]
    lines += [f"feature{k + 1} {f_scores[i, k]:.6f}" for k in range(metrics.N_FEATURES)
              if f"feature{k + 1}" in bank.models]
    return "\n".join(lines) + "\n"


def run_pass(w: Workload, seed: int, inputs: Inputs, out: Path, index: int,
             tracer: tracing.Tracer | None) -> PassResult:
    """One train + evaluate + infer round; pass ``index`` picks which
    held-out images the infer calls score."""
    shutil.rmtree(out, ignore_errors=True)
    res = PassResult(traced=tracer is not None)
    n_infer = w.infer_per_pass
    picks = [(index * n_infer + j) % w.n_heldout for j in range(n_infer)]
    chunks = eval_chunks(inputs.heldout)
    res.attempted = 1 + len(chunks) + n_infer
    task_s: list[float] = []
    if tracer is None:
        res.ref_s.append(reference_loop())
    with tracer if tracer is not None else task_clock(task_s, res.ref_s):
        try:
            start = time.perf_counter()
            res.samples = _train(w, seed, inputs, out)
            # the reference loops run between tasks are not training time
            res.train_s = time.perf_counter() - start - sum(map(sum, res.ref_s[1:]))
        except Exception:
            traceback.print_exc()
            res.failures += ["train"] + ["evaluate"] * len(chunks) + ["infer"] * n_infer
            return res
        # every task trains on the same split, so each sees an equal share;
        # traced passes time no units
        if task_s:
            res.train_units = [(res.samples / len(task_s), s) for s in task_s]
        n = len(inputs.heldout)
        g_scores, f_scores = np.zeros(n), np.zeros((n, metrics.N_FEATURES))
        try:
            bank = checkpoint.load_bank(out)
            for chunk in chunks:
                rows = [inputs.heldout[i] for i in chunk]
                start = time.perf_counter()
                report, g, _, f, _ = metrics.evaluate(
                    bank, rows, inputs.heldout_base, collect_scores=True)
                res.eval_units.append((len(rows), time.perf_counter() - start))
                if report.n_samples != len(rows):
                    res.fail(f"evaluate: n_samples {report.n_samples} != {len(rows)}")
                g_scores[chunk], f_scores[chunk] = g, f
            report = metrics.evaluate_scores(
                [r.image_id for r in inputs.heldout], g_scores,
                [r.rg for r in inputs.heldout], f_scores,
                np.array([r.features for r in inputs.heldout]))
            report.write(out / "report.txt")
            if tracer is None:
                res.ref_s.append(reference_loop())
        except Exception:
            traceback.print_exc()
            res.failures += ["evaluate"] + ["infer: no reference scores"] * n_infer
            return res
        res.report = {"auc": report.auc, "tpr_at_95": report.tpr_at_95,
                      "nhd_mean": report.nhd_mean}
        for key, value in res.report.items():
            if not (math.isfinite(value) and 0.0 <= value <= 1.0):
                res.fail(f"evaluate: {key}={value} outside [0, 1]")
        for i in picks:
            row = inputs.heldout[i]
            stdout, stderr = io.StringIO(), io.StringIO()
            try:
                start = time.perf_counter()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = cli.main(_infer_argv(out, row, inputs.heldout_base))
                res.infer_ms.append(1000.0 * (time.perf_counter() - start))
            except Exception:
                traceback.print_exc()
                res.fail("infer: raised")
                continue
            expected = _expected_infer_output(bank, g_scores, f_scores, i)
            if code != 0:
                res.fail(f"infer {row.image_id}: exit {code}: {stderr.getvalue().strip()}")
            elif stdout.getvalue() != expected:
                res.fail(f"infer {row.image_id}: printed {stdout.getvalue()!r}, "
                         f"in-process predict gives {expected!r}")
        if tracer is None:
            res.ref_s.append(reference_loop())
    res.train_loss = _last_epoch_loss(out)
    if not math.isfinite(res.train_loss):
        res.fail(f"train: last-epoch loss {res.train_loss}")
    res.digest = _digest(out)
    if tracer is not None:
        tracer.check_wiring()
        res.layers = tracer.layer_metrics()
        res.spans = {name: (tracer.calls[name], tracer.self_s[name], tracer.total_s[name])
                     for name in tracer.self_s}
    return res


def _median_rate(passes: list) -> float:
    return statistics.median(p.samples / p.train_s for p in passes)


def slowdown(ref_s: list[tuple[float, float]]) -> float:
    """How many times slower than nominal the machine ran while ``ref_s``
    were taken: the larger slowdown of the two parts of the loop."""
    return max(statistics.median(r[i] for r in ref_s) / REF_NOMINAL_S[i]
               for i in range(2))


@dataclass
class RunResult:
    workload: Workload
    setup_s: float
    setup_slowdown: float
    passes: list          # every pass, warm-up first
    peak_rss_mb: float

    @property
    def timed(self) -> list:
        """Untraced passes after the warm-up; the end-to-end timings."""
        return [p for p in self.passes[1:] if not p.traced]

    @property
    def traced(self) -> list:
        return [p for p in self.passes if p.traced]

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(len(p.failures) for p in self.passes)

    def consistency_failures(self) -> list[str]:
        """Checks across passes: equal artifact bytes, and per-layer counts
        that repeat exactly between traced passes."""
        problems = []
        digests = {p.digest for p in self.passes if p.digest}
        if len(digests) > 1:
            problems.append(f"passes wrote different artifacts: {sorted(digests)}")
        counted = [{k: p.layers[k] for k in tracing.EXACT if k in p.layers}
                   for p in self.traced]
        if any(c != counted[0] for c in counted[1:]):
            problems.append("per-layer counts differ between traced passes")
        return problems

    @property
    def run_slowdown(self) -> float:
        return slowdown([r for p in self.timed for r in p.ref_s])

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Medians over the unit timings of the untraced passes. With
        ``scaled``, the timings are scaled to nominal machine speed by the
        slowdown over the timed passes, and set-up by its own slowdown."""
        timed = [p for p in self.timed if not p.failures]
        if not timed:
            raise RuntimeError("no timed pass completed without failures")
        k, k_setup = (self.run_slowdown, self.setup_slowdown) if scaled else (1.0, 1.0)
        infer = [ms / k for p in timed for ms in p.infer_ms]
        return {
            "setup_s": self.setup_s / k_setup,
            "train_samples_per_s": k * statistics.median(
                n / s for p in timed for n, s in p.train_units),
            "eval_images_per_s": k * statistics.median(
                n / s for p in timed for n, s in p.eval_units),
            "infer_ms_p50": float(np.percentile(infer, 50)),
            "infer_ms_p90": float(np.percentile(infer, 90)),
            "peak_rss_mb": self.peak_rss_mb,
            "train_loss": self.passes[0].train_loss,
        }

    def per_layer(self) -> dict[str, float]:
        traced = self.traced
        untraced = [p for p in self.passes[1:] if not p.traced] or self.passes[:1]
        out = {}
        for name in traced[0].layers:
            values = [p.layers[name] for p in traced]
            out[name] = values[0] if name in tracing.EXACT else statistics.median(values)
        out["trace.overhead"] = _median_rate(traced) / _median_rate(untraced)
        return out


def measure(w: Workload, seed: int, seconds: float, trace: bool, import_s: float,
            workdir: Path) -> RunResult:
    """Set up the inputs, then run passes in a closed loop for ``seconds``.

    The first pass is a warm-up; it is not timed and does not count towards
    ``seconds``. With ``trace`` the remaining passes alternate traced and
    untraced, so ``trace.overhead`` compares passes measured side by side.
    """
    setup_times, setup_refs = [], [reference_loop()]
    for k in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = make_inputs(w, seed, workdir / f"inputs{k}")
        setup_times.append(time.perf_counter() - start)
        setup_refs.append(reference_loop())
    setup_s = import_s + statistics.median(setup_times)

    out = workdir / "artifacts"
    passes = [run_pass(w, seed, inputs, out, 0, None)]
    begin = time.perf_counter()
    while True:
        tracer = tracing.Tracer() if trace and len(passes) % 2 == 1 else None
        passes.append(run_pass(w, seed, inputs, out, len(passes), tracer))
        now = time.perf_counter()
        if now - begin > HARD_STOP_S:
            break
        enough = len(passes) >= 3 if trace else (
            sum(len(p.infer_ms) for p in passes[1:]) >= w.min_infer)
        if enough and now - begin >= seconds:
            break
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return RunResult(w, setup_s, slowdown(setup_refs), passes, peak)
