"""Outside-in tracing of the fundusvit pipeline for the benchmark.

Nothing in the package is instrumented. Instead, while a :class:`Tracer` is
installed, every public function the pipeline calls is replaced by a timing
wrapper under the exact name its caller looks it up by: ``model`` imported
``matmul`` from ``autodiff`` at import time, so wrapping
``fundusvit.autodiff.matmul`` alone would record nothing from the encoder;
the encoder's activation is looked up in ``model._ACTIVATIONS``, so that
dict entry is wrapped too.

Spans nest. A span's self time is its duration minus the time covered by
its child spans, so the self times of one pass add up to the traced time.
Counts that derive from shapes (FLOPs, bytes, graph nodes) are recorded at
the same call boundaries and repeat exactly from run to run.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter, defaultdict

from fundusvit import (autodiff, checkpoint, cli, dataset, metrics, model,
                       preprocess, training)

# Engine ops the pipeline calls, by metric name -> autodiff attribute.
OPS = {"matmul": "matmul", "add": "add", "mul": "mul", "softmax": "softmax",
       "layer_norm": "layer_norm", "narrow": "narrow", "concat": "concat",
       "transpose": "transpose", "relu": "relu", "log": "log", "clip": "clip",
       "sum": "tsum"}
# Ops ``model`` imported into its own namespace.
MODEL_OPS = ("matmul", "add", "mul", "softmax", "layer_norm", "narrow",
             "concat", "transpose", "relu")

# Layer-level spans every workload exercises; zero calls means the wiring
# missed a call site, and the traced run fails instead of reporting zeros.
REQUIRED_SPANS = ("model.forward", "model.predict", "autodiff.backward",
                  "dataset.prepare_input", "preprocess.augment",
                  "checkpoint.save_checkpoint", "checkpoint.load_bank",
                  "metrics.evaluate", "cli.main", "training.train",
                  "training.validation")

# (name, unit, better) for every per-layer metric, in report order.
PER_LAYER = [
    ("ppm.read_ppm.calls", "count", "lower"),
    ("ppm.read_ppm.s", "s", "lower"),
    ("detections.load_detection_file.calls", "count", "lower"),
    ("detections.load_detection_file.s", "s", "lower"),
    ("preprocess.crop_roi.s", "s", "lower"),
    ("preprocess.remove_background.s", "s", "lower"),
    ("preprocess.resize_bilinear.s", "s", "lower"),
    ("preprocess.augment.calls", "count", "lower"),
    ("preprocess.augment.s", "s", "lower"),
    ("preprocess.rotate.s", "s", "lower"),
    ("preprocess.color_jitter.s", "s", "lower"),
    ("dataset.prepare_input.calls", "count", "lower"),
    ("dataset.prepare_input.s", "s", "lower"),
    ("dataset.prepare_input.useful_ratio", "ratio", "higher"),
    ("model.forward.calls", "count", "lower"),
    ("model.forward.s", "s", "lower"),
    ("model.predict.calls", "count", "lower"),
    ("model.predict.s", "s", "lower"),
    ("model.aggregate_patches.s", "s", "lower"),
    ("model.nodes_per_forward", "count", "lower"),
    ("autodiff.backward.calls", "count", "lower"),
    ("autodiff.backward.s", "s", "lower"),
    *[(f"autodiff.{op}.{kind}", unit, "lower")
      for op in OPS for kind, unit in (("calls", "count"), ("s", "s"))],
    ("autodiff.matmul.flops", "flop", "lower"),
    ("autodiff.softmax.out_bytes", "B", "lower"),
    ("training.train.s", "s", "lower"),
    ("training.dual_bce_loss.s", "s", "lower"),
    ("training.Adam.step.calls", "count", "lower"),
    ("training.Adam.step.s", "s", "lower"),
    ("training.validation.s", "s", "lower"),
    ("checkpoint.save_checkpoint.calls", "count", "lower"),
    ("checkpoint.save_checkpoint.s", "s", "lower"),
    ("checkpoint.save_checkpoint.bytes", "B", "lower"),
    ("checkpoint.load_bank.calls", "count", "lower"),
    ("checkpoint.load_bank.s", "s", "lower"),
    ("checkpoint.load_checkpoint.calls", "count", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.overhead", "ratio", "higher"),
]

# Counts recorded by the after-hooks below rather than by span calls.
COUNTED = ("autodiff.matmul.flops", "autodiff.softmax.out_bytes",
           "checkpoint.save_checkpoint.bytes", "model.nodes_per_forward")

# Metrics that must repeat exactly between runs of the same seed.
EXACT = [name for name, unit, _ in PER_LAYER if unit in ("count", "flop", "B")] \
    + ["dataset.prepare_input.useful_ratio"]


class WiringError(RuntimeError):
    """A required span recorded no calls, or a call site is not what the
    tracer expects to wrap."""


def _predict_span(parent):
    # predict called from the training loop is the validation pass
    return "training.validation" if parent == "training.train" else "model.predict"


def _forward_span(parent):
    # the no-grad forward inside predict is part of the predict span
    return None if parent in ("model.predict", "training.validation") else "model.forward"


def _count_flops(tracer, parent, args, kwargs, out):
    a, b = args[0], args[1]
    tracer.counts["autodiff.matmul.flops"] += 2 * a.shape[0] * a.shape[1] * b.shape[1]


def _count_softmax_bytes(tracer, parent, args, kwargs, out):
    tracer.counts["autodiff.softmax.out_bytes"] += out.data.nbytes


def _count_checkpoint_bytes(tracer, parent, args, kwargs, out):
    tracer.counts["checkpoint.save_checkpoint.bytes"] += os.path.getsize(args[0])


def _count_graph_nodes(tracer, parent, args, kwargs, out):
    # op nodes from the input patches to the loss, parameter leaves excluded;
    # the graph is the same for every sample, so count it once
    if "model.nodes_per_forward" not in tracer.counts:
        tracer.counts["model.nodes_per_forward"] = sum(
            node.op != "leaf" for node in autodiff.trace(out.total))


def _count_checkpoint_loads(tracer, parent, args, kwargs, out):
    # counted without a span, so load_bank's self time keeps the file reads
    tracer.calls["checkpoint.load_checkpoint"] += 1


_PREPARE_SIG = inspect.signature(dataset.prepare_input)


def _count_training_prepares(tracer, parent, args, kwargs, out):
    if parent != "training.train":
        return
    bound = _PREPARE_SIG.bind(*args, **kwargs)
    tracer.train_prepares += 1
    tracer.train_images.add((str(bound.arguments["base_dir"]),
                             bound.arguments["row"].image_path))


def call_sites():
    """Every (owner, key, span, after-hook) the pipeline's calls go through.

    ``owner`` is a module or class (patched with setattr) or a dict
    (patched by item). ``span`` is a name, a function of the parent span's
    name, or None for a call that is counted by its hook but not timed.
    """
    sites = [
        (dataset, "read_ppm", "ppm.read_ppm", None),
        (cli, "read_ppm", "ppm.read_ppm", None),
        (dataset, "load_detection_file", "detections.load_detection_file", None),
        (dataset, "crop_roi", "preprocess.crop_roi", None),
        (dataset, "remove_background", "preprocess.remove_background", None),
        (dataset, "resize_bilinear", "preprocess.resize_bilinear", None),
        (training, "augment", "preprocess.augment", None),
        (preprocess, "rotate", "preprocess.rotate", None),
        (preprocess, "color_jitter", "preprocess.color_jitter", None),
        (training, "prepare_input", "dataset.prepare_input", _count_training_prepares),
        (cli, "prepare_input", "dataset.prepare_input", _count_training_prepares),
        # metrics.evaluate imports it from dataset at call time
        (dataset, "prepare_input", "dataset.prepare_input", _count_training_prepares),
        (model.DualHeadViT, "forward", _forward_span, None),
        (model.DualHeadViT, "predict", _predict_span, None),
        (model, "aggregate_patches", "model.aggregate_patches", None),
        (autodiff, "backward", "autodiff.backward", None),
        (training, "train_task", "training.train", None),
        (training, "train_bank", "training.train", None),
        (training, "dual_bce_loss", "training.dual_bce_loss", _count_graph_nodes),
        (training.Adam, "step", "training.Adam.step", None),
        (training, "save_checkpoint", "checkpoint.save_checkpoint",
         _count_checkpoint_bytes),
        (checkpoint, "load_bank", "checkpoint.load_bank", None),
        (cli, "load_bank", "checkpoint.load_bank", None),
        (checkpoint, "load_checkpoint", None, _count_checkpoint_loads),
        (metrics, "evaluate", "metrics.evaluate", None),
        (cli, "main", "cli.main", None),
    ]
    hooks = {"matmul": _count_flops, "softmax": _count_softmax_bytes}
    for op, attr in OPS.items():
        sites.append((autodiff, attr, f"autodiff.{op}", hooks.get(op)))
    for op in MODEL_OPS:
        sites.append((model, op, f"autodiff.{op}", hooks.get(op)))
    # the encoder looks its activation up in this dict, not in the module
    sites.append((model._ACTIVATIONS, "relu", "autodiff.relu", None))
    return sites


def _get(owner, key):
    return owner[key] if isinstance(owner, dict) else getattr(owner, key)


def _set(owner, key, value):
    if isinstance(owner, dict):
        owner[key] = value
    else:
        setattr(owner, key, value)


class Tracer:
    """Aggregates spans into calls, self seconds and outermost total
    seconds per span name, plus shape-derived counts."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.train_prepares = 0
        self.train_images: set = set()
        self._stack: list[list] = []
        self._restore: list = []

    def _wrap(self, fn, span, after):
        tracer = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            name = span(parent) if callable(span) else span
            if name is None:
                out = fn(*args, **kwargs)
            else:
                outermost = all(frame[0] != name for frame in stack)
                frame = [name, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    tracer.calls[name] += 1
                    tracer.self_s[name] += elapsed - frame[1]
                    if outermost:
                        tracer.total_s[name] += elapsed
                    if stack:
                        stack[-1][1] += elapsed
            if after is not None:
                after(tracer, parent, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", "traced")
        return traced

    def install(self) -> None:
        sites = call_sites()
        for owner, key, _, _ in sites:
            if hasattr(_get(owner, key), "__wrapped__"):
                raise WiringError(f"{key} is already wrapped")
        for op in MODEL_OPS:
            if getattr(model, op) is not getattr(autodiff, OPS[op]):
                raise WiringError(f"fundusvit.model.{op} is not autodiff.{OPS[op]}")
        for owner, key, span, after in sites:
            original = _get(owner, key)
            self._restore.append((owner, key, original))
            _set(owner, key, self._wrap(original, span, after))

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            _set(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def check_wiring(self) -> None:
        missing = [name for name in REQUIRED_SPANS if self.calls[name] == 0]
        if missing:
            raise WiringError("traced pass recorded no calls for: " + ", ".join(missing))

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead``."""
        out: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            if name == "trace.overhead":
                continue
            if name == "dataset.prepare_input.useful_ratio":
                out[name] = len(self.train_images) / max(self.train_prepares, 1)
            elif name in COUNTED:
                out[name] = self.counts[name]
            elif name.endswith(".calls"):
                out[name] = self.calls[name.removesuffix(".calls")]
            else:
                out[name] = self.self_s[name.removesuffix(".s")]
        return out
