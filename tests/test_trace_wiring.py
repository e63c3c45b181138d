"""The benchmark's outside-in tracer (``perfbench/tracing.py``) wraps
package functions under the names their callers look them up by. A renamed
function or a changed import in the package would leave a required span
with no calls and break ``python3 perfbench/run.py --trace 1``; this test
catches that without running the benchmark."""

import sys
from pathlib import Path

from fundusvit import checkpoint, cli, metrics, training
from fundusvit.dataset import PreprocessOptions, read_manifest
from fundusvit.model import ModelConfig
from fundusvit.preprocess import AugmentParams
from fundusvit.synth import generate_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

DESK = ModelConfig(height=32, width=32, patch=16, dim=16, depth=1, heads=2,
                   agg_hidden=8, mlp_hidden=16)


def test_traced_train_evaluate_infer_reach_every_required_span(tmp_path):
    manifest = generate_dataset(tmp_path / "data", n=10, seed=4, size=64)
    base, rows = manifest.parent, read_manifest(manifest)
    out = tmp_path / "run"
    tracer = tracing.Tracer()
    with tracer:
        training.train_task(DESK, training.TrainConfig(epochs=1, batch_size=4, seed=2),
                            AugmentParams(), PreprocessOptions(), rows, base,
                            out_dir=out)
        metrics.evaluate(checkpoint.load_bank(out), rows, base)
        assert cli.main(["infer", "--checkpoint", str(out),
                         "--image", str(base / rows[0].image_path),
                         "--detection", str(base / rows[0].detection_path)]) == 0
    tracer.check_wiring()
    # every training image is prepared exactly once, and counted as such
    assert tracer.train_prepares == len(tracer.train_images) == len(rows)
    assert tracer.calls["dataset.prepare_input"] == 2 * len(rows) + 1
    assert tracer.counts["model.nodes_per_forward"] > 0


def test_traced_bank_prepares_each_image_once(tmp_path):
    # the benchmark's bank-screen workload times each train_task call, one
    # per bank, and reads useful_ratio as prepared images per prepare
    manifest = generate_dataset(tmp_path / "data", n=10, seed=4, size=64)
    base, rows = manifest.parent, read_manifest(manifest)
    out = tmp_path / "bank"
    tracer = tracing.Tracer()
    with tracer:
        bank = training.train_bank(DESK, training.TrainConfig(epochs=1, batch_size=4,
                                                              seed=2),
                                   AugmentParams(), PreprocessOptions(), rows, base,
                                   out_dir=out)
        metrics.evaluate(checkpoint.load_bank(out), rows, base)
        assert cli.main(["infer", "--checkpoint", str(out),
                         "--image", str(base / rows[0].image_path),
                         "--detection", str(base / rows[0].detection_path)]) == 0
    tracer.check_wiring()
    assert tracer.train_prepares == len(tracer.train_images) == len(rows)
    assert tracer.layer_metrics()["dataset.prepare_input.useful_ratio"] == 1.0
    # the bank's own span plus one lockstep train_task span for all its tasks
    assert len(bank.models) == 11
    assert tracer.calls["training.train"] == 2
