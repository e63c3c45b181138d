"""Command-line surface: synth, preprocess, train, eval, infer.

Exit codes are a stable contract: 0 success, 1 usage, configuration or
unwritable-output error, 2 missing input, 3 checkpoint/configuration
incompatibility.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import kv
from .autodiff import NonFiniteError
from .atomic import write_atomic
from .checkpoint import IncompatibleCheckpointError, load_bank
from .config import ConfigError, RunConfig, effective_lines, load_config
from .dataset import (N_FEATURES, TASKS, ManifestRow, PreprocessOptions, load_input_image,
                      prepare_input, read_manifest, to_unit, write_manifest)
from .metrics import DEFAULT_FEATURE_THRESHOLD, evaluate
from .ppm import read_ppm, write_ppm
from .synth import generate_dataset
from .training import best_record, train_bank, train_task

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISSING_INPUT = 2
EXIT_INCOMPATIBLE = 3

_CHECKPOINT_HELP = "a train run's output directory (its model.ckpt) or a .ckpt file"


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fundusvit",
                     description="Glaucoma-screening pipeline: synthetic data, "
                                 "preprocessing, training, evaluation, inference.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    p.add_argument("--n", type=_integer, required=True, help="number of images, at least 1")
    p.add_argument("--seed", type=_integer, default=0,
                   help="seed of every image and detection, at least 0 (default 0)")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    p.add_argument("--size", type=_integer, default=128,
                   help="image side in pixels, at least 3 (default 128)")
    p.add_argument("--pos-fraction", type=_real, default=0.5,
                   help="share of referable images, in [0, 1] (default 0.5)")

    p = sub.add_parser("preprocess", help="apply crop/background/resize to a manifest")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--target", type=_integer, default=64)
    p.add_argument("--od-crop", type=_boolean, default=True)
    p.add_argument("--bg-removal", type=_boolean, default=True)

    p = sub.add_parser("train", help="train one task or the full 11-task bank")
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--seed", type=_integer, default=None)
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--od-crop", type=_boolean, default=None)
    p.add_argument("--bg-removal", type=_boolean, default=None)
    p.add_argument("--task", default=None, choices=[*TASKS, "bank"])

    p = sub.add_parser("eval", help="evaluate a checkpoint or bank on a manifest")
    p.add_argument("--checkpoint", type=Path, required=True, help=_CHECKPOINT_HELP)
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="report file")
    p.add_argument("--roc-out", type=Path, default=None)
    p.add_argument("--scores-out", type=Path, default=None,
                   help="dump raw per-image scores for cross-checking")
    p.add_argument("--threshold", type=_probability, default=DEFAULT_FEATURE_THRESHOLD,
                   help="feature-flag threshold in [0, 1]")

    p = sub.add_parser("infer", help="score one image")
    p.add_argument("--checkpoint", type=Path, required=True, help=_CHECKPOINT_HELP)
    p.add_argument("--image", type=Path, required=True)
    p.add_argument("--detection", type=Path, default=None,
                   help="normalized bbox text file for this image")
    return parser


def _option_type(parse):
    """``parse`` as an argparse type whose usage error is ``parse``'s own
    message, which names the accepted spelling; argparse would replace a
    ``ValueError``'s text with the function's name."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


_integer, _real, _boolean = map(_option_type, (kv.integer, kv.real, kv.boolean))


def _probability(text: str) -> float:
    value = _real(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not in [0, 1]")
    return value


def cmd_synth(args) -> int:
    manifest = generate_dataset(args.out, args.n, args.seed, size=args.size,
                                pos_fraction=args.pos_fraction)
    print(f"wrote {manifest}")
    return EXIT_OK


def cmd_preprocess(args) -> int:
    if args.target < 1:
        raise ValueError(f"--target must be at least 1, got {args.target}")
    rows = read_manifest(args.manifest)
    base = args.manifest.parent
    opts = PreprocessOptions(od_crop=args.od_crop, bg_removal=args.bg_removal)
    out_dir = args.out
    (out_dir / "images").mkdir(parents=True, exist_ok=True)
    new_rows = []
    for row in rows:
        image = load_input_image(row, base)
        prepared, detection = prepare_input(image, row, base, opts, args.target,
                                            args.target)
        if detection is None and opts.od_crop:
            print(f"{row.image_id}: fallback: full image", file=sys.stderr)
        write_ppm(out_dir / "images" / f"{row.image_id}.ppm", prepared)
        new_rows.append(replace(row, image_path=f"images/{row.image_id}.ppm",
                                width=args.target, height=args.target,
                                detection_path=None))
    write_manifest(out_dir / "manifest.tsv", new_rows)
    print(f"wrote {out_dir / 'manifest.tsv'}")
    return EXIT_OK


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if args.seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=args.seed))
    if args.task is not None:
        cfg = replace(cfg, train=replace(cfg.train, task=args.task))
    if args.od_crop is not None:
        cfg = replace(cfg, prep=replace(cfg.prep, od_crop=args.od_crop))
    if args.bg_removal is not None:
        cfg = replace(cfg, prep=replace(cfg.prep, bg_removal=args.bg_removal))
    if args.out is not None:
        cfg = replace(cfg, paths=replace(cfg.paths, out=str(args.out)))
    return cfg


def cmd_train(args) -> int:
    cfg = _apply_overrides(load_config(args.config), args)
    if cfg.paths.manifest is None:
        raise ConfigError("paths.manifest is not set")
    if cfg.paths.out is None:
        raise ConfigError("paths.out is not set (or pass --out)")
    manifest_path = Path(cfg.paths.manifest)
    if not manifest_path.is_absolute():
        manifest_path = args.config.parent / manifest_path
    rows = read_manifest(manifest_path)
    base = manifest_path.parent
    lines = effective_lines(cfg)
    if cfg.train.task == "bank":
        bank = train_bank(cfg.model, cfg.train, cfg.augment, cfg.prep, rows, base,
                          out_dir=cfg.paths.out, config_lines=lines)
        print(f"trained {len(bank.tasks)} tasks, skipped {len(TASKS) - len(bank.tasks)}")
    else:
        _, [history] = train_task(cfg.model, cfg.train, cfg.augment, cfg.prep, rows, base,
                                  out_dir=cfg.paths.out, config_lines=lines)
        best = best_record(history)
        print(f"task {cfg.train.task}: best_epoch={best.epoch} "
              f"best_val_metric={best.val_metric:.6f}")
    return EXIT_OK


def cmd_eval(args) -> int:
    bank = load_bank(args.checkpoint)
    rows = read_manifest(args.manifest)
    for path in filter(None, (args.out, args.roc_out, args.scores_out)):
        if path.is_dir():  # refused before any image is scored
            raise IsADirectoryError(f"output {path} is a directory")
        path.parent.mkdir(parents=True, exist_ok=True)
    report, g_scores, g_labels, f_scores, _ = evaluate(
        bank, rows, args.manifest.parent, threshold=args.threshold,
        collect_scores=True)
    report.write(args.out)
    if args.roc_out is not None:
        report.write_roc_table(args.roc_out)
    if args.scores_out is not None:
        lines = ["image_id\trg\tglaucoma_score\t" + "\t".join(TASKS[1:])]
        for i, row in enumerate(rows):
            feats = "\t".join(f"{v:.9f}" for v in f_scores[i])
            lines.append(f"{row.image_id}\t{g_labels[i]}\t{g_scores[i]:.9f}\t{feats}")
        write_atomic(args.scores_out, "\n".join(lines) + "\n")
    print(f"tpr_at_95={report.tpr_at_95:.6f} auc={report.auc:.6f} "
          f"nhd_mean={report.nhd_mean:.6f}")
    return EXIT_OK


def cmd_infer(args) -> int:
    bank = load_bank(args.checkpoint)
    if not args.image.is_file():
        raise FileNotFoundError(f"image not found: {args.image}")
    image = read_ppm(args.image)
    height, width = image.shape[:2]
    detection_path = None
    if args.detection is not None:
        if not args.detection.is_file():
            raise FileNotFoundError(f"detection file not found: {args.detection}")
        detection_path = str(args.detection.resolve())
    row = ManifestRow(image_id=args.image.stem, image_path=str(args.image.resolve()),
                      width=width, height=height, rg=0, features=(0,) * N_FEATURES,
                      detection_path=detection_path)
    prepared, detection = prepare_input(image, row, Path("/"), bank.prep,
                                        bank.config.height, bank.config.width)
    if bank.prep.od_crop and detection is None:
        print("fallback: full image", file=sys.stderr)
    scores = bank.stacked.predict(to_unit(prepared)[None])[:, 0]
    print("\n".join(f"{task} {score:.6f}" for task, score in zip(bank.tasks, scores)))
    return EXIT_OK


_COMMANDS = {
    "synth": cmd_synth,
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "eval": cmd_eval,
    "infer": cmd_infer,
}
# built once per process: parsing only reads it
_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"fundusvit: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"fundusvit: missing input: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except OSError as exc:  # e.g. an output path that is a file or a directory
        print(f"fundusvit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IncompatibleCheckpointError as exc:
        print(f"fundusvit: incompatible checkpoint: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    except (ValueError, NonFiniteError) as exc:
        print(f"fundusvit: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
