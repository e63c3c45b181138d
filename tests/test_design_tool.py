"""``tools/design.py``'s counts on stubs: a parser with subcommands, a
config of section dataclasses, a module of engine ops and a source tree."""

import argparse
import importlib.util
from dataclasses import dataclass, field
from pathlib import Path

from fundusvit import cli
from fundusvit.config import RunConfig
from fundusvit.model import ModelConfig

_SPEC = importlib.util.spec_from_file_location(
    "design", Path(__file__).resolve().parents[1] / "tools" / "design.py")
design = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(design)


def test_arguments_of_every_subcommand_without_help():
    parser = argparse.ArgumentParser(prog="stub")
    parser.add_argument("--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)
    one = sub.add_parser("one", aliases=["first"])
    one.add_argument("--n", type=int)
    one.add_argument("path")
    sub.add_parser("two").add_argument("--flag", action="store_true")
    sub.add_parser("three")
    assert design.argument_names(parser) == ["--verbose", "one --n", "one path",
                                             "two --flag"]


@dataclass(frozen=True)
class Left:
    a: int = 0
    b: float = 1.0


@dataclass(frozen=True)
class Right:
    c: str | None = None


@dataclass(frozen=True)
class Config:
    left: Left = field(default_factory=Left)
    right: Right = field(default_factory=Right)


def test_config_fields_are_counted_per_section():
    assert design.field_names(Config) == ["left.a", "left.b", "right.c"]


# Every option of the real command line and run config. An option added or
# removed changes this list, so the change shows in the diff.
OPTIONS = [
    "synth --n", "synth --seed", "synth --out", "synth --size", "synth --pos-fraction",
    "preprocess --manifest", "preprocess --out", "preprocess --target",
    "preprocess --od-crop", "preprocess --bg-removal",
    "train --config",
    "eval --checkpoint", "eval --manifest", "eval --out", "eval --roc-out",
    "eval --scores-out", "eval --threshold",
    "infer --checkpoint", "infer --image", "infer --detection",
    "model.height", "model.width", "model.patch", "model.dim", "model.depth",
    "model.heads", "model.agg_hidden", "model.mlp_hidden",
    "train.lr0", "train.lr_decay", "train.lr_decay_every", "train.batch_size",
    "train.epochs", "train.seed", "train.split", "train.task", "train.n_nrg",
    "augment.enabled",
    "prep.od_crop", "prep.bg_removal",
    "paths.manifest", "paths.out",
]


def test_the_options_of_the_command_line_and_the_run_config():
    names = design.argument_names(cli.build_parser()) + design.field_names(RunConfig)
    assert names == OPTIONS


def test_engine_primitives_are_the_functions_that_record_a_node(tmp_path):
    path = tmp_path / "ops.py"
    path.write_text("def _result(data, op, parents, vjp):\n    return data\n\n"
                    "def neg(a):\n    return _result(-a, 'neg', (a,), None)\n\n"
                    "def twice(a, scalar):\n"
                    "    if scalar:\n        return _result(2 * a, 'twice_s', (a,), None)\n"
                    "    return _result(a + a, 'twice', (a,), None)\n\n"
                    "def helper(a):\n    return neg(a)\n\n"
                    "class Box:\n    def op(self):\n        return _result(0, 'box', (), None)\n")
    assert design.engine_primitives(path) == ["neg", "twice"]


def test_source_lines_count_newlines_per_module(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "a.py").write_text("z = 3")
    (tmp_path / "notes.txt").write_text("not a module\n")
    assert design.source_lines(tmp_path) == {"a.py": 0, "b.py": 2}


def test_nodes_grow_by_one_block_per_depth():
    small = dict(height=32, width=32, patch=16, dim=16, heads=2, agg_hidden=8)
    one, two, three = (design.nodes_per_forward(ModelConfig(depth=d, **small))
                       for d in (1, 2, 3))
    assert 0 < one < two and two - one == three - two
