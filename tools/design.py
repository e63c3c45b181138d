"""Print the design counts that every change tracks: source lines, options,
engine primitives and graph nodes per forward.

Usage (from the repository root)::

    python tools/design.py

It prints four counts:

- the lines of each module of ``src/fundusvit`` and their total, as
  ``wc -l`` counts them;
- options: the arguments of ``fundusvit.cli.build_parser()`` over every
  subcommand (``--help`` not counted) plus the fields of the sections of
  ``fundusvit.config.RunConfig``, then each option's name, one a line
  (``synth --n``, ..., ``model.height``, ...);
- engine primitives: the functions of ``fundusvit.autodiff`` that record a
  graph node through ``_result``;
- the op nodes (parameter leaves excluded) from the input images to the
  loss of one ``DualHeadViT(ModelConfig())`` forward and ``dual_bce_loss``,
  the count the benchmark reports as ``model.nodes_per_forward``.

Standard library and the package only; run it with ``src`` importable
(the package installed, or ``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import ast
import sys
import typing
from dataclasses import fields
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fundusvit"


def source_lines(src: Path = SRC) -> dict[str, int]:
    """Newline count of each module, by file name."""
    return {path.name: path.read_bytes().count(b"\n")
            for path in sorted(src.glob("*.py"))}


def argument_names(parser: argparse.ArgumentParser, prefix: str = "") -> list[str]:
    """Arguments of ``parser`` and of every subcommand parser under it,
    without the help flags, each by its first option string (or its dest,
    if positional) after the subcommand's name, as ``synth --n``; an alias
    of a subcommand is not counted again."""
    names = []
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = set()
            for command, sub in action.choices.items():
                if id(sub) not in seen:
                    seen.add(id(sub))
                    names += argument_names(sub, f"{prefix}{command} ")
        elif not isinstance(action, argparse._HelpAction):
            names.append(prefix + (action.option_strings or [action.dest])[0])
    return names


def field_names(config_cls: type) -> list[str]:
    """``section.field`` of each field of each section dataclass that
    ``config_cls`` holds."""
    hints = typing.get_type_hints(config_cls)
    return [f"{section.name}.{f.name}" for section in fields(config_cls)
            for f in fields(hints[section.name])]


def engine_primitives(path: Path = SRC / "autodiff.py") -> list[str]:
    """Module-level functions whose body calls ``_result``."""
    def records(node: ast.AST) -> bool:
        return any(isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
                   and n.func.id == "_result" for n in ast.walk(node))

    tree = ast.parse(path.read_text())
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef) and records(node)]


def nodes_per_forward(config=None) -> int:
    """Op nodes of one forward of one image plus its loss."""
    import numpy as np

    from fundusvit import autodiff
    from fundusvit.model import DualHeadViT, ModelConfig
    from fundusvit.training import dual_bce_loss

    config = ModelConfig() if config is None else config
    model = DualHeadViT(config, seed=0)
    images = np.full((1, config.height, config.width, 3), 0.5)
    loss = dual_bce_loss([[0]], model.forward(images))
    return sum(node.op != "leaf" for node in autodiff.trace(loss.total))


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    from fundusvit import cli
    from fundusvit.config import RunConfig

    lines = source_lines()
    width = max(map(len, lines))
    print("src/fundusvit lines")
    for name, count in lines.items():
        print(f"  {name:<{width}} {count:>5}")
    print(f"  {'total':<{width}} {sum(lines.values()):>5}")
    arguments, config_fields = argument_names(cli.build_parser()), field_names(RunConfig)
    print(f"options {len(arguments) + len(config_fields)} "
          f"({len(arguments)} CLI arguments + {len(config_fields)} config fields)")
    for name in arguments + config_fields:
        print(f"  {name}")
    primitives = engine_primitives()
    print(f"engine primitives {len(primitives)}: {' '.join(primitives)}")
    print(f"nodes per forward and loss, ModelConfig() {nodes_per_forward()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
