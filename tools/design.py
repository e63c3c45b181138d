"""Print the design counts that every change tracks: source lines, options,
engine primitives and graph nodes per forward.

Usage (from the repository root)::

    python tools/design.py

It prints four counts:

- the lines of each module of ``src/fundusvit`` and their total, as
  ``wc -l`` counts them;
- options: the arguments of ``fundusvit.cli.build_parser()`` over every
  subcommand (``--help`` not counted) plus the fields of the sections of
  ``fundusvit.config.RunConfig``;
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


def count_arguments(parser: argparse.ArgumentParser) -> int:
    """Arguments of ``parser`` and of every subcommand parser under it,
    without the help flags."""
    total = 0
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            total += sum(count_arguments(p) for p in set(action.choices.values()))
        elif not isinstance(action, argparse._HelpAction):
            total += 1
    return total


def count_fields(config_cls: type) -> int:
    """Fields of each section dataclass that ``config_cls`` holds."""
    hints = typing.get_type_hints(config_cls)
    return sum(len(fields(hints[f.name])) for f in fields(config_cls))


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
    arguments, config_fields = count_arguments(cli.build_parser()), count_fields(RunConfig)
    print(f"options {arguments + config_fields} "
          f"({arguments} CLI arguments + {config_fields} config fields)")
    primitives = engine_primitives()
    print(f"engine primitives {len(primitives)}: {' '.join(primitives)}")
    print(f"nodes per forward and loss, ModelConfig() {nodes_per_forward()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
