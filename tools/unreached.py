"""Print the statements of ``src/fundusvit`` that a command never runs.

Usage (from the repository root)::

    python tools/unreached.py python -m pytest -q
    python tools/unreached.py python -m fundusvit.cli infer --checkpoint bank --image x.ppm
    python tools/unreached.py python perfbench/run.py --workload desk-train --seed 1

The command runs in a child process whose ``PYTHONPATH`` starts with a
generated ``sitecustomize`` and with ``src``. Every Python process the
command starts (pytest, the subprocesses tests spawn, a ``fundusvit``
console script) installs a ``sys.settrace`` hook at startup. The hook
follows only frames whose code lives under the source directory, records
each line they run, and writes the lines to a file when the process exits.
This tool merges those files and prints, per module, each statement whose
own lines never ran: all lines of a simple statement, the header of a
compound one, or an ``except`` clause. Lines with no bytecode, such as
docstrings inside functions and ``else:``, are not counted.

It lists statements, not branches. A statement that ran counts as reached
even if one side of it never ran, so the untaken side of a one-line
``x if c else y`` or ``a or b`` is never listed, and a run that lists
nothing can still leave such a side unreached.
Standard library only. It exits with the command's exit code.

Not seen: processes that end through ``os._exit``, forked children, and
interpreters started with ``-S`` or ``-I``. The generated ``sitecustomize``
shadows any other one on the path.

Tracing slows Python code severalfold, and runtime budgets are not raised
for it: a budgeted test can fail under the tool while the statements it
ran are still recorded. Tier-1's ``test_02`` (gradient suite, 60 s budget,
about 21 s untraced) goes over its budget when traced: it took 69 s in one
traced tier-1 run on a 2-core machine, and 52 s in another. Read reach
from a traced run and timings from an untraced one. This tool is not part
of tier-1.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "fundusvit"
_ENV_SRC = "UNREACHED_SRC"
_ENV_OUT = "UNREACHED_OUT"

# imported at startup by every Python process of the command
_SITECUSTOMIZE = f'''
import atexit, json, os, sys, threading

_src = os.environ.get("{_ENV_SRC}")
_out = os.environ.get("{_ENV_OUT}")
_ours = {{}}
_hits = {{}}


def _local(frame, event, arg):
    if event == "line":
        _hits[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    ours = _ours.get(name)
    if ours is None:
        ours = _ours[name] = os.path.abspath(name).startswith(_src + os.sep)
        if ours:
            _hits.setdefault(name, set())
    return _local if ours else None


def _dump():
    sys.settrace(None)
    lines = {{}}
    for name, seen in _hits.items():
        lines.setdefault(os.path.abspath(name), set()).update(seen)
    with open(os.path.join(_out, f"reach-{{os.getpid()}}.json"), "w") as fh:
        json.dump({{name: sorted(seen) for name, seen in lines.items()}}, fh)


if _src and _out:
    atexit.register(_dump)
    threading.settrace(_global)
    sys.settrace(_global)
'''


def run_traced(command: list[str], src: Path) -> tuple[int, dict[str, set[int]]]:
    """Run ``command`` with every Python process traced; return its exit
    code and the lines run per source file (absolute paths)."""
    with tempfile.TemporaryDirectory(prefix="unreached-") as tmp:
        Path(tmp, "sitecustomize.py").write_text(_SITECUSTOMIZE)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [tmp, str(src.parent), *filter(None, [env.get("PYTHONPATH")])])
        env[_ENV_SRC], env[_ENV_OUT] = str(src), tmp
        code = subprocess.call(command, env=env)
        hits: dict[str, set[int]] = {}
        for dump in Path(tmp).glob("reach-*.json"):
            for name, lines in json.loads(dump.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    return code, hits


def _code_lines(code) -> set[int]:
    """The lines that carry bytecode in ``code`` and every code object in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node) -> range:
    """A simple statement's lines, or a compound statement's header (its
    decorators included), up to the first statement of its body."""
    first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(first, max(body[0].lineno, first + 1))
    return range(first, node.end_lineno + 1)


def unreached(path: Path, hits: set[int]) -> tuple[int, list[tuple[int, str]]]:
    """The number of statements in ``path`` that carry bytecode, and the
    (line, first source line) of each of them that never ran."""
    source = path.read_text()
    executable = _code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    counted, missed = 0, []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.ExceptHandler)):
            continue
        lines = set(_own_lines(node))
        if not lines & executable:
            continue
        counted += 1
        if not lines & hits:
            missed.append((node.lineno, text[node.lineno - 1].strip()))
    return counted, sorted(missed)


def main(command: list[str]) -> int:
    if not command or command[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if command else 1
    code, hits = run_traced(command, SRC)
    total = never = 0
    print(f"\nstatements of {SRC} never run by: {' '.join(command)}")
    for path in sorted(SRC.rglob("*.py")):
        counted, missed = unreached(path, hits.get(str(path), set()))
        total, never = total + counted, never + len(missed)
        print(f"{os.path.relpath(path)}: {len(missed)} of {counted} never run")
        for line, stmt in missed:
            print(f"  {line}: {stmt}")
    print(f"total: {never} of {total} statements never run; command exited {code}")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
