"""The ``section.field = value`` text form of run configs, their log echo
and checkpoint headers: ``dump`` writes one line per dataclass field and
``build`` parses the values back by the fields' type hints. It imports
nothing from the package, so every module on the config -> training ->
checkpoint import chain can use it."""

from __future__ import annotations

import math
import typing
from dataclasses import fields
from functools import cache


def boolean(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    if isinstance(value, tuple):
        return ":".join(str(v) for v in value)
    return str(value)


def dump(section: str, obj) -> list[str]:
    return [f"{section}.{f.name} = {format_value(getattr(obj, f.name))}"
            for f in fields(obj)]


_hints = cache(typing.get_type_hints)


def _parse(hint, text: str):
    if hint is bool:
        return boolean(text)
    if hint is int:
        return int(text)
    if hint is float:
        value = float(text)
        if not math.isfinite(value):
            raise ValueError("not finite")
        return value
    if hint is str:
        return text
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        parts = text.split(":")
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} ':'-separated parts")
        return tuple(_parse(a, p) for a, p in zip(args, parts))
    if type(None) in args:
        if text == "none":
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _parse(inner, text)
    raise TypeError(f"no text form for {hint!r}")


def build(cls, section: str, raw: dict[str, str]):
    """``cls`` from ``{field: text}``; unknown fields and unparsable or
    non-finite values raise a ValueError naming ``section.field``."""
    hints = _hints(cls)
    kwargs = {}
    for name, text in raw.items():
        key = f"{section}.{name}"
        if name not in hints:
            raise ValueError(f"unknown config key {key!r}")
        try:
            kwargs[name] = _parse(hints[name], text)
        except ValueError as exc:
            raise ValueError(f"{key}: bad value {text!r} ({exc})") from None
    return cls(**kwargs)
