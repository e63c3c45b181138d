"""The ``section.field = value`` text form of run configs, their log echo
and checkpoint headers: ``dump`` writes one line per dataclass field and
``build`` parses the values back by the fields' type hints. It imports
nothing from the package, so every module on the config -> training ->
checkpoint import chain can use it."""

from __future__ import annotations

import math
import re
import typing
from dataclasses import fields
from functools import cache


class KeyValueError(ValueError):
    """A ``section.field`` key that ``build`` refuses, or its value's text."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


def boolean(text: str) -> bool:
    """``true`` or ``false``, as ``format_value`` writes a flag."""
    if text in ("true", "false"):
        return text == "true"
    raise ValueError(f"expected true/false, got {text!r}")


def integer(text: str) -> int:
    """ASCII digits with an optional leading ``-``: no ``+``, ``_``,
    whitespace or non-ASCII digits, which ``int()`` would take."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"expected an integer, got {text!r}")
    return int(text)


def real(text: str) -> float:
    """A finite ASCII decimal, optionally with an exponent and a leading
    ``-``, as ``str(float)`` writes it; no leading ``+``, no ``_``, ``inf``
    or ``nan``."""
    if not re.fullmatch(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][-+]?[0-9]+)?", text):
        raise ValueError(f"expected a decimal number, got {text!r}")
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not finite")
    return value


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
        return integer(text)
    if hint is float:
        return real(text)
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
    non-finite values raise a ``KeyValueError`` naming ``section.field``."""
    hints = _hints(cls)
    kwargs = {}
    for name, text in raw.items():
        key = f"{section}.{name}"
        if name not in hints:
            raise KeyValueError(key, f"unknown config key {key!r}")
        try:
            kwargs[name] = _parse(hints[name], text)
        except ValueError as exc:
            raise KeyValueError(key, f"{key}: bad value {text!r} ({exc})") from None
    return cls(**kwargs)
