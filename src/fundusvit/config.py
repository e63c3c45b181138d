"""Flat key-value run configuration.

The config file is line-oriented ``key = value`` text (``#`` comments).
Unknown keys are rejected, and every effective value, defaults included, is
echoed into the run log so results stay re-derivable from the log and the
code's fixed constants, which are not echoed: the encoder's ReLU,
``Adam``'s moments, the augmentation ranges and ``BG_TAU`` of
``preprocess``, the detection ``CONFIDENCE_FLOOR``, ``INIT_STD``,
``PROB_CLAMP`` and ``LAYER_NORM_EPS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from pathlib import Path

from . import kv
from .dataset import PreprocessOptions
from .model import ModelConfig
from .preprocess import AugmentParams
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad key, value or structure in a run configuration."""


@dataclass(frozen=True)
class Paths:
    """Dataset manifest and output directory; ``none`` in the text form
    means unset."""

    manifest: str | None = None
    out: str | None = None


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentParams = field(default_factory=AugmentParams)
    prep: PreprocessOptions = field(default_factory=PreprocessOptions)
    paths: Paths = field(default_factory=Paths)


_SECTIONS = {f.name: f.default_factory for f in fields(RunConfig)}  # in field order


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    section_values: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key in seen:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        seen.add(key)
        section, _, name = key.partition(".")
        if section not in _SECTIONS or not name:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        section_values[section][name] = value
    try:
        return RunConfig(**{section: kv.build(cls, section, section_values[section])
                            for section, cls in _SECTIONS.items()})
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def effective_lines(cfg: RunConfig) -> list[str]:
    """Every effective value, defaults included, for log provenance."""
    return [line for section in _SECTIONS
            for line in kv.dump(section, getattr(cfg, section))]
