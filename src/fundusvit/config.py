"""Flat key-value run configuration.

The config file is line-oriented ``key = value`` text (``#`` comments).
Unknown keys are rejected, and every effective value, defaults included, is
echoed into the run log so results stay re-derivable from the log alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from . import kv
from .dataset import PreprocessOptions
from .model import ModelConfig
from .preprocess import AugmentParams
from .training import TrainConfig


class ConfigError(ValueError):
    """Bad key, value or structure in a run configuration."""


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    augment: AugmentParams = field(default_factory=AugmentParams)
    prep: PreprocessOptions = field(default_factory=PreprocessOptions)
    augment_enabled: bool = True
    manifest: str | None = None
    out_dir: str | None = None


_SECTIONS = {
    "model": ModelConfig,
    "train": TrainConfig,
    "augment": AugmentParams,
    "prep": PreprocessOptions,
}


def _path(text: str) -> str | None:
    # the echo writes an unset path as ``none``, so that name means unset
    return None if text == "none" else text


_TOP_LEVEL = {
    "augment.enabled": ("augment_enabled", kv.boolean),
    "paths.manifest": ("manifest", _path),
    "paths.out": ("out_dir", _path),
}


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    section_values: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    top_values: dict = {}
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
        if key in _TOP_LEVEL:
            attr, convert = _TOP_LEVEL[key]
            try:
                top_values[attr] = convert(value)
            except ValueError as exc:
                raise ConfigError(f"{source}:{lineno}: {key}: {exc}") from None
        elif section in _SECTIONS and name:
            section_values[section][name] = value
        else:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
    try:
        sections = {section: kv.build(cls, section, section_values[section])
                    for section, cls in _SECTIONS.items()}
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return RunConfig(**sections, **top_values)


def load_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config_text(path.read_text(), source=str(path))


def effective_lines(cfg: RunConfig) -> list[str]:
    """Every effective value, defaults included, for log provenance."""
    lines = [line for section in _SECTIONS
             for line in kv.dump(section, getattr(cfg, section))]
    lines.append(f"augment.enabled = {kv.format_value(cfg.augment_enabled)}")
    lines.append(f"paths.manifest = {kv.format_value(cfg.manifest)}")
    lines.append(f"paths.out = {kv.format_value(cfg.out_dir)}")
    return lines
