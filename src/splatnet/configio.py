"""Plain-text key=value configuration files.

Grammar: one ``key = value`` pair per line, ``#`` starts a comment, blank
lines ignored. Keys are typed against the documented schema below; unknown
keys are hard errors so typos never pass silently.

Network keys:
    depth, stage_blocks, radix, cardinality, base_width, fast, avg_down,
    deep_stem, stem_width, dropout, dropblock_prob, dropblock_size, classes,
    input_channels, base_planes

Training keys (train command only):
    epochs, batch, base_lr, warmup_epochs, mixup_alpha, smoothing,
    weight_decay, momentum, seed
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .network import NetworkConfig
from .params import ConfigurationError

_BOOL_WORDS = {"true": True, "yes": True, "1": True,
               "false": False, "no": False, "0": False}


def _parse_bool(key, raw):
    try:
        return _BOOL_WORDS[raw.strip().lower()]
    except KeyError:
        raise ConfigurationError(f"key {key}: expected a boolean, got {raw!r}") from None


def _parse_int(key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(f"key {key}: expected an integer, got {raw!r}") from None


def _parse_seed(key, raw):
    if (value := _parse_int(key, raw)) < 0:
        raise ConfigurationError(f"key {key}: expected a non-negative integer, got {raw!r}")
    return value


def _parse_float(key, raw):
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # nan and inf parse as floats
        raise ConfigurationError(f"key {key}: expected a finite number, got {raw!r}")
    return value


def _parse_int_list(key, raw):
    try:
        return tuple(int(part) for part in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigurationError(
            f"key {key}: expected comma-separated integers, got {raw!r}"
        ) from None


NETWORK_KEYS = {
    "depth": _parse_int,
    "stage_blocks": _parse_int_list,
    "radix": _parse_int,
    "cardinality": _parse_int,
    "base_width": _parse_int,
    "fast": _parse_bool,
    "avg_down": _parse_bool,
    "deep_stem": _parse_bool,
    "stem_width": _parse_int,
    "dropout": _parse_float,
    "dropblock_prob": _parse_float,
    "dropblock_size": _parse_int,
    "classes": _parse_int,
    "input_channels": _parse_int,
    "base_planes": _parse_int,
}

TRAIN_KEYS = {
    "epochs": _parse_int,
    "batch": _parse_int,
    "base_lr": _parse_float,
    "warmup_epochs": _parse_int,
    "mixup_alpha": _parse_float,
    "smoothing": _parse_float,
    "weight_decay": _parse_float,
    "momentum": _parse_float,
    "seed": _parse_seed,
}


def read_config_file(path) -> dict[str, str]:
    """Parse a key=value file into raw strings (no schema applied yet)."""
    entries: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 text file ({exc.reason})") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigurationError(
                f"{path}:{lineno}: expected key=value, got {stripped!r}"
            )
        key, value = stripped.split("=", 1)
        key = key.strip()
        if key in entries:
            raise ConfigurationError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value.strip()
    return entries


def parse_settings(raw: dict[str, str], allow_training: bool) -> dict:
    """Type raw entries against the schema; unknown keys are errors."""
    schema = dict(NETWORK_KEYS)
    if allow_training:
        schema.update(TRAIN_KEYS)
    parsed = {}
    for key, value in raw.items():
        if key not in schema:
            known = ", ".join(sorted(schema))
            raise ConfigurationError(f"unknown config key {key!r} (known keys: {known})")
        parsed[key] = schema[key](key, value)
    return parsed


def network_config(settings: dict) -> NetworkConfig:
    # config key ``classes`` is the field ``num_classes``; the rest match
    kwargs = {
        "num_classes" if k == "classes" else k: v
        for k, v in settings.items()
        if k in NETWORK_KEYS
    }
    return NetworkConfig(**kwargs)


@dataclass
class TrainSettings:
    epochs: int = 20
    batch: int = 32
    base_lr: float = 0.1
    warmup_epochs: int = 2
    mixup_alpha: float = 0.2
    smoothing: float = 0.1
    weight_decay: float = 1e-4
    momentum: float = 0.9
    seed: int = 0


def train_settings(settings: dict) -> TrainSettings:
    kwargs = {k: v for k, v in settings.items() if k in TRAIN_KEYS}
    return TrainSettings(**kwargs)
