"""Run configuration: JSON file plus command-line overrides.

A config file holds a flat JSON object whose keys are RunConfig fields.
Each field's annotation and default are the one statement of its setting:
``load_config`` converts and checks every value by the annotation, a setting
shared with TrainConfig, FeatureConfig, TdoaConfig or FrameGrid takes its
default from that class, and ``_FEATURE_KEYS`` maps each flat feature key to
its place in FeatureConfig for both directions.  ``RunConfig.validate`` then
checks the ranges.  Command-line flags override file values; every command
serialises the fully resolved configuration into its output directory so
runs are reproducible from the artefacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import typing
from dataclasses import dataclass

from .audio import FrameGrid
from .container import atomic_write_bytes
from .errors import UsageError
from .features import (FeatureConfig, feature_config_from_json,
                       feature_config_to_json, parse_combination)
from .tdoa import TdoaConfig
from .training import TrainConfig


@dataclass(frozen=True)
class RunConfig:
    data_root: str = "data"
    out_dir: str = "runs"
    contexts: tuple[str, ...] = ()
    features: str = "mel_2;tdoa;pitch_2"
    combinations: tuple[str, ...] = ()   # ablation grid; empty = built-in list
    seed: int = 41
    fold_count: int = 4
    validation_fraction: float = 0.2
    threshold: float = TrainConfig.threshold
    hidden_sizes: tuple[int, ...] = TrainConfig.hidden_sizes
    learning_rate: float = TrainConfig.learning_rate
    beta1: float = TrainConfig.beta1
    beta2: float = TrainConfig.beta2
    adam_epsilon: float = TrainConfig.adam_epsilon
    gradient_clip: float = TrainConfig.gradient_clip
    batch_size: int = TrainConfig.batch_size
    max_epochs: int = TrainConfig.max_epochs
    patience: int = TrainConfig.patience
    sequence_length: int = TrainConfig.sequence_length
    block_mix_ratio: float = TrainConfig.block_mix_ratio
    macro_average: bool = False
    export_csv: bool = False
    mel_bands: int = FeatureConfig.mel_bands
    log_floor: float = FeatureConfig.log_floor
    pitch_f_min: float = FeatureConfig.pitch_f_min
    pitch_f_max: float = FeatureConfig.pitch_f_max
    pitch_threshold: float = FeatureConfig.pitch_threshold
    tdoa_bands: int = TdoaConfig.band_count
    tdoa_windows_ms: tuple[float, ...] = TdoaConfig.window_lengths_ms
    mic_spacing_m: float = TdoaConfig.mic_spacing_m
    frame_length_ms: float = FrameGrid.frame_length_ms
    hop_length_ms: float = FrameGrid.hop_length_ms
    # synth command only
    synth_recordings: int = 8
    synth_duration: float = 30.0
    synth_sample_rate: int = 16000
    synth_plan: str = ""

    def validate(self) -> "RunConfig":
        try:
            parse_combination(self.features)
            for combo in self.combinations:
                parse_combination(combo)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        for key, kind in _TYPES.items():
            value = getattr(self, key)
            if float in (kind, *typing.get_args(kind)) and not all(
                    map(math.isfinite, value if isinstance(value, tuple)
                        else (value,))):
                raise UsageError(f"{key} must be finite")
        if self.fold_count < 2:
            raise UsageError("fold_count must be at least 2 so every fold "
                             "keeps a non-empty train group")
        for key in ("validation_fraction", "beta1", "beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise UsageError(f"{key} must be in [0, 1)")
        if not 0.0 < self.threshold < 1.0:
            raise UsageError("threshold must lie strictly between 0 and 1")
        if not 0.0 <= self.pitch_threshold <= 1.0:
            raise UsageError("pitch_threshold must be in [0, 1]")
        # A gradient_clip of 0 means no clipping.
        for key in ("seed", "patience", "block_mix_ratio", "gradient_clip"):
            if getattr(self, key) < 0:
                raise UsageError(f"{key} must be non-negative")
        for key in ("sequence_length", "batch_size", "max_epochs", "mel_bands",
                    "tdoa_bands", "frame_length_ms", "hop_length_ms",
                    "mic_spacing_m", "log_floor", "learning_rate",
                    "adam_epsilon", "synth_recordings", "synth_duration",
                    "synth_sample_rate"):
            if not getattr(self, key) > 0:
                raise UsageError(f"{key} must be positive")
        for key in ("hidden_sizes", "tdoa_windows_ms"):
            values = getattr(self, key)
            if not values or not all(value > 0 for value in values):
                raise UsageError(f"{key} must hold positive values")
        if not 0 < self.pitch_f_min < self.pitch_f_max:
            raise UsageError("pitch_f_min must lie between 0 and pitch_f_max")
        return self

    def feature_config(self) -> FeatureConfig:
        payload: dict = {"grid": {}, "tdoa": {}}
        for key, (part, name) in _FEATURE_KEYS.items():
            (payload[part] if part else payload)[name] = getattr(self, key)
        return feature_config_from_json(payload)

    def with_feature_config(self, features: FeatureConfig) -> "RunConfig":
        """This configuration with ``features``: feature_config's inverse."""
        payload = feature_config_to_json(features)
        return dataclasses.replace(self, **{
            key: (payload[part] if part else payload)[name]
            for key, (part, name) in _FEATURE_KEYS.items()})

    def train_config(self) -> TrainConfig:
        """The TrainConfig of the fields it shares with this one by name."""
        return TrainConfig(grid=self.feature_config().grid, **{
            f.name: getattr(self, f.name) for f in dataclasses.fields(TrainConfig)
            if f.name in _TYPES})

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"


# Each flat feature key: its FeatureConfig part ("" for FeatureConfig
# itself) and its field name there.
_FEATURE_KEYS = {
    "frame_length_ms": ("grid", "frame_length_ms"),
    "hop_length_ms": ("grid", "hop_length_ms"),
    "tdoa_bands": ("tdoa", "band_count"),
    "tdoa_windows_ms": ("tdoa", "window_lengths_ms"),
    "mic_spacing_m": ("tdoa", "mic_spacing_m"),
    **{key: ("", key) for key in ("mel_bands", "log_floor", "pitch_f_min",
                                  "pitch_f_max", "pitch_threshold")},
}
_TYPES = typing.get_type_hints(RunConfig)


def _fits(value, kind: type) -> bool:
    """Whether a JSON value has ``kind``: a bool is no number, an int is
    also a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _convert(key: str, value):
    """``value`` as RunConfig's ``key`` holds it, or UsageError.  A tuple
    comes from a list of its item type or from a comma- or space-separated
    string, its items cast to that type."""
    kind = _TYPES[key]
    if typing.get_origin(kind) is tuple:
        item = typing.get_args(kind)[0]
        if isinstance(value, str):
            try:
                return tuple(map(item, value.replace(",", " ").split()))
            except ValueError:
                pass
        elif isinstance(value, (list, tuple)) \
                and all(_fits(v, item) for v in value):
            return tuple(map(item, value))
    elif _fits(value, kind):
        return value
    raise UsageError(f"bad value for {key}: {value!r}")


def load_config(path: str | os.PathLike | None,
                overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional JSON file plus overrides (flags win)."""
    values: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                parsed = json.load(fh)
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(parsed, dict):
            raise UsageError("config file must hold a JSON object")
        values.update(parsed)
    if overrides:
        values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values) - set(_TYPES)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    return RunConfig(**{key: _convert(key, value)
                        for key, value in values.items()}).validate()


def write_resolved_config(out_dir: str | os.PathLike, config: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_bytes(os.path.join(os.fspath(out_dir), "config.json"),
                       config.to_json().encode("utf-8"))
