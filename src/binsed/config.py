"""Run configuration: JSON file plus command-line overrides.

A config file holds a flat JSON object whose keys match RunConfig fields.
Command-line flags override file values; every command serialises the fully
resolved configuration into its output directory so runs are reproducible
from the artefacts alone.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field

from .audio import FrameGrid
from .container import atomic_write_bytes
from .errors import UsageError
from .features import FeatureConfig, parse_combination
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
    threshold: float = 0.5
    hidden_sizes: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    gradient_clip: float = 5.0
    batch_size: int = 32
    max_epochs: int = 2000
    patience: int = 100
    sequence_length: int = 25
    block_mix_ratio: float = 1.0
    macro_average: bool = False
    export_csv: bool = False
    mel_bands: int = 40
    log_floor: float = 1e-10
    pitch_f_min: float = 100.0
    pitch_f_max: float = 4000.0
    pitch_threshold: float = 0.1
    tdoa_bands: int = 5
    tdoa_windows_ms: tuple[float, ...] = (120.0, 240.0, 480.0)
    mic_spacing_m: float = 0.20
    frame_length_ms: float = 40.0
    hop_length_ms: float = 20.0
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
        if self.fold_count < 2:
            raise UsageError("fold_count must be at least 2 so every fold "
                             "keeps a non-empty train group")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise UsageError("validation_fraction must be in [0, 1)")
        if not self.hidden_sizes or any(h < 1 for h in self.hidden_sizes):
            raise UsageError("hidden_sizes must be positive")
        if self.sequence_length < 1:
            raise UsageError("sequence_length must be positive")
        if self.batch_size < 1:
            raise UsageError("batch_size must be positive")
        if self.max_epochs < 1:
            raise UsageError("max_epochs must be positive")
        if self.patience < 0:
            raise UsageError("patience must be non-negative")
        if not 0.0 < self.threshold < 1.0:
            raise UsageError("threshold must lie strictly between 0 and 1")
        if self.block_mix_ratio < 0:
            raise UsageError("block_mix_ratio must be non-negative")
        return self

    def feature_config(self) -> FeatureConfig:
        return FeatureConfig(
            grid=FrameGrid(frame_length_ms=self.frame_length_ms,
                           hop_length_ms=self.hop_length_ms),
            mel_bands=self.mel_bands,
            log_floor=self.log_floor,
            pitch_f_min=self.pitch_f_min,
            pitch_f_max=self.pitch_f_max,
            pitch_threshold=self.pitch_threshold,
            tdoa=TdoaConfig(band_count=self.tdoa_bands,
                            window_lengths_ms=tuple(self.tdoa_windows_ms),
                            mic_spacing_m=self.mic_spacing_m))

    def with_feature_config(self, features: FeatureConfig) -> "RunConfig":
        """This configuration with ``features``: feature_config's inverse."""
        grid, tdoa = features.grid, features.tdoa
        return dataclasses.replace(
            self, frame_length_ms=grid.frame_length_ms,
            hop_length_ms=grid.hop_length_ms, mel_bands=features.mel_bands,
            log_floor=features.log_floor, pitch_f_min=features.pitch_f_min,
            pitch_f_max=features.pitch_f_max,
            pitch_threshold=features.pitch_threshold,
            tdoa_bands=tdoa.band_count, mic_spacing_m=tdoa.mic_spacing_m,
            tdoa_windows_ms=tuple(tdoa.window_lengths_ms))

    def train_config(self) -> TrainConfig:
        return TrainConfig(
            hidden_sizes=tuple(self.hidden_sizes),
            learning_rate=self.learning_rate,
            beta1=self.beta1, beta2=self.beta2,
            adam_epsilon=self.adam_epsilon,
            gradient_clip=self.gradient_clip,
            batch_size=self.batch_size,
            max_epochs=self.max_epochs,
            patience=self.patience,
            sequence_length=self.sequence_length,
            block_mix_ratio=self.block_mix_ratio,
            threshold=self.threshold,
            grid=self.feature_config().grid)

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), indent=2,
                          sort_keys=True) + "\n"


_TUPLE_FIELDS = {"contexts": str, "combinations": str, "hidden_sizes": int,
                 "tdoa_windows_ms": float}


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
    known = {f.name for f in dataclasses.fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    for name, cast in _TUPLE_FIELDS.items():
        if name in values and values[name] is not None:
            raw = values[name]
            if isinstance(raw, str):
                raw = [t for t in raw.replace(",", " ").split() if t]
            try:
                values[name] = tuple(cast(item) for item in raw)
            except (TypeError, ValueError) as exc:
                raise UsageError(f"bad value for {name}: {raw!r}") from exc
    try:
        config = RunConfig(**values)
    except TypeError as exc:
        raise UsageError(f"bad configuration: {exc}") from exc
    return config.validate()


def write_resolved_config(out_dir: str | os.PathLike, config: RunConfig) -> None:
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_bytes(os.path.join(os.fspath(out_dir), "config.json"),
                       config.to_json().encode("utf-8"))
