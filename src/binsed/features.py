"""Feature combination grammar and end-to-end extraction.

A combination string names semicolon-separated blocks, e.g.
``"mel_2;tdoa;pitch_2"``.  Spectral and harmonic blocks carry a channel
subscript: ``_1`` extracts from the mono downmix, ``_2`` from both channels
(left columns first).  ``tdoa`` blocks are inherently binaural and take no
subscript.  Per-channel widths: mel 40, pitch 2, pitch3 6, tdoa 5, tdoa3 15.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .audio import AudioClip, FrameGrid, Spectrogram, downmix_to_mono, stft
from .errors import DataError
from .layout import FeatureLayout, FeatureMatrix
from .melbank import MelFilterbank, build_mel_filterbank, extract_log_mel
from .pitch import extract_pitch
from .tdoa import TdoaConfig, collapse_windows, extract_tdoa

_CHANNEL_FAMILIES = ("mel", "pitch", "pitch3")
_STEREO_FAMILIES = ("tdoa", "tdoa3")


@dataclass(frozen=True)
class BlockSpec:
    """One parsed combination token."""

    family: str          # mel | pitch | pitch3 | tdoa | tdoa3
    channels: int        # 1 = mono downmix, 2 = both channels (tdoa: always 2)

    @property
    def token(self) -> str:
        if self.family in _STEREO_FAMILIES:
            return self.family
        return f"{self.family}_{self.channels}"


@dataclass(frozen=True)
class FeatureConfig:
    """Everything needed to turn a clip into a feature matrix."""

    grid: FrameGrid = field(default_factory=FrameGrid)
    mel_bands: int = 40
    log_floor: float = 1e-10
    pitch_f_min: float = 100.0
    pitch_f_max: float = 4000.0
    pitch_threshold: float = 0.1
    tdoa: TdoaConfig = field(default_factory=TdoaConfig)


def feature_config_to_json(config: FeatureConfig) -> dict:
    """The record of the settings in manifests and checkpoints."""
    return asdict(config)


def feature_config_from_json(payload: dict) -> FeatureConfig:
    """The settings ``feature_config_to_json`` encoded, equal to them."""
    tdoa = {**payload["tdoa"],
            "window_lengths_ms": tuple(payload["tdoa"]["window_lengths_ms"])}
    return FeatureConfig(**{**payload, "grid": FrameGrid(**payload["grid"]),
                            "tdoa": TdoaConfig(**tdoa)})


def parse_combination(combination: str) -> tuple[BlockSpec, ...]:
    """Parse a combination string; rejects unknown or duplicate blocks."""
    tokens = [t.strip() for t in combination.split(";")]
    if not combination.strip() or any(not t for t in tokens):
        raise ValueError(f"empty block in combination {combination!r}")
    specs = []
    for token in tokens:
        if token in _STEREO_FAMILIES:
            specs.append(BlockSpec(family=token, channels=2))
            continue
        family, _, subscript = token.partition("_")
        if family not in _CHANNEL_FAMILIES or subscript not in ("1", "2"):
            raise ValueError(
                f"unknown feature block {token!r}; expected one of "
                "mel_1 mel_2 pitch_1 pitch_2 pitch3_1 pitch3_2 tdoa tdoa3")
        specs.append(BlockSpec(family=family, channels=int(subscript)))
    seen = set()
    for spec in specs:
        if spec.token in seen:
            raise ValueError(f"duplicate block {spec.token!r} in {combination!r}")
        seen.add(spec.token)
    return tuple(specs)


def block_width(spec: BlockSpec, config: FeatureConfig | None = None) -> int:
    config = config or FeatureConfig()
    per_channel = {
        "mel": config.mel_bands,
        "pitch": 2,
        "pitch3": 6,
        "tdoa": config.tdoa.band_count,
        "tdoa3": config.tdoa.band_count * len(config.tdoa.window_lengths_ms),
    }[spec.family]
    if spec.family in _STEREO_FAMILIES:
        return per_channel
    return per_channel * spec.channels


def combination_layout(combination: str,
                       config: FeatureConfig | None = None) -> FeatureLayout:
    """A combination's columns, its blocks in order: every layout's rule."""
    return FeatureLayout(tuple((s.token, block_width(s, config))
                               for s in parse_combination(combination)))


def combination_width(combination: str, config: FeatureConfig | None = None) -> int:
    return combination_layout(combination, config).width


@functools.lru_cache(maxsize=32)
def _mel_filterbank(band_count: int, fft_size: int,
                    sample_rate: int) -> MelFilterbank:
    """The feature filterbank, built once per argument tuple; its arrays are
    read-only since every caller shares them."""
    filterbank = build_mel_filterbank(band_count, fft_size, sample_rate)
    filterbank.weights.flags.writeable = False
    filterbank.edges_hz.flags.writeable = False
    return filterbank


def extract_block_values(clip: AudioClip, tokens: list[str],
                         config: FeatureConfig | None = None) -> FeatureMatrix:
    """Extract several blocks at once, sharing STFTs between them.

    This is the one place block columns are stacked: the layout is
    ``combination_layout`` of ``tokens``, and the values are rounded once
    through float32, the precision of the ``.feat`` container, so a matrix
    in memory equals the one written and read back.
    """
    config = config or FeatureConfig()
    specs = parse_combination(";".join(tokens))
    layout = combination_layout(";".join(tokens), config)
    needs_stereo = any(s.channels == 2 for s in specs)
    if needs_stereo and clip.channel_count != 2:
        raise DataError(
            f"blocks {sorted(s.token for s in specs if s.channels == 2)} "
            f"need a stereo recording, got {clip.channel_count} channel(s)")
    nyquist = clip.sample_rate / 2.0
    if config.pitch_f_max > nyquist and any(s.family.startswith("pitch")
                                            for s in specs):
        raise DataError(f"pitch_f_max {config.pitch_f_max} Hz exceeds the "
                        f"recording's Nyquist frequency {nyquist} Hz")
    # A rounded hop would shift every frame from the time its index gives.
    hop = config.grid.hop_length_ms * clip.sample_rate / 1000.0
    if not math.isclose(hop, round(hop)):
        raise DataError(f"a {config.grid.hop_length_ms} ms hop at "
                        f"{clip.sample_rate} Hz is {hop} samples, not a "
                        "whole number")

    @functools.cache
    def spectra(channels: int) -> tuple[Spectrogram, ...]:
        if channels == 2:
            return stft(clip, config.grid)
        mono = downmix_to_mono(clip) if clip.channel_count == 2 else clip
        return stft(mono, config.grid)

    # A pitch block is the first (frequency, periodicity) pair of pitch3, so
    # one top-3 pass per spectrum serves both.
    @functools.cache
    def pitch3(channels: int, channel: int) -> np.ndarray:
        return extract_pitch(spectra(channels)[channel], top_k=3,
                             f_min=config.pitch_f_min, f_max=config.pitch_f_max,
                             threshold=config.pitch_threshold).values

    delays: dict[str, np.ndarray] = {}
    if any(s.family in _STEREO_FAMILIES for s in specs):
        # Both delay variants come from one (frames, windows, bands) stack.
        tdoa3 = extract_tdoa(clip, variant="tdoa3", config=config.tdoa,
                             grid=config.grid).values
        delays = {"tdoa3": tdoa3,
                  "tdoa": collapse_windows(tdoa3, config.tdoa.band_count)}
    columns = []
    for spec in specs:
        if spec.family in _STEREO_FAMILIES:
            columns.append(delays[spec.family])
            continue
        # Per-channel blocks: left columns first, then right.
        for channel, ch_spec in enumerate(spectra(spec.channels)):
            if spec.family == "mel":
                filterbank = _mel_filterbank(config.mel_bands, ch_spec.fft_size,
                                             ch_spec.sample_rate)
                columns.append(extract_log_mel(ch_spec, filterbank,
                                               floor=config.log_floor).values)
            else:
                top3 = pitch3(spec.channels, channel)
                columns.append(top3 if spec.family == "pitch3" else top3[:, :2])
    return FeatureMatrix(values=np.hstack(columns).astype(np.float32),
                         layout=layout)


def assemble_features(clip: AudioClip, combination: str,
                      config: FeatureConfig | None = None) -> FeatureMatrix:
    """Extract every block of a combination, in the combination's order."""
    return extract_block_values(
        clip, [s.token for s in parse_combination(combination)], config)


#: The feature combinations of the full ablation grid, mono families first.
ABLATION_COMBINATIONS: tuple[str, ...] = (
    "mel_1",
    "mel_1;pitch_1",
    "mel_1;pitch3_1",
    "mel_1;tdoa",
    "mel_1;tdoa3",
    "mel_2",
    "mel_2;pitch_2",
    "mel_2;pitch3_2",
    "mel_2;tdoa",
    "mel_2;tdoa3",
    "mel_2;tdoa3;pitch_2",
    "mel_2;tdoa3;pitch3_2",
    "mel_2;tdoa;pitch_2",
    "mel_2;tdoa;pitch3_2",
)
