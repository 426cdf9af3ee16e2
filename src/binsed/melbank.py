"""Mel filterbanks and log mel-band energies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .audio import Spectrogram
from .layout import FeatureLayout, FeatureMatrix


def hz_to_mel(freq_hz):
    """Mel scale: 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class MelFilterbank:
    """Triangular filters over one-sided FFT bins; each filter peaks at 1."""

    weights: np.ndarray          # (band_count, fft_size // 2 + 1)
    sample_rate: int
    fft_size: int
    edges_hz: np.ndarray         # (band_count + 2,) triangle corner frequencies

    @property
    def band_count(self) -> int:
        return self.weights.shape[0]


def build_mel_filterbank(band_count: int, fft_size: int,
                         sample_rate: int) -> MelFilterbank:
    """Equally mel-spaced triangular filterbank with unit peak response.

    Triangle b rises from edge b to edge b+1 and falls to edge b+2, with the
    band_count + 2 edges equally spaced on the mel scale between 0 Hz and
    Nyquist, so band b responds on (edges_hz[b], edges_hz[b + 2]).
    """
    if band_count <= 0:
        raise ValueError("band_count must be positive")
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0),
                                  band_count + 2))
    bin_freqs = np.arange(fft_size // 2 + 1) * (sample_rate / fft_size)
    weights = np.zeros((band_count, fft_size // 2 + 1))
    for b in range(band_count):
        lo, mid, hi = edges[b], edges[b + 1], edges[b + 2]
        rising = (bin_freqs - lo) / max(mid - lo, 1e-12)
        falling = (hi - bin_freqs) / max(hi - mid, 1e-12)
        weights[b] = np.clip(np.minimum(rising, falling), 0.0, 1.0)
    return MelFilterbank(weights=weights, sample_rate=sample_rate,
                         fft_size=fft_size, edges_hz=edges)


def extract_log_mel(spec: Spectrogram, filterbank: MelFilterbank,
                    floor: float = 1e-10) -> FeatureMatrix:
    """Log of floored mel-band power: log(sum_k H_b(k) |X(k, t)|^2 + floor)."""
    if filterbank.fft_size != spec.fft_size:
        raise ValueError(f"filterbank fft_size {filterbank.fft_size} does not "
                         f"match spectrogram fft_size {spec.fft_size}")
    if filterbank.sample_rate != spec.sample_rate:
        raise ValueError("filterbank and spectrogram sample rates differ")
    power = spec.bins.real ** 2 + spec.bins.imag ** 2
    energies = power @ filterbank.weights.T
    values = np.log(energies + floor)
    layout = FeatureLayout((("mel", filterbank.band_count),))
    return FeatureMatrix(values=values, layout=layout)
