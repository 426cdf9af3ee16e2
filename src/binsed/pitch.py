"""Dominant pitch and periodicity from thresholded, parabolically
interpolated spectral peaks.

Per frame, local maxima of the magnitude spectrum inside the pitch range are
kept if they reach a fraction of the frame's peak magnitude.  Each surviving
peak is refined with a parabolic fit through the log-magnitudes of the peak
bin and its two neighbours.  The refined magnitude relative to the frame
maximum serves as the periodicity score, so it always lands in [0, 1].
Frames with no qualifying peak emit (0, 0) pairs.
"""

from __future__ import annotations

import numpy as np

from .audio import Spectrogram
from .layout import FeatureLayout, FeatureMatrix

_TINY = 1e-300


def extract_pitch(spec: Spectrogram, top_k: int = 1, f_min: float = 100.0,
                  f_max: float = 4000.0, threshold: float = 0.1) -> FeatureMatrix:
    """(frequency, periodicity) pairs for the top_k dominant peaks per frame.

    Pairs are interleaved and ordered by decreasing interpolated magnitude;
    missing peaks are zero-filled.  Output width is 2 * top_k.
    """
    if top_k < 1:
        raise ValueError("top_k must be at least 1")
    if not 0.0 < f_min < f_max:
        raise ValueError("need 0 < f_min < f_max")
    if f_max > spec.sample_rate / 2.0:
        raise ValueError(f"f_max {f_max} exceeds Nyquist for "
                         f"sample rate {spec.sample_rate}")
    magnitude = np.abs(spec.bins)
    bin_hz = spec.sample_rate / spec.fft_size
    k_lo = max(1, int(np.ceil(f_min / bin_hz)))
    k_hi = min(spec.bin_count - 2, int(np.floor(f_max / bin_hz)))
    values = np.zeros((spec.frame_count, 2 * top_k))
    layout = FeatureLayout((("pitch", 2 * top_k),))
    if k_hi < k_lo:
        return FeatureMatrix(values=values, layout=layout)

    # A frame whose maximum is 0 is all zeros and has no strict peak.
    frame_max = magnitude.max(axis=1)
    center = magnitude[:, k_lo:k_hi + 1]
    is_peak = (center > magnitude[:, k_lo - 1:k_hi]) \
        & (center >= magnitude[:, k_lo + 1:k_hi + 2]) \
        & (center >= threshold * frame_max[:, None])
    frames, peak_bins = np.nonzero(is_peak)
    peak_bins += k_lo
    # Log-magnitudes of the peak bins and their two neighbours only; the
    # loop oracle in the tests took the log over the whole spectrum.
    neighbours = magnitude[frames[:, None], peak_bins[:, None] + (-1, 0, 1)]
    log_mag = np.log(np.maximum(neighbours, _TINY))
    alpha, beta, gamma = log_mag.T
    denom = alpha - 2.0 * beta + gamma
    shift = np.where(np.abs(denom) > 0.0,
                     0.5 * (alpha - gamma) / np.where(denom == 0.0, 1.0, denom),
                     0.0)
    shift = np.clip(shift, -0.5, 0.5)
    interp_mag = np.exp(beta - 0.25 * (alpha - gamma) * shift)
    freqs = np.clip((peak_bins + shift) * bin_hz, f_min, f_max)
    periodicity = np.clip(interp_mag / frame_max[frames], 0.0, 1.0)
    # Rank peaks per frame by decreasing magnitude, ties in bin order.
    order = np.lexsort((-interp_mag, frames))
    frames = frames[order]
    rank = np.arange(frames.size) - np.searchsorted(frames, frames)
    keep = rank < top_k
    frames, rank, order = frames[keep], rank[keep], order[keep]
    values[frames, 2 * rank] = freqs[order]
    values[frames, 2 * rank + 1] = periodicity[order]
    return FeatureMatrix(values=values, layout=layout)
