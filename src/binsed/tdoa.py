"""Per-band time difference of arrival from generalised cross-correlation
with phase transform (GCC-PHAT) weighting.

For a stereo frame the cross-power spectrum is whitened bin-wise,

    G(k) = X1(k) * conj(X2(k)) / |X1(k) * conj(X2(k))|,

then weighted by a triangular mel band response H_b and correlated over
integer lags:

    R_b(delta) = sum_k H_b(k) * G(k) * exp(-2j * pi * k * delta / N).

The emitted delay is argmax_delta |R_b(delta)| restricted to
[-max_lag, +max_lag]; exact ties prefer the smaller |delta| and then the
negative sign.  Positive delays mean channel 2 lags channel 1.  Bins whose
cross-spectrum magnitude falls below a floor contribute nothing, so silent
frames deterministically emit 0.

R_b is evaluated only at the 2 * max_lag + 1 candidate lags, not by a
full-length inverse FFT: over the one-sided bins where H_b is non-zero, the
real and imaginary parts of G multiply a precomputed real basis that folds
in H_b, the one-sided factor (1 at DC and Nyquist, 2 elsewhere) and
cos / sin of 2 * pi * k * delta / N.  That is the value irfft would put at
index -delta mod N, so one matmul per band replaces an N-point transform
of which only a few dozen outputs were ever read.

Delays are estimated independently over three analysis window lengths
centred on the common 20 ms feature hop, giving one (frames, windows,
bands) stack per recording.  The ``tdoa3`` variant emits all three per
band; the ``tdoa`` variant is derived from it by ``collapse_windows``: the
per-band median across the windows, then a temporal median filter of
length 3 (truncated at the clip edges).  Callers needing both variants
compute the stack once and collapse it.

Every (frame, window) estimate is independent of the others, so the
extractor splits each window's frames into tasks and runs the (window,
task) pairs on a thread pool sized to the CPUs the process may use; numpy's
FFT and the BLAS matmuls release the interpreter lock.  Each window is cut
into one task per worker, sizes differing by at most one frame, so every
worker gets the same share.  One budget of frames times FFT size, shared by
the workers so that peak memory does not grow with the core count, bounds
memory: a task runs its frames in equal blocks within its worker's share.
The calling thread allocates the spectra of a call as one array, a pair of
buffers of the largest block per worker, and lends each running task a
pair; memory taken once per call, on the caller's heap, is reused by the
next call without page faults.  The delays do not depend on the worker
count, the split or the blocks.
"""

from __future__ import annotations

import functools
import math
import queue
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import parallel
from .audio import AudioClip, FrameGrid, Spectrogram, next_pow2
from .errors import DataError
from .layout import FeatureLayout, FeatureMatrix
from .melbank import MelFilterbank, build_mel_filterbank

SPEED_OF_SOUND = 343.0


@dataclass(frozen=True)
class TdoaConfig:
    band_count: int = 5
    window_lengths_ms: tuple[float, ...] = (120.0, 240.0, 480.0)
    mic_spacing_m: float = 0.20
    speed_of_sound: float = SPEED_OF_SOUND
    spectral_floor: float = 1e-12

    def max_physical_delay(self, sample_rate: int) -> int:
        """Largest physical inter-channel delay in samples, rounded up."""
        return max_delay_samples(self.mic_spacing_m, sample_rate,
                                 self.speed_of_sound)

    def max_lag(self, sample_rate: int) -> int:
        """Search half-width: twice the physical maximum."""
        return 2 * self.max_physical_delay(sample_rate)


def max_delay_samples(mic_spacing_m: float, sample_rate: int,
                      speed_of_sound: float = SPEED_OF_SOUND) -> int:
    if mic_spacing_m <= 0:
        raise ValueError("mic spacing must be positive")
    return int(math.ceil(mic_spacing_m / speed_of_sound * sample_rate))


def _lag_order(max_lag: int, fft_size: int) -> np.ndarray:
    """Candidate lags ordered 0, -1, +1, -2, +2, ...

    Ordering encodes the tie break: numpy's argmax keeps the first of equal
    values, so smaller |delta| wins, then the negative sign.
    """
    if fft_size < 2 * max_lag + 1:
        raise ValueError("fft_size too small for the requested lag range")
    offsets = [0]
    for d in range(1, max_lag + 1):
        offsets.extend((-d, d))
    return np.array(offsets, dtype=np.int64)


def _phat_cross_spectrum(bins1: np.ndarray, bins2: np.ndarray,
                         floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Whitened cross-spectrum as (real, imaginary) float arrays.

    Consumes both inputs, so callers pass C-contiguous spectra they own:
    ``bins2`` is left holding the cross-spectrum, and the returned arrays
    are views of ``bins1``'s buffer, the magnitude's half of which ends up
    holding the imaginary part.  The product is taken as conj(X2) * X1
    because with fused multiply-add the last bit of its imaginary part
    depends on the operand order, and this order keeps the spectra
    bit-identical to the earlier out-of-place form (which numpy evaluated in
    place into the conjugate) on chunks of 256 KiB and more.  Below that it
    multiplied X1 * conj(X2), so there the last bits may differ from it; the
    delays are tested to agree.
    """
    np.conjugate(bins2, out=bins2)
    cross = np.multiply(bins2, bins1, out=bins2)
    # X1 is dead from here on: its buffer holds the magnitude, then Im G, in
    # its first half and Re G in its second.
    magnitude, real = bins1.reshape(-1).view(np.float64).reshape(
        2, *bins1.shape)
    np.abs(cross, out=magnitude)
    # Not ``magnitude <= floor``: a NaN magnitude must count as dead too.
    live = magnitude > floor
    dead = np.logical_not(live, out=live)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(cross.real, magnitude, out=real)
        imag = np.divide(cross.imag, magnitude, out=magnitude)
    np.copyto(real, 0.0, where=dead)
    np.copyto(imag, 0.0, where=dead)
    return real, imag


@dataclass(frozen=True)
class _LagBasis:
    """Evaluates one band's R_b at the candidate lags from bins lo:hi."""

    lo: int
    hi: int
    real: np.ndarray             # (hi - lo, lags), multiplies Re G
    imag: np.ndarray             # (hi - lo, lags), multiplies Im G


def _lag_bases(weights: np.ndarray, fft_size: int,
               offsets: np.ndarray) -> tuple[_LagBasis, ...]:
    """One basis per band row of ``weights`` (bands, fft_size // 2 + 1).

    Column j of a basis gives irfft(G * H_b, n=fft_size)[-offsets[j] mod N]
    as Re G . real[:, j] + Im G . imag[:, j], restricted to the band's
    non-zero bins.  Like irfft, it ignores Im G at DC and Nyquist.
    """
    bases = []
    for band_weights in weights:
        live = np.flatnonzero(band_weights)
        lo, hi = (int(live[0]), int(live[-1]) + 1) if live.size else (0, 0)
        k = np.arange(lo, hi, dtype=np.int64)
        edge = (k == 0) | (2 * k == fft_size)
        scale = np.where(edge, 1.0, 2.0) * band_weights[lo:hi] / fft_size
        # Reduce k * delta modulo N in integers, to [-N/2, N/2), so the
        # angle is exact before the trigonometry and +-delta stay symmetric.
        half = fft_size // 2
        phase = (np.outer(k, offsets) + half) % fft_size - half
        angle = (2.0 * np.pi / fft_size) * phase
        sine = np.sin(angle)
        sine[edge] = 0.0
        bases.append(_LagBasis(lo=lo, hi=hi,
                               real=scale[:, None] * np.cos(angle),
                               imag=scale[:, None] * sine))
    return tuple(bases)


@functools.lru_cache(maxsize=32)
def _window_plan(band_count: int, fft_size: int, sample_rate: int,
                 max_lag: int) -> tuple[np.ndarray, tuple[_LagBasis, ...]]:
    """Candidate lags and per-band lag bases for one analysis window.

    Cached, because they depend only on the arguments; the arrays are
    read-only since every caller shares them.
    """
    filterbank = build_mel_filterbank(band_count, fft_size, sample_rate)
    offsets = _lag_order(max_lag, fft_size)
    bases = _lag_bases(filterbank.weights, fft_size, offsets)
    for array in (offsets, *(a for b in bases for a in (b.real, b.imag))):
        array.flags.writeable = False
    return offsets, bases


_TIE_REL_TOL = 1e-12


def _band_delays(real: np.ndarray, imag: np.ndarray,
                 bases: tuple[_LagBasis, ...],
                 offsets: np.ndarray) -> np.ndarray:
    """Delays (frames, bands) from a whitened cross-spectrum (frames, bins).

    Scores within a hair of the maximum are treated as tied so that
    mathematically equal |R| values (which floating point renders with
    last-bit noise) resolve by the search order, not by rounding accidents.
    """
    delays = np.empty((real.shape[0], len(bases)), dtype=np.float64)
    for b, basis in enumerate(bases):
        corr = (real[:, basis.lo:basis.hi] @ basis.real
                + imag[:, basis.lo:basis.hi] @ basis.imag)
        scores = np.abs(corr)
        top = scores.max(axis=1, keepdims=True)
        at_top = scores >= top * (1.0 - _TIE_REL_TOL)
        delays[:, b] = offsets[np.argmax(at_top, axis=1)]
    return delays


def gcc_phat_band(spec1: Spectrogram, spec2: Spectrogram,
                  filterbank: MelFilterbank, frame: int, band: int,
                  max_lag: int, floor: float = 1e-12) -> int:
    """Band-restricted GCC-PHAT delay for one frame of a stereo spectrogram pair."""
    if spec1.bins.shape != spec2.bins.shape or spec1.fft_size != spec2.fft_size:
        raise ValueError("channel spectrograms must have identical shape")
    if filterbank.fft_size != spec1.fft_size:
        raise ValueError("filterbank fft_size does not match the spectrograms")
    if not 0 <= frame < spec1.frame_count:
        raise IndexError(f"frame {frame} out of range")
    if not 0 <= band < filterbank.band_count:
        raise IndexError(f"band {band} out of range")
    if max_lag < 0:
        raise ValueError("max_lag must be non-negative")
    offsets = _lag_order(max_lag, spec1.fft_size)
    real, imag = _phat_cross_spectrum(spec1.bins[frame:frame + 1].copy(),
                                      spec2.bins[frame:frame + 1].copy(), floor)
    bases = _lag_bases(filterbank.weights[band:band + 1], spec1.fft_size,
                       offsets)
    return int(_band_delays(real, imag, bases, offsets)[0, 0])


def _segments(samples: np.ndarray, window_length: int, frame_count: int,
              sample_rate: int, grid: FrameGrid) -> np.ndarray:
    """Zero-padded (frame_count, window_length) read-only view of ``samples``
    whose row t is the window centred on frame t's centre.

    The rows overlap in memory; nothing is copied beyond the padding.
    """
    hop = grid.hop_samples(sample_rate)
    first = (grid.frame_samples(sample_rate) // 2 - window_length // 2
             + window_length)
    padded = np.pad(samples, (window_length, window_length))
    view = np.lib.stride_tricks.sliding_window_view(padded, window_length)
    return view[first:first + (frame_count - 1) * hop + 1:hop]


def tdoa_window_spectrograms(clip: AudioClip, window_length_ms: float,
                             grid: FrameGrid | None = None,
                             max_lag: int | None = None,
                             config: TdoaConfig | None = None,
                             ) -> tuple[Spectrogram, Spectrogram]:
    """Rectangular-window stereo spectrograms centred on the feature hop grid.

    These are the window transforms the TDOA extractor correlates; the pair
    is exposed so individual frames and bands can be probed directly.  The
    whole spectrogram is materialised, so keep clips short.
    """
    config = config or TdoaConfig()
    grid = grid or FrameGrid()
    if clip.channel_count != 2:
        raise ValueError("TDOA extraction requires a stereo clip")
    if max_lag is None:
        max_lag = config.max_lag(clip.sample_rate)
    frame_count = grid.frame_count(clip.sample_count, clip.sample_rate)
    if frame_count == 0:
        raise DataError("clip is shorter than one analysis frame")
    window_length = int(round(window_length_ms * clip.sample_rate / 1000.0))
    fft_size = next_pow2(window_length + 2 * max_lag + 1)
    specs = []
    for ch in range(2):
        segments = _segments(clip.samples[ch], window_length, frame_count,
                             clip.sample_rate, grid)
        bins = np.fft.rfft(segments, n=fft_size, axis=1)
        specs.append(Spectrogram(bins=bins, fft_size=fft_size,
                                 sample_rate=clip.sample_rate, grid=grid,
                                 channel_index=ch))
    return specs[0], specs[1]


def _temporal_median3(values: np.ndarray) -> np.ndarray:
    """Median filter of length 3 along axis 0, truncated at the edges."""
    frames = values.shape[0]
    if frames < 3:
        return values.mean(axis=0, keepdims=True).repeat(frames, axis=0) \
            if frames == 2 else values.copy()
    out = np.empty_like(values)
    out[1:-1] = np.median(np.stack([values[:-2], values[1:-1], values[2:]]),
                          axis=0)
    out[0] = 0.5 * (values[0] + values[1])
    out[-1] = 0.5 * (values[-2] + values[-1])
    return out


def collapse_windows(tdoa3: np.ndarray, band_count: int) -> np.ndarray:
    """``tdoa`` values from ``tdoa3`` values (frames, windows * band_count):
    the per-band median over the windows, then a temporal median of 3."""
    frames = tdoa3.shape[0]
    median = np.median(tdoa3.reshape(frames, -1, band_count), axis=1)
    return _temporal_median3(median)


# Frames times FFT size, summed over the workers so that peak memory does
# not grow with the core count: each task's block of spectra stays within
# its worker's share, which bounds the TDOA memory peak.  This size keeps
# detection's speed; half of it cost about 2% (BENCH_13.json).
_BLOCK_BINS = 2 ** 20


def _chunk_delays(out: np.ndarray, pair: list[np.ndarray], fft_size: int,
                  plan: tuple[np.ndarray, tuple[_LagBasis, ...], int],
                  floor: float, spectra: queue.SimpleQueue) -> None:
    """Fill ``out`` (frames, bands) with the delays of a pair of segment
    matrices (frames, window_length).

    ``plan`` is the window's lags and lag bases plus the most frames a
    block may hold.  The frames run in equal blocks, sizes differing by at
    most one frame.  The task borrows one pair of flat spectrum buffers from
    ``spectra`` and transforms every block into their C-contiguous prefixes.
    Runs on worker threads, so it must call nothing the benchmark's tracer
    wraps: its spans assume single-threaded, strictly nested calls.
    """
    offsets, bases, rows = plan
    bins = fft_size // 2 + 1
    blocks = [np.array_split(a, -(-len(out) // rows)) for a in (out, *pair)]
    buffers = spectra.get()
    try:
        for block_out, *segments in zip(*blocks):
            size = len(block_out) * bins
            bins1, bins2 = (np.fft.rfft(s, n=fft_size, axis=1,
                                        out=buffer[:size].reshape(-1, bins))
                            for s, buffer in zip(segments, buffers))
            # ``real`` and ``imag`` live in the first spectrum's buffer.
            real, imag = _phat_cross_spectrum(bins1, bins2, floor)
            block_out[...] = _band_delays(real, imag, bases, offsets)
    finally:
        spectra.put(buffers)


def extract_tdoa(clip: AudioClip, variant: str = "tdoa",
                 config: TdoaConfig | None = None,
                 grid: FrameGrid | None = None) -> FeatureMatrix:
    """Per-band delays on the common feature grid.

    ``variant="tdoa3"`` emits band_count delays for each analysis window
    (windows in ascending length order); ``variant="tdoa"`` collapses the
    windows with ``collapse_windows``.
    """
    if variant not in ("tdoa", "tdoa3"):
        raise ValueError(f"unknown TDOA variant {variant!r}")
    config = config or TdoaConfig()
    grid = grid or FrameGrid()
    if clip.channel_count != 2:
        raise ValueError("TDOA extraction requires a stereo clip")
    frame_count = grid.frame_count(clip.sample_count, clip.sample_rate)
    if frame_count == 0:
        raise DataError("clip is shorter than one analysis frame")
    sr = clip.sample_rate
    max_lag = config.max_lag(sr)
    windows = len(config.window_lengths_ms)
    stacked = np.empty((frame_count, windows, config.band_count))
    cpus = parallel.cpu_count()
    tasks = []
    for w, window_ms in enumerate(config.window_lengths_ms):
        window_length = int(round(window_ms * sr / 1000.0))
        fft_size = next_pow2(window_length + 2 * max_lag + 1)
        plan = _window_plan(config.band_count, fft_size, sr, max_lag)
        pair = [_segments(samples, window_length, frame_count, sr, grid)
                for samples in clip.samples]
        # One equal task per worker gives every worker the same share.
        splits = [np.array_split(a, cpus) for a in (stacked[:, w], *pair)]
        block_rows = max(1, _BLOCK_BINS // (cpus * fft_size))
        tasks.extend((out, [left, right], fft_size, (*plan, block_rows))
                     for out, left, right in zip(*splits) if len(out))
    # One pair of buffers of the largest block per worker, lent to each task
    # while it runs, so a task never waits for one.
    workers = min(cpus, len(tasks))
    largest = max(min(len(out), rows) * (fft_size // 2 + 1)
                  for out, _, fft_size, (_, _, rows) in tasks)
    spectra = queue.SimpleQueue()
    for buffers in np.empty((workers, 2, largest), complex):
        spectra.put(buffers)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_chunk_delays, *task, config.spectral_floor,
                               spectra)
                   for task in tasks]
        for future in futures:
            future.result()
    values = stacked.reshape(frame_count, windows * config.band_count)
    if variant == "tdoa3":
        layout = FeatureLayout((("tdoa3", values.shape[1]),))
    else:
        values = collapse_windows(values, config.band_count)
        layout = FeatureLayout((("tdoa", config.band_count),))
    return FeatureMatrix(values=values, layout=layout)
