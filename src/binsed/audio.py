"""Audio ingestion, framing and the short-time Fourier transform.

The WAV codec is deliberately minimal: it reads uncompressed RIFF/WAVE PCM
at 16 or 24 bits, one or two channels, and writes 16-bit PCM.  Samples are
normalised to [-1, 1) floats by dividing by 2**(bits-1), which makes 16-bit
decode -> encode -> decode bit-exact.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .container import atomic_write_bytes
from .errors import AudioFormatError, DataError

_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE


@dataclass(frozen=True)
class AudioClip:
    """In-memory audio: ``samples`` has shape (channels, n), float64 in [-1, 1)."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        if self.samples.ndim != 2:
            raise ValueError("samples must be a (channels, n) array")
        if self.samples.shape[0] not in (1, 2):
            raise ValueError(f"expected 1 or 2 channels, got {self.samples.shape[0]}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def channel_count(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_count(self) -> int:
        return self.samples.shape[1]


@dataclass(frozen=True)
class FrameGrid:
    """Analysis framing: frame/hop lengths are in milliseconds so the same
    grid applies at any sample rate."""

    frame_length_ms: float = 40.0
    hop_length_ms: float = 20.0

    def frame_samples(self, sample_rate: int) -> int:
        return int(round(self.frame_length_ms * sample_rate / 1000.0))

    def hop_samples(self, sample_rate: int) -> int:
        return int(round(self.hop_length_ms * sample_rate / 1000.0))

    def frame_count(self, sample_count: int, sample_rate: int) -> int:
        """Number of complete frames; a trailing partial frame is dropped."""
        frame = self.frame_samples(sample_rate)
        hop = self.hop_samples(sample_rate)
        if sample_count < frame:
            return 0
        return (sample_count - frame) // hop + 1

    def frame_center_seconds(self, frame_index: int) -> float:
        return (frame_index * self.hop_length_ms + self.frame_length_ms / 2.0) / 1000.0


@dataclass
class Spectrogram:
    """One-sided complex STFT of a single channel.

    ``bins`` has shape (frames, fft_size // 2 + 1).
    """

    bins: np.ndarray
    fft_size: int
    sample_rate: int

    @property
    def frame_count(self) -> int:
        return self.bins.shape[0]

    @property
    def bin_count(self) -> int:
        return self.bins.shape[1]


def next_pow2(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def periodic_hamming(length: int) -> np.ndarray:
    """Periodic (DFT-even) Hamming window."""
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(length) / length)


def _frame_signal(x: np.ndarray, frame: int, hop: int) -> np.ndarray:
    count = (len(x) - frame) // hop + 1
    if count <= 0:
        raise DataError("clip is shorter than one analysis frame")
    view = np.lib.stride_tricks.sliding_window_view(x, frame)
    return view[:: hop][:count]


def stft(clip: AudioClip, grid: FrameGrid | None = None) -> tuple[Spectrogram, ...]:
    """Windowed one-sided STFT, one Spectrogram per channel.

    Frames are multiplied by a periodic Hamming window and zero-padded on the
    right to the next power of two above the frame length.
    """
    grid = grid or FrameGrid()
    frame = grid.frame_samples(clip.sample_rate)
    hop = grid.hop_samples(clip.sample_rate)
    if clip.sample_count < frame:
        raise DataError("clip is shorter than one analysis frame")
    fft_size = next_pow2(frame)
    window = periodic_hamming(frame)
    out = []
    for ch in range(clip.channel_count):
        frames = _frame_signal(clip.samples[ch], frame, hop) * window
        bins = np.empty((frames.shape[0], fft_size // 2 + 1), dtype=np.complex128)
        chunk = 4096
        for start in range(0, frames.shape[0], chunk):
            bins[start:start + chunk] = np.fft.rfft(frames[start:start + chunk],
                                                    n=fft_size, axis=1)
        out.append(Spectrogram(bins=bins, fft_size=fft_size,
                               sample_rate=clip.sample_rate))
    return tuple(out)


def downmix_to_mono(clip: AudioClip) -> AudioClip:
    """Average the two channels of a stereo clip."""
    if clip.channel_count != 2:
        raise ValueError("downmix_to_mono expects a stereo clip")
    mono = clip.samples.mean(axis=0, keepdims=True)
    return AudioClip(samples=mono, sample_rate=clip.sample_rate)


# ---------------------------------------------------------------------------
# WAV codec


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise AudioFormatError(f"unreadable WAV file: truncated {what}")
    return data


def decode_wav(path: str | os.PathLike) -> AudioClip:
    """Decode an uncompressed PCM RIFF/WAVE file (16- or 24-bit, 1-2 channels)."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise AudioFormatError(f"unreadable WAV file: {exc}") from exc
    with fh:
        header = fh.read(12)
        if len(header) != 12 or header[:4] != b"RIFF" or header[8:12] != b"WAVE":
            raise AudioFormatError(f"unreadable WAV file: not RIFF/WAVE ({path})")
        fmt = None
        data = None
        while True:
            chunk_header = fh.read(8)
            if len(chunk_header) < 8:
                break
            chunk_id, chunk_size = struct.unpack("<4sI", chunk_header)
            if chunk_id == b"fmt ":
                fmt = _read_exact(fh, chunk_size, "fmt chunk")
            elif chunk_id == b"data":
                data = _read_exact(fh, chunk_size, "data chunk")
            else:
                fh.seek(chunk_size, os.SEEK_CUR)
            if chunk_size % 2:  # chunks are word-aligned
                fh.seek(1, os.SEEK_CUR)
            if fmt is not None and data is not None:
                break
    if fmt is None or len(fmt) < 16:
        raise AudioFormatError(f"unreadable WAV file: missing fmt chunk ({path})")
    if data is None:
        raise AudioFormatError(f"unreadable WAV file: missing data chunk ({path})")
    (audio_format, channels, sample_rate, _byte_rate,
     block_align, bits) = struct.unpack("<HHIIHH", fmt[:16])
    if audio_format == _WAVE_FORMAT_EXTENSIBLE and len(fmt) >= 26:
        audio_format = struct.unpack("<H", fmt[24:26])[0]
    if audio_format != _WAVE_FORMAT_PCM:
        raise AudioFormatError(
            f"unsupported WAV encoding: format tag 0x{audio_format:04X}, "
            "only uncompressed PCM is handled")
    if bits not in (16, 24):
        raise AudioFormatError(f"unsupported WAV encoding: {bits}-bit PCM "
                               "(expected 16 or 24)")
    if channels not in (1, 2):
        raise AudioFormatError(f"unsupported WAV encoding: {channels} channels")
    if sample_rate == 0:
        raise AudioFormatError(f"unsupported WAV encoding: sample rate 0 ({path})")
    bytes_per_sample = bits // 8
    if block_align and block_align != bytes_per_sample * channels:
        raise AudioFormatError("unsupported WAV encoding: unexpected block alignment")
    frame_bytes = bytes_per_sample * channels
    usable = len(data) - len(data) % frame_bytes
    if usable == 0:
        raise AudioFormatError(f"zero-length audio: no samples in {path}")
    data = data[:usable]
    if bits == 16:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0
    else:
        raw = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        as_int = (raw[:, 0].astype(np.int32)
                  | (raw[:, 1].astype(np.int32) << 8)
                  | (raw[:, 2].astype(np.int32) << 16))
        as_int = np.where(as_int >= 1 << 23, as_int - (1 << 24), as_int)
        flat = as_int.astype(np.float64) / float(1 << 23)
    samples = flat.reshape(-1, channels).T.copy()
    return AudioClip(samples=samples, sample_rate=sample_rate)


def encode_wav(path: str | os.PathLike, clip: AudioClip) -> None:
    """Write an AudioClip as 16-bit PCM WAV; the write is atomic (tmp + rename)."""
    scaled = np.clip(np.rint(clip.samples * 32768.0), -32768, 32767)
    payload = scaled.T.astype("<i2").tobytes()
    channels = clip.channel_count
    block_align = channels * 2
    byte_rate = clip.sample_rate * block_align
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _WAVE_FORMAT_PCM, channels,
                                    clip.sample_rate, byte_rate, block_align, 16)
    header += b"data" + struct.pack("<I", len(payload))
    atomic_write_bytes(path, header + payload)
