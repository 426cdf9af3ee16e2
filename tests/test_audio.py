import struct

import numpy as np
import pytest

from binsed.audio import (AudioClip, FrameGrid, decode_wav, downmix_to_mono,
                          encode_wav, next_pow2, periodic_hamming, stft)
from binsed.errors import AudioFormatError, DataError


def _wav_bytes(payload: bytes, channels=1, sample_rate=16000, bits=16,
               format_tag=1) -> bytes:
    block_align = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, format_tag, channels,
                                    sample_rate, sample_rate * block_align,
                                    block_align, bits)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload


class TestWavCodec:
    def test_16bit_scaling_oracle(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = struct.pack("<4h", 16384, -32768, 32767, 0)
        path.write_bytes(_wav_bytes(payload))
        clip = decode_wav(path)
        assert clip.sample_rate == 16000
        assert clip.channel_count == 1
        expected = [0.5, -1.0, 32767 / 32768, 0.0]
        assert clip.samples[0].tolist() == expected

    def test_24bit_scaling_oracle(self, tmp_path):
        path = tmp_path / "x.wav"
        # 0x7FFFFF (max positive), 0x800000 (min negative), +1 LSB
        payload = bytes([0xFF, 0xFF, 0x7F, 0x00, 0x00, 0x80, 0x01, 0x00, 0x00])
        path.write_bytes(_wav_bytes(payload, bits=24))
        clip = decode_wav(path)
        full = float(1 << 23)
        assert clip.samples[0].tolist() == [(full - 1) / full, -1.0, 1.0 / full]

    def test_stereo_deinterleave(self, tmp_path):
        path = tmp_path / "x.wav"
        payload = struct.pack("<6h", 100, -100, 200, -200, 300, -300)
        path.write_bytes(_wav_bytes(payload, channels=2))
        clip = decode_wav(path)
        assert clip.samples.shape == (2, 3)
        assert np.allclose(clip.samples[0] * 32768, [100, 200, 300])
        assert np.allclose(clip.samples[1] * 32768, [-100, -200, -300])

    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(11)
        clip = AudioClip(samples=rng.uniform(-0.9, 0.9, size=(2, 333)),
                         sample_rate=44100)
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        encode_wav(first, clip)
        decoded = decode_wav(first)
        encode_wav(second, decoded)
        redecoded = decode_wav(second)
        assert np.array_equal(decoded.samples, redecoded.samples)
        assert first.read_bytes() == second.read_bytes()

    def test_unreadable_diagnostic(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"not a wave file at all")
        with pytest.raises(AudioFormatError, match="unreadable"):
            decode_wav(path)
        with pytest.raises(AudioFormatError, match="unreadable"):
            decode_wav(tmp_path / "missing.wav")

    def test_unsupported_diagnostic(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00\x00", format_tag=3))  # IEEE float
        with pytest.raises(AudioFormatError, match="unsupported"):
            decode_wav(path)
        path.write_bytes(_wav_bytes(b"\x00\x00\x00\x00", bits=8))
        with pytest.raises(AudioFormatError, match="unsupported"):
            decode_wav(path)

    def test_zero_length_diagnostic(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b""))
        with pytest.raises(AudioFormatError, match="zero-length"):
            decode_wav(path)

    def test_zero_sample_rate_diagnostic(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(b"\x00\x00" * 8, sample_rate=0))
        with pytest.raises(AudioFormatError, match="sample rate 0"):
            decode_wav(path)


class TestFraming:
    def test_sample_counts_at_44100(self):
        grid = FrameGrid()
        assert grid.frame_samples(44100) == 1764
        assert grid.hop_samples(44100) == 882
        assert grid.frame_count(44100, 44100) == 49

    def test_sample_counts_at_16000(self):
        grid = FrameGrid()
        assert grid.frame_samples(16000) == 640
        assert grid.hop_samples(16000) == 320

    def test_trailing_partial_frame_dropped(self):
        grid = FrameGrid()
        frame, hop = 640, 320
        assert grid.frame_count(frame, 16000) == 1
        assert grid.frame_count(frame + hop - 1, 16000) == 1
        assert grid.frame_count(frame + hop, 16000) == 2

    def test_frame_count_formula_property(self):
        grid = FrameGrid()
        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(0, 50000))
            count = grid.frame_count(n, 16000)
            if count == 0:
                assert n < 640
            else:
                assert 320 * (count - 1) + 640 <= n
                assert 320 * count + 640 > n

    def test_frame_centers(self):
        grid = FrameGrid()
        assert grid.frame_center_seconds(0) == pytest.approx(0.02)
        assert grid.frame_center_seconds(9) == pytest.approx(0.20)


class TestStft:
    def test_periodic_hamming_endpoints(self):
        w = periodic_hamming(640)
        assert w[0] == pytest.approx(0.08)
        assert w[320] == pytest.approx(1.0)
        # periodic symmetry: w[k] == w[N-k]
        assert np.allclose(w[1:], w[1:][::-1])

    def test_parseval_energy_oracle(self):
        rng = np.random.default_rng(21)
        clip = AudioClip(samples=rng.standard_normal((1, 16000)) * 0.1,
                         sample_rate=16000)
        grid = FrameGrid()
        spec = stft(clip, grid)[0]
        assert spec.fft_size == 1024
        window = periodic_hamming(640)
        for t in [0, 7, spec.frame_count - 1]:
            frame = clip.samples[0][t * 320:t * 320 + 640] * window
            time_energy = np.sum(frame ** 2)
            bins = spec.bins[t]
            spectral = (np.abs(bins[0]) ** 2 + np.abs(bins[-1]) ** 2
                        + 2.0 * np.sum(np.abs(bins[1:-1]) ** 2))
            assert spectral == pytest.approx(1024 * time_energy, rel=1e-9)

    def test_impulse_linear_phase(self):
        # an impulse m samples into the frame has phase -2*pi*k*m/N
        n = 2048
        samples = np.zeros((1, n))
        m = 100
        samples[0, m] = 1.0
        clip = AudioClip(samples=samples, sample_rate=16000)
        spec = stft(clip, FrameGrid())[0]
        k = np.arange(spec.bin_count)
        expected = periodic_hamming(640)[m] * np.exp(-2j * np.pi * k * m / 1024)
        assert np.allclose(spec.bins[0], expected, atol=1e-12)

    def test_stereo_channels_independent(self):
        rng = np.random.default_rng(3)
        samples = rng.standard_normal((2, 3200)) * 0.2
        clip = AudioClip(samples=samples, sample_rate=16000)
        both = stft(clip)
        left = stft(AudioClip(samples=samples[:1], sample_rate=16000))[0]
        right = stft(AudioClip(samples=samples[1:], sample_rate=16000))[0]
        assert len(both) == 2
        assert np.array_equal(both[0].bins, left.bins)
        assert np.array_equal(both[1].bins, right.bins)

    def test_clip_shorter_than_frame_rejected(self):
        clip = AudioClip(samples=np.zeros((1, 639)), sample_rate=16000)
        with pytest.raises(DataError, match="shorter than one"):
            stft(clip)

    def test_next_pow2(self):
        assert next_pow2(1764) == 2048
        assert next_pow2(640) == 1024
        assert next_pow2(1024) == 1024


class TestDownmix:
    def test_mono_is_channel_mean(self):
        rng = np.random.default_rng(9)
        samples = rng.uniform(-0.5, 0.5, size=(2, 100))
        mono = downmix_to_mono(AudioClip(samples=samples, sample_rate=8000))
        assert mono.channel_count == 1
        assert np.array_equal(mono.samples[0],
                              (samples[0] + samples[1]) / 2.0)

    def test_rejects_mono_input(self):
        clip = AudioClip(samples=np.zeros((1, 10)), sample_rate=8000)
        with pytest.raises(ValueError):
            downmix_to_mono(clip)


class TestAudioClip:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros((3, 10)), sample_rate=8000)
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros(10), sample_rate=8000)
        with pytest.raises(ValueError):
            AudioClip(samples=np.zeros((1, 10)), sample_rate=0)
