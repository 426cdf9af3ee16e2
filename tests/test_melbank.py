import numpy as np
import pytest

from binsed.audio import AudioClip, FrameGrid, stft
from binsed.melbank import (build_mel_filterbank, extract_log_mel, hz_to_mel,
                            mel_to_hz)

# 2595 * log10(2) and 2595 * log10(1 + 10/7)
MEL_OF_700 = 781.1728387480312
MEL_OF_1000 = 999.9855371396244


class TestMelScale:
    def test_frozen_values(self):
        assert float(hz_to_mel(0.0)) == 0.0
        assert float(hz_to_mel(700.0)) == pytest.approx(MEL_OF_700, abs=1e-9)
        assert float(hz_to_mel(1000.0)) == pytest.approx(MEL_OF_1000, abs=1e-9)

    def test_roundtrip_property(self):
        rng = np.random.default_rng(17)
        freqs = rng.uniform(0.0, 22050.0, size=500)
        assert np.allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12,
                           atol=1e-9)

    def test_monotone(self):
        freqs = np.linspace(0, 22050, 1000)
        assert np.all(np.diff(hz_to_mel(freqs)) > 0)


class TestFilterbank:
    def test_shapes_and_range(self):
        fb = build_mel_filterbank(40, 2048, 44100)
        assert fb.weights.shape == (40, 1025)
        assert fb.band_count == 40
        assert np.all(fb.weights >= 0.0)
        assert np.all(fb.weights <= 1.0)
        # every filter must respond somewhere
        assert np.all(fb.weights.max(axis=1) > 0.0)
        with pytest.raises(ValueError):
            build_mel_filterbank(0, 2048, 16000)

    def test_edges_equally_spaced_in_mel(self):
        fb = build_mel_filterbank(5, 4096, 16000)
        mels = hz_to_mel(fb.edges_hz)
        assert np.allclose(np.diff(mels), mels[1] - mels[0], rtol=1e-9)
        assert fb.edges_hz[0] == pytest.approx(0.0)
        assert fb.edges_hz[-1] == pytest.approx(8000.0)

    def test_triangle_peaks_near_center(self):
        fb = build_mel_filterbank(8, 4096, 16000)
        bin_hz = 16000 / 4096
        for b in range(8):
            lo, hi = fb.edges_hz[b], fb.edges_hz[b + 2]
            peak_bin = int(np.argmax(fb.weights[b]))
            # the discrete peak sits inside the triangle and close to 1
            assert lo < peak_bin * bin_hz < hi
            assert 0.95 <= fb.weights[b].max() <= 1.0
            # rises then falls: no second hump
            diffs = np.diff(fb.weights[b][fb.weights[b] > 0])
            sign_changes = np.sum(np.diff(np.sign(diffs)) != 0)
            assert sign_changes <= 1


class TestLogMel:
    def test_against_naive_loop_oracle(self):
        rng = np.random.default_rng(29)
        clip = AudioClip(samples=rng.standard_normal((1, 8000)) * 0.2,
                         sample_rate=16000)
        spec = stft(clip)[0]
        fb = build_mel_filterbank(12, spec.fft_size, 16000)
        got = extract_log_mel(spec, fb, floor=1e-10)
        assert got.layout.blocks == (("mel", 12),)
        for t in range(spec.frame_count):
            for b in range(12):
                acc = 0.0
                for k in range(spec.bin_count):
                    acc += fb.weights[b, k] * abs(spec.bins[t, k]) ** 2
                assert got.values[t, b] == pytest.approx(np.log(acc + 1e-10),
                                                         rel=1e-12)

    def test_silence_hits_floor(self):
        clip = AudioClip(samples=np.zeros((1, 4000)), sample_rate=16000)
        spec = stft(clip)[0]
        fb = build_mel_filterbank(40, spec.fft_size, 16000)
        got = extract_log_mel(spec, fb)
        assert np.allclose(got.values, np.log(1e-10))

    def test_default_width_is_40(self):
        rng = np.random.default_rng(1)
        clip = AudioClip(samples=rng.standard_normal((1, 44100)) * 0.1,
                         sample_rate=44100)
        spec = stft(clip)[0]
        fb = build_mel_filterbank(40, spec.fft_size, 44100)
        got = extract_log_mel(spec, fb)
        assert got.values.shape == (49, 40)

    def test_tone_energy_lands_in_covering_bands(self):
        sr = 16000
        t = np.arange(sr) / sr
        clip = AudioClip(samples=(0.4 * np.sin(2 * np.pi * 1000.0 * t))[None, :],
                         sample_rate=sr)
        spec = stft(clip)[0]
        fb = build_mel_filterbank(40, spec.fft_size, sr)
        got = extract_log_mel(spec, fb)
        hot = int(np.argmax(got.values[10]))
        lo, hi = fb.edges_hz[hot], fb.edges_hz[hot + 2]
        assert lo <= 1000.0 <= hi

    def test_size_mismatch_rejected(self):
        clip = AudioClip(samples=np.zeros((1, 4000)), sample_rate=16000)
        spec = stft(clip)[0]
        with pytest.raises(ValueError, match="fft_size"):
            extract_log_mel(spec, build_mel_filterbank(40, 2048, 16000))
        with pytest.raises(ValueError, match="sample rate"):
            extract_log_mel(spec, build_mel_filterbank(40, spec.fft_size, 8000))
