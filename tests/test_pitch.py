import numpy as np
import pytest

import binsed.features
from binsed.audio import (AudioClip, FrameGrid, Spectrogram, decode_wav,
                          downmix_to_mono, stft)
from binsed.cli import main
from binsed.features import extract_block_values
from binsed.layout import FeatureLayout, FeatureMatrix
from binsed.pitch import extract_pitch


def _tone_clip(freqs_amps, sample_rate=44100, seconds=1.0):
    t = np.arange(int(seconds * sample_rate)) / sample_rate
    x = np.zeros_like(t)
    for freq, amp in freqs_amps:
        x += amp * np.sin(2 * np.pi * freq * t)
    x *= 0.8 / max(np.max(np.abs(x)), 1e-9)
    return AudioClip(samples=x[None, :], sample_rate=sample_rate)


class TestSingleTone:
    def test_440_within_half_percent(self):
        clip = _tone_clip([(440.0, 1.0)])
        spec = stft(clip)[0]
        got = extract_pitch(spec, top_k=1)
        assert got.values.shape == (spec.frame_count, 2)
        freqs = got.values[:, 0]
        assert np.all(np.abs(freqs - 440.0) <= 0.005 * 440.0)

    def test_dominant_peak_periodicity_is_one(self):
        clip = _tone_clip([(440.0, 1.0)])
        got = extract_pitch(stft(clip)[0], top_k=1)
        # the frame maximum is the peak itself, so its score saturates
        assert np.all(got.values[:, 1] == 1.0)

    @pytest.mark.parametrize("freq", [150.0, 440.0, 987.0, 2500.0, 3900.0])
    def test_sweep_within_one_percent(self, freq):
        clip = _tone_clip([(freq, 1.0)])
        got = extract_pitch(stft(clip)[0], top_k=1)
        assert np.all(np.abs(got.values[:, 0] - freq) <= 0.01 * freq)

    def test_16k_sample_rate_too(self):
        clip = _tone_clip([(440.0, 1.0)], sample_rate=16000)
        got = extract_pitch(stft(clip)[0], top_k=1)
        assert np.all(np.abs(got.values[:, 0] - 440.0) <= 0.01 * 440.0)


class TestTopK:
    def test_three_tone_dominance_order(self):
        mix = [(440.0, 1.0), (1320.0, 0.55), (2750.0, 0.3)]
        clip = _tone_clip(mix)
        got = extract_pitch(stft(clip)[0], top_k=3)
        assert got.values.shape[1] == 6
        for t in range(2, got.values.shape[0] - 2):
            row = got.values[t]
            for rank, (freq, _) in enumerate(mix):
                assert abs(row[2 * rank] - freq) <= 0.01 * freq
            # periodicity ordered by dominance
            assert row[1] >= row[3] >= row[5]

    def test_missing_peaks_zero_filled(self):
        clip = _tone_clip([(440.0, 1.0)])
        got = extract_pitch(stft(clip)[0], top_k=3)
        mid = got.values[got.values.shape[0] // 2]
        assert abs(mid[0] - 440.0) < 4.4
        # a pure tone has one spectral peak above threshold in range
        assert mid[2] == 0.0 and mid[3] == 0.0
        assert mid[4] == 0.0 and mid[5] == 0.0

    def test_subthreshold_peak_excluded(self):
        # second tone at 5% of the dominant magnitude: below the 0.1 gate
        clip = _tone_clip([(440.0, 1.0), (2000.0, 0.04)])
        got = extract_pitch(stft(clip)[0], top_k=2, threshold=0.1)
        mid = got.values[got.values.shape[0] // 2]
        assert mid[2] == 0.0 and mid[3] == 0.0
        # lowering the gate admits it
        got2 = extract_pitch(stft(clip)[0], top_k=2, threshold=0.01)
        mid2 = got2.values[got2.values.shape[0] // 2]
        assert abs(mid2[2] - 2000.0) <= 20.0


class TestRangeAndEdges:
    def test_silence_gives_zeros(self):
        clip = AudioClip(samples=np.zeros((1, 44100)), sample_rate=44100)
        got = extract_pitch(stft(clip)[0], top_k=3)
        assert np.all(got.values == 0.0)

    def test_out_of_range_tone_ignored(self):
        # 6 kHz is outside the 100-4000 Hz search range
        clip = _tone_clip([(6000.0, 1.0)], sample_rate=16000)
        got = extract_pitch(stft(clip)[0], top_k=1)
        assert np.all(got.values == 0.0)

    def test_frequencies_stay_in_range(self):
        rng = np.random.default_rng(4)
        clip = AudioClip(samples=rng.standard_normal((1, 44100)) * 0.3,
                         sample_rate=44100)
        got = extract_pitch(stft(clip)[0], top_k=3)
        freqs = got.values[:, 0::2]
        periodicity = got.values[:, 1::2]
        live = freqs > 0
        assert np.all(freqs[live] >= 100.0)
        assert np.all(freqs[live] <= 4000.0)
        assert np.all(periodicity >= 0.0)
        assert np.all(periodicity <= 1.0)

    def test_periodicity_reflects_dominance(self):
        # in-range peak much weaker than an out-of-range one scores low
        clip = _tone_clip([(440.0, 0.2), (6000.0, 1.0)], sample_rate=16000)
        got = extract_pitch(stft(clip)[0], top_k=1)
        mid = got.values[got.values.shape[0] // 2]
        assert abs(mid[0] - 440.0) < 4.4
        assert 0.0 < mid[1] < 0.5

    def test_parameter_validation(self):
        clip = _tone_clip([(440.0, 1.0)], sample_rate=16000, seconds=0.2)
        spec = stft(clip)[0]
        with pytest.raises(ValueError):
            extract_pitch(spec, top_k=0)
        with pytest.raises(ValueError):
            extract_pitch(spec, f_min=500.0, f_max=100.0)
        with pytest.raises(ValueError):
            extract_pitch(spec, f_max=9000.0)  # beyond Nyquist


def loop_extract_pitch(spec, top_k=1, f_min=100.0, f_max=4000.0,
                       threshold=0.1):
    """The per-frame loop extract_pitch replaced, kept as the reference."""
    magnitude = np.abs(spec.bins)
    bin_hz = spec.sample_rate / spec.fft_size
    k_lo = max(1, int(np.ceil(f_min / bin_hz)))
    k_hi = min(spec.bin_count - 2, int(np.floor(f_max / bin_hz)))
    values = np.zeros((spec.frame_count, 2 * top_k))
    if k_hi < k_lo:
        return FeatureMatrix(values=values,
                             layout=FeatureLayout((("pitch", 2 * top_k),)))

    log_mag = np.log(np.maximum(magnitude, 1e-300))
    for t in range(spec.frame_count):
        row = magnitude[t]
        frame_max = row.max()
        if frame_max <= 0.0:
            continue
        seg = row[k_lo - 1:k_hi + 2]
        center = seg[1:-1]
        is_peak = (center > seg[:-2]) & (center >= seg[2:]) \
            & (center >= threshold * frame_max)
        peak_bins = np.nonzero(is_peak)[0] + k_lo
        if peak_bins.size == 0:
            continue
        alpha = log_mag[t, peak_bins - 1]
        beta = log_mag[t, peak_bins]
        gamma = log_mag[t, peak_bins + 1]
        denom = alpha - 2.0 * beta + gamma
        shift = np.where(np.abs(denom) > 0.0,
                         0.5 * (alpha - gamma) / np.where(denom == 0.0, 1.0, denom),
                         0.0)
        shift = np.clip(shift, -0.5, 0.5)
        interp_log = beta - 0.25 * (alpha - gamma) * shift
        interp_mag = np.exp(interp_log)
        freqs = np.clip((peak_bins + shift) * bin_hz, f_min, f_max)
        order = np.argsort(-interp_mag, kind="stable")[:top_k]
        periodicity = np.clip(interp_mag[order] / frame_max, 0.0, 1.0)
        for rank, idx in enumerate(order):
            values[t, 2 * rank] = freqs[idx]
            values[t, 2 * rank + 1] = periodicity[rank]
    return FeatureMatrix(values=values,
                         layout=FeatureLayout((("pitch", 2 * top_k),)))


@pytest.fixture(scope="module")
def oracle_spectra(tmp_path_factory):
    """Spectra that cover what the pitch search meets: the README quick-start
    corpus (mono downmix, left and right), silence, uniform noise and tones
    at 16 and 44.1 kHz, and a one-frame clip."""
    root = tmp_path_factory.mktemp("pitch_oracle")
    assert main(["synth", "--data-root", str(root), "--context", "park",
                 "--recordings", "6", "--duration", "20", "--seed", "3"]) == 0
    spectra = {}
    for index in range(6):
        clip = decode_wav(str(root / "park" / "audio" / f"rec{index:03d}.wav"))
        left, right = stft(clip)
        spectra[f"rec{index:03d}_mono"] = stft(downmix_to_mono(clip))[0]
        spectra[f"rec{index:03d}_left"] = left
        spectra[f"rec{index:03d}_right"] = right
    rng = np.random.default_rng(11)
    for rate in (16000, 44100):
        spectra[f"silence_{rate}"] = stft(
            AudioClip(samples=np.zeros((1, rate)), sample_rate=rate))[0]
        spectra[f"noise_{rate}"] = stft(AudioClip(
            samples=rng.uniform(-1.0, 1.0, (1, 2 * rate)), sample_rate=rate))[0]
        spectra[f"tones_{rate}"] = stft(_tone_clip(
            [(440.0, 1.0), (1320.0, 0.55), (2750.0, 0.3)], sample_rate=rate))[0]
    one_frame = AudioClip(samples=rng.uniform(-1.0, 1.0, (1, 640)),
                          sample_rate=16000)
    spectra["one_frame"] = stft(one_frame)[0]
    assert spectra["one_frame"].frame_count == 1
    return spectra


_ORACLE_NAMES = ([f"rec{i:03d}_{ch}" for i in range(6)
                  for ch in ("mono", "left", "right")]
                 + [f"{kind}_{rate}" for kind in ("silence", "noise", "tones")
                    for rate in (16000, 44100)]
                 + ["one_frame"])


class TestLoopEquivalence:
    @pytest.mark.parametrize("name", _ORACLE_NAMES)
    def test_bit_identical_to_the_frame_loop(self, oracle_spectra, name):
        spec = oracle_spectra[name]
        for top_k in (1, 3):
            for threshold in (0.0, 0.1, 0.9):
                want = loop_extract_pitch(spec, top_k, threshold=threshold)
                got = extract_pitch(spec, top_k, threshold=threshold)
                assert got.layout == want.layout
                assert np.array_equal(got.values, want.values), \
                    (top_k, threshold)

    @pytest.mark.parametrize("name", _ORACLE_NAMES)
    def test_top_one_is_the_first_pair_of_top_three(self, oracle_spectra,
                                                    name):
        spec = oracle_spectra[name]
        assert np.array_equal(extract_pitch(spec, 1).values,
                              extract_pitch(spec, 3).values[:, :2])

    def test_empty_search_range_is_zero_filled(self, oracle_spectra):
        # 100-105 Hz falls between two 15.6 Hz bins: k_hi < k_lo.
        spec = oracle_spectra["tones_16000"]
        got = extract_pitch(spec, 3, f_min=100.0, f_max=105.0)
        want = loop_extract_pitch(spec, 3, f_min=100.0, f_max=105.0)
        assert np.array_equal(got.values, want.values)
        assert got.values.shape == (spec.frame_count, 6)
        assert not got.values.any()
        # Two bins only: no bin has a neighbour on both sides.
        tiny = Spectrogram(bins=np.ones((4, 2), dtype=complex), fft_size=2,
                           sample_rate=16000)
        assert np.array_equal(extract_pitch(tiny, 2).values,
                              loop_extract_pitch(tiny, 2).values)
        assert extract_pitch(tiny, 2).values.shape == (4, 4)


class TestOnePassPerSpectrum:
    def test_pitch_blocks_share_one_top_three_pass(self, monkeypatch):
        clip = AudioClip(
            samples=np.random.default_rng(2).uniform(-1.0, 1.0, (2, 16000)),
            sample_rate=16000)
        calls = []

        def counting(spec, *args, **kwargs):
            calls.append(spec)
            return extract_pitch(spec, *args, **kwargs)

        monkeypatch.setattr(binsed.features, "extract_pitch", counting)
        got = extract_block_values(
            clip, ["pitch_1", "pitch_2", "pitch3_1", "pitch3_2"])
        assert len(calls) == 3  # mono, left, right
        left, right = stft(clip)
        mono = stft(downmix_to_mono(clip))[0]
        want = np.hstack([extract_pitch(s, top_k).values
                          for top_k, specs in ((1, [mono]), (1, [left, right]),
                                               (3, [mono]), (3, [left, right]))
                          for s in specs]).astype(np.float32)
        assert np.array_equal(got.values, want)
