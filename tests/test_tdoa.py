import sys

import numpy as np
import pytest

from binsed import parallel, tdoa
from binsed.audio import AudioClip, FrameGrid, Spectrogram
from binsed.errors import DataError
from binsed.melbank import build_mel_filterbank
from binsed.synth import SynthClass, random_scene_plan, synthesize_scene
from binsed.tdoa import (TdoaConfig, _band_delays, _lag_bases, _LagBasis,
                         _lag_order, _window_plan, collapse_windows,
                         extract_tdoa, gcc_phat_band, max_delay_samples,
                         tdoa_window_spectrograms)


def _delayed_noise_clip(delay, sample_rate=16000, seconds=2.0, seed=7,
                        scale=0.2):
    """Channel 2 is channel 1 shifted by ``delay`` samples (it lags when
    delay is positive)."""
    rng = np.random.default_rng(seed)
    n = int(seconds * sample_rate)
    left = rng.standard_normal(n) * scale
    right = np.zeros(n)
    if delay >= 0:
        right[delay:] = left[:n - delay] if delay else left
    else:
        right[:delay] = left[-delay:]
    return AudioClip(samples=np.stack([left, right]), sample_rate=sample_rate)


def naive_band_delay(bins1, bins2, weights, fft_size, max_lag, floor=1e-12):
    """Reference GCC-PHAT: explicit full-spectrum sum over every candidate
    lag, scanning in the tie-break order (0, -1, +1, -2, +2, ...)."""
    cross = bins1 * np.conj(bins2)
    magnitude = np.abs(bins1) * np.abs(bins2)
    whitened = np.where(magnitude > floor, cross / np.where(magnitude > floor,
                                                            magnitude, 1.0), 0.0)
    weighted = whitened * weights
    # hermitian extension to the full spectrum
    full = np.zeros(fft_size, dtype=complex)
    full[:len(weighted)] = weighted
    if fft_size % 2 == 0:
        full[len(weighted):] = np.conj(weighted[1:-1][::-1])
    else:
        full[len(weighted):] = np.conj(weighted[1:][::-1])
    k = np.arange(fft_size)
    order = [0]
    for d in range(1, max_lag + 1):
        order.extend((-d, d))
    scores = [np.abs(np.sum(full * np.exp(-2j * np.pi * k * delta / fft_size)))
              for delta in order]
    top = max(scores)
    for delta, score in zip(order, scores):
        if score >= top * (1.0 - 1e-12):
            return delta
    return 0


class TestGccPhatBand:
    def test_against_naive_oracle_on_random_spectra(self):
        rng = np.random.default_rng(101)
        fft_size = 256
        bins = fft_size // 2 + 1
        fb = build_mel_filterbank(5, fft_size, 16000)
        grid = FrameGrid()
        for trial in range(40):
            x1 = rng.standard_normal((1, bins)) + 1j * rng.standard_normal((1, bins))
            x2 = rng.standard_normal((1, bins)) + 1j * rng.standard_normal((1, bins))
            s1 = Spectrogram(bins=x1, fft_size=fft_size, sample_rate=16000,
                             grid=grid)
            s2 = Spectrogram(bins=x2, fft_size=fft_size, sample_rate=16000,
                             grid=grid)
            band = int(rng.integers(0, 5))
            max_lag = int(rng.integers(1, 30))
            got = gcc_phat_band(s1, s2, fb, 0, band, max_lag)
            want = naive_band_delay(x1[0], x2[0], fb.weights[band], fft_size,
                                    max_lag)
            assert got == want, f"trial {trial}: {got} != {want}"

    def test_positive_when_channel_two_lags(self):
        clip = _delayed_noise_clip(+8)
        config = TdoaConfig()
        max_lag = config.max_lag(16000)
        s1, s2 = tdoa_window_spectrograms(clip, 120.0, max_lag=max_lag)
        fb = build_mel_filterbank(5, s1.fft_size, 16000)
        delays = [gcc_phat_band(s1, s2, fb, t, b, max_lag)
                  for t in range(10, s1.frame_count - 10) for b in range(5)]
        assert all(d == 8 for d in delays)

    def test_negative_when_channel_two_leads(self):
        clip = _delayed_noise_clip(-5)
        config = TdoaConfig()
        max_lag = config.max_lag(16000)
        s1, s2 = tdoa_window_spectrograms(clip, 240.0, max_lag=max_lag)
        fb = build_mel_filterbank(5, s1.fft_size, 16000)
        delays = [gcc_phat_band(s1, s2, fb, t, b, max_lag)
                  for t in range(10, s1.frame_count - 10) for b in range(5)]
        assert all(d == -5 for d in delays)

    def test_identical_channels_give_zero(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(16000) * 0.2
        clip = AudioClip(samples=np.stack([x, x]), sample_rate=16000)
        got = extract_tdoa(clip, "tdoa")
        assert np.all(got.values == 0.0)

    def test_silence_gives_zero(self):
        clip = AudioClip(samples=np.zeros((2, 16000)), sample_rate=16000)
        got = extract_tdoa(clip, "tdoa")
        assert np.all(got.values == 0.0)

    def test_lag_basis_matches_irfft_at_candidate_lags(self):
        # Weights here reach DC and Nyquist (mel bands never do), where
        # irfft counts a bin once and ignores its imaginary part.
        rng = np.random.default_rng(8)
        for fft_size in (64, 65, 256):
            bins = fft_size // 2 + 1
            weights = rng.random((2, bins))
            weights[1, :5] = 0.0
            g = rng.standard_normal((3, bins)) + 1j * rng.standard_normal((3, bins))
            g.imag[:, 0] = 1e8
            if fft_size % 2 == 0:
                g.imag[:, -1] = 1e8
            offsets = _lag_order(10, fft_size)
            for band, basis in zip(weights,
                                   _lag_bases(weights, fft_size, offsets)):
                got = (g.real[:, basis.lo:basis.hi] @ basis.real
                       + g.imag[:, basis.lo:basis.hi] @ basis.imag)
                want = np.fft.irfft(g * band, n=fft_size)[:, -offsets % fft_size]
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_tie_breaks_prefer_negative_sign(self):
        # x2 = symmetric impulse pair: |R(+4)| == |R(-4)| exactly, both
        # beating |R(0)| after whitening; the negative lag must win.
        fft_size = 128
        n = np.zeros(fft_size)
        n[0] = 1.0
        x2_time = np.zeros(fft_size)
        x2_time[4] = 1.0
        x2_time[-4] = 1.0
        x1 = np.fft.rfft(n)[None, :]
        x2 = np.fft.rfft(x2_time)[None, :]
        fb = build_mel_filterbank(1, fft_size, 16000)
        grid = FrameGrid()
        s1 = Spectrogram(bins=x1, fft_size=fft_size, sample_rate=16000, grid=grid)
        s2 = Spectrogram(bins=x2, fft_size=fft_size, sample_rate=16000, grid=grid)
        got = gcc_phat_band(s1, s2, fb, 0, 0, 10)
        want = naive_band_delay(x1[0], x2[0], fb.weights[0], fft_size, 10)
        assert got == want
        assert got == -4

    def test_near_ties_resolve_by_search_order(self):
        # Scores that differ only by last-bit noise (relative ~1e-15) count
        # as tied, so the earlier lag in the order 0, -1, +1, ... wins even
        # when its score rounded slightly low; a gap of 1e-9 is no tie.
        offsets = _lag_order(2, 64)
        noisy = 1.0 - 2.0 ** -50
        rows = ([noisy, 1.0, 0.5, 0.2, 0.1],        # 0 over -1
                [0.3, noisy, 1.0, 0.2, 0.1],        # -1 over +1
                [1.0 - 1e-9, 1.0, 0.5, 0.2, 0.1])   # a real gap: -1
        bases = [_LagBasis(lo=0, hi=1, real=np.array([row]),
                           imag=np.zeros((1, 5))) for row in rows]
        got = _band_delays(np.ones((1, 1)), np.zeros((1, 1)), bases, offsets)
        assert got.tolist() == [[0.0, -1.0, -1.0]]

    def test_leaves_spectrograms_unchanged(self):
        clip = _delayed_noise_clip(+3, seconds=0.5)
        s1, s2 = tdoa_window_spectrograms(clip, 120.0, max_lag=20)
        before = s1.bins.copy(), s2.bins.copy()
        fb = build_mel_filterbank(5, s1.fft_size, 16000)
        assert gcc_phat_band(s1, s2, fb, 5, 2, 20) == 3
        assert np.array_equal(s1.bins, before[0])
        assert np.array_equal(s2.bins, before[1])

    def test_validation(self):
        clip = _delayed_noise_clip(0, seconds=0.5)
        s1, s2 = tdoa_window_spectrograms(clip, 120.0, max_lag=10)
        fb = build_mel_filterbank(5, s1.fft_size, 16000)
        with pytest.raises(IndexError):
            gcc_phat_band(s1, s2, fb, 10_000, 0, 10)
        with pytest.raises(IndexError):
            gcc_phat_band(s1, s2, fb, 0, 9, 10)
        with pytest.raises(ValueError):
            gcc_phat_band(s1, s2, build_mel_filterbank(5, 64, 16000), 0, 0, 10)


class TestMaxDelay:
    def test_frozen_values(self):
        assert max_delay_samples(0.20, 44100) == 26
        assert max_delay_samples(0.20, 16000) == 10
        assert max_delay_samples(0.10, 44100) == 13

    def test_config_lag_is_twice_physical(self):
        config = TdoaConfig(mic_spacing_m=0.20)
        assert config.max_physical_delay(16000) == 10
        assert config.max_lag(16000) == 20
        assert config.max_lag(44100) == 52

    def test_spacing_must_be_positive(self):
        with pytest.raises(ValueError):
            max_delay_samples(0.0, 16000)


class TestExtractTdoa:
    def test_widths_and_frame_grid(self):
        clip = _delayed_noise_clip(4, seconds=1.0)
        grid = FrameGrid()
        frames = grid.frame_count(clip.sample_count, 16000)
        tdoa = extract_tdoa(clip, "tdoa")
        tdoa3 = extract_tdoa(clip, "tdoa3")
        assert tdoa.values.shape == (frames, 5)
        assert tdoa3.values.shape == (frames, 15)
        assert tdoa.layout.blocks == (("tdoa", 5),)
        assert tdoa3.layout.blocks == (("tdoa3", 15),)

    def test_constant_delay_recovered_everywhere(self):
        clip = _delayed_noise_clip(+8)
        got = extract_tdoa(clip, "tdoa")
        assert np.all(got.values == 8.0)

    def test_median_collapse_matches_tdoa3(self):
        """tdoa == per-band median over the three windows of tdoa3, then a
        truncated temporal median-3 — recomputed here as the oracle."""
        rng = np.random.default_rng(55)
        left = rng.standard_normal(24000) * 0.2
        right = np.roll(left, 5) * 0.9 + rng.standard_normal(24000) * 0.05
        clip = AudioClip(samples=np.stack([left, right]), sample_rate=16000)
        tdoa3 = extract_tdoa(clip, "tdoa3").values
        tdoa = extract_tdoa(clip, "tdoa").values
        frames = tdoa3.shape[0]
        per_window = tdoa3.reshape(frames, 3, 5)
        window_median = np.median(per_window, axis=1)
        expected = np.empty_like(window_median)
        for t in range(frames):
            lo, hi = max(0, t - 1), min(frames, t + 2)
            expected[t] = np.median(window_median[lo:hi], axis=0)
        assert np.array_equal(tdoa, expected)

    def test_all_outputs_truncated_to_lag_range(self):
        # planted delay of 3 * physical max: outputs must stay in the
        # searched interval [-2*max, +2*max]
        clip = _delayed_noise_clip(30)  # 3 * 10 at 16 kHz
        for variant in ("tdoa", "tdoa3"):
            got = extract_tdoa(clip, variant)
            assert np.all(np.abs(got.values) <= 20)

    def test_band_count_override(self):
        clip = _delayed_noise_clip(4, seconds=1.0)
        config = TdoaConfig(band_count=3)
        assert extract_tdoa(clip, "tdoa", config).values.shape[1] == 3
        assert extract_tdoa(clip, "tdoa3", config).values.shape[1] == 9

    def test_leaves_clip_unchanged(self):
        clip = _delayed_noise_clip(-2, seconds=1.0)
        before = clip.samples.copy()
        extract_tdoa(clip, "tdoa3")
        assert np.array_equal(clip.samples, before)

    def test_window_plan_is_cached_and_read_only(self):
        plan = _window_plan(5, 2048, 16000, 20)
        assert _window_plan(5, 2048, 16000, 20) is plan
        offsets, bases = plan
        with pytest.raises(ValueError, match="read-only"):
            offsets[0] = 1
        for basis in bases:
            for array in (basis.real, basis.imag):
                with pytest.raises(ValueError, match="read-only"):
                    array[0, 0] = 0.0

    def test_mono_rejected(self):
        clip = AudioClip(samples=np.zeros((1, 16000)), sample_rate=16000)
        with pytest.raises(ValueError, match="stereo"):
            extract_tdoa(clip, "tdoa")

    def test_short_clip_rejected(self):
        clip = AudioClip(samples=np.zeros((2, 500)), sample_rate=16000)
        with pytest.raises(DataError):
            extract_tdoa(clip, "tdoa")

    def test_unknown_variant_rejected(self):
        clip = _delayed_noise_clip(0, seconds=0.5)
        with pytest.raises(ValueError):
            extract_tdoa(clip, "tdoa2")

    def test_edge_frames_use_truncated_median(self):
        # first/last frame: median over two frames = their mean, which can
        # land on half-integers; interior frames stay integral
        clip = _delayed_noise_clip(+6, seconds=1.0)
        got = extract_tdoa(clip, "tdoa").values
        interior = got[1:-1]
        assert np.array_equal(interior, np.round(interior))


def seed_tdoa_stack(clip, config=TdoaConfig(), grid=FrameGrid()):
    """(frames, windows, bands) delays computed the way the first extractor
    did: PHAT by |X1| * |X2|, then one full-length irfft per band, read at
    the candidate lags (0, -1, +1, ...) with the same relative tie
    tolerance.  The reference for the lag-restricted DFT."""
    max_lag = config.max_lag(clip.sample_rate)
    offsets = [0]
    for d in range(1, max_lag + 1):
        offsets.extend((-d, d))
    offsets = np.array(offsets)
    per_window = []
    for window_ms in config.window_lengths_ms:
        s1, s2 = tdoa_window_spectrograms(clip, window_ms, grid, max_lag,
                                          config)
        n = s1.fft_size
        cross = s1.bins * np.conj(s2.bins)
        magnitude = np.abs(s1.bins) * np.abs(s2.bins)
        whitened = np.zeros_like(cross)
        live = magnitude > config.spectral_floor
        np.divide(cross, magnitude, out=whitened, where=live)
        weights = build_mel_filterbank(config.band_count, n,
                                       clip.sample_rate).weights
        delays = np.empty((s1.frame_count, config.band_count))
        for b in range(config.band_count):
            corr = np.fft.irfft(whitened * weights[b], n=n, axis=1)
            scores = np.abs(corr[:, (-offsets) % n])
            at_top = scores >= scores.max(axis=1, keepdims=True) * (1 - 1e-12)
            delays[:, b] = offsets[np.argmax(at_top, axis=1)]
        per_window.append(delays)
    return np.stack(per_window, axis=1)


def _truncated_median3(values):
    frames = values.shape[0]
    return np.array([np.median(values[max(0, t - 1):min(frames, t + 2)],
                               axis=0) for t in range(frames)])


def _regression_clips():
    classes = [SynthClass("rumble", 0, 1, 6), SynthClass("hiss", 3, 4, -8),
               SynthClass("beep", 2, 2, -3, kind="tone", pitch_hz=440.0)]
    rng = np.random.default_rng(21)
    plan = [e for e in random_scene_plan(classes, 10.5, rng)
            if 0.01 < e.onset and e.offset < 10.49]
    # 10.5 s: 524 frames, which the 480 ms window runs in several blocks:
    # 5 of 104-105 frames on one worker, and 5 of 52-53 per task on two.
    yield "scene", synthesize_scene(plan, 10.5, rng=rng).clip
    rng = np.random.default_rng(4)
    n = 48000
    left = rng.standard_normal(n) * 0.2
    right = np.roll(left, 5) * 0.8 + rng.standard_normal(n) * 0.05
    right[:16000] = left[:16000]                  # identical channels
    left[24000:40000] = right[24000:40000] = 0.0  # silence, both channels
    yield "noise", AudioClip(samples=np.stack([left, right]),
                             sample_rate=16000)
    yield "44k1", _delayed_noise_clip(+17, sample_rate=44100, seconds=0.6)
    # shorter than every analysis window: each frame is a clip-edge frame
    yield "short", _delayed_noise_clip(-4, seconds=0.1)


class TestSeedEquivalence:
    @pytest.mark.parametrize("name,clip", list(_regression_clips()))
    def test_delays_bit_identical_to_irfft_extractor(self, name, clip):
        want = seed_tdoa_stack(clip)
        frames = want.shape[0]
        tdoa3 = extract_tdoa(clip, "tdoa3").values
        tdoa = extract_tdoa(clip, "tdoa").values
        assert np.array_equal(tdoa3, want.reshape(frames, -1))
        assert np.array_equal(tdoa,
                              _truncated_median3(np.median(want, axis=1)))
        assert np.array_equal(tdoa, collapse_windows(tdoa3, 5))

    def test_silent_and_identical_spans_emit_zero(self):
        _, clip = list(_regression_clips())[1]
        tdoa3 = extract_tdoa(clip, "tdoa3").values
        # frame t covers samples [320 t, 320 t + 640); the 480 ms window
        # reaches 3840 samples either side of the frame centre
        identical = slice(0, (16000 - 3840 - 320) // 320)
        silent = slice((24000 + 3840) // 320, (40000 - 3840 - 320) // 320)
        assert np.all(tdoa3[identical] == 0.0)
        assert np.all(tdoa3[silent] == 0.0)
        assert np.any(tdoa3 == 5.0)


def _out_of_place_phat(bins1, bins2, floor):
    """The whitening as first written: X1 * conj(X2) into a new array.  On
    arrays under 256 KiB numpy multiplies in that operand order, where the
    in-place form takes conj(X2) * X1; with fused multiply-add the two can
    differ in the last bit of the imaginary part."""
    cross = bins1 * np.conj(bins2)
    magnitude = np.abs(cross)
    live = magnitude > floor
    real = np.zeros(cross.shape)
    imag = np.zeros(cross.shape)
    np.divide(cross.real, magnitude, out=real, where=live)
    np.divide(cross.imag, magnitude, out=imag, where=live)
    return real, imag


class TestWhiteningOperandOrder:
    """On inputs small enough for numpy to multiply X1 * conj(X2) in that
    order (one frame, or clips under ~0.34 s), the delays match it."""

    @pytest.mark.parametrize("seconds,sample_rate,delay",
                             [(0.1, 16000, 3), (0.2, 16000, -5),
                              (0.3, 16000, 7), (0.06, 44100, -17)])
    def test_short_clips(self, seconds, sample_rate, delay, monkeypatch):
        clip = _delayed_noise_clip(delay, sample_rate=sample_rate,
                                   seconds=seconds, seed=int(seconds * 100))
        got = extract_tdoa(clip, "tdoa3").values
        monkeypatch.setattr(tdoa, "_phat_cross_spectrum", _out_of_place_phat)
        assert np.array_equal(got, extract_tdoa(clip, "tdoa3").values)

    def test_gcc_phat_band(self, monkeypatch):
        clip = _delayed_noise_clip(+4, seconds=0.5)
        specs = tdoa_window_spectrograms(clip, 120.0, max_lag=20)
        fb = build_mel_filterbank(5, specs[0].fft_size, 16000)
        cells = [(t, b) for t in range(specs[0].frame_count) for b in range(5)]
        got = [gcc_phat_band(*specs, fb, t, b, 20) for t, b in cells]
        monkeypatch.setattr(tdoa, "_phat_cross_spectrum", _out_of_place_phat)
        assert got == [gcc_phat_band(*specs, fb, t, b, 20) for t, b in cells]


class TestWorkersAndChunks:
    """The delays must not depend on how the (window, task) pairs are cut
    into blocks or on how many threads run them."""

    @pytest.mark.parametrize("name,clip", list(_regression_clips()))
    def test_tdoa3_independent_of_workers_and_chunking(self, name, clip,
                                                       monkeypatch):
        transforms = []
        rfft = np.fft.rfft

        def spy(segments, n=None, **kwargs):
            transforms.append(n)
            return rfft(segments, n=n, **kwargs)

        monkeypatch.setattr(tdoa.np.fft, "rfft", spy)

        def run(cpus, budget):
            monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
            monkeypatch.setattr(tdoa, "_BLOCK_BINS", budget)
            transforms.clear()
            return extract_tdoa(clip, "tdoa3").values

        want = run(1, 2 ** 22)
        assert np.array_equal(run(2, 2 ** 22), want)
        # 2 ** 12 bins cut every window of every scene into several blocks:
        # more than one transform per channel for each FFT size.
        assert np.array_equal(run(1, 2 ** 12), want)
        windows = len(TdoaConfig().window_lengths_ms)
        assert len(set(transforms)) == windows
        assert all(transforms.count(n) > 2 for n in set(transforms))
        assert np.array_equal(run(2, 2 ** 12), want)
        # More workers than cores, switching threads as often as possible.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            assert np.array_equal(run(5, 2 ** 12), want)
        finally:
            sys.setswitchinterval(interval)


def _phat_into_new_arrays(bins1, bins2, floor):
    """The whitening before it reused the first spectrum's buffer: the same
    ufuncs in the same order, with the magnitude, Re G and Im G each in a
    new array."""
    np.conjugate(bins2, out=bins2)
    cross = np.multiply(bins2, bins1, out=bins2)
    magnitude = np.abs(cross)
    live = magnitude > floor
    real = np.zeros(cross.shape)
    imag = np.zeros(cross.shape)
    np.divide(cross.real, magnitude, out=real, where=live)
    np.divide(cross.imag, magnitude, out=imag, where=live)
    return real, imag


class TestWhiteningInPlace:
    """Re G and Im G are written into the first spectrum's buffer, bit for
    bit what the new-array form gives."""

    @pytest.mark.parametrize("frames,bins", [(16, 1025), (40, 2049),
                                             (3, 16385)])
    def test_equal_to_new_arrays_bit_for_bit(self, frames, bins):
        rng = np.random.default_rng(frames)
        spectra = [rng.standard_normal((frames, bins))
                   + 1j * rng.standard_normal((frames, bins))
                   for _ in range(2)]
        assert spectra[0].nbytes >= 256 * 1024
        spectra[0][:, :7] = 0.0          # silent in one channel
        spectra[1][1, :] = 0.0           # a silent frame
        spectra[0][:, -9:] *= 1e-7       # below the floor, but not zero
        spectra[1][:, -9:] *= 1e-7
        want = _phat_into_new_arrays(*(s.copy() for s in spectra), 1e-12)
        bins1, bins2 = (s.copy() for s in spectra)
        got = tdoa._phat_cross_spectrum(bins1, bins2, 1e-12)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert np.array_equal(g.view(np.uint64), w.view(np.uint64))
            assert np.shares_memory(g, bins1)
        assert np.all(got[0][:, :7] == 0.0) and np.all(got[1][1] == 0.0)
        assert np.all(got[1][:, -9:] == 0.0)


def _task_frames(calls):
    """Frame counts of the recorded ``_chunk_delays`` tasks, per FFT size
    (one FFT size per analysis window)."""
    sizes = {}
    for out, _, fft_size, *_ in calls:
        sizes.setdefault(fft_size, []).append(len(out))
    return sizes


class TestEvenSplit:
    """Each window is cut into one task per worker, sizes differing by at
    most one frame; empty tasks are dropped."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        chunk_delays = tdoa._chunk_delays

        def spy(*args):
            calls.append(args)
            chunk_delays(*args)

        monkeypatch.setattr(tdoa, "_chunk_delays", spy)
        return calls

    # 0.1 s has 4 frames: on 5 workers each window gets 4 tasks.
    @pytest.mark.parametrize("seconds", [0.1, 3.0, 12.0])
    @pytest.mark.parametrize("cpus", [1, 2, 3, 5])
    def test_one_even_task_per_worker(self, calls, monkeypatch, seconds,
                                      cpus):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        clip = _delayed_noise_clip(+3, seconds=seconds)
        frames = extract_tdoa(clip, "tdoa3").frame_count
        sizes = _task_frames(calls)
        assert len(sizes) == len(TdoaConfig().window_lengths_ms)
        for tasks in sizes.values():
            assert len(tasks) == min(cpus, frames)
            assert max(tasks) - min(tasks) <= 1
            assert sum(tasks) == frames

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_short_clip_gets_one_task_per_worker(self, calls, monkeypatch,
                                                 cpus):
        monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)
        clip = _delayed_noise_clip(-2, seconds=3.0)
        assert extract_tdoa(clip, "tdoa3").frame_count == 149
        for tasks in _task_frames(calls).values():
            assert len(tasks) == cpus

    def test_twelve_seconds_on_two_workers(self, calls, monkeypatch):
        monkeypatch.setattr(parallel, "cpu_count", lambda: 2)
        clip = _delayed_noise_clip(+1, seconds=12.0)
        assert extract_tdoa(clip, "tdoa3").frame_count == 599
        sizes = _task_frames(calls)
        assert sorted(sizes) == [2048, 4096, 8192]
        for tasks in sizes.values():
            assert sorted(tasks) == [299, 300]
