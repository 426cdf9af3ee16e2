import json
import tracemalloc
import weakref

import numpy as np
import pytest

from binsed import features
from binsed.audio import AudioClip, FrameGrid, stft
from binsed.container import read_features, write_features
from binsed.errors import DataError
from binsed.features import (ABLATION_COMBINATIONS, FeatureConfig,
                             assemble_features, combination_layout,
                             combination_width,
                             extract_block_values, feature_config_from_json,
                             feature_config_to_json, parse_combination)
from binsed.layout import FeatureLayout, FeatureMatrix
from binsed.tdoa import TdoaConfig

EXPECTED_WIDTHS = {
    "mel_1": 40,
    "mel_1;pitch_1": 42,
    "mel_1;pitch3_1": 46,
    "mel_1;tdoa": 45,
    "mel_1;tdoa3": 55,
    "mel_2": 80,
    "mel_2;pitch_2": 84,
    "mel_2;pitch3_2": 92,
    "mel_2;tdoa": 85,
    "mel_2;tdoa3": 95,
    "mel_2;tdoa3;pitch_2": 99,
    "mel_2;tdoa3;pitch3_2": 107,
    "mel_2;tdoa;pitch_2": 89,
    "mel_2;tdoa;pitch3_2": 97,
}


def _stereo_clip(seconds=1.0, sample_rate=16000, seed=23):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((2, int(seconds * sample_rate))) * 0.2
    return AudioClip(samples=samples, sample_rate=sample_rate)


class TestGrammar:
    def test_parse_tokens(self):
        specs = parse_combination("mel_2;tdoa;pitch3_1")
        assert [s.token for s in specs] == ["mel_2", "tdoa", "pitch3_1"]
        assert [s.channels for s in specs] == [2, 2, 1]

    @pytest.mark.parametrize("bad", ["", ";", "mel", "mel_3", "tdoa_1",
                                     "tdoa3_2", "pitch", "mfcc_1",
                                     "mel_1;;tdoa", "mel_1;mel_1"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_combination(bad)

    def test_widths_frozen(self):
        for combo, width in EXPECTED_WIDTHS.items():
            assert combination_width(combo) == width, combo

    def test_ablation_list_matches_frozen_table(self):
        assert set(ABLATION_COMBINATIONS) == set(EXPECTED_WIDTHS)
        assert len(ABLATION_COMBINATIONS) == 14

    def test_layout_matches_tokens(self):
        layout = assemble_features(_stereo_clip(0.5),
                                   "mel_2;tdoa;pitch_2").layout
        assert layout.blocks == (("mel_2", 80), ("tdoa", 5), ("pitch_2", 4))
        assert layout.block_slice("tdoa") == slice(80, 85)


class TestFeatureConfigRecord:
    @pytest.mark.parametrize("config", [
        FeatureConfig(),
        FeatureConfig(grid=FrameGrid(frame_length_ms=32.0, hop_length_ms=10),
                      mel_bands=24, log_floor=1e-8, pitch_f_min=80.0,
                      pitch_f_max=3000.0, pitch_threshold=0.2,
                      tdoa=TdoaConfig(band_count=4, window_lengths_ms=(60.0,),
                                      mic_spacing_m=0.15,
                                      speed_of_sound=340.0,
                                      spectral_floor=1e-9))])
    def test_round_trips_through_json_text(self, config):
        text = json.dumps(feature_config_to_json(config), sort_keys=True)
        decoded = feature_config_from_json(json.loads(text))
        assert decoded == config   # a list for a tuple would not compare equal
        assert json.dumps(feature_config_to_json(decoded),
                          sort_keys=True) == text


class TestLayoutContainers:
    def test_feature_matrix_invariants(self):
        layout = FeatureLayout((("a", 2), ("b", 1)))
        FeatureMatrix(values=np.zeros((5, 3)), layout=layout)
        with pytest.raises(ValueError):
            FeatureMatrix(values=np.zeros((5, 4)), layout=layout)
        bad = np.zeros((5, 3))
        bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            FeatureMatrix(values=bad, layout=layout)
        with pytest.raises(ValueError):
            FeatureLayout((("a", 2), ("a", 1)))

    def test_block_access(self):
        layout = FeatureLayout((("a", 2), ("b", 1)))
        values = np.arange(15.0).reshape(5, 3)
        fm = FeatureMatrix(values=values, layout=layout)
        assert np.array_equal(fm.block("b"), values[:, 2:3])
        with pytest.raises(KeyError):
            fm.block("c")


class TestAssembly:
    def test_all_combinations_widths_by_construction(self):
        clip = _stereo_clip()
        for combo, width in EXPECTED_WIDTHS.items():
            fm = assemble_features(clip, combo)
            assert fm.width == width, combo
            assert fm.layout.block_names == tuple(
                s.token for s in parse_combination(combo))

    def test_blocks_agree_on_frame_count(self):
        clip = _stereo_clip(seconds=1.3)
        fm = assemble_features(clip, "mel_2;tdoa3;pitch3_2")
        assert fm.frame_count == 64  # (20800 - 640) // 320 + 1

    def test_stereo_blocks_left_then_right(self):
        clip = _stereo_clip()
        both = assemble_features(clip, "mel_2")
        left_clip = AudioClip(samples=np.vstack([clip.samples[0],
                                                 clip.samples[0]]),
                              sample_rate=clip.sample_rate)
        left = assemble_features(left_clip, "mel_1")
        # The downmix of two equal channels is exact, so both paths
        # transform the same samples.
        assert np.array_equal(both.values[:, :40], left.values)

    def test_mono_downmix_blocks(self):
        clip = _stereo_clip()
        mono = assemble_features(clip, "mel_1")
        mixed = AudioClip(samples=clip.samples.mean(axis=0, keepdims=True),
                          sample_rate=clip.sample_rate)
        direct = assemble_features(mixed, "mel_1")
        assert np.array_equal(mono.values, direct.values)

    def test_mono_clip_supports_only_downmix_families(self):
        mono = AudioClip(samples=np.random.default_rng(0)
                         .standard_normal((1, 16000)) * 0.1, sample_rate=16000)
        fm = assemble_features(mono, "mel_1;pitch_1")
        assert fm.width == 42
        with pytest.raises(DataError, match="stereo"):
            assemble_features(mono, "mel_2")
        with pytest.raises(DataError, match="stereo"):
            assemble_features(mono, "mel_1;tdoa")

    def test_select_matches_assemble(self):
        clip = _stereo_clip()
        tokens = list(dict.fromkeys(s.token for combo in ABLATION_COMBINATIONS
                                    for s in parse_combination(combo)))
        wide = extract_block_values(clip, tokens)
        assert wide.width == 164
        for combo in ABLATION_COMBINATIONS:
            names = [s.token for s in parse_combination(combo)]
            selected = wide.select(names)
            direct = assemble_features(clip, combo)
            assert selected.layout == direct.layout, combo
            assert np.array_equal(selected.values, direct.values), combo

    def test_select_missing_block(self):
        matrix = assemble_features(_stereo_clip(), "mel_1")
        with pytest.raises(KeyError, match="tdoa"):
            matrix.select(["mel_1", "tdoa"])

    def test_values_survive_the_container_bit_for_bit(self, tmp_path):
        matrix = assemble_features(_stereo_clip(), "mel_2;tdoa3;pitch3_2")
        write_features(tmp_path / "clip.feat", matrix)
        stored = read_features(tmp_path / "clip.feat")
        assert stored.layout == matrix.layout
        assert stored.values.dtype == matrix.values.dtype
        assert stored.values.tobytes() == matrix.values.tobytes()

    def test_custom_band_counts_change_widths(self):
        clip = _stereo_clip()
        config = FeatureConfig(mel_bands=20)
        fm = assemble_features(clip, "mel_2;tdoa", config)
        assert fm.width == 45
        assert combination_width("mel_2;tdoa", config) == 45

    def test_extracted_layout_is_the_combination_layout(self):
        config = FeatureConfig(mel_bands=8, tdoa=TdoaConfig(band_count=3))
        layout = combination_layout("tdoa3;mel_1; pitch_2", config)
        assert layout.blocks == (("tdoa3", 9), ("mel_1", 8), ("pitch_2", 4))
        matrix = extract_block_values(_stereo_clip(),
                                      ["tdoa3", "mel_1", "pitch_2"], config)
        assert matrix.layout == layout

    @pytest.mark.parametrize("tokens", [["mel_1", "pitch_1"],
                                        ["tdoa", "pitch3_2"]])
    def test_pitch_above_nyquist_is_a_data_error(self, tokens):
        clip = _stereo_clip(sample_rate=6000)
        with pytest.raises(DataError, match="pitch_f_max 4000.0 Hz .* 3000.0"):
            extract_block_values(clip, tokens)
        config = FeatureConfig(pitch_f_max=3000.0)
        assert extract_block_values(clip, tokens, config).frame_count > 0
        assert extract_block_values(clip, ["mel_2", "tdoa"]).frame_count > 0


class TestOneSpectrumAtATime:
    EIGHT_BLOCKS = ["mel_1", "mel_2", "pitch_1", "pitch_2", "pitch3_1",
                    "pitch3_2", "tdoa", "tdoa3"]

    def test_no_spectrum_is_alive_when_the_next_is_computed(self,
                                                            monkeypatch):
        refs = []

        def spy(clip, grid=None):
            assert all(ref() is None for ref in refs)
            spectra = stft(clip, grid)
            refs.extend(weakref.ref(obj) for spectrum in spectra
                        for obj in (spectrum, spectrum.bins))
            return spectra

        monkeypatch.setattr(features, "stft", spy)
        extract_block_values(_stereo_clip(), self.EIGHT_BLOCKS)
        # The mono downmix's, the left channel's and the right channel's.
        assert len(refs) == 6
        assert all(ref() is None for ref in refs)

    def test_a_20_s_clip_peaks_under_3_spectra(self):
        # The spectrum being read (1x) and the pitch pass's magnitude and
        # peak arrays (about 1.4x on noise) set the peak; the three spectra
        # of mono, left and right held at once took 4.7x.
        clip = _stereo_clip(seconds=20.0)
        tokens = ["mel_1", "mel_2", "pitch3_1", "pitch3_2"]
        extract_block_values(clip, tokens)  # filterbank and FFT plans cached
        spectrum = stft(AudioClip(samples=clip.samples[:1],
                                  sample_rate=clip.sample_rate))[0].bins.nbytes
        tracemalloc.start()
        try:
            extract_block_values(clip, tokens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * spectrum
