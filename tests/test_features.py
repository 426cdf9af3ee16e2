import numpy as np
import pytest

from binsed.audio import AudioClip
from binsed.container import read_features, write_features
from binsed.errors import DataError
from binsed.features import (ABLATION_COMBINATIONS, FeatureConfig,
                             assemble_features, combination_width,
                             extract_block_values, parse_combination)
from binsed.layout import FeatureLayout, FeatureMatrix

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
        assert np.allclose(both.values[:, :40], left.values)

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
