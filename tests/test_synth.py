import numpy as np
import pytest

from binsed.audio import decode_wav
from binsed.cli import _SYNTH_CLASSES
from binsed.errors import DataError
from binsed.events import parse_annotations
from binsed.melbank import build_mel_filterbank
from binsed.synth import (PlannedEvent, SynthClass, _shift_inside,
                          generate_dataset, parse_scene_plan,
                          random_scene_plan, synthesize_scene)


def _event(**overrides):
    base = dict(label="x", band_lo=0, band_hi=1, delay=4, onset=0.5,
                offset=1.5, kind="noise")
    base.update(overrides)
    return PlannedEvent(**base)


class TestSynthesizeScene:
    def test_planted_delay_is_exact_for_a_lone_event(self):
        scene = synthesize_scene([_event(delay=7)], duration=3.0,
                                 rng=np.random.default_rng(5))
        left, right = scene.clip.samples
        start = int(0.5 * 16000)
        length = 16000
        assert np.allclose(right[start + 7:start + 7 + length],
                           left[start:start + length])
        # Outside the event both channels stay silent.
        assert np.all(left[:start] == 0)
        assert np.all(right[:start + 7] == 0)

    def test_negative_delay_advances_channel_two(self):
        scene = synthesize_scene([_event(delay=-5)], duration=3.0,
                                 rng=np.random.default_rng(5))
        left, right = scene.clip.samples
        start = int(0.5 * 16000)
        assert np.allclose(right[start - 5:start - 5 + 16000],
                           left[start:start + 16000])

    def test_noise_energy_confined_to_band_range(self):
        scene = synthesize_scene([_event(band_lo=3, band_hi=4, delay=0,
                                         onset=0.0, offset=2.0)],
                                 duration=2.0, rng=np.random.default_rng(1))
        edges = build_mel_filterbank(5, 2048, 16000).edges_hz
        spectrum = np.abs(np.fft.rfft(scene.clip.samples[0]))
        freqs = np.fft.rfftfreq(scene.clip.samples.shape[1], 1 / 16000)
        inside = (freqs >= edges[3]) & (freqs <= edges[6])
        # The fade ramps smear a little energy out of band; the bulk stays in.
        assert spectrum[inside].sum() > 100 * spectrum[~inside].sum()

    def test_tone_has_harmonic_line_spectrum(self):
        scene = synthesize_scene(
            [_event(kind="tone", pitch_hz=500.0, band_lo=0, band_hi=4,
                    delay=0, onset=0.0, offset=2.0)],
            duration=2.0, rng=np.random.default_rng(1))
        spectrum = np.abs(np.fft.rfft(scene.clip.samples[0]))
        freqs = np.fft.rfftfreq(scene.clip.samples.shape[1], 1 / 16000)
        top = freqs[np.argsort(spectrum)[-8:]]
        ratios = top / 500.0
        assert np.allclose(ratios, np.round(ratios), atol=0.02)

    def test_overlapping_same_label_events_merge_in_truth(self):
        plan = [_event(onset=0.5, offset=1.5), _event(onset=1.0, offset=2.0),
                _event(onset=2.5, offset=3.0)]
        scene = synthesize_scene(plan, duration=4.0)
        spans = [(e.onset, e.offset) for e in scene.truth.events]
        assert spans == [(0.5, 2.0), (2.5, 3.0)]

    def test_distinct_labels_do_not_merge(self):
        plan = [_event(label="a"), _event(label="b")]
        scene = synthesize_scene(plan, duration=2.0)
        assert [e.label for e in scene.truth.events] == ["a", "b"]

    def test_peak_never_clips(self):
        plan = [_event(amplitude=5.0, onset=0.0, offset=2.0, delay=0)]
        scene = synthesize_scene(plan, duration=2.0)
        assert np.max(np.abs(scene.clip.samples)) <= 0.99 + 1e-12

    def test_band_range_validated(self):
        with pytest.raises(DataError, match="band range"):
            synthesize_scene([_event(band_hi=5)], duration=2.0)
        with pytest.raises(DataError, match="band range"):
            synthesize_scene([_event(band_lo=-1)], duration=2.0)
        with pytest.raises(DataError, match="band range"):
            synthesize_scene([_event(band_lo=2, band_hi=1)], duration=2.0)

    def test_delay_beyond_representable_range_rejected(self):
        # At 16 kHz with 20 cm spacing the tracked lag range is +-20 samples.
        synthesize_scene([_event(delay=20)], duration=2.0)
        with pytest.raises(DataError, match="delay"):
            synthesize_scene([_event(delay=21)], duration=2.0)

    def test_interval_outside_scene_rejected(self):
        with pytest.raises(DataError, match="outside the scene"):
            synthesize_scene([_event(onset=1.0, offset=2.5)], duration=2.0)

    def test_delayed_copy_past_clip_boundary_rejected(self):
        with pytest.raises(DataError, match="boundary"):
            synthesize_scene([_event(onset=0.0, offset=2.0, delay=4)],
                             duration=2.0)

    def test_tone_without_pitch_rejected(self):
        with pytest.raises(DataError, match="pitch_hz"):
            synthesize_scene([_event(kind="tone")], duration=2.0)

    def test_tone_with_no_harmonics_in_band_rejected(self):
        # Band 0 tops out near 920 Hz at 16 kHz, so a 1 kHz fundamental
        # has no harmonic inside it.
        with pytest.raises(DataError, match="no harmonics"):
            synthesize_scene([_event(kind="tone", pitch_hz=1000.0,
                                     band_lo=0, band_hi=0, delay=0)],
                             duration=2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DataError, match="kind"):
            synthesize_scene([_event(kind="chirp")], duration=2.0)

    def test_same_rng_reproduces_scene(self):
        plan = [_event()]
        a = synthesize_scene(plan, 2.0, rng=np.random.default_rng(9))
        b = synthesize_scene(plan, 2.0, rng=np.random.default_rng(9))
        assert np.array_equal(a.clip.samples, b.clip.samples)


class TestPlanFiles:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "plan.txt"
        path.write_text("# a comment\n"
                        "dog 0-1 +6 2.0 4.5 noise\n"
                        "beep 2-4 -3 1.0 3.0 tone 440\n"
                        "hiss 3 0 0.5 1.0 noise 0 0.2\n")
        plan = parse_scene_plan(path)
        assert plan[0] == PlannedEvent("dog", 0, 1, 6, 2.0, 4.5, "noise")
        assert plan[1] == PlannedEvent("beep", 2, 4, -3, 1.0, 3.0, "tone",
                                       440.0)
        assert plan[2].band_lo == plan[2].band_hi == 3
        assert plan[2].amplitude == 0.2

    @pytest.mark.parametrize("line", ["dog 0-1 +6 2.0 4.5",
                                      "dog x-1 +6 2.0 4.5 noise",
                                      "dog 0-1 six 2.0 4.5 noise"])
    def test_malformed_lines_rejected(self, tmp_path, line):
        path = tmp_path / "plan.txt"
        path.write_text(line + "\n")
        with pytest.raises(DataError, match=":1:"):
            parse_scene_plan(path)


class TestRandomPlansAndDatasets:
    CLASSES = [SynthClass("low", 0, 1, 6, "noise"),
               SynthClass("high", 3, 4, -6, "noise")]

    def test_random_plan_honours_recipes(self):
        rng = np.random.default_rng(2)
        plan = random_scene_plan(self.CLASSES, duration=10.0, rng=rng,
                                 events_per_class=(2, 2))
        assert sum(e.label == "low" for e in plan) == 2
        assert sum(e.label == "high" for e in plan) == 2
        for ev in plan:
            assert 0.0 <= ev.onset < ev.offset <= 10.0

    def test_generate_dataset_layout_and_determinism(self, tmp_path):
        names = generate_dataset(tmp_path, "street", self.CLASSES,
                                 recording_count=2, duration=4.0, seed=3)
        assert names == ["rec000", "rec001"]
        for name in names:
            clip = decode_wav(tmp_path / "street" / "audio" / f"{name}.wav")
            assert clip.sample_rate == 16000
            assert clip.samples.shape == (2, 64000)
            truth = parse_annotations(
                tmp_path / "street" / "annotations" / f"{name}.txt")
            assert truth.events
        again = tmp_path / "again"
        generate_dataset(again, "street", self.CLASSES, recording_count=2,
                         duration=4.0, seed=3)
        for name in names:
            a = (tmp_path / "street" / "audio" / f"{name}.wav").read_bytes()
            b = (again / "street" / "audio" / f"{name}.wav").read_bytes()
            assert a == b

    def test_cli_default_classes_render_seed_one(self, tmp_path):
        # seed 1 plans an event flush with a clip edge in rec004; its
        # delayed copy used to run past the boundary.
        names = generate_dataset(tmp_path, "home", _SYNTH_CLASSES,
                                 recording_count=5, duration=30.0, seed=1)
        assert names[-1] == "rec004"
        clip = decode_wav(tmp_path / "home" / "audio" / "rec004.wav")
        assert clip.samples.shape == (2, 480000)
        truth = parse_annotations(tmp_path / "home" / "annotations"
                                  / "rec004.txt")
        assert all(0.0 <= e.onset < e.offset <= 30.0 for e in truth.events)

    def test_edge_events_shift_inward_by_whole_milliseconds(self):
        fitting = _event(onset=0.5, offset=1.5, delay=6)
        assert _shift_inside(fitting, 2.0, 16000) is fitting
        late = _shift_inside(_event(onset=1.0, offset=2.0, delay=20), 2.0,
                             16000)
        assert (late.onset, late.offset) == (0.998, 1.998)
        early = _shift_inside(_event(onset=0.0, offset=1.0, delay=-6), 2.0,
                              16000)
        assert (early.onset, early.offset) == (0.001, 1.001)
        whole = _shift_inside(_event(onset=0.0, offset=2.0, delay=6), 2.0,
                              16000)
        assert (whole.onset, whole.offset) == (0.0, 1.999)
        synthesize_scene([late, early, whole], duration=2.0)
