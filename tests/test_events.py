import numpy as np
import pytest

from binsed.audio import FrameGrid
from binsed.errors import AnnotationError
from binsed.events import (Event, EventList, EventRoll, parse_annotations,
                           rasterize, roll_to_events)

GRID = FrameGrid(frame_length_ms=40.0, hop_length_ms=20.0)


class TestParsing:
    def test_tab_separated_lines(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.50\t1.25\tdog bark\n2.0\t3.0\tcar\n")
        events = parse_annotations(path)
        assert events.events == [Event(0.5, 1.25, "dog bark"),
                                 Event(2.0, 3.0, "car")]

    def test_whitespace_fallback_and_blank_lines(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("\n0.5  1.0  beep\n\n# trailing comment\n")
        events = parse_annotations(path)
        assert events.events == [Event(0.5, 1.0, "beep")]

    def test_multiword_label_spaces_only(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("0.5 1.0 glass break loud\n")
        events = parse_annotations(path)
        assert events.events[0].label == "glass break loud"

    def test_events_sorted_by_onset(self, tmp_path):
        path = tmp_path / "ann.txt"
        path.write_text("2.0\t3.0\tb\n0.5\t1.0\ta\n")
        events = parse_annotations(path)
        assert [e.label for e in events.events] == ["a", "b"]

    @pytest.mark.parametrize("line", ["0.5", "0.5\t1.0", "abc\t1.0\tdog",
                                      "1.0\t0.5\tdog"])
    def test_bad_lines_raise_with_line_number(self, tmp_path, line):
        path = tmp_path / "ann.txt"
        path.write_text("0.1\t0.2\tok\n" + line + "\n")
        with pytest.raises(AnnotationError, match=":2:"):
            parse_annotations(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AnnotationError, match="cannot read"):
            parse_annotations(tmp_path / "nope.txt")

    def test_event_interval_validation(self):
        with pytest.raises(AnnotationError):
            Event(1.0, 0.5, "x")
        with pytest.raises(AnnotationError):
            Event(-0.1, 1.0, "x")


class TestRasterize:
    def test_frame_center_membership(self):
        # Centers fall at (t + 1) * 0.02 s.  An event over [0.10, 0.20)
        # covers centers 0.10, 0.12, ..., 0.18 -> frames 4..8.
        events = EventList([Event(0.10, 0.20, "a")])
        roll = rasterize(events, frame_count=15, grid=GRID,
                         class_order=("a",))
        active = np.flatnonzero(roll.activity[:, 0])
        assert active.tolist() == [4, 5, 6, 7, 8]

    def test_offset_is_exclusive_onset_inclusive(self):
        events = EventList([Event(0.04, 0.06, "a")])
        roll = rasterize(events, frame_count=5, grid=GRID, class_order=("a",))
        assert np.flatnonzero(roll.activity[:, 0]).tolist() == [1]

    def test_sub_hop_event_between_centers_is_dropped(self):
        events = EventList([Event(0.041, 0.059, "a")])
        roll = rasterize(events, frame_count=5, grid=GRID, class_order=("a",))
        assert roll.activity.sum() == 0

    def test_overlapping_classes_coexist(self):
        events = EventList([Event(0.0, 0.3, "a"), Event(0.1, 0.4, "b")])
        roll = rasterize(events, frame_count=20, grid=GRID,
                         class_order=("a", "b"))
        both = (roll.activity[:, 0] == 1) & (roll.activity[:, 1] == 1)
        assert both.any()

    def test_unknown_label_rejected(self):
        events = EventList([Event(0.0, 0.1, "mystery")])
        with pytest.raises(AnnotationError, match="mystery"):
            rasterize(events, frame_count=5, grid=GRID, class_order=("a",))

    def test_event_past_frame_count_clipped(self):
        events = EventList([Event(0.0, 99.0, "a")])
        roll = rasterize(events, frame_count=4, grid=GRID, class_order=("a",))
        assert roll.activity[:, 0].tolist() == [1, 1, 1, 1]

    def test_roll_width_checked(self):
        with pytest.raises(ValueError):
            EventRoll(activity=np.zeros((3, 2)), class_order=("a",))


class TestRollToEvents:
    def test_round_trip_through_rasterize(self):
        rng = np.random.default_rng(11)
        class_order = ("a", "b", "c")
        for _ in range(20):
            frame_count = int(rng.integers(5, 40))
            activity = (rng.random((frame_count, 3)) < 0.3).astype(np.uint8)
            roll = EventRoll(activity=activity, class_order=class_order)
            events = roll_to_events(roll, grid=GRID)
            back = rasterize(events, frame_count=frame_count, grid=GRID,
                             class_order=class_order)
            assert np.array_equal(back.activity, activity)

    def test_all_zero_roll_gives_no_events(self):
        roll = EventRoll(activity=np.zeros((10, 2), dtype=np.uint8),
                         class_order=("a", "b"))
        assert roll_to_events(roll, grid=GRID).events == []

    def test_contiguous_run_becomes_one_event(self):
        activity = np.zeros((10, 1), dtype=np.uint8)
        activity[2:5, 0] = 1
        roll = EventRoll(activity=activity, class_order=("a",))
        events = roll_to_events(roll, grid=GRID).events
        assert len(events) == 1
        # Frames 2..4 have centers 0.06..0.10; the emitted span covers the
        # half-hop cell around each center.
        assert events[0].label == "a"
        assert events[0].onset == pytest.approx(0.05)
        assert events[0].offset == pytest.approx(0.11)

    def test_onset_clamped_at_zero(self):
        # A grid with hop longer than the frame puts the first center at
        # frame/2 < hop/2, which would otherwise yield a negative onset.
        grid = FrameGrid(frame_length_ms=10.0, hop_length_ms=40.0)
        activity = np.ones((3, 1), dtype=np.uint8)
        roll = EventRoll(activity=activity, class_order=("a",))
        events = roll_to_events(roll, grid=grid).events
        assert events[0].onset == 0.0
