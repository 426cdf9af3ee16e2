"""Event lists, annotation parsing, and frame-activity rolls."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .audio import FrameGrid
from .errors import AnnotationError


@dataclass(frozen=True)
class Event:
    onset: float
    offset: float
    label: str

    def __post_init__(self):
        if self.onset < 0 or self.offset < self.onset:
            raise AnnotationError(
                f"bad event interval [{self.onset}, {self.offset}] "
                f"for label {self.label!r}")


@dataclass
class EventList:
    events: list[Event] = field(default_factory=list)
    recording: str = ""
    context: str = ""


@dataclass
class EventRoll:
    """Binary frame activity: (frames, classes) with a fixed class order."""

    activity: np.ndarray
    class_order: tuple[str, ...]

    def __post_init__(self):
        self.activity = np.asarray(self.activity, dtype=np.uint8)
        if self.activity.ndim != 2:
            raise ValueError("activity must be (frames, classes)")
        if self.activity.shape[1] != len(self.class_order):
            raise ValueError("activity width does not match class order")

    @property
    def frame_count(self) -> int:
        return self.activity.shape[0]


def parse_annotations(path, recording: str = "",
                      context: str = "") -> EventList:
    """Read a text annotation file: one ``onset offset label`` per line.

    Fields are tab- or whitespace-separated; a label may contain spaces
    (everything after the two numbers).  Blank and ``#`` lines are skipped.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise AnnotationError(f"cannot read annotations: {exc}") from exc
    events = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split("\t") if "\t" in text else text.split()
        fields = [f.strip() for f in fields if f.strip()]
        if len(fields) < 3:
            raise AnnotationError(
                f"{path}:{number}: expected 'onset offset label', got {text!r}")
        try:
            onset, offset = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise AnnotationError(
                f"{path}:{number}: non-numeric onset/offset in {text!r}") from exc
        label = " ".join(fields[2:])
        if onset < 0 or offset < onset:
            raise AnnotationError(
                f"{path}:{number}: bad interval [{onset}, {offset}]")
        events.append(Event(onset=onset, offset=offset, label=label))
    events.sort(key=lambda e: (e.onset, e.offset, e.label))
    return EventList(events=events, recording=recording, context=context)


def rasterize(events: EventList, frame_count: int,
              class_order: tuple[str, ...],
              grid: FrameGrid | None = None) -> EventRoll:
    """Frame-activity roll: a frame is active for a class iff the frame's
    centre time falls inside [onset, offset) of one of its events."""
    grid = grid or FrameGrid()
    index = {label: i for i, label in enumerate(class_order)}
    activity = np.zeros((frame_count, len(class_order)), dtype=np.uint8)
    centers = np.array([grid.frame_center_seconds(t) for t in range(frame_count)])
    for event in events.events:
        if event.label not in index:
            raise AnnotationError(
                f"event label {event.label!r} not in class order {class_order}")
        active = (centers >= event.onset) & (centers < event.offset)
        activity[active, index[event.label]] = 1
    return EventRoll(activity=activity, class_order=tuple(class_order))


def roll_to_events(roll: EventRoll, grid: FrameGrid | None = None) -> EventList:
    """Contiguous active runs back to events.

    Each run spans the hop-length cells centred on its active frames, so
    rasterising the result reproduces the roll exactly.
    """
    grid = grid or FrameGrid()
    hop_s = grid.hop_length_ms / 1000.0
    half = 0.5 * hop_s
    events = []
    for c, label in enumerate(roll.class_order):
        column = roll.activity[:, c]
        edges = np.flatnonzero(np.diff(np.concatenate(([0], column, [0]))))
        for start, stop in zip(edges[::2], edges[1::2]):
            onset = max(grid.frame_center_seconds(int(start)) - half, 0.0)
            offset = grid.frame_center_seconds(int(stop) - 1) + half
            events.append(Event(onset=onset, offset=offset, label=label))
    events.sort(key=lambda e: (e.onset, e.offset, e.label))
    return EventList(events=events)
