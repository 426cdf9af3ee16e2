"""Synthetic binaural scene generation.

Scenes are built from planned events.  Each event occupies a contiguous
range of the five TDOA mel bands, carries a fixed integer inter-channel
delay (positive = channel 2 lags), and is rendered either as band-limited
noise or as a harmonic tone.  Because band ranges and delays are planted
explicitly, scenes double as ground truth for the spatial feature extractor.

Plans can be written as text files, one event per line::

    label  band_lo-band_hi  delay  onset  offset  kind  [pitch_hz]  [amplitude]

e.g. ``dog 0-1 +6 2.0 4.5 noise`` or ``beep 2-4 -3 1.0 3.0 tone 440``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from .audio import AudioClip, encode_wav
from .container import atomic_write_bytes
from .errors import DataError
from .events import Event, EventList
from .melbank import build_mel_filterbank
from .tdoa import TdoaConfig

_FADE_SECONDS = 0.005


@dataclass(frozen=True)
class PlannedEvent:
    label: str
    band_lo: int
    band_hi: int
    delay: int
    onset: float
    offset: float
    kind: str = "noise"
    pitch_hz: float = 0.0
    amplitude: float = 0.35


@dataclass(frozen=True)
class SynthClass:
    """A reusable event recipe for random scene generation."""

    label: str
    band_lo: int
    band_hi: int
    delay: int
    kind: str = "noise"
    pitch_hz: float = 0.0
    amplitude: float = 0.35


@dataclass
class SyntheticScene:
    clip: AudioClip
    truth: EventList


def _merge_truth(plan: list[PlannedEvent]) -> list[Event]:
    by_label: dict[str, list[tuple[float, float]]] = {}
    for ev in plan:
        by_label.setdefault(ev.label, []).append((ev.onset, ev.offset))
    merged = []
    for label, spans in by_label.items():
        spans.sort()
        current_on, current_off = spans[0]
        for on, off in spans[1:]:
            if on <= current_off:
                current_off = max(current_off, off)
            else:
                merged.append(Event(current_on, current_off, label))
                current_on, current_off = on, off
        merged.append(Event(current_on, current_off, label))
    merged.sort(key=lambda e: (e.onset, e.offset, e.label))
    return merged


def _render_source(event: PlannedEvent, sample_count: int, sample_rate: int,
                   f_lo: float, f_hi: float, rng: np.random.Generator) -> np.ndarray:
    if event.kind == "noise":
        spectrum = np.fft.rfft(rng.standard_normal(sample_count))
        freqs = np.fft.rfftfreq(sample_count, 1.0 / sample_rate)
        spectrum[(freqs < f_lo) | (freqs > f_hi)] = 0.0
        source = np.fft.irfft(spectrum, n=sample_count)
    elif event.kind == "tone":
        if event.pitch_hz <= 0:
            raise DataError(f"tone event {event.label!r} needs pitch_hz > 0")
        k_lo = max(1, int(np.ceil(f_lo / event.pitch_hz)))
        k_hi = int(np.floor(min(f_hi, 0.45 * sample_rate) / event.pitch_hz))
        if k_hi < k_lo:
            raise DataError(
                f"tone event {event.label!r}: no harmonics of "
                f"{event.pitch_hz} Hz inside [{f_lo:.0f}, {f_hi:.0f}] Hz")
        t = np.arange(sample_count) / sample_rate
        source = np.zeros(sample_count)
        for k in range(k_lo, k_hi + 1):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            source += np.sin(2.0 * np.pi * k * event.pitch_hz * t + phase) / k
    else:
        raise DataError(f"unknown event kind {event.kind!r}")
    rms = np.sqrt(np.mean(source ** 2))
    if rms > 0:
        source = source / rms
    fade = min(int(_FADE_SECONDS * sample_rate), sample_count // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade)
        source[:fade] *= ramp
        source[-fade:] *= ramp[::-1]
    return source * event.amplitude


def _sample_span(event: PlannedEvent, sample_count: int,
                 sample_rate: int) -> tuple[int, int]:
    """First sample and sample count of an event's channel-1 copy."""
    start = int(round(event.onset * sample_rate))
    length = int(round((event.offset - event.onset) * sample_rate))
    return start, min(length, sample_count - start)


def _delayed_copy_fits(event: PlannedEvent, sample_count: int,
                       sample_rate: int) -> bool:
    start, length = _sample_span(event, sample_count, sample_rate)
    start2 = start + event.delay
    return length <= 0 or (start2 >= 0 and start2 + length <= sample_count)


def _shift_inside(event: PlannedEvent, duration: float,
                  sample_rate: int) -> PlannedEvent:
    """Move an event whose delayed copy would cross a clip edge inward by
    the fewest whole milliseconds that make it fit, clamped to the scene.

    Events that already fit come back unchanged.
    """
    sample_count = int(round(duration * sample_rate))
    step = -0.001 if event.delay > 0 else 0.001
    shifted, millis = event, 0
    while not _delayed_copy_fits(shifted, sample_count, sample_rate):
        millis += 1
        shifted = replace(
            event,
            onset=max(round(event.onset + step * millis, 3), 0.0),
            offset=min(round(event.offset + step * millis, 3), duration))
    return shifted


def synthesize_scene(plan: list[PlannedEvent], duration: float,
                     sample_rate: int = 16000,
                     config: TdoaConfig | None = None,
                     rng: np.random.Generator | None = None,
                     recording: str = "", context: str = "") -> SyntheticScene:
    """Render a plan into a stereo clip plus its merged ground-truth events."""
    config = config or TdoaConfig()
    rng = rng or np.random.default_rng(0)
    sample_count = int(round(duration * sample_rate))
    if sample_count <= 0:
        raise DataError("scene duration must be positive")
    max_lag = config.max_lag(sample_rate)
    edges = build_mel_filterbank(config.band_count, 2048, sample_rate).edges_hz
    buffers = np.zeros((2, sample_count))
    for event in plan:
        if not 0 <= event.band_lo <= event.band_hi < config.band_count:
            raise DataError(f"event {event.label!r}: band range "
                            f"{event.band_lo}-{event.band_hi} outside "
                            f"0-{config.band_count - 1}")
        if abs(event.delay) > max_lag:
            raise DataError(f"event {event.label!r}: delay {event.delay} outside "
                            f"the representable range +-{max_lag}")
        if not 0.0 <= event.onset < event.offset <= duration + 1e-9:
            raise DataError(f"event {event.label!r}: interval "
                            f"[{event.onset}, {event.offset}] outside the scene")
        f_lo = max(float(edges[event.band_lo]), 15.0)
        f_hi = float(edges[event.band_hi + 2])
        start, length = _sample_span(event, sample_count, sample_rate)
        if length <= 0:
            continue
        source = _render_source(event, length, sample_rate, f_lo, f_hi, rng)
        if not _delayed_copy_fits(event, sample_count, sample_rate):
            raise DataError(f"event {event.label!r}: delayed copy runs past "
                            "the clip boundary")
        start2 = start + event.delay
        buffers[0, start:start + length] += source
        buffers[1, start2:start2 + length] += source
    peak = np.max(np.abs(buffers))
    if peak > 0.99:
        buffers *= 0.99 / peak
    clip = AudioClip(samples=buffers, sample_rate=sample_rate)
    truth = EventList(events=_merge_truth(list(plan)), recording=recording,
                      context=context)
    return SyntheticScene(clip=clip, truth=truth)


def parse_scene_plan(path) -> list[PlannedEvent]:
    """Read a plan file (format in the module docstring)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise DataError(f"cannot read scene plan: {exc}") from exc
    plan = []
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        fields = text.split()
        if len(fields) < 6:
            raise DataError(f"{path}:{number}: expected at least "
                            f"'label bands delay onset offset kind', got {text!r}")
        label, bands, delay, onset, offset, kind = fields[:6]
        try:
            lo_text, _, hi_text = bands.partition("-")
            band_lo, band_hi = int(lo_text), int(hi_text or lo_text)
            plan.append(PlannedEvent(
                label=label, band_lo=band_lo, band_hi=band_hi,
                delay=int(delay), onset=float(onset), offset=float(offset),
                kind=kind,
                pitch_hz=float(fields[6]) if len(fields) > 6 else 0.0,
                amplitude=float(fields[7]) if len(fields) > 7 else 0.35))
        except ValueError as exc:
            raise DataError(f"{path}:{number}: malformed field in {text!r}") from exc
    return plan


def random_scene_plan(classes: list[SynthClass], duration: float,
                      rng: np.random.Generator,
                      events_per_class: tuple[int, int] = (1, 3),
                      event_length: tuple[float, float] = (1.0, 4.0),
                      ) -> list[PlannedEvent]:
    """Draw a random plan: every class contributes a few events at random times."""
    plan = []
    for spec in classes:
        count = int(rng.integers(events_per_class[0], events_per_class[1] + 1))
        for _ in range(count):
            length = min(float(rng.uniform(*event_length)), duration)
            onset = float(rng.uniform(0.0, duration - length))
            plan.append(PlannedEvent(
                label=spec.label, band_lo=spec.band_lo, band_hi=spec.band_hi,
                delay=spec.delay, onset=round(onset, 3),
                offset=round(onset + length, 3), kind=spec.kind,
                pitch_hz=spec.pitch_hz, amplitude=spec.amplitude))
    plan.sort(key=lambda e: (e.onset, e.label))
    return plan


def write_scene(scene: SyntheticScene, data_root, context: str,
                recording: str) -> None:
    """Write a scene as ``<root>/<context>/audio/<rec>.wav`` plus annotations."""
    audio_dir = os.path.join(os.fspath(data_root), context, "audio")
    ann_dir = os.path.join(os.fspath(data_root), context, "annotations")
    os.makedirs(audio_dir, exist_ok=True)
    os.makedirs(ann_dir, exist_ok=True)
    encode_wav(os.path.join(audio_dir, f"{recording}.wav"), scene.clip)
    lines = [f"{e.onset:.3f}\t{e.offset:.3f}\t{e.label}"
             for e in scene.truth.events]
    atomic_write_bytes(os.path.join(ann_dir, f"{recording}.txt"),
                       ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8"))


def generate_dataset(data_root, context: str, classes: list[SynthClass],
                     recording_count: int, duration: float,
                     sample_rate: int = 16000, seed: int = 0,
                     events_per_class: tuple[int, int] = (1, 3),
                     event_length: tuple[float, float] = (1.0, 4.0),
                     config: TdoaConfig | None = None) -> list[str]:
    """Render a whole context of random recordings; returns recording names.

    A random event can end flush with a clip edge, where its delayed copy
    would not fit; such events are shifted inward (``_shift_inside``).
    """
    names = []
    for index in range(recording_count):
        rng = np.random.default_rng([seed, index])
        plan = [_shift_inside(event, duration, sample_rate)
                for event in random_scene_plan(
                    classes, duration, rng,
                    events_per_class=events_per_class,
                    event_length=event_length)]
        name = f"rec{index:03d}"
        scene = synthesize_scene(plan, duration, sample_rate, config=config,
                                 rng=rng, recording=name, context=context)
        write_scene(scene, data_root, context, name)
        names.append(name)
    return names
