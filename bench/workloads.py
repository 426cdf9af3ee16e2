"""The benchmark's three workloads: corpus set-up, timed operations, checks.

Every workload renders its corpus from the workload seed with binsed's own
synthesizer; binsed then sees only WAV and annotation files.  Functions are
called as module attributes (``pipeline.extract_context``) so that the
tracer's wrappers see every call.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from binsed import (audio, checkpoint, config, container, events, features,
                    metrics, pipeline, synth, training)

# Three classes on disjoint TDOA bands with distinct planted delays.  A class
# covering bands lo..hi renders energy from band edge lo to edge hi + 2, so it
# also reaches bands lo - 1 and hi + 1 (the mel triangles overlap by half).
CLASSES = (
    synth.SynthClass(label="rumble", band_lo=0, band_hi=1, delay=6,
                     kind="noise"),
    synth.SynthClass(label="beep", band_lo=2, band_hi=2, delay=-3,
                     kind="tone", pitch_hz=440.0),
    synth.SynthClass(label="hiss", band_lo=3, band_hi=4, delay=-8,
                     kind="noise"),
)
CLASS_ORDER = tuple(sorted(c.label for c in CLASSES))
COMBINATION = "mel_2;tdoa;pitch_2"
WIDE_TOKENS = pipeline.ablation_tokens(list(features.ABLATION_COMBINATIONS))
WIDE_WIDTH = 164

# Frames this close to an activity change are not checked for delay recovery:
# the 240 ms window reaches 6 frames either side and the temporal median one
# more.
TDOA_MARGIN_FRAMES = 8
TDOA_HIT_FLOOR = 0.9


@dataclass
class Op:
    """One timed operation; ``check`` runs untimed and lists problems."""

    request: str
    audio_s: float
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Quality:
    segment_counts: metrics.SegmentCounts = field(
        default_factory=metrics.SegmentCounts)
    tdoa_hits: int = 0
    tdoa_cells: int = 0

    def values(self) -> dict[str, float]:
        report = metrics.report(self.segment_counts)
        return {
            "segment_er": report.error_rate,
            "segment_f": report.f_score,
            "segment_refs": float(self.segment_counts.references),
            "tdoa_hit_rate": (self.tdoa_hits / self.tdoa_cells
                              if self.tdoa_cells else 0.0),
            "tdoa_cells": float(self.tdoa_cells),
        }


# Events are drawn GUARD_S away from both clip edges.  synth.generate_dataset
# can place an event flush with an edge, where synthesize_scene then rejects
# its delayed copy (for example seed 1, recording 4 of the CLI's default
# 8 x 30 s corpus), so the corpus is rendered here with the same calls but
# the plan drawn on a slightly shorter span and shifted inwards.
GUARD_S = 0.01
EVENT_LENGTH_S = (0.5, 2.0)


def render_corpus(data_root: str, context: str, count: int, duration: float,
                  seed: int) -> None:
    for index in range(count):
        rng = np.random.default_rng([seed, index])
        plan = [dataclasses.replace(event,
                                    onset=round(event.onset + GUARD_S, 3),
                                    offset=round(event.offset + GUARD_S, 3))
                for event in synth.random_scene_plan(
                    list(CLASSES), duration - 2 * GUARD_S, rng,
                    event_length=EVENT_LENGTH_S)]
        name = f"rec{index:03d}"
        scene = synth.synthesize_scene(plan, duration, rng=rng,
                                       recording=name, context=context)
        synth.write_scene(scene, data_root, context, name)


def run_config(work_dir: str, **overrides) -> config.RunConfig:
    return config.RunConfig(data_root=os.path.join(work_dir, "data"),
                            out_dir=os.path.join(work_dir, "out"),
                            features=COMBINATION, hidden_sizes=(32, 32),
                            **overrides).validate()


def tdoa_delay_hits(activity: np.ndarray, delays: np.ndarray,
                    margin: int = TDOA_MARGIN_FRAMES) -> tuple[int, int]:
    """(hits, cells) over the unambiguous active (frame, band) cells.

    A cell is checked when its band belongs to an active class, no other
    active class reaches the band, and no class switched on or off within
    ``margin`` frames.  A hit is a delay equal to the class's planted delay.
    """
    frame_count = activity.shape[0]
    steady = np.ones(frame_count, dtype=bool)
    steady[:margin] = False
    steady[frame_count - margin:] = False
    changes = np.flatnonzero(np.any(activity[1:] != activity[:-1], axis=1))
    for boundary in changes:
        steady[max(0, boundary + 1 - margin):boundary + 1 + margin] = False
    index = {label: i for i, label in enumerate(CLASS_ORDER)}
    active = activity.astype(bool)
    hits = cells = 0
    for spec in CLASSES:
        for band in range(spec.band_lo, spec.band_hi + 1):
            others = [index[o.label] for o in CLASSES if o is not spec
                      and o.band_lo - 1 <= band <= o.band_hi + 1]
            mask = steady & active[:, index[spec.label]] \
                & ~active[:, others].any(axis=1)
            cells += int(mask.sum())
            hits += int(np.sum(delays[mask, band] == spec.delay))
    return hits, cells


class ExtractWide:
    """Batch extraction of all 8 blocks (width 164), one recording per op.

    Lengths step evenly through the range so that TDOA cost, which scales
    with length and changes chunking past ~10 s for the 480 ms window, is
    sampled the same way on every seed.  With three well-separated lengths
    the median and the 90th percentile of whole rounds fall inside one
    length's cluster of latencies, not where two clusters overlap.
    """

    name = "extract_wide"
    # Its FFT batches stream tens of MB, whose speed the cache-resident
    # calibration kernel does not follow: over ten seeds, scaling widened the
    # p90 spread from 11% to 16%, so its times are reported raw.
    calibrated = False

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.lengths = (4.0,) if smoke else (2.0, 7.0, 12.0)
        self.quality = Quality()

    def setup(self, work_dir: str) -> None:
        self.config = run_config(work_dir)
        self.contexts = []
        for index, seconds in enumerate(self.lengths):
            context = f"len{index:02d}"
            render_corpus(self.config.data_root, context, 1, seconds,
                          self.seed * 100 + index)
            self.contexts.append((context, seconds))

    def round(self) -> list[Op]:
        return [Op(request=context, audio_s=seconds,
                   run=lambda c=context: self._extract(c),
                   check=self._check)
                for context, seconds in self.contexts]

    def _extract(self, context: str) -> pipeline.ContextData:
        data = pipeline.extract_context(self.config, context,
                                        tokens=WIDE_TOKENS)
        pipeline.write_context_features(self.config, data)
        return data

    def _check(self, data: pipeline.ContextData) -> list[str]:
        problems = []
        directory = pipeline.features_dir(self.config, data.context)
        grid = self.config.feature_config().grid
        for name in data.recordings:
            matrix = container.read_features(
                os.path.join(directory, f"{name}.feat"))
            if matrix.layout.width != WIDE_WIDTH:
                problems.append(f"{data.context}/{name}: width "
                                f"{matrix.layout.width} != {WIDE_WIDTH}")
                continue
            if not np.all(np.isfinite(matrix.values)):
                problems.append(f"{data.context}/{name}: non-finite values")
            truth = events.parse_annotations(os.path.join(
                self.config.data_root, data.context, "annotations",
                f"{name}.txt"))
            roll = events.rasterize(truth, matrix.frame_count, CLASS_ORDER,
                                    grid)
            hits, cells = tdoa_delay_hits(roll.activity, matrix.block("tdoa"))
            self.quality.tdoa_hits += hits
            self.quality.tdoa_cells += cells
            if cells and hits < TDOA_HIT_FLOOR * cells:
                problems.append(f"{data.context}/{name}: tdoa recovered "
                                f"{hits}/{cells} planted delays")
        return problems


class TrainFolds:
    """``binsed train`` + ``binsed evaluate`` on features extracted in set-up.

    ``patience`` equals ``max_epochs``, so every fold runs the same epoch
    count and a numerics change cannot pass early stopping off as a speed-up.
    """

    name = "train_folds"
    calibrated = True

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.recordings, self.seconds, self.folds, self.epochs = \
            (3, 2.0, 3, 1) if smoke else (6, 4.0, 3, 8)
        self.quality = Quality()
        self.result: tuple[float, float] | None = None

    def setup(self, work_dir: str) -> None:
        self.config = run_config(work_dir, contexts=("train",),
                                 fold_count=self.folds,
                                 max_epochs=self.epochs,
                                 patience=self.epochs)
        render_corpus(self.config.data_root, "train", self.recordings,
                      self.seconds, self.seed)
        data = pipeline.extract_context(self.config, "train")
        pipeline.write_context_features(self.config, data)
        self.frames = self._sequence_frames(data)

    def _sequence_frames(self, data: pipeline.ContextData) -> int:
        """Frames through forward+backward in one train_context call,
        padded and block-mixed sequences included."""
        length = self.config.sequence_length
        total = 0
        for split in pipeline.context_folds(self.config, data):
            sequences = sum(math.ceil(data.features[name].frame_count / length)
                            for name in split.train)
            sequences += int(round(self.config.block_mix_ratio * sequences))
            total += sequences * length * self.epochs
        return total

    def round(self) -> list[Op]:
        hop_s = self.config.feature_config().grid.hop_length_ms / 1000.0
        return [Op(request="train", audio_s=self.frames * hop_s,
                   run=self._train, check=self._check)]

    def _train(self):
        data = pipeline.read_context_features(self.config, "train")
        checkpoints = pipeline.train_context(self.config, data)
        report, _ = pipeline.evaluate_context(self.config, data)
        return checkpoints, report

    def _check(self, outcome) -> list[str]:
        checkpoints, report = outcome
        problems = []
        if len(checkpoints) != self.folds:
            problems.append(f"{len(checkpoints)} folds trained, "
                            f"expected {self.folds}")
        for index, ckpt in enumerate(checkpoints):
            state = ckpt.state
            if state.epoch != self.epochs or len(state.history) != self.epochs:
                problems.append(f"fold {index} ran {state.epoch} epochs, "
                                f"expected {self.epochs}")
        result = (report.error_rate, report.f_score)
        if not all(math.isfinite(v) for v in result):
            problems.append(f"non-finite ER/F {result}")
        if self.result is not None and result != self.result:
            problems.append(f"ER/F {result} differ from an earlier "
                            f"operation's {self.result}")
        self.result = result
        self.quality.segment_counts = report.counts
        return problems


class DetectStream:
    """Closed loop, one client: each request does what ``binsed detect`` does.

    Clip lengths step evenly through a short range so a run holds well over
    100 requests (at least ten beyond the 90th percentile).
    """

    name = "detect_stream"
    calibrated = True

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.lengths = (1.0, 1.5) if smoke else \
            tuple(1.0 + 0.125 * i for i in range(17))
        self.model_recordings, self.model_seconds, self.epochs = \
            (3, 2.0, 1) if smoke else (4, 5.0, 10)
        self.quality = Quality()

    def setup(self, work_dir: str) -> None:
        self.config = run_config(work_dir, contexts=("model",),
                                 fold_count=self.model_recordings,
                                 max_epochs=self.epochs,
                                 patience=self.epochs)
        self.feature_config = self.config.feature_config()
        render_corpus(self.config.data_root, "model", self.model_recordings,
                      self.model_seconds, self.seed)
        data = pipeline.extract_context(self.config, "model")
        split = pipeline.context_folds(self.config, data)[0]
        self.checkpoint_path = os.path.join(self.config.out_dir, "model.ckpt")
        os.makedirs(self.config.out_dir, exist_ok=True)
        checkpoint.save_checkpoint(self.checkpoint_path,
                                   pipeline.train_fold(self.config, data,
                                                       split))
        self.clips = []
        for index, seconds in enumerate(self.lengths):
            context = f"clip{index:02d}"
            render_corpus(self.config.data_root, context, 1, seconds,
                          self.seed * 100 + index + 1)
            base = os.path.join(self.config.data_root, context)
            truth = events.parse_annotations(
                os.path.join(base, "annotations", "rec000.txt"))
            self.clips.append((context, seconds,
                               os.path.join(base, "audio", "rec000.wav"),
                               truth))

    def round(self) -> list[Op]:
        return [Op(request=context, audio_s=seconds,
                   run=lambda p=path: self._detect(p),
                   check=lambda out, s=seconds, t=truth: self._check(out, s, t))
                for context, seconds, path, truth in self.clips]

    def _detect(self, path: str):
        ckpt = checkpoint.load_checkpoint(self.checkpoint_path)
        clip = audio.decode_wav(path)
        matrix = features.assemble_features(clip, ckpt.combination,
                                            self.feature_config)
        if matrix.layout.blocks != ckpt.layout.blocks:
            raise ValueError("extracted features do not match the "
                             "checkpoint layout")
        roll = training.detect_roll(ckpt.state.best_params, ckpt.scaler,
                                    matrix, ckpt.class_order,
                                    threshold=self.config.threshold,
                                    sequence_length=self.config.sequence_length)
        found = events.roll_to_events(roll, self.feature_config.grid)
        text = "".join(f"{e.onset:.2f}\t{e.offset:.2f}\t{e.label}\n"
                       for e in found.events)
        return text, roll, ckpt.class_order

    def _check(self, outcome, seconds: float, truth) -> list[str]:
        text, roll, class_order = outcome
        problems = []
        if roll.class_order != class_order:
            problems.append("roll class order differs from the checkpoint's")
        for line in text.splitlines():
            fields = line.split("\t")
            try:
                onset, offset = float(fields[0]), float(fields[1])
            except (IndexError, ValueError):
                problems.append(f"unparseable event line {line!r}")
                continue
            if len(fields) != 3 or fields[2] not in class_order:
                problems.append(f"bad label in {line!r}")
            if not 0.0 <= onset <= offset <= seconds:
                problems.append(f"event {line!r} outside the {seconds} s clip")
        reference = events.rasterize(truth, roll.frame_count, class_order,
                                     self.feature_config.grid)
        self.quality.segment_counts = (self.quality.segment_counts
                                       + metrics.score(reference, roll))
        return problems


WORKLOADS = {w.name: w for w in (ExtractWide, TrainFolds, DetectStream)}
