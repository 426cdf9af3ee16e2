"""Segment-based error rate and F-score for polyphonic event detection.

Frame activity is pooled into fixed-length segments (one second on the
default 20 ms hop): a class is active in a segment iff it is active in any
frame of it.  Per segment, with false negatives FN and false positives FP,

    substitutions = min(FN, FP)
    deletions     = max(0, FN - FP)
    insertions    = max(0, FP - FN)

and the error rate is (S + D + I) summed over segments divided by the
summed count of active reference classes.  F-score is the usual harmonic
mean of precision and recall over segment-class decisions, reported as a
percentage.  Fold results are combined by summing the intermediate counts
(micro averaging); macro averaging of per-fold rates is available behind a
flag.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .audio import FrameGrid
from .events import EventRoll

SEGMENT_SECONDS = 1.0


def frames_per_segment(grid: FrameGrid | None = None,
                       segment_seconds: float = SEGMENT_SECONDS) -> int:
    grid = grid or FrameGrid()
    return max(1, int(round(segment_seconds * 1000.0 / grid.hop_length_ms)))


@dataclass(frozen=True)
class SegmentCounts:
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0
    references: int = 0
    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0

    def __add__(self, other: "SegmentCounts") -> "SegmentCounts":
        return SegmentCounts(**{f.name: getattr(self, f.name)
                                + getattr(other, f.name) for f in fields(self)})


@dataclass(frozen=True)
class MetricReport:
    error_rate: float
    f_score: float        # percentage
    precision: float
    recall: float
    counts: SegmentCounts


def segment_activity(activity: np.ndarray,
                     frames: int) -> np.ndarray:
    """Max-pool (frames, classes) activity into (segments, classes) booleans.

    A trailing partial segment counts as a full segment.
    """
    activity = np.asarray(activity)
    if activity.ndim != 2:
        raise ValueError("activity must be (frames, classes)")
    total, classes = activity.shape
    segment_count = (total + frames - 1) // frames
    padded = np.zeros((segment_count * frames, classes), dtype=bool)
    padded[:total] = activity
    return padded.reshape(segment_count, frames, classes).any(axis=1)


def score(reference: EventRoll, system: EventRoll,
          grid: FrameGrid | None = None,
          segment_seconds: float = SEGMENT_SECONDS) -> SegmentCounts:
    """Segment-level counts for one recording."""
    if reference.class_order != system.class_order:
        raise ValueError(f"class orders differ: {reference.class_order} "
                         f"vs {system.class_order}")
    if reference.frame_count != system.frame_count:
        raise ValueError(f"frame counts differ: {reference.frame_count} "
                         f"vs {system.frame_count}")
    frames = frames_per_segment(grid, segment_seconds)
    ref = segment_activity(reference.activity, frames)
    sys_ = segment_activity(system.activity, frames)
    fn_per_segment = np.sum(ref & ~sys_, axis=1)
    fp_per_segment = np.sum(~ref & sys_, axis=1)
    substitutions = int(np.minimum(fn_per_segment, fp_per_segment).sum())
    deletions = int(np.maximum(0, fn_per_segment - fp_per_segment).sum())
    insertions = int(np.maximum(0, fp_per_segment - fn_per_segment).sum())
    return SegmentCounts(
        substitutions=substitutions,
        deletions=deletions,
        insertions=insertions,
        references=int(ref.sum()),
        true_positives=int(np.sum(ref & sys_)),
        false_positives=int(fp_per_segment.sum()),
        false_negatives=int(fn_per_segment.sum()))


def report(counts: SegmentCounts) -> MetricReport:
    """Error rate, F-score, precision and recall from summed counts."""
    errors = counts.substitutions + counts.deletions + counts.insertions
    error_rate = errors / counts.references if counts.references else 0.0
    tp = counts.true_positives
    precision = tp / (tp + counts.false_positives) \
        if tp + counts.false_positives else 0.0
    recall = tp / (tp + counts.false_negatives) \
        if tp + counts.false_negatives else 0.0
    f_score = (200.0 * precision * recall / (precision + recall)
               if precision + recall > 0 else 0.0)
    return MetricReport(error_rate=error_rate, f_score=f_score,
                        precision=precision, recall=recall, counts=counts)


def combine(counts_list: list[SegmentCounts], macro: bool = False) -> MetricReport:
    """Aggregate per-recording or per-fold counts into one report.

    Micro (default): sum the counts, then compute rates — unequal fold sizes
    are weighted by their actual segment counts.  Macro: average the
    per-item rates instead.
    """
    if not counts_list:
        raise ValueError("nothing to combine")
    total = SegmentCounts()
    for counts in counts_list:
        total = total + counts
    if not macro:
        return report(total)
    reports = [report(c) for c in counts_list]
    return MetricReport(
        error_rate=float(np.mean([r.error_rate for r in reports])),
        f_score=float(np.mean([r.f_score for r in reports])),
        precision=float(np.mean([r.precision for r in reports])),
        recall=float(np.mean([r.recall for r in reports])),
        counts=total)


def format_results_table(rows: dict[str, dict[str, MetricReport]],
                         contexts: list[str]) -> str:
    """Fixed-width ablation table: one row per feature combination, ER and F
    columns per context plus their arithmetic-mean Average column."""
    name_width = max([len("features")] + [len(name) for name in rows])
    header = ["features".ljust(name_width)]
    for context in contexts + ["average"]:
        header.append(f"{context + ' ER':>12}")
        header.append(f"{context + ' F':>12}")
    lines = ["  ".join(header)]
    for name, per_context in rows.items():
        ers = [per_context[context].error_rate for context in contexts]
        fs = [per_context[context].f_score for context in contexts]
        cells = [name.ljust(name_width)]
        for er, f in zip(ers + [float(np.mean(ers))], fs + [float(np.mean(fs))]):
            cells += [f"{er:>12.2f}", f"{f:>12.1f}"]
        lines.append("  ".join(cells))
    return "\n".join(lines)
