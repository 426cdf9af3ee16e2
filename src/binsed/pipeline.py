"""Dataset discovery and the extract / train / evaluate / ablate pipelines.

Data layout on disk::

    <data_root>/<context>/audio/<recording>.wav
    <data_root>/<context>/annotations/<recording>.txt

Run artefacts land under the output directory::

    <out>/features/<context>/<recording>.feat / .targets (+ optional .csv)
    <out>/features/<context>/manifest.json       (recordings, combination,
                                                  class order, sample rate,
                                                  FeatureConfig)
    <out>/models/<context>/fold<k>.ckpt / fold<k>.log   (.ckpt: split, settings)
    <out>/evaluation/results.json / results.txt
    <out>/ablation/table.txt / table.json
    <out>/ablation/<combination, ';' as '+'>/models/<context>/fold<k>.ckpt / .log
    <out>/config.json

Each fact is recorded once: the directory names the context, ``.targets``
the classes of each recording, ``combination_layout`` every layout.  Every
recording of a context has one sample rate, which the manifest and each
checkpoint record: features and models follow the rate they were made at.

``train_runs`` trains every fold of a ``train`` or ``ablate`` command on one
pool of forked processes, writes each fold's files in job order and then
yields its checkpoint, which it keeps no longer than the next fold's.
"""

from __future__ import annotations

import dataclasses
import glob
import json
import os
import zlib
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from . import parallel
from .audio import AudioClip, decode_wav
from .checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from .config import RunConfig
from .container import atomic_write_bytes, export_csv, read_features, write_features
from .errors import DataError, TrainingError
from .events import EventList, EventRoll, parse_annotations, rasterize
from .features import (FeatureConfig, combination_layout,
                       extract_block_values, feature_config_from_json,
                       feature_config_to_json, parse_combination)
from .folds import FoldSplit, make_folds
from .layout import FeatureLayout, FeatureMatrix
from .metrics import MetricReport, SegmentCounts, combine, score
from .training import (SequenceBatch, concat_batches, detect_roll, fit_scaler,
                       init_train_state, run_training, split_sequences)


@dataclass(frozen=True)
class Recording:
    name: str
    wav_path: str
    annotation_path: str


def discover_recordings(data_root: str, context: str) -> list[Recording]:
    """Pair up audio and annotation files for a context."""
    audio_dir = os.path.join(data_root, context, "audio")
    ann_dir = os.path.join(data_root, context, "annotations")
    if not os.path.isdir(audio_dir):
        raise DataError(f"no audio directory for context {context!r}: {audio_dir}")
    recordings = []
    for entry in sorted(os.listdir(audio_dir)):
        if not entry.lower().endswith(".wav"):
            continue
        name = entry[:-4]
        ann_path = os.path.join(ann_dir, f"{name}.txt")
        if not os.path.isfile(ann_path):
            raise DataError(f"recording {name!r} has no annotation file "
                            f"({ann_path})")
        recordings.append(Recording(name=name,
                                    wav_path=os.path.join(audio_dir, entry),
                                    annotation_path=ann_path))
    if not recordings:
        raise DataError(f"context {context!r} has no recordings under {audio_dir}")
    return recordings


@dataclass
class ContextData:
    """Everything extracted for one context and combination."""

    context: str
    combination: str
    class_order: tuple[str, ...]
    recordings: list[str]
    features: dict[str, FeatureMatrix]
    feature_config: FeatureConfig
    sample_rate: int
    rolls: dict[str, EventRoll] = field(default_factory=dict)


def context_class_order(event_lists: list[EventList]) -> tuple[str, ...]:
    labels = sorted({e.label for el in event_lists for e in el.events})
    if not labels:
        raise DataError("context has no annotated events")
    return tuple(labels)


def extract_context(config: RunConfig, context: str,
                    tokens: list[str] | None = None) -> ContextData:
    """Decode, extract and rasterise a whole context in memory.

    ``tokens`` replaces ``config.features`` as the extracted block set (the
    ablation grid extracts its widest set once).  The recorded combination
    names the extracted blocks, so it always matches the columns.  A
    recording at another sample rate than the first is a DataError.
    """
    wanted = list(tokens) if tokens else \
        [s.token for s in parse_combination(config.features)]
    feature_config = config.feature_config()
    recordings = discover_recordings(config.data_root, context)
    event_lists = {r.name: parse_annotations(r.annotation_path, recording=r.name,
                                             context=context)
                   for r in recordings}
    class_order = context_class_order(list(event_lists.values()))
    features: dict[str, FeatureMatrix] = {}
    rolls: dict[str, EventRoll] = {}
    for recording in recordings:
        clip = decode_wav(recording.wav_path)
        if recording is recordings[0]:
            sample_rate = clip.sample_rate
        elif clip.sample_rate != sample_rate:
            raise DataError(f"recordings of context {context!r} differ in "
                            f"sample rate: {recordings[0].name!r} is at "
                            f"{sample_rate} Hz, {recording.name!r} at "
                            f"{clip.sample_rate} Hz")
        matrix = extract_block_values(clip, wanted, feature_config)
        features[recording.name] = matrix
        rolls[recording.name] = rasterize(event_lists[recording.name],
                                          matrix.frame_count, class_order,
                                          feature_config.grid)
    return ContextData(context=context,
                       combination=";".join(matrix.layout.block_names),
                       class_order=class_order,
                       recordings=[r.name for r in recordings],
                       features=features, feature_config=feature_config,
                       sample_rate=sample_rate, rolls=rolls)


def select_combination(data: ContextData, combination: str,
                       config: RunConfig) -> dict[str, FeatureMatrix]:
    """Slice a combination's blocks out of wider extracted features."""
    names = [s.token for s in parse_combination(combination)]
    return {name: matrix.select(names) for name, matrix in data.features.items()}


# ---------------------------------------------------------------------------
# Feature persistence (extract command / train command hand-off)


def features_dir(config: RunConfig, context: str) -> str:
    return os.path.join(config.out_dir, "features", context)


def write_context_features(config: RunConfig, data: ContextData) -> None:
    directory = features_dir(config, data.context)
    os.makedirs(directory, exist_ok=True)
    target_layout = FeatureLayout(tuple((label, 1)
                                        for label in data.class_order))
    for name in data.recordings:
        matrix = data.features[name]
        write_features(os.path.join(directory, f"{name}.feat"), matrix)
        roll = data.rolls[name]
        write_features(os.path.join(directory, f"{name}.targets"),
                       FeatureMatrix(values=roll.activity.astype(np.float64),
                                     layout=target_layout))
        if config.export_csv:
            export_csv(os.path.join(directory, f"{name}.csv"), matrix)
    manifest = {
        "combination": data.combination,
        "recordings": data.recordings,
        "class_order": list(data.class_order),
        "sample_rate": data.sample_rate,
        "features": feature_config_to_json(data.feature_config),
    }
    atomic_write_bytes(os.path.join(directory, "manifest.json"),
                       (json.dumps(manifest, indent=2) + "\n").encode("utf-8"))


def read_context_features(config: RunConfig, context: str) -> ContextData:
    directory = features_dir(config, context)
    manifest_path = os.path.join(directory, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise DataError(f"no extracted features for context {context!r} under "
                        f"{directory}; run the extract command first")
    try:
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        class_order = tuple(manifest["class_order"])
        recordings = list(manifest["recordings"])
        feature_config = feature_config_from_json(manifest["features"])
        combination = manifest["combination"]
        layout = combination_layout(combination, feature_config)
        sample_rate = manifest["sample_rate"]
        if type(sample_rate) is not int or sample_rate <= 0:
            raise ValueError(f"sample rate {sample_rate!r}")
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed manifest {manifest_path} ({exc!r}); "
                        "re-run the extract command") from exc
    features = {}
    rolls = {}
    for name in recordings:
        matrix = read_features(os.path.join(directory, f"{name}.feat"))
        targets = read_features(os.path.join(directory, f"{name}.targets"))
        if matrix.layout != layout:
            raise DataError(f"features of {name!r} have the blocks "
                            f"{matrix.layout.blocks}, not the manifest's "
                            f"{layout.blocks}; re-run the extract command")
        if targets.layout.blocks != tuple((c, 1) for c in class_order):
            raise DataError(f"targets of {name!r} are not one column per "
                            "class of the manifest; re-run the extract command")
        if matrix.frame_count != targets.frame_count:
            raise DataError(f"recording {name!r} has {matrix.frame_count} "
                            f"feature frames but {targets.frame_count} target "
                            f"frames in {directory}; re-run the extract "
                            "command")
        features[name] = matrix
        rolls[name] = EventRoll(activity=targets.values.astype(np.uint8),
                                class_order=class_order)
    return ContextData(context=context, combination=combination,
                       class_order=class_order, recordings=recordings,
                       features=features, rolls=rolls,
                       feature_config=feature_config, sample_rate=sample_rate)


# ---------------------------------------------------------------------------
# Fold assembly and training


def fold_seed(config_seed: int, context: str, combination: str,
              fold_index: int) -> np.random.SeedSequence:
    return np.random.SeedSequence([config_seed,
                                   zlib.crc32(context.encode("utf-8")),
                                   zlib.crc32(combination.encode("utf-8")),
                                   fold_index])


def check_fold_coverage(data: ContextData, split: FoldSplit) -> None:
    """Every class active in a frame of the test recordings must be active
    in a frame of the training recordings."""
    def union(names):
        return {label for name in names for label, active
                in zip(data.class_order, data.rolls[name].activity.any(axis=0))
                if active}

    uncovered = union(split.test) - union(split.train)
    if uncovered:
        raise DataError(
            f"fold {split.fold_index}: test classes {sorted(uncovered)} "
            "never occur in its training recordings")


def context_folds(config: RunConfig, data: ContextData) -> list[FoldSplit]:
    folds = make_folds(data.recordings, fold_count=config.fold_count,
                       validation_fraction=config.validation_fraction,
                       seed=config.seed)
    for split in folds:
        check_fold_coverage(data, split)
    return folds


def train_fold(config: RunConfig, data: ContextData, split: FoldSplit,
               features: dict[str, FeatureMatrix] | None = None,
               combination: str | None = None) -> Checkpoint:
    """Scale, batch and train one fold on data's grid; return its checkpoint,
    named and seeded by ``combination``, which must give the features'
    layout, or else by its blocks' names."""
    features = features or data.features
    layout = features[split.train[0]].layout
    combination = combination or ";".join(layout.block_names)
    if combination_layout(combination, data.feature_config) != layout:
        raise ValueError(f"combination {combination!r} does not give the "
                         f"feature layout {layout.blocks}")
    train_config = dataclasses.replace(config.train_config(),
                                       grid=data.feature_config.grid)
    scaler = fit_scaler([features[name] for name in split.train])
    batches = []
    for name in split.train:
        scaled = scaler.transform(features[name].values)
        batches.append(split_sequences(scaled,
                                       data.rolls[name].activity.astype(float),
                                       train_config.sequence_length,
                                       layout=layout,
                                       class_order=data.class_order))
    train_batch = concat_batches(batches)
    validation = [(scaler.transform(features[name].values), data.rolls[name])
                  for name in split.validation]
    if not validation:
        raise DataError(f"fold {split.fold_index} has no validation recordings; "
                        "use more recordings or fewer folds")
    state = init_train_state(train_batch.inputs.shape[2],
                             len(data.class_order), train_config,
                             fold_seed(config.seed, data.context, combination,
                                       split.fold_index))
    state = run_training(state, train_batch, validation, train_config)
    return Checkpoint(state=state, scaler=scaler,
                      class_order=data.class_order,
                      combination=combination, split=split,
                      feature_config=data.feature_config,
                      sequence_length=train_config.sequence_length,
                      threshold=train_config.threshold,
                      seed=config.seed, context=data.context,
                      sample_rate=data.sample_rate)


def models_dir(config: RunConfig, context: str) -> str:
    return os.path.join(config.out_dir, "models", context)


def write_training_log(path: str, checkpoint: Checkpoint) -> None:
    lines = ["epoch,train_loss,validation_er,validation_f"]
    for record in checkpoint.state.history:
        lines.append(f"{record.epoch},{record.train_loss:.6f},"
                     f"{record.validation_er:.6f},{record.validation_f:.4f}")
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


# State of a fold pool worker process: whether it is training a fold, and
# whether the parent has asked it to stop.
_training = False
_stopped = False


def _stop_fold(signum, frame) -> None:
    """Abort the fold being trained and refuse the ones after it.

    Raising only inside a fold keeps the worker from being interrupted while
    it moves a job or a result through the pool's pipes: a message cut short
    there would leave the parent waiting for its end.
    """
    global _stopped
    _stopped = True
    if _training:
        raise TrainingError("stopped because another fold failed")


def _init_fold_worker() -> None:
    import signal

    signal.signal(signal.SIGUSR1, _stop_fold)


# The (run config, context, fold) jobs of ``train_runs``: forked workers
# inherit them and read their job by index, so no ContextData is pickled.
_jobs: list[tuple[RunConfig, ContextData, FoldSplit]] = []


def _train_job(index: int) -> Checkpoint:
    """``train_fold`` on job ``index``, unless the parent has stopped it."""
    global _training
    try:
        _training = True
        if _stopped:
            raise TrainingError("stopped because another fold failed")
        config, data, split = _jobs[index]
        return train_fold(config, data, split,
                          select_combination(data, config.features, config))
    finally:
        _training = False


def train_runs(runs: list[tuple[RunConfig, ContextData]]) -> Iterator[Checkpoint]:
    """Check every fold's coverage, then return the generator that trains
    and saves every fold of each run: a context, trained on the combination
    its config's ``features`` names.  All folds train on one pool of forked
    processes, one per CPU up to the job count.  Each draws from its own
    ``fold_seed``, so the results do not depend on the worker count.  The
    generator yields each fold's checkpoint in job order once its files are
    written, and holds none past the next yield.  When a job raises, or the
    caller closes the generator, the jobs before it are saved, nothing after
    them is, the folds still training are stopped and the rest cancelled.
    """
    return _train_jobs([(config, data, split) for config, data in runs
                        for split in context_folds(config, data)])


def _train_jobs(jobs: list[tuple[RunConfig, ContextData, FoldSplit]]
                ) -> Iterator[Checkpoint]:
    # Imported here, because they add about 1.3 MB to the peak memory of
    # extract and detect, which start no process pool.
    import multiprocessing
    import signal
    from concurrent.futures import ProcessPoolExecutor

    _jobs[:] = jobs
    existing = set(multiprocessing.active_children())
    # Forked workers inherit the jobs and BLAS thread settings: the pool forks
    # them all at its first submit, before it starts any thread of its own.
    with ProcessPoolExecutor(max_workers=min(parallel.cpu_count(), len(_jobs)),
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_init_fold_worker) as pool:
        try:
            # Popped as read: no checkpoint is held past the next yield.
            futures = deque(pool.submit(_train_job, index)
                            for index in range(len(_jobs)))
            for config, data, split in _jobs:
                checkpoint = futures.popleft().result()
                stem = os.path.join(models_dir(config, data.context),
                                    f"fold{split.fold_index}")
                os.makedirs(os.path.dirname(stem), exist_ok=True)
                save_checkpoint(stem + ".ckpt", checkpoint)
                write_training_log(stem + ".log", checkpoint)
                yield checkpoint
        except BaseException:
            # Shutting down waits for every fold a worker has taken, which
            # may train for thousands of epochs: stop those folds first.
            for worker in set(multiprocessing.active_children()) - existing:
                os.kill(worker.pid, signal.SIGUSR1)
            pool.shutdown(cancel_futures=True)
            raise
        finally:
            _jobs.clear()


def train_context(config: RunConfig, data: ContextData) -> list[Checkpoint]:
    """``train_runs`` on the folds of one context, as extracted."""
    run = dataclasses.replace(config, features=data.combination)
    return list(train_runs([(run, data)]))


def evaluate_context(config: RunConfig, data: ContextData,
                     checkpoints: dict[int, Checkpoint] | None = None,
                     features: dict[str, FeatureMatrix] | None = None,
                     ) -> tuple[MetricReport, list[SegmentCounts]]:
    """Detect on each fold's test recordings with that fold's model, using
    the split and settings each checkpoint records (``checkpoints``, or every
    ``fold*.ckpt`` in the models directory).  Returns the aggregated report
    (micro by default, macro behind the config flag) plus the per-fold
    counts, in fold order."""
    features = features or data.features
    directory = models_dir(config, data.context)
    if checkpoints is None:
        paths = glob.glob(os.path.join(glob.escape(directory), "fold*.ckpt"))
        checkpoints = dict(enumerate(map(load_checkpoint, sorted(paths))))
    folds = sorted(checkpoints.values(), key=lambda c: c.split.fold_index)
    if sorted(name for c in folds for name in c.split.test) \
            != sorted(data.recordings):
        raise DataError(f"the test sets of the fold checkpoints in {directory} "
                        "do not partition the recordings of context "
                        f"{data.context!r}; run the train command, or remove "
                        "checkpoints left from another run")
    per_fold = []
    for checkpoint in folds:
        if (checkpoint.feature_config, checkpoint.sample_rate) \
                != (data.feature_config, data.sample_rate):
            raise DataError(f"fold {checkpoint.split.fold_index} in {directory} "
                            "was trained on features extracted with other "
                            "settings or at another sample rate "
                            f"({checkpoint.sample_rate} Hz) than those of "
                            f"context {data.context!r} ({data.sample_rate} Hz)")
        sample = features[checkpoint.split.test[0]]
        if checkpoint.layout.blocks != sample.layout.blocks:
            raise DataError(
                f"checkpoint layout {checkpoint.layout.blocks} does not match "
                f"extracted feature layout {sample.layout.blocks}")
        if checkpoint.class_order != data.class_order:
            raise DataError("checkpoint class order does not match the context")
        params = checkpoint.state.best_params
        fold_counts = SegmentCounts()
        for name in checkpoint.split.test:
            system = detect_roll(params, checkpoint.scaler, features[name],
                                 data.class_order,
                                 threshold=checkpoint.threshold,
                                 sequence_length=checkpoint.sequence_length)
            fold_counts = fold_counts + score(data.rolls[name], system,
                                              checkpoint.feature_config.grid)
        per_fold.append(fold_counts)
    return combine(per_fold, macro=config.macro_average), per_fold


# ---------------------------------------------------------------------------
# Ablation over feature combinations


def ablation_tokens(combinations: list[str]) -> list[str]:
    return list(dict.fromkeys(spec.token for combination in combinations
                              for spec in parse_combination(combination)))


def ablation_config(config: RunConfig, combination: str) -> RunConfig:
    """The run config of one combination of an ablation grid; its models go
    under ``<out>/ablation/<combination, ';' as '+'>``."""
    name = ";".join(spec.token for spec in parse_combination(combination))
    return dataclasses.replace(config, features=name, out_dir=os.path.join(
        config.out_dir, "ablation", name.replace(";", "+")))
