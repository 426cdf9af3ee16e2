"""Command-line interface.

Subcommands: extract, train, evaluate, detect, ablate, synth.  extract,
train, ablate and synth accept --config (JSON file) plus flag overrides and
write the resolved configuration into the output directory.  Later commands
read the records artefacts hold instead: train the manifest's feature
settings, evaluate each checkpoint's split and settings (and only out_dir,
contexts and macro_average from a config), detect all from its checkpoint.
train and ablate train every fold of the command on one process pool.
Exit codes: 0 success, 1 usage error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from .audio import decode_wav
from .checkpoint import load_checkpoint
from .config import RunConfig, load_config, write_resolved_config
from .container import atomic_write_bytes
from .errors import DataError, TrainingError, UsageError
from .events import roll_to_events
from .features import ABLATION_COMBINATIONS, assemble_features
from .layout import FeatureMatrix
from .metrics import MetricReport, format_results_table
from .pipeline import (ContextData, ablation_config, ablation_tokens,
                       evaluate_context, extract_context,
                       read_context_features, select_combination, train_runs,
                       write_context_features)
from .synth import (SynthClass, generate_dataset, parse_scene_plan,
                    synthesize_scene, write_scene)
from .training import detect_roll

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_TRAINING = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


_FLAGS = {
    "--config": {"help": "JSON configuration file"},
    "--data-root": {"dest": "data_root"},
    "--out": {"dest": "out_dir"},
    "--context": {"dest": "contexts", "action": "append",
                  "help": "context name (repeatable)"},
    "--features": {},
    "--combinations": {"help": "comma-separated combination list (ablate)"},
    "--seed": {"type": int},
    "--folds": {"dest": "fold_count", "type": int},
    "--validation-fraction": {"dest": "validation_fraction", "type": float},
    "--threshold": {"type": float},
    "--hidden-sizes": {"dest": "hidden_sizes"},
    "--learning-rate": {"dest": "learning_rate", "type": float},
    "--batch-size": {"dest": "batch_size", "type": int},
    "--max-epochs": {"dest": "max_epochs", "type": int},
    "--patience": {"type": int},
    "--block-mix-ratio": {"dest": "block_mix_ratio", "type": float},
    "--macro": {"dest": "macro_average", "action": "store_const",
                "const": True, "default": None,
                "help": "macro-average fold results instead of micro"},
    "--export-csv": {"action": "store_const", "const": True, "default": None},
}


_CONFIG_KEYS = {f.name for f in dataclasses.fields(RunConfig)}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    overrides = {key: value for key, value in vars(args).items()
                 if key in _CONFIG_KEYS and value is not None}
    if "contexts" in overrides:
        overrides["contexts"] = tuple(overrides["contexts"])
    return load_config(getattr(args, "config", None), overrides)


def _require_contexts(config: RunConfig) -> list[str]:
    if not config.contexts:
        raise UsageError("no context given; pass --context or set "
                         "'contexts' in the config file")
    return list(config.contexts)


def cmd_extract(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    extracted = [extract_context(config, c) for c in _require_contexts(config)]
    write_resolved_config(config.out_dir, config)
    for data in extracted:
        write_context_features(config, data)
        print(f"extracted {len(data.recordings)} recordings for "
              f"context {data.context!r} ({data.combination}, "
              f"width {data.features[data.recordings[0]].width})")
    return EXIT_OK


def _read_extracted(args: argparse.Namespace
                    ) -> tuple[RunConfig, list[ContextData]]:
    """Read every context's extracted features and resolve the config to the
    combination and feature settings they were extracted with.

    Contexts extracted with different ones, or at different sample rates,
    are a data error.
    """
    config = _resolve_config(args)
    contexts = _require_contexts(config)
    extracted = [read_context_features(config, c) for c in contexts]
    if len({(d.combination, d.feature_config, d.sample_rate)
            for d in extracted}) > 1:
        raise DataError("contexts were extracted with different feature "
                        "combinations, settings or sample rates: " + ", ".join(
                            f"{context} ({data.combination}) at "
                            f"{data.sample_rate} Hz"
                            for context, data in zip(contexts, extracted)))
    config = config.with_feature_config(extracted[0].feature_config)
    return (dataclasses.replace(config, features=extracted[0].combination),
            extracted)


def cmd_train(args: argparse.Namespace) -> int:
    config, extracted = _read_extracted(args)
    trained = train_runs([(config, data) for data in extracted])
    write_resolved_config(config.out_dir, config)
    for checkpoint in trained:
        state = checkpoint.state
        print(f"{checkpoint.context}: trained fold with best validation ER "
              f"{state.best_validation_er:.3f} after {state.epoch} epochs",
              flush=True)
    return EXIT_OK


def _score(config: RunConfig, data: ContextData,
           features: dict[str, FeatureMatrix]) -> tuple[MetricReport, dict]:
    """A context's report on ``features``, the blocks ``config.features``
    names, and its scores as results.json and table.json hold them."""
    report, per_fold = evaluate_context(config, data, features=features)
    return report, {"combination": config.features,
                    **dataclasses.asdict(report),
                    "per_fold": [dataclasses.asdict(c) for c in per_fold]}


def _publish(directory: str, stem: str, payload: dict, table: str) -> None:
    """Write ``<stem>.json`` and the ``<stem>.txt`` table, each atomically,
    and print the table."""
    os.makedirs(directory, exist_ok=True)
    for suffix, text in ((".json", json.dumps(payload, indent=2)),
                         (".txt", table)):
        atomic_write_bytes(os.path.join(directory, stem + suffix),
                           (text + "\n").encode("utf-8"))
    print(table)


def cmd_evaluate(args: argparse.Namespace) -> int:
    config, extracted = _read_extracted(args)
    contexts = _require_contexts(config)
    rows = {}
    payload = {}
    for context, data in zip(contexts, extracted):
        rows[context], payload[context] = _score(config, data, data.features)
    payload["average"] = {
        "error_rate": float(np.mean([rows[c].error_rate for c in contexts])),
        "f_score": float(np.mean([rows[c].f_score for c in contexts])),
    }
    payload["averaging"] = "macro" if config.macro_average else "micro"
    table = format_results_table({config.features: rows}, contexts)
    _publish(os.path.join(config.out_dir, "evaluation"), "results", payload, table)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    checkpoint = load_checkpoint(args.checkpoint)
    clip = decode_wav(args.audio)
    if clip.sample_rate != checkpoint.sample_rate:
        raise DataError(f"{args.audio} is sampled at {clip.sample_rate} Hz, "
                        f"but the model in {args.checkpoint} was trained at "
                        f"{checkpoint.sample_rate} Hz")
    features = assemble_features(clip, checkpoint.combination,
                                 checkpoint.feature_config)
    roll = detect_roll(checkpoint.state.best_params, checkpoint.scaler,
                       features, checkpoint.class_order,
                       threshold=checkpoint.threshold,
                       sequence_length=checkpoint.sequence_length)
    events = roll_to_events(roll, checkpoint.feature_config.grid)
    lines = [f"{event.onset:.2f}\t{event.offset:.2f}\t{event.label}"
             for event in events.events]
    text = "\n".join(lines) + ("\n" if lines else "")
    if args.out_file:
        atomic_write_bytes(args.out_file, text.encode("utf-8"))
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    contexts = _require_contexts(config)
    combinations = list(config.combinations) or list(ABLATION_COMBINATIONS)
    extracted = [extract_context(config, c, tokens=ablation_tokens(combinations))
                 for c in contexts]
    runs = {(data.context, c): (ablation_config(config, c), data)
            for data in extracted for c in combinations}
    trained = train_runs(list(runs.values()))
    write_resolved_config(config.out_dir, config)
    for _ in trained:
        pass
    rows = {c: {} for c in combinations}
    payload = {c: {} for c in combinations}
    for (context, c), (run, data) in runs.items():
        # One slice at a time: each holds a copy of its features.
        rows[c][context], payload[c][context] = _score(
            run, data, select_combination(data, run.features, run))
    table = format_results_table(rows, contexts)
    _publish(os.path.join(config.out_dir, "ablation"), "table", payload, table)
    return EXIT_OK


_SYNTH_CLASSES = [
    SynthClass(label="rumble", band_lo=0, band_hi=1, delay=6, kind="noise"),
    SynthClass(label="hiss", band_lo=3, band_hi=4, delay=-6, kind="noise"),
    SynthClass(label="beep", band_lo=0, band_hi=4, delay=0, kind="tone",
               pitch_hz=330.0),
]


def cmd_synth(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    contexts = _require_contexts(config)
    for context in contexts:
        if config.synth_plan:
            plan = parse_scene_plan(config.synth_plan)
            rng = np.random.default_rng(config.seed)
            scene = synthesize_scene(plan, config.synth_duration,
                                     config.synth_sample_rate,
                                     config=config.feature_config().tdoa,
                                     rng=rng, recording="scene", context=context)
            write_scene(scene, config.data_root, context, "scene")
            print(f"rendered plan {config.synth_plan!r} into context "
                  f"{context!r}")
        else:
            names = generate_dataset(config.data_root, context, _SYNTH_CLASSES,
                                     recording_count=config.synth_recordings,
                                     duration=config.synth_duration,
                                     sample_rate=config.synth_sample_rate,
                                     seed=config.seed,
                                     config=config.feature_config().tdoa)
            print(f"generated {len(names)} synthetic recordings for "
                  f"context {context!r} under {config.data_root}")
    return EXIT_OK


# The flags each command reads (train's --data-root is for its config.json).
_RUN_FLAGS = ["--config", "--data-root", "--out", "--context"]
_TRAINING_FLAGS = ["--seed", "--folds", "--validation-fraction", "--threshold",
                   "--hidden-sizes", "--learning-rate", "--batch-size",
                   "--max-epochs", "--patience", "--block-mix-ratio"]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binsed",
                     description="Binaural polyphonic sound event detection")
    commands = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("extract", cmd_extract, "extract features and targets",
         _RUN_FLAGS + ["--features", "--export-csv"]),
        ("train", cmd_train, "train fold models on extracted features",
         _RUN_FLAGS + _TRAINING_FLAGS),
        ("evaluate", cmd_evaluate, "score trained models on test folds",
         ["--config", "--out", "--context", "--macro"]),
        ("detect", cmd_detect, "run detection on one audio file", []),
        ("ablate", cmd_ablate, "train and score a grid of combinations",
         _RUN_FLAGS + ["--combinations"] + _TRAINING_FLAGS + ["--macro"]),
        ("synth", cmd_synth, "render synthetic binaural scenes",
         ["--config", "--data-root", "--context", "--seed"]),
    ]
    for name, handler, help_text, flags in specs:
        sub = commands.add_parser(name, help=help_text)
        for flag in flags:
            sub.add_argument(flag, **_FLAGS[flag])
        if name == "detect":
            sub.add_argument("--checkpoint", required=True)
            sub.add_argument("--audio", required=True)
            sub.add_argument("--out-file", dest="out_file")
        if name == "synth":
            sub.add_argument("--plan", dest="synth_plan")
            sub.add_argument("--recordings", dest="synth_recordings", type=int)
            sub.add_argument("--duration", dest="synth_duration", type=float)
            sub.add_argument("--sample-rate", dest="synth_sample_rate",
                             type=int)
        sub.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except TrainingError as exc:
        print(f"training error: {exc}", file=sys.stderr)
        return EXIT_TRAINING


if __name__ == "__main__":
    sys.exit(main())
