"""Command-line interface.

Subcommands: extract, train, evaluate, detect, ablate, synth.  Every
command accepts --config (JSON file) plus flag overrides; the resolved
configuration is written into the output directory.  Exit codes: 0 success,
1 usage error, 2 data error, 3 training failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

# One BLAS thread unless the user chose otherwise: the TDOA thread pool
# already uses every core.  This must run before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np

from .audio import decode_wav
from .checkpoint import load_checkpoint
from .config import RunConfig, load_config, write_resolved_config
from .container import atomic_write_bytes
from .errors import DataError, TrainingError, UsageError
from .events import roll_to_events
from .features import ABLATION_COMBINATIONS, assemble_features
from .metrics import format_results_table
from .pipeline import (evaluate_context, extract_context,
                       read_context_features, run_ablation, train_context,
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


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--data-root", dest="data_root")
    parser.add_argument("--out", dest="out_dir")
    parser.add_argument("--context", dest="contexts", action="append",
                        help="context name (repeatable)")
    parser.add_argument("--features")
    parser.add_argument("--combinations",
                        help="comma-separated combination list (ablate)")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--folds", dest="fold_count", type=int)
    parser.add_argument("--validation-fraction", dest="validation_fraction",
                        type=float)
    parser.add_argument("--threshold", type=float)
    parser.add_argument("--hidden-sizes", dest="hidden_sizes")
    parser.add_argument("--learning-rate", dest="learning_rate", type=float)
    parser.add_argument("--batch-size", dest="batch_size", type=int)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--patience", type=int)
    parser.add_argument("--block-mix-ratio", dest="block_mix_ratio", type=float)
    parser.add_argument("--macro", dest="macro_average", action="store_const",
                        const=True, default=None,
                        help="macro-average fold results instead of micro")
    parser.add_argument("--export-csv", dest="export_csv",
                        action="store_const", const=True, default=None)


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
    contexts = _require_contexts(config)
    write_resolved_config(config.out_dir, config)
    for context in contexts:
        data = extract_context(config, context)
        write_context_features(config, data)
        print(f"extracted {len(data.recordings)} recordings for "
              f"context {context!r} ({data.combination}, "
              f"width {data.features[data.recordings[0]].width})")
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    contexts = _require_contexts(config)
    write_resolved_config(config.out_dir, config)
    for context in contexts:
        data = read_context_features(config, context)
        checkpoints = train_context(config, data)
        for checkpoint in checkpoints:
            state = checkpoint.state
            print(f"{context}: trained fold with best validation ER "
                  f"{state.best_validation_er:.3f} after {state.epoch} epochs")
    return EXIT_OK


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    contexts = _require_contexts(config)
    extracted = [read_context_features(config, c) for c in contexts]
    combinations = {data.combination for data in extracted}
    if len(combinations) > 1:
        raise DataError("contexts were extracted with different feature "
                        "combinations: " + ", ".join(
                            f"{context} ({data.combination})"
                            for context, data in zip(contexts, extracted)))
    rows = {}
    payload = {}
    for context, data in zip(contexts, extracted):
        report, per_fold = evaluate_context(config, data)
        rows[context] = report
        payload[context] = {
            "combination": data.combination,
            "error_rate": report.error_rate,
            "f_score": report.f_score,
            "precision": report.precision,
            "recall": report.recall,
            "counts": dataclasses.asdict(report.counts),
            "per_fold": [dataclasses.asdict(c) for c in per_fold],
        }
    write_resolved_config(config.out_dir, config)
    payload["average"] = {
        "error_rate": float(np.mean([rows[c].error_rate for c in contexts])),
        "f_score": float(np.mean([rows[c].f_score for c in contexts])),
    }
    table = format_results_table({extracted[0].combination: rows}, contexts)
    out_dir = os.path.join(config.out_dir, "evaluation")
    os.makedirs(out_dir, exist_ok=True)
    atomic_write_bytes(os.path.join(out_dir, "results.json"),
                       (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    atomic_write_bytes(os.path.join(out_dir, "results.txt"),
                       (table + "\n").encode("utf-8"))
    print(table)
    return EXIT_OK


def cmd_detect(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    checkpoint = load_checkpoint(args.checkpoint)
    clip = decode_wav(args.audio)
    features = assemble_features(clip, checkpoint.combination,
                                 config.feature_config())
    if features.layout.blocks != checkpoint.layout.blocks:
        raise DataError("extracted features do not match the checkpoint layout")
    roll = detect_roll(checkpoint.state.best_params, checkpoint.scaler,
                       features, checkpoint.class_order,
                       threshold=config.threshold,
                       sequence_length=config.sequence_length)
    events = roll_to_events(roll, config.feature_config().grid)
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
    write_resolved_config(config.out_dir, config)
    combinations = list(config.combinations) or list(ABLATION_COMBINATIONS)
    rows = run_ablation(config, combinations, contexts)
    table = format_results_table(rows, contexts)
    out_dir = os.path.join(config.out_dir, "ablation")
    os.makedirs(out_dir, exist_ok=True)
    payload = {combo: {context: {"error_rate": rep.error_rate,
                                 "f_score": rep.f_score}
                       for context, rep in per_context.items()}
               for combo, per_context in rows.items()}
    atomic_write_bytes(os.path.join(out_dir, "table.json"),
                       (json.dumps(payload, indent=2) + "\n").encode("utf-8"))
    atomic_write_bytes(os.path.join(out_dir, "table.txt"),
                       (table + "\n").encode("utf-8"))
    print(table)
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="binsed",
                     description="Binaural polyphonic sound event detection")
    commands = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("extract", cmd_extract, "extract features and targets"),
        ("train", cmd_train, "train fold models on extracted features"),
        ("evaluate", cmd_evaluate, "score trained models on test folds"),
        ("detect", cmd_detect, "run detection on one audio file"),
        ("ablate", cmd_ablate, "train and score a grid of combinations"),
        ("synth", cmd_synth, "render synthetic binaural scenes"),
    ]
    for name, handler, help_text in specs:
        sub = commands.add_parser(name, help=help_text)
        _add_common_flags(sub)
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
