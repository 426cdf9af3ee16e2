"""Checkpoint serialisation.

A checkpoint freezes everything needed to run detection (best parameters,
scaler, class order, feature combination and settings, the sample rate its
features were extracted at, sequence length, threshold), to score its fold
(the split), to name the run that trained it (the seed and context, which
with the combination and fold index give its ``fold_seed``) and to resume
training bit-exactly from an epoch boundary (current parameters, Adam
moments, early-stopping counters, RNG state, history).  Its layout is
derived from the combination and feature settings.

It is a ``container`` record, magic ``BSC1``: the settings, counters and PCG64
state in the JSON header; the scaler, parameters, Adam moments, history and
best parameters as named arrays, float64 except the parameters (float32 for
trained models).
"""

from __future__ import annotations

import math
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import lstm
from .container import read_record, write_record
from .errors import DataError
from .features import (FeatureConfig, combination_layout,
                       feature_config_from_json, feature_config_to_json)
from .folds import FoldSplit
from .layout import FeatureLayout
from .training import AdamState, EpochRecord, Scaler, TrainState

MAGIC = b"BSC1"
VERSION = 7
# Header entries stored as they are on the Checkpoint and on its TrainState.
_SETTINGS = ("combination", "context", "sample_rate", "seed",
             "sequence_length", "threshold")
_COUNTERS = ("epoch", "epochs_since_improvement", "stopped")


@dataclass
class Checkpoint:
    state: TrainState
    scaler: Scaler
    class_order: tuple[str, ...]
    combination: str
    split: FoldSplit
    feature_config: FeatureConfig
    sequence_length: int
    threshold: float
    seed: int
    context: str
    sample_rate: int

    @property
    def layout(self) -> FeatureLayout:
        """The columns the model reads: ValueError if malformed."""
        return combination_layout(self.combination, self.feature_config)


def save_checkpoint(path: str | os.PathLike, checkpoint: Checkpoint) -> None:
    state = checkpoint.state
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise ValueError("only PCG64 training RNGs can be checkpointed")
    best_er = state.best_validation_er
    header = {
        **{key: getattr(checkpoint, key) for key in _SETTINGS},
        **{key: getattr(state, key) for key in _COUNTERS},
        "adam_step": state.adam.step,
        "best_validation_er": best_er if math.isfinite(best_er) else math.inf,
        "class_order": checkpoint.class_order,
        "features": feature_config_to_json(checkpoint.feature_config),
        "layer_sizes": state.layer_sizes,
        "rng": rng_state,
        "split": asdict(checkpoint.split),
    }
    dtype = state.params_vector.dtype.newbyteorder("<").str
    history = np.reshape([(record.epoch, record.train_loss,
                           record.validation_er, record.validation_f)
                          for record in state.history], (-1, 4))
    arrays = {"scaler_mean": (checkpoint.scaler.mean, "<f8"),
              "scaler_std": (checkpoint.scaler.std, "<f8"),
              "params": (state.params_vector, dtype),
              "adam_first": (state.adam.first_moment, "<f8"),
              "adam_second": (state.adam.second_moment, "<f8"),
              "history": (history, "<f8")}
    if state.best_params_vector is not None:
        arrays["best_params"] = (state.best_params_vector, dtype)
    write_record(path, MAGIC, VERSION, header, arrays)


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    header, views = read_record(path, MAGIC, VERSION, "checkpoint",
                                "retrain it with the train command")
    # Copies: resumed training updates the parameters and moments in place.
    arrays = {name: np.array(values) for name, values in views.items()}
    try:
        rng = np.random.Generator(np.random.PCG64())
        rng.bit_generator.state = header["rng"]
        state = TrainState(
            layer_sizes=tuple(header["layer_sizes"]),
            params_vector=arrays["params"],
            adam=AdamState(first_moment=arrays["adam_first"],
                           second_moment=arrays["adam_second"],
                           step=header["adam_step"]),
            rng=rng, best_validation_er=header["best_validation_er"],
            best_params_vector=arrays.get("best_params"),
            history=[EpochRecord(int(epoch), loss, er, f) for epoch, loss, er, f
                     in arrays["history"].tolist()],
            **{key: header[key] for key in _COUNTERS})
        checkpoint = Checkpoint(
            state=state,
            scaler=Scaler(mean=arrays["scaler_mean"], std=arrays["scaler_std"]),
            class_order=tuple(header["class_order"]),
            split=FoldSplit(**{key: value if key == "fold_index" else
                               tuple(value)
                               for key, value in header["split"].items()}),
            feature_config=feature_config_from_json(header["features"]),
            **{key: header[key] for key in _SETTINGS})
        _check_shapes(path, checkpoint, arrays)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint header in {path}; retrain it "
                        "with the train command") from exc
    return checkpoint


def _check_shapes(path: str | os.PathLike, checkpoint: Checkpoint,
                  arrays: dict[str, np.ndarray]) -> None:
    """Each array must have the shape the header's layer sizes, layout and
    class order give it, or the model cannot run on its own features."""
    sizes = checkpoint.state.layer_sizes
    width = checkpoint.layout.width          # ValueError: malformed
    if len(sizes) < 2 or sizes[0] != width \
            or sizes[-1] != len(checkpoint.class_order):
        raise DataError(f"checkpoint layer sizes {sizes} do not match its "
                        f"layout width {width} and "
                        f"{len(checkpoint.class_order)} classes: {path}; "
                        "retrain it with the train command")
    vector = (lstm._vector_size(sizes),)
    shapes = {"params": vector, "best_params": vector, "adam_first": vector,
              "adam_second": vector, "scaler_mean": (width,),
              "scaler_std": (width,)}
    for name, want in shapes.items():
        if name in arrays and arrays[name].shape != want:
            raise DataError(f"checkpoint array {name!r} has shape "
                            f"{arrays[name].shape}, not {want} as its header "
                            f"gives: {path}; retrain it with the train command")
