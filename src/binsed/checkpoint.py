"""Checkpoint serialisation.

A checkpoint freezes everything needed to run detection (best parameters,
scaler, class order, feature combination and settings, sequence length,
threshold), to score its fold (the split), to name the run that trained it
(the seed and context, which with the combination and fold index give its
``fold_seed``) and to resume training bit-exactly from an epoch boundary
(current parameters, Adam moments, early-stopping counters, RNG state,
history).

Little-endian binary layout: magic ``BSC1``, version, a length-prefixed JSON
header, then count-prefixed arrays in the order written below: float64,
except the parameters and best parameters, in the header's dtype (float32).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .container import atomic_write_bytes
from .errors import DataError
from .features import FeatureConfig, feature_config_from_json, feature_config_to_json
from .folds import FoldSplit
from .layout import FeatureLayout
from .training import AdamState, EpochRecord, Scaler, TrainState

MAGIC = b"BSC1"
VERSION = 4


@dataclass
class Checkpoint:
    state: TrainState
    scaler: Scaler
    class_order: tuple[str, ...]
    combination: str
    layout: FeatureLayout
    split: FoldSplit
    feature_config: FeatureConfig
    sequence_length: int
    threshold: float
    seed: int
    context: str


def _pack_array(values: np.ndarray, dtype: str = "<f8") -> bytes:
    flat = np.ascontiguousarray(values, dtype=dtype)
    return struct.pack("<Q", flat.size) + flat.tobytes()


class _Reader:
    def __init__(self, blob: bytes, path):
        self.blob = blob
        self.offset = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.offset + count > len(self.blob):
            raise DataError(f"checkpoint truncated: {self.path}")
        out = self.blob[self.offset:self.offset + count]
        self.offset += count
        return out

    def unpack(self, fmt: str):
        values = struct.unpack(fmt, self.take(struct.calcsize(fmt)))
        return values[0] if len(values) == 1 else values

    def array(self, dtype: str = "<f8") -> np.ndarray:
        size = self.unpack("<Q") * np.dtype(dtype).itemsize
        return np.frombuffer(self.take(size), dtype=dtype).copy()


def save_checkpoint(path: str | os.PathLike, checkpoint: Checkpoint) -> None:
    state = checkpoint.state
    dtype = state.params_vector.dtype.newbyteorder("<").str
    header = json.dumps({
        "class_order": checkpoint.class_order,
        "combination": checkpoint.combination,
        "context": checkpoint.context,
        "dtype": dtype,
        "features": feature_config_to_json(checkpoint.feature_config),
        "layer_sizes": state.layer_sizes,
        "layout": checkpoint.layout.blocks,
        "seed": checkpoint.seed,
        "sequence_length": checkpoint.sequence_length,
        "split": asdict(checkpoint.split),
        "threshold": checkpoint.threshold,
    }, sort_keys=True).encode("utf-8")
    parts = [MAGIC, struct.pack("<II", VERSION, len(header)), header]
    parts.append(_pack_array(checkpoint.scaler.mean))
    parts.append(_pack_array(checkpoint.scaler.std))
    parts.append(_pack_array(state.params_vector, dtype))
    has_best = state.best_params_vector is not None
    parts.append(struct.pack("<B", int(has_best)))
    if has_best:
        parts.append(_pack_array(state.best_params_vector, dtype))
    parts.append(struct.pack("<Q", state.adam.step))
    parts.append(_pack_array(state.adam.first_moment))
    parts.append(_pack_array(state.adam.second_moment))
    best_er = state.best_validation_er
    parts.append(struct.pack("<QdQB", state.epoch,
                             best_er if math.isfinite(best_er) else math.inf,
                             state.epochs_since_improvement,
                             int(state.stopped)))
    rng_state = state.rng.bit_generator.state
    if rng_state["bit_generator"] != "PCG64":
        raise ValueError("only PCG64 training RNGs can be checkpointed")
    parts.append(rng_state["state"]["state"].to_bytes(16, "little"))
    parts.append(rng_state["state"]["inc"].to_bytes(16, "little"))
    parts.append(struct.pack("<II", int(rng_state["has_uint32"]),
                             int(rng_state["uinteger"])))
    parts.append(struct.pack("<Q", len(state.history)))
    for record in state.history:
        parts.append(struct.pack("<Qddd", record.epoch, record.train_loss,
                                 record.validation_er, record.validation_f))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str | os.PathLike) -> Checkpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint: {exc}") from exc
    if blob[:4] != MAGIC:
        raise DataError(f"not a checkpoint file: {path}")
    reader = _Reader(blob, path)
    reader.take(4)
    version = reader.unpack("<I")
    if version != VERSION:
        raise DataError(f"unsupported checkpoint version {version} in {path}; "
                        "retrain it with the train command")
    try:
        header = json.loads(reader.take(reader.unpack("<I")))
        split = header["split"]
        settings = dict(
            class_order=tuple(header["class_order"]),
            combination=header["combination"],
            layout=FeatureLayout(tuple(map(tuple, header["layout"]))),
            split=FoldSplit(**{key: value if key == "fold_index" else
                               tuple(value) for key, value in split.items()}),
            feature_config=feature_config_from_json(header["features"]),
            sequence_length=header["sequence_length"],
            threshold=header["threshold"],
            seed=header["seed"],
            context=header["context"])
        layer_sizes = tuple(header["layer_sizes"])
        dtype = header["dtype"]
        if dtype not in ("<f4", "<f8"):
            raise ValueError(f"parameter dtype {dtype!r}")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed checkpoint header in {path}") from exc
    scaler = Scaler(mean=reader.array(), std=reader.array())
    params_vector = reader.array(dtype)
    best_params_vector = reader.array(dtype) if reader.unpack("<B") else None
    adam_step_count = reader.unpack("<Q")
    adam = AdamState(first_moment=reader.array(),
                     second_moment=reader.array(), step=adam_step_count)
    epoch, best_er, since, stopped = reader.unpack("<QdQB")
    pcg_state = int.from_bytes(reader.take(16), "little")
    pcg_inc = int.from_bytes(reader.take(16), "little")
    has_uint32, uinteger = reader.unpack("<II")
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = {
        "bit_generator": "PCG64",
        "state": {"state": pcg_state, "inc": pcg_inc},
        "has_uint32": has_uint32,
        "uinteger": uinteger,
    }
    history = []
    for _ in range(reader.unpack("<Q")):
        rec_epoch, train_loss, val_er, val_f = reader.unpack("<Qddd")
        history.append(EpochRecord(epoch=rec_epoch, train_loss=train_loss,
                                   validation_er=val_er, validation_f=val_f))
    state = TrainState(layer_sizes=layer_sizes,
                       params_vector=params_vector,
                       adam=adam, rng=rng, epoch=epoch,
                       best_validation_er=best_er,
                       best_params_vector=best_params_vector,
                       epochs_since_improvement=since,
                       stopped=bool(stopped), history=history)
    return Checkpoint(state=state, scaler=scaler, **settings)
