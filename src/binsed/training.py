"""Training loop: feature scaling, sequence batching, block mixing
augmentation, Adam optimisation and validation-driven early stopping.

Recordings are cut into fixed-length non-overlapping sequences (25 frames by
default); a trailing partial sequence is zero-padded and masked so padding
never contributes to the loss.  Per-dimension standardisation statistics are
fit on training data only and reused everywhere else.  Early stopping tracks
the segment error rate on held-out validation recordings and restores the
parameters of the best epoch seen.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .audio import FrameGrid
from .errors import DivergenceError
from .events import EventRoll
from .layout import FeatureLayout, FeatureMatrix
from .lstm import (NetworkParams, backward, clip_gradient_norm, forward,
                   init_params, params_to_vector, vector_to_params)
from .metrics import combine, score


# ---------------------------------------------------------------------------
# Standardisation


@dataclass(frozen=True)
class Scaler:
    mean: np.ndarray
    std: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (values - self.mean) / self.std


def fit_scaler(matrices: list[np.ndarray | FeatureMatrix]) -> Scaler:
    """Per-dimension mean/std over stacked training frames.

    Dimensions with zero variance get std 1 so constant features pass
    through centred instead of dividing by zero.
    """
    arrays = [m.values if isinstance(m, FeatureMatrix) else np.asarray(m)
              for m in matrices]
    if not arrays:
        raise ValueError("cannot fit a scaler on no data")
    stacked = np.vstack(arrays)
    mean = stacked.mean(axis=0)
    std = stacked.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return Scaler(mean=mean, std=std)


# ---------------------------------------------------------------------------
# Sequence batching


@dataclass
class SequenceBatch:
    inputs: np.ndarray            # (S, T, D)
    targets: np.ndarray           # (S, T, C)
    mask: np.ndarray              # (S, T) 1.0 = valid frame
    layout: FeatureLayout | None = None
    class_order: tuple[str, ...] = ()

    @property
    def sequence_count(self) -> int:
        return self.inputs.shape[0]


def split_sequences(features: np.ndarray, targets: np.ndarray,
                    sequence_length: int = 25,
                    layout: FeatureLayout | None = None,
                    class_order: tuple[str, ...] = ()) -> SequenceBatch:
    """Cut one recording into non-overlapping fixed-length sequences.

    The final partial sequence is zero-padded; its padding frames are masked
    out.  Concatenating the valid frames back reconstructs the input.  The
    batch keeps float32 features float32; others become float64.
    """
    features = np.asarray(features, np.result_type(features, np.float32))
    targets = np.asarray(targets, dtype=features.dtype)
    if features.shape[0] != targets.shape[0]:
        raise ValueError("features and targets must cover the same frames")
    if sequence_length < 1:
        raise ValueError("sequence_length must be positive")
    frames = features.shape[0]
    if frames == 0:
        raise ValueError("cannot split an empty recording")
    count = math.ceil(frames / sequence_length)
    padded = count * sequence_length
    inputs = np.zeros((padded, features.shape[1]), features.dtype)
    target_grid = np.zeros((padded, targets.shape[1]), features.dtype)
    mask = np.zeros(padded, features.dtype)
    inputs[:frames] = features
    target_grid[:frames] = targets
    mask[:frames] = 1.0
    return SequenceBatch(
        inputs=inputs.reshape(count, sequence_length, -1),
        targets=target_grid.reshape(count, sequence_length, -1),
        mask=mask.reshape(count, sequence_length),
        layout=layout, class_order=tuple(class_order))


def concat_batches(batches: list[SequenceBatch]) -> SequenceBatch:
    if not batches:
        raise ValueError("nothing to concatenate")
    layouts = {b.layout.blocks for b in batches if b.layout is not None}
    if len(layouts) > 1:
        raise ValueError("sequence batches have mismatched feature layouts")
    orders = {b.class_order for b in batches if b.class_order}
    if len(orders) > 1:
        raise ValueError("sequence batches have mismatched class orders")
    return SequenceBatch(
        inputs=np.concatenate([b.inputs for b in batches]),
        targets=np.concatenate([b.targets for b in batches]),
        mask=np.concatenate([b.mask for b in batches]),
        layout=batches[0].layout,
        class_order=batches[0].class_order)


def stitch_sequences(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Undo split_sequences on per-frame outputs: (S, T, C) -> (frames, C)."""
    flat = values.reshape(-1, values.shape[2])
    return flat[mask.reshape(-1) > 0]


# ---------------------------------------------------------------------------
# Block mixing augmentation


def block_mix(batch: SequenceBatch, rng: np.random.Generator,
              ratio: float = 1.0) -> SequenceBatch:
    """Augment a batch by superimposing random sequence pairs.

    Mel blocks are added as linear energies (log -> exp -> sum -> log);
    pitch and TDOA blocks take the element-wise maximum, keeping the more
    dominant source.  Targets are OR-ed and masks AND-ed.  The originals are
    kept; round(ratio * S) mixtures are appended.
    """
    if batch.layout is None:
        raise ValueError("block mixing needs a feature layout")
    count = int(round(ratio * batch.sequence_count))
    if count == 0:
        return batch
    if batch.sequence_count < 2:
        raise ValueError("block mixing needs at least two sequences")
    first = rng.integers(0, batch.sequence_count, size=count)
    second = rng.integers(0, batch.sequence_count - 1, size=count)
    second = second + (second >= first)
    a, b = batch.inputs[first], batch.inputs[second]
    mixed = np.empty_like(a)
    for name, _ in batch.layout.blocks:
        sl = batch.layout.block_slice(name)
        if name.startswith("mel"):
            mixed[:, :, sl] = np.logaddexp(a[:, :, sl], b[:, :, sl])
        else:
            mixed[:, :, sl] = np.maximum(a[:, :, sl], b[:, :, sl])
    mixed_targets = np.maximum(batch.targets[first], batch.targets[second])
    mixed_mask = batch.mask[first] * batch.mask[second]
    return SequenceBatch(
        inputs=np.concatenate([batch.inputs, mixed]),
        targets=np.concatenate([batch.targets, mixed_targets]),
        mask=np.concatenate([batch.mask, mixed_mask]),
        layout=batch.layout, class_order=batch.class_order)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    first_moment: np.ndarray
    second_moment: np.ndarray
    step: int = 0


def adam_init(size: int) -> AdamState:
    return AdamState(first_moment=np.zeros(size),
                     second_moment=np.zeros(size), step=0)


def adam_step(params: np.ndarray, gradient: np.ndarray, state: AdamState,
              learning_rate: float = 1e-3, beta1: float = 0.9,
              beta2: float = 0.999, epsilon: float = 1e-8,
              ) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update in float64; returns new parameters
    (rounded to the dtype of ``params``) and state."""
    step = state.step + 1
    gradient = gradient.astype(np.float64, copy=False)
    first = beta1 * state.first_moment + (1.0 - beta1) * gradient
    second = beta2 * state.second_moment + (1.0 - beta2) * gradient * gradient
    first_hat = first / (1.0 - beta1 ** step)
    second_hat = second / (1.0 - beta2 ** step)
    updated = params - learning_rate * first_hat / (np.sqrt(second_hat) + epsilon)
    return updated.astype(params.dtype, copy=False), AdamState(
        first_moment=first, second_moment=second, step=step)


# ---------------------------------------------------------------------------
# Training loop


@dataclass(frozen=True)
class TrainConfig:
    hidden_sizes: tuple[int, ...] = (32, 32)
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_epsilon: float = 1e-8
    gradient_clip: float = 5.0
    batch_size: int = 32
    max_epochs: int = 2000
    patience: int = 100
    sequence_length: int = 25
    block_mix_ratio: float = 1.0
    threshold: float = 0.5
    target_validation_er: float | None = None
    grid: FrameGrid = field(default_factory=FrameGrid)   # sets segment length


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    train_loss: float
    validation_er: float
    validation_f: float


@dataclass
class TrainState:
    layer_sizes: tuple[int, ...]
    params_vector: np.ndarray
    adam: AdamState
    rng: np.random.Generator
    epoch: int = 0
    best_validation_er: float = math.inf
    best_params_vector: np.ndarray | None = None
    epochs_since_improvement: int = 0
    stopped: bool = False
    history: list[EpochRecord] = field(default_factory=list)

    @property
    def params(self) -> NetworkParams:
        """Views over ``params_vector``: writing one writes the state."""
        return vector_to_params(self.params_vector, self.layer_sizes)

    @property
    def best_params(self) -> NetworkParams:
        """Views over ``best_params_vector``, else ``params_vector``."""
        vector = (self.best_params_vector if self.best_params_vector is not None
                  else self.params_vector)
        return vector_to_params(vector, self.layer_sizes)


def init_train_state(input_size: int, class_count: int, config: TrainConfig,
                     seed) -> TrainState:
    """``seed`` may be an int or a numpy SeedSequence.  The initial draws
    are rounded to float32, the dtype the network trains in."""
    rng = np.random.default_rng(seed)
    layer_sizes = (input_size, *config.hidden_sizes, class_count)
    params = init_params(layer_sizes, rng)
    vector = params_to_vector(params).astype(np.float32)
    return TrainState(layer_sizes=layer_sizes, params_vector=vector,
                      adam=adam_init(vector.size), rng=rng)


def predict_posteriors(params: NetworkParams, values: np.ndarray,
                       sequence_length: int = 25) -> np.ndarray:
    """Per-frame class posteriors for one recording's (already scaled) features."""
    frames = values.shape[0]
    dummy = np.zeros((frames, params.class_count))
    batch = split_sequences(values, dummy, sequence_length)
    probs = forward(params, batch.inputs)
    return stitch_sequences(probs, batch.mask)[:frames]


def detect_roll(params: NetworkParams, scaler: Scaler,
                features: FeatureMatrix | np.ndarray,
                class_order: tuple[str, ...], threshold: float = 0.5,
                sequence_length: int = 25) -> EventRoll:
    """Binary activity from posteriors: active iff strictly above threshold."""
    values = features.values if isinstance(features, FeatureMatrix) else features
    if values.shape[1] != params.input_size:
        raise ValueError(f"feature width {values.shape[1]} does not match "
                         f"network input size {params.input_size}")
    if len(class_order) != params.class_count:
        raise ValueError("class order length does not match network output")
    probs = predict_posteriors(params, scaler.transform(values),
                               sequence_length)
    return EventRoll(activity=(probs > threshold).astype(np.uint8),
                     class_order=tuple(class_order))


def validation_error_rate(params: NetworkParams,
                          validation: list[tuple[np.ndarray, EventRoll]],
                          threshold: float,
                          sequence_length: int,
                          grid: FrameGrid | None = None) -> tuple[float, float]:
    """Micro-averaged segment ER and F over validation recordings.

    Features arrive already scaled; references are frame-activity rolls on
    ``grid``, which fixes how many frames make a one-second segment.
    """
    counts = []
    for values, reference in validation:
        probs = predict_posteriors(params, values, sequence_length)
        system = EventRoll(activity=(probs > threshold).astype(np.uint8),
                           class_order=reference.class_order)
        counts.append(score(reference, system, grid))
    rep = combine(counts)
    return rep.error_rate, rep.f_score


def run_training(state: TrainState, train_batch: SequenceBatch,
                 validation: list[tuple[np.ndarray, EventRoll]],
                 config: TrainConfig) -> TrainState:
    """Run epochs until early stopping, a target ER, or the epoch budget.

    Each epoch re-draws block mixtures, shuffles sequences into minibatches,
    and applies gradient-clipped Adam updates.  Improvement means the
    validation ER strictly decreased; after max(patience, 1) consecutive
    epochs without improvement the loop stops and the best parameters are
    kept.  The state is consistent at every epoch boundary, so a checkpoint
    written there resumes bit-exactly.  The data is cast once, to the dtype
    of the parameter vector."""
    if not validation:
        raise ValueError("run_training needs at least one validation recording")
    if train_batch.inputs.shape[2] != state.layer_sizes[0]:
        raise ValueError("training features do not match the network input size")
    dtype = state.params_vector.dtype
    train_batch = replace(train_batch, **{
        key: getattr(train_batch, key).astype(dtype, copy=False)
        for key in ("inputs", "targets", "mask")})
    validation = [(values.astype(dtype, copy=False), roll)
                  for values, roll in validation]
    while not state.stopped and state.epoch < config.max_epochs:
        state.epoch += 1
        if config.block_mix_ratio > 0 and train_batch.sequence_count >= 2:
            epoch_batch = block_mix(train_batch, state.rng,
                                    config.block_mix_ratio)
        else:
            epoch_batch = train_batch
        order = state.rng.permutation(epoch_batch.sequence_count)
        loss_total = 0.0
        cell_total = 0.0
        for start in range(0, len(order), config.batch_size):
            pick = order[start:start + config.batch_size]
            params = vector_to_params(state.params_vector, state.layer_sizes)
            loss, grads = backward(params, epoch_batch.inputs[pick],
                                   epoch_batch.targets[pick],
                                   mask=epoch_batch.mask[pick])
            if not math.isfinite(loss):
                raise DivergenceError(
                    f"training loss became non-finite at epoch {state.epoch}")
            gradient = clip_gradient_norm(params_to_vector(grads),
                                          config.gradient_clip)
            state.params_vector, state.adam = adam_step(
                state.params_vector, gradient, state.adam,
                learning_rate=config.learning_rate, beta1=config.beta1,
                beta2=config.beta2, epsilon=config.adam_epsilon)
            cells = float(epoch_batch.mask[pick].sum()) \
                * epoch_batch.targets.shape[2]
            loss_total += loss * cells
            cell_total += cells
        if not np.all(np.isfinite(state.params_vector)):
            raise DivergenceError(
                f"parameters became non-finite at epoch {state.epoch}")
        train_loss = loss_total / cell_total if cell_total else 0.0
        params = vector_to_params(state.params_vector, state.layer_sizes)
        val_er, val_f = validation_error_rate(params, validation,
                                              config.threshold,
                                              config.sequence_length,
                                              config.grid)
        state.history.append(EpochRecord(epoch=state.epoch,
                                         train_loss=train_loss,
                                         validation_er=val_er,
                                         validation_f=val_f))
        if val_er < state.best_validation_er:
            state.best_validation_er = val_er
            state.best_params_vector = state.params_vector.copy()
            state.epochs_since_improvement = 0
        else:
            state.epochs_since_improvement += 1
            if state.epochs_since_improvement >= max(config.patience, 1):
                state.stopped = True
        if (config.target_validation_er is not None
                and val_er <= config.target_validation_er):
            state.stopped = True
    return state
