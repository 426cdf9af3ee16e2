"""Multi-label stacked LSTM, written out explicitly: forward pass,
binary cross-entropy loss, and backpropagation through time.

Shapes follow the convention (sequences, timesteps, dims).  Gate
pre-activations are packed row-wise in the order input, forget, candidate,
output; each layer has an input matrix (4H, D_in), a recurrent matrix
(4H, H) and a bias (4H,).  Hidden and cell states start at zero for every
sequence.  The output layer applies a per-class sigmoid to the top hidden
state, giving independent class posteriors in (0, 1).

Everything is computed in the dtype of the flat parameter vector.  Training
makes it float32, so checkpoints store float32 parameters; float64
parameters give a float64 forward and backward pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

PROB_EPS = 1e-7


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    neither branch overflows; both share e = exp(-|x|), with no masking.
    Computed in x's dtype, into ``out`` if given."""
    e = np.exp(-np.abs(x))
    numerator = np.maximum(e, x >= 0)     # 1 where x >= 0, as e <= 1
    e += 1.0
    return np.divide(numerator, e, out=out)


@dataclass
class LstmLayer:
    w_input: np.ndarray      # (4H, D_in)
    w_recurrent: np.ndarray  # (4H, H)
    bias: np.ndarray         # (4H,)

    @property
    def hidden_size(self) -> int:
        return self.w_recurrent.shape[1]

    @property
    def input_size(self) -> int:
        return self.w_input.shape[1]


@dataclass
class NetworkParams:
    """Named views over one flat vector, which Adam, clipping and
    checkpoints use; writing a view writes the vector.  Built only by
    vector_to_params."""
    vector: np.ndarray       # (P,)
    layers: list[LstmLayer]
    w_out: np.ndarray        # (C, H_last)
    b_out: np.ndarray        # (C,)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        sizes = [self.layers[0].input_size]
        sizes.extend(layer.hidden_size for layer in self.layers)
        sizes.append(self.w_out.shape[0])
        return tuple(sizes)

    @property
    def input_size(self) -> int:
        return self.layers[0].input_size

    @property
    def class_count(self) -> int:
        return self.w_out.shape[0]


def _vector_size(layer_sizes: tuple[int, ...]) -> int:
    size = sum(4 * h * (d + h + 1)
               for d, h in zip(layer_sizes[:-2], layer_sizes[1:-1]))
    return size + layer_sizes[-1] * (layer_sizes[-2] + 1)


def init_params(layer_sizes: tuple[int, ...],
                rng: np.random.Generator) -> NetworkParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases but the forget gate's 1s.

    ``layer_sizes`` runs input, hidden..., classes — e.g. (89, 32, 32, 3).
    The draws fill w_input then w_recurrent per layer, then w_out.
    """
    if len(layer_sizes) < 3:
        raise ValueError("layer_sizes needs input, at least one hidden, output")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    params = vector_to_params(np.zeros(_vector_size(layer_sizes)), layer_sizes)
    for layer in params.layers:
        hidden = layer.hidden_size
        layer.bias[hidden:2 * hidden] = 1.0
    matrices = [weights for layer in params.layers
                for weights in (layer.w_input, layer.w_recurrent)]
    for weights in matrices + [params.w_out]:
        scale = 1.0 / np.sqrt(weights.shape[1])   # the fan-in is the width
        weights[:] = rng.uniform(-scale, scale, size=weights.shape)
    return params


def params_to_vector(params: NetworkParams) -> np.ndarray:
    """The flat vector behind ``params`` itself, not a copy."""
    return params.vector


def vector_to_params(vector: np.ndarray,
                     layer_sizes: tuple[int, ...]) -> NetworkParams:
    """Named reshaped views over ``vector``, not copies: writing a view
    writes the vector.  Per layer it holds w_input, w_recurrent and bias,
    then w_out and b_out, each in C order."""
    if vector.ndim != 1:
        raise ValueError(f"parameter vector must be 1-D, not {vector.shape}")
    if vector.size != _vector_size(layer_sizes):
        raise ValueError(f"parameter vector length {vector.size} does not "
                         f"match layer sizes {layer_sizes}")
    offset = 0

    def take(*shape):
        nonlocal offset
        size = math.prod(shape)
        block = vector[offset:offset + size].reshape(shape)
        offset += size
        return block

    layers = [LstmLayer(take(4 * hidden, d_in), take(4 * hidden, hidden),
                        take(4 * hidden))
              for d_in, hidden in zip(layer_sizes[:-2], layer_sizes[1:-1])]
    classes, h_last = layer_sizes[-1], layer_sizes[-2]
    return NetworkParams(vector=vector, layers=layers,
                         w_out=take(classes, h_last), b_out=take(classes))


def _layer_forward(layer: LstmLayer, inputs: np.ndarray) -> tuple:
    """One layer over time-major inputs (T, S, D).  Each step writes into
    the time-major cache it returns, (inputs, gates, cells, tanh_cells,
    hiddens): gates (T, S, 4H) holds sigmoid i, f, o and tanh g, and the
    others are (T, S, H)."""
    steps, seqs, _ = inputs.shape
    hidden = layer.hidden_size
    g_cols = slice(2 * hidden, 3 * hidden)
    pre_in = inputs @ layer.w_input.T + layer.bias
    w_rec_t = layer.w_recurrent.T
    gates = np.empty((steps, seqs, 4 * hidden), pre_in.dtype)
    cells = np.empty((steps, seqs, hidden), pre_in.dtype)
    tanh_cells = np.empty_like(cells)
    hiddens = np.empty_like(cells)
    z = np.empty_like(gates[0])
    h = c = np.zeros_like(cells[0])       # only read before reassignment
    for t in range(steps):
        np.add(pre_in[t], np.matmul(h, w_rec_t, out=z), out=z)
        # One sigmoid over the whole slab, then tanh(g) over its g columns.
        s = sigmoid(z, out=gates[t])
        np.tanh(z[:, g_cols], out=s[:, g_cols])
        c = np.multiply(s[:, hidden:2 * hidden], c, out=cells[t])
        c += s[:, :hidden] * s[:, g_cols]
        h = np.multiply(s[:, 3 * hidden:], np.tanh(c, out=tanh_cells[t]),
                        out=hiddens[t])
    return inputs, gates, cells, tanh_cells, hiddens


def forward(params: NetworkParams, inputs: np.ndarray,
            return_cache: bool = False):
    """Class posteriors (S, T, C) for a batch of sequences (S, T, D),
    computed in the dtype of ``params.vector``."""
    inputs = np.asarray(inputs, dtype=params.vector.dtype)
    if inputs.ndim != 3 or inputs.shape[2] != params.input_size:
        raise ValueError(f"inputs must be (S, T, {params.input_size})")
    caches = []
    x = inputs.swapaxes(0, 1)
    for layer in params.layers:
        caches.append(_layer_forward(layer, x))
        x = caches[-1][-1]
    probs = sigmoid(x.swapaxes(0, 1) @ params.w_out.T + params.b_out)
    if return_cache:
        return probs, caches
    return probs


def bce_loss(probs: np.ndarray, targets: np.ndarray,
             mask: np.ndarray | None = None,
             reduction: str = "mean") -> float:
    """Multi-label binary cross-entropy over valid frames.

    Posteriors are clamped to [PROB_EPS, 1 - PROB_EPS] before the logs.
    ``mask`` (S, T) marks valid frames; padding contributes nothing.
    """
    if reduction not in ("mean", "sum"):
        raise ValueError("reduction must be 'mean' or 'sum'")
    clamped = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    cells = -(targets * np.log(clamped) + (1.0 - targets) * np.log1p(-clamped))
    if mask is not None:
        cells = cells * mask[:, :, None]
        count = float(mask.sum()) * probs.shape[2]
    else:
        count = float(probs.shape[0] * probs.shape[1] * probs.shape[2])
    total = float(cells.sum())
    if reduction == "sum":
        return total
    return total / count if count > 0 else 0.0


def _layer_backward(layer: LstmLayer, cache: tuple, d_hidden: np.ndarray,
                    grads: LstmLayer, input_grad: bool) -> np.ndarray | None:
    """Write the layer gradients into ``grads`` and, if ``input_grad``,
    return the gradient (T, S, D_in) with respect to the layer's inputs
    (else None).  ``d_hidden`` is time-major (T, S, H)."""
    inputs, gates, cells, tanh_cells, hiddens = cache
    steps, seqs, hidden = cells.shape
    i, f, g, o = (gates[..., k * hidden:(k + 1) * hidden] for k in range(4))
    # Gate-derivative factors s(1 - s) and 1 - g^2 for all steps at once,
    # times what dz multiplies them with besides dc (i, f, g) or dh (o).
    factors = (1.0 - gates) * gates
    factors[..., 2 * hidden:3 * hidden] = (1.0 - g * g) * i
    factors[..., :hidden] *= g
    factors[1:, :, hidden:2 * hidden] *= cells[:-1]
    factors[0, :, hidden:2 * hidden] = 0.0
    factors[..., 3 * hidden:] *= tanh_cells
    cell_slope = o * (1.0 - tanh_cells * tanh_cells)     # dc gains dh times it
    factors4 = factors.reshape(steps, seqs, 4, hidden)
    dz_seq = np.empty_like(factors)
    dz4 = dz_seq.reshape(steps, seqs, 4, hidden)
    dh, dh_carry = np.empty_like(cells[0]), np.zeros_like(cells[0])
    dc = np.zeros_like(cells[0])      # carries dc * f to the step before
    for t in reversed(range(steps)):
        np.add(d_hidden[t], dh_carry, out=dh)
        dc += dh * cell_slope[t]
        np.multiply(dc[:, None], factors4[t, :, :3], out=dz4[t, :, :3])
        np.multiply(dh, factors4[t, :, 3], out=dz4[t, :, 3])
        dc *= f[t]
        np.matmul(dz_seq[t], layer.w_recurrent, out=dh_carry)
    flat_dz = dz_seq.reshape(steps * seqs, -1)
    np.matmul(flat_dz.T, inputs.reshape(steps * seqs, -1), out=grads.w_input)
    np.matmul(flat_dz[seqs:].T, hiddens[:-1].reshape(-1, hidden),
              out=grads.w_recurrent)
    np.sum(flat_dz, axis=0, out=grads.bias)
    if not input_grad:
        return None
    return dz_seq @ layer.w_input


def backward(params: NetworkParams, inputs: np.ndarray, targets: np.ndarray,
             mask: np.ndarray | None = None,
             reduction: str = "mean") -> tuple[float, NetworkParams]:
    """Loss and exact gradients of bce_loss(forward(inputs), targets), in
    the dtype of ``params.vector``.

    The gradients are views over one fresh flat vector, laid out like
    ``params``."""
    targets = np.asarray(targets, dtype=params.vector.dtype)
    if mask is not None:
        mask = np.asarray(mask, dtype=targets.dtype)
    probs, caches = forward(params, inputs, return_cache=True)
    loss = bce_loss(probs, targets, mask=mask, reduction=reduction)
    clamped_off = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    d_logits = (probs - targets) * clamped_off
    if mask is not None:
        d_logits = d_logits * mask[:, :, None]
        count = float(mask.sum()) * probs.shape[2]
    else:
        count = float(probs.size)
    if reduction == "mean":
        d_logits = d_logits / count if count > 0 else d_logits
    d_logits = d_logits.swapaxes(0, 1)          # time-major, as the caches
    top_hidden = caches[-1][-1]
    grads = vector_to_params(np.zeros_like(params.vector), params.layer_sizes)
    np.matmul(d_logits.reshape(-1, params.class_count).T,
              top_hidden.reshape(-1, top_hidden.shape[2]), out=grads.w_out)
    np.sum(d_logits, axis=(0, 1), out=grads.b_out)
    d_hidden = d_logits @ params.w_out
    for index in reversed(range(len(params.layers))):
        # The first layer's input gradient would have no consumer.
        d_hidden = _layer_backward(params.layers[index], caches[index],
                                   d_hidden, grads.layers[index],
                                   input_grad=index > 0)
    return loss, grads


def clip_gradient_norm(grad_vector: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the whole gradient so its L2 norm is at most max_norm."""
    norm = float(np.linalg.norm(grad_vector))
    if max_norm > 0 and norm > max_norm:
        return grad_vector * (max_norm / norm)
    return grad_vector
