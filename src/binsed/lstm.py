"""Multi-label stacked LSTM, written out explicitly: forward pass,
binary cross-entropy loss, and backpropagation through time.

Shapes follow the convention (sequences, timesteps, dims).  Gate
pre-activations are packed row-wise in the order input, forget, candidate,
output; each layer owns an input matrix (4H, D_in), a recurrent matrix
(4H, H) and a bias (4H,).  Hidden and cell states start at zero for every
sequence.  The output layer applies a per-class sigmoid to the top hidden
state, giving independent class posteriors in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PROB_EPS = 1e-7


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below, so
    neither branch overflows; both share e = exp(-|x|), with no masking."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


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


def init_params(layer_sizes: tuple[int, ...], rng: np.random.Generator,
                forget_bias: float = 1.0) -> NetworkParams:
    """Uniform +-1/sqrt(fan_in) weights, zero biases except the forget gate.

    ``layer_sizes`` runs input, hidden..., classes — e.g. (89, 32, 32, 3).
    """
    if len(layer_sizes) < 3:
        raise ValueError("layer_sizes needs input, at least one hidden, output")
    if any(s <= 0 for s in layer_sizes):
        raise ValueError("layer sizes must be positive")
    layers = []
    for d_in, hidden in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        scale_in = 1.0 / np.sqrt(d_in)
        scale_rec = 1.0 / np.sqrt(hidden)
        w_input = rng.uniform(-scale_in, scale_in, size=(4 * hidden, d_in))
        w_recurrent = rng.uniform(-scale_rec, scale_rec,
                                  size=(4 * hidden, hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = forget_bias
        layers.append(LstmLayer(w_input, w_recurrent, bias))
    h_last = layer_sizes[-2]
    classes = layer_sizes[-1]
    scale = 1.0 / np.sqrt(h_last)
    w_out = rng.uniform(-scale, scale, size=(classes, h_last))
    b_out = np.zeros(classes)
    return NetworkParams(layers=layers, w_out=w_out, b_out=b_out)


def zero_like_params(params: NetworkParams) -> NetworkParams:
    return NetworkParams(
        layers=[LstmLayer(np.zeros_like(l.w_input), np.zeros_like(l.w_recurrent),
                          np.zeros_like(l.bias)) for l in params.layers],
        w_out=np.zeros_like(params.w_out), b_out=np.zeros_like(params.b_out))


def params_to_vector(params: NetworkParams) -> np.ndarray:
    chunks = []
    for layer in params.layers:
        chunks.extend((layer.w_input.ravel(), layer.w_recurrent.ravel(),
                       layer.bias.ravel()))
    chunks.extend((params.w_out.ravel(), params.b_out.ravel()))
    return np.concatenate(chunks)


def vector_to_params(vector: np.ndarray,
                     layer_sizes: tuple[int, ...]) -> NetworkParams:
    expected = sum(4 * h * (d + h + 1)
                   for d, h in zip(layer_sizes[:-2], layer_sizes[1:-1]))
    expected += layer_sizes[-1] * (layer_sizes[-2] + 1)
    if vector.size != expected:
        raise ValueError(f"parameter vector length {vector.size} does not "
                         f"match layer sizes {layer_sizes}")
    offset = 0

    def take(shape):
        nonlocal offset
        size = int(np.prod(shape))
        block = vector[offset:offset + size].reshape(shape).copy()
        offset += size
        return block

    layers = []
    for d_in, hidden in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        layers.append(LstmLayer(take((4 * hidden, d_in)),
                                take((4 * hidden, hidden)),
                                take((4 * hidden,))))
    classes, h_last = layer_sizes[-1], layer_sizes[-2]
    w_out = take((classes, h_last))
    b_out = take((classes,))
    return NetworkParams(layers=layers, w_out=w_out, b_out=b_out)


def _layer_forward(layer: LstmLayer, inputs: np.ndarray) -> dict:
    seqs, steps, _ = inputs.shape
    hidden = layer.hidden_size
    gates_i = np.empty((seqs, steps, hidden))
    gates_f = np.empty_like(gates_i)
    gates_g = np.empty_like(gates_i)
    gates_o = np.empty_like(gates_i)
    cells = np.empty_like(gates_i)
    tanh_cells = np.empty_like(gates_i)
    hiddens = np.empty_like(gates_i)
    h = np.zeros((seqs, hidden))
    c = np.zeros((seqs, hidden))
    pre_in = inputs @ layer.w_input.T + layer.bias
    w_rec_t = layer.w_recurrent.T
    for t in range(steps):
        z = pre_in[:, t] + h @ w_rec_t
        # One sigmoid over the whole slab; its g columns go unused.
        s = sigmoid(z)
        i = s[:, :hidden]
        f = s[:, hidden:2 * hidden]
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = s[:, 3 * hidden:]
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        gates_i[:, t], gates_f[:, t] = i, f
        gates_g[:, t], gates_o[:, t] = g, o
        cells[:, t], tanh_cells[:, t], hiddens[:, t] = c, tc, h
    return {"x": inputs, "i": gates_i, "f": gates_f, "g": gates_g,
            "o": gates_o, "c": cells, "tc": tanh_cells, "h": hiddens}


def forward(params: NetworkParams, inputs: np.ndarray,
            return_cache: bool = False):
    """Class posteriors (S, T, C) for a batch of sequences (S, T, D)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3 or inputs.shape[2] != params.input_size:
        raise ValueError(f"inputs must be (S, T, {params.input_size})")
    caches = []
    x = inputs
    for layer in params.layers:
        cache = _layer_forward(layer, x)
        caches.append(cache)
        x = cache["h"]
    logits = x @ params.w_out.T + params.b_out
    probs = sigmoid(logits)
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


def _layer_backward(layer: LstmLayer, cache: dict,
                    d_hidden_seq: np.ndarray) -> tuple[LstmLayer, np.ndarray]:
    seqs, steps, hidden = d_hidden_seq.shape
    grads = LstmLayer(np.zeros_like(layer.w_input),
                      np.zeros_like(layer.w_recurrent),
                      np.zeros_like(layer.bias))
    # Gate-gradient slabs, time-major: dz_seq[t] is step t's (S, 4H) block.
    dz_seq = np.empty((steps, seqs, 4 * hidden))
    dh_carry = np.zeros((seqs, hidden))
    dc_carry = np.zeros((seqs, hidden))
    zeros = np.zeros((seqs, hidden))
    for t in reversed(range(steps)):
        i, f, g, o = (cache[k][:, t] for k in ("i", "f", "g", "o"))
        tc = cache["tc"][:, t]
        c_prev = cache["c"][:, t - 1] if t > 0 else zeros
        h_prev = cache["h"][:, t - 1] if t > 0 else zeros
        dh = d_hidden_seq[:, t] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        dc_carry = dc * f
        dz = dz_seq[t]
        dz[:, :hidden] = di * i * (1.0 - i)
        dz[:, hidden:2 * hidden] = df * f * (1.0 - f)
        dz[:, 2 * hidden:3 * hidden] = dg * (1.0 - g * g)
        dz[:, 3 * hidden:] = do * o * (1.0 - o)
        # These sums stay per step: one matmul over all steps would add the
        # same terms in another order and change the low bits.
        grads.w_input += dz.T @ cache["x"][:, t]
        grads.w_recurrent += dz.T @ h_prev
        grads.bias += dz.sum(axis=0)
        dh_carry = dz @ layer.w_recurrent
    dx_seq = (dz_seq @ layer.w_input).swapaxes(0, 1)
    return grads, dx_seq


def backward(params: NetworkParams, inputs: np.ndarray, targets: np.ndarray,
             mask: np.ndarray | None = None,
             reduction: str = "mean") -> tuple[float, NetworkParams]:
    """Loss and exact gradients of bce_loss(forward(inputs), targets)."""
    inputs = np.asarray(inputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
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
    top_hidden = caches[-1]["h"]
    seqs, steps, _ = top_hidden.shape
    flat_dlogits = d_logits.reshape(seqs * steps, -1)
    flat_hidden = top_hidden.reshape(seqs * steps, -1)
    w_out = flat_dlogits.T @ flat_hidden
    b_out = flat_dlogits.sum(axis=0)
    d_hidden = d_logits @ params.w_out
    layer_grads = [None] * len(params.layers)
    for index in reversed(range(len(params.layers))):
        layer_grads[index], d_hidden = _layer_backward(
            params.layers[index], caches[index], d_hidden)
    return loss, NetworkParams(layers=layer_grads, w_out=w_out, b_out=b_out)


def clip_gradient_norm(grad_vector: np.ndarray, max_norm: float) -> np.ndarray:
    """Scale the whole gradient so its L2 norm is at most max_norm."""
    norm = float(np.linalg.norm(grad_vector))
    if max_norm > 0 and norm > max_norm:
        return grad_vector * (max_norm / norm)
    return grad_vector
