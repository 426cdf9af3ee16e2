import math

import numpy as np
import pytest

from binsed.lstm import (PROB_EPS, LstmLayer, NetworkParams, backward,
                         bce_loss, clip_gradient_norm, forward, init_params,
                         params_to_vector, sigmoid, vector_to_params)

LN2 = 0.6931471805599453


def _network(layer_sizes=(3, 4, 3, 2), seed=0):
    return init_params(layer_sizes, np.random.default_rng(seed))


def _zeros_like(params):
    return vector_to_params(np.zeros_like(params.vector), params.layer_sizes)


def _assert_views_tile_vector(params):
    """Every named array is a view of params.vector, in vector order."""
    views = []
    for layer in params.layers:
        views.extend((layer.w_input, layer.w_recurrent, layer.bias))
    views.extend((params.w_out, params.b_out))
    assert all(np.shares_memory(v, params.vector) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]),
                          params.vector)


def _batch(params, seqs=2, steps=4, seed=1):
    rng = np.random.default_rng(seed)
    inputs = rng.standard_normal((seqs, steps, params.input_size))
    targets = (rng.random((seqs, steps, params.class_count)) < 0.4)
    return inputs, targets.astype(np.float64)


def naive_forward(params, inputs):
    """Scalar-loop reference: one sequence, one timestep at a time."""
    seqs, steps, _ = inputs.shape
    probs = np.zeros((seqs, steps, params.class_count))
    for s in range(seqs):
        layer_in = [inputs[s, t] for t in range(steps)]
        for layer in params.layers:
            hidden = layer.hidden_size
            h = np.zeros(hidden)
            c = np.zeros(hidden)
            outs = []
            for x in layer_in:
                z = layer.w_input @ x + layer.w_recurrent @ h + layer.bias
                i = 1.0 / (1.0 + np.exp(-z[:hidden]))
                f = 1.0 / (1.0 + np.exp(-z[hidden:2 * hidden]))
                g = np.tanh(z[2 * hidden:3 * hidden])
                o = 1.0 / (1.0 + np.exp(-z[3 * hidden:]))
                c = f * c + i * g
                h = o * np.tanh(c)
                outs.append(h)
            layer_in = outs
        for t in range(steps):
            logits = params.w_out @ layer_in[t] + params.b_out
            probs[s, t] = 1.0 / (1.0 + np.exp(-logits))
    return probs


class TestForward:
    def test_matches_scalar_reference(self):
        params = _network()
        inputs, _ = _batch(params, seqs=3, steps=6)
        assert np.allclose(forward(params, inputs), naive_forward(params, inputs),
                           rtol=1e-12, atol=1e-14)

    def test_zero_weights_give_half_posteriors(self):
        params = _zeros_like(_network())
        inputs, _ = _batch(params)
        assert np.array_equal(forward(params, inputs),
                              np.full((2, 4, 2), 0.5))

    def test_sequences_are_independent(self):
        params = _network()
        inputs, _ = _batch(params, seqs=4)
        full = forward(params, inputs)
        solo = forward(params, inputs[2:3])
        assert np.allclose(full[2], solo[0], rtol=1e-12, atol=0)

    def test_batch_order_permutes_with_inputs(self):
        params = _network()
        inputs, _ = _batch(params, seqs=4)
        perm = np.array([2, 0, 3, 1])
        assert np.allclose(forward(params, inputs)[perm],
                           forward(params, inputs[perm]), rtol=1e-12, atol=0)

    def test_input_shape_validated(self):
        params = _network()
        with pytest.raises(ValueError, match=r"\(S, T, 3\)"):
            forward(params, np.zeros((2, 4, 5)))
        with pytest.raises(ValueError):
            forward(params, np.zeros((4, 3)))

    def test_posteriors_in_open_unit_interval(self):
        params = _network()
        inputs, _ = _batch(params, seqs=5, steps=10, seed=8)
        probs = forward(params, inputs * 10)
        assert np.all(probs > 0) and np.all(probs < 1)


class TestInit:
    def test_shapes_and_bounds(self):
        params = init_params((10, 8, 4, 3), np.random.default_rng(2))
        assert params.layer_sizes == (10, 8, 4, 3)
        first, second = params.layers
        assert first.w_input.shape == (32, 10)
        assert first.w_recurrent.shape == (32, 8)
        assert np.max(np.abs(first.w_input)) <= 1 / math.sqrt(10)
        assert np.max(np.abs(first.w_recurrent)) <= 1 / math.sqrt(8)
        assert second.w_input.shape == (16, 8)
        assert params.w_out.shape == (3, 4)
        assert np.max(np.abs(params.w_out)) <= 1 / math.sqrt(4)
        assert np.array_equal(params.b_out, np.zeros(3))

    def test_forget_gate_bias_is_one_rest_zero(self):
        params = init_params((5, 6, 2), np.random.default_rng(0))
        bias = params.layers[0].bias
        assert np.array_equal(bias[6:12], np.ones(6))
        assert np.array_equal(np.delete(bias, np.s_[6:12]), np.zeros(18))

    def test_rejects_degenerate_layouts(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_params((4, 2), rng)
        with pytest.raises(ValueError):
            init_params((4, 0, 2), rng)

    @pytest.mark.parametrize("sizes", [(89, 32, 32, 3), (6, 1, 1, 2),
                                       (6, 8, 3)])
    @pytest.mark.parametrize("forget_bias", [0.0, 1.0])
    def test_vector_bit_identical_to_per_array_init(self, sizes, forget_bias):
        params = init_params(sizes, np.random.default_rng(11),
                             forget_bias=forget_bias)
        want = seed_init_vector(sizes, np.random.default_rng(11), forget_bias)
        assert np.array_equal(params.vector, want)


class TestVectorRoundTrip:
    def test_round_trip_exact(self):
        params = _network((5, 6, 4, 3), seed=4)
        vector = params_to_vector(params)
        assert vector is params.vector
        back = vector_to_params(vector, params.layer_sizes)
        assert params_to_vector(back) is vector
        for a, b in zip(params.layers, back.layers):
            assert np.array_equal(a.w_input, b.w_input)
            assert np.array_equal(a.w_recurrent, b.w_recurrent)
            assert np.array_equal(a.bias, b.bias)
        assert np.array_equal(params.w_out, back.w_out)
        assert np.array_equal(params.b_out, back.b_out)

    def test_writing_a_view_writes_the_vector(self):
        params = _network((5, 6, 4, 3), seed=4)
        vector = params_to_vector(params)
        params.layers[0].bias[0] = 7.5
        assert vector[4 * 6 * 5 + 4 * 6 * 6] == 7.5
        params.b_out[:] = -2.0
        assert np.array_equal(vector[-3:], np.full(3, -2.0))
        vector[0] = 3.25
        assert params.layers[0].w_input[0, 0] == 3.25

    def test_views_tile_the_vector_in_order(self):
        _assert_views_tile_vector(_network((5, 6, 4, 3), seed=4))

    def test_wrong_length_rejected(self):
        params = _network()
        vector = params_to_vector(params)
        with pytest.raises(ValueError, match="length"):
            vector_to_params(vector[:-1], params.layer_sizes)

    def test_two_dimensional_vector_rejected(self):
        params = _network()
        vector = params_to_vector(params)
        with pytest.raises(ValueError, match="1-D"):
            vector_to_params(vector.reshape(1, -1), params.layer_sizes)
        with pytest.raises(ValueError, match="1-D"):
            vector_to_params(vector.reshape(-1, 1), params.layer_sizes)


class TestLoss:
    def test_half_posteriors_cost_ln2(self):
        probs = np.full((2, 3, 4), 0.5)
        targets = np.zeros((2, 3, 4))
        targets[0, 0, 0] = 1.0
        assert bce_loss(probs, targets) == pytest.approx(LN2, rel=1e-15)

    def test_clamp_caps_the_confidently_wrong_cell(self):
        probs = np.array([[[1.0]]])
        targets = np.array([[[0.0]]])
        assert bce_loss(probs, targets) == pytest.approx(-math.log(PROB_EPS),
                                                         rel=1e-9)

    def test_perfect_prediction_is_cheap(self):
        probs = np.array([[[1.0, 0.0]]])
        targets = np.array([[[1.0, 0.0]]])
        assert 0 < bce_loss(probs, targets) < 1e-6

    def test_naive_loop_reference(self):
        rng = np.random.default_rng(7)
        probs = rng.random((3, 5, 2)) * 0.98 + 0.01
        targets = (rng.random((3, 5, 2)) < 0.5).astype(float)
        mask = (rng.random((3, 5)) < 0.7).astype(float)
        total = 0.0
        for s in range(3):
            for t in range(5):
                for c in range(2):
                    if mask[s, t]:
                        p = probs[s, t, c]
                        total -= (targets[s, t, c] * math.log(p)
                                  + (1 - targets[s, t, c]) * math.log(1 - p))
        assert bce_loss(probs, targets, mask=mask, reduction="sum") == \
            pytest.approx(total, rel=1e-12)
        assert bce_loss(probs, targets, mask=mask) == \
            pytest.approx(total / (mask.sum() * 2), rel=1e-12)

    def test_sum_is_mean_times_count(self):
        rng = np.random.default_rng(3)
        probs = rng.random((2, 4, 3)) * 0.9 + 0.05
        targets = (rng.random((2, 4, 3)) < 0.5).astype(float)
        assert bce_loss(probs, targets, reduction="sum") == \
            pytest.approx(bce_loss(probs, targets) * 24, rel=1e-12)

    def test_empty_mask_gives_zero_mean(self):
        probs = np.full((1, 2, 1), 0.9)
        targets = np.zeros((1, 2, 1))
        assert bce_loss(probs, targets, mask=np.zeros((1, 2))) == 0.0

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ValueError):
            bce_loss(np.full((1, 1, 1), 0.5), np.zeros((1, 1, 1)),
                     reduction="max")


def _gradcheck(params, inputs, targets, mask=None, reduction="mean",
               epsilon=1e-6):
    """Central-difference probe of every parameter coordinate.

    Returns (norm ratio, max absolute difference).  Coordinate-wise relative
    error is meaningless where the true gradient is ~1e-7: finite-difference
    roundoff (~1e-10) dominates there, so tiny coordinates are judged by the
    absolute bound instead.
    """
    _, grads = backward(params, inputs, targets, mask=mask,
                        reduction=reduction)
    analytic = params_to_vector(grads)
    theta = params_to_vector(params)
    numeric = np.zeros_like(theta)
    sizes = params.layer_sizes
    for k in range(theta.size):
        for sign in (+1.0, -1.0):
            probe = theta.copy()
            probe[k] += sign * epsilon
            loss = bce_loss(forward(vector_to_params(probe, sizes), inputs),
                            targets, mask=mask, reduction=reduction)
            numeric[k] += sign * loss
        numeric[k] /= 2 * epsilon
    ratio = (np.linalg.norm(analytic - numeric)
             / np.linalg.norm(analytic + numeric))
    return float(ratio), float(np.max(np.abs(analytic - numeric)))


class TestBackward:
    def test_gradients_match_finite_differences(self):
        params = _network((3, 4, 3, 2))
        inputs, targets = _batch(params, seqs=2, steps=4)
        ratio, worst = _gradcheck(params, inputs, targets)
        assert ratio < 1e-7
        assert worst < 1e-9

    def test_gradients_match_with_mask_and_sum(self):
        params = _network((2, 3, 2), seed=6)
        inputs, targets = _batch(params, seqs=3, steps=5, seed=9)
        mask = np.ones((3, 5))
        mask[0, 3:] = 0
        mask[2, 1:] = 0
        ratio, worst = _gradcheck(params, inputs, targets, mask=mask)
        assert ratio < 1e-7 and worst < 1e-9
        ratio, worst = _gradcheck(params, inputs, targets, mask=mask,
                                  reduction="sum")
        assert ratio < 1e-7 and worst < 1e-7  # sum scales cells by count

    def test_sum_gradients_scale_with_count(self):
        params = _network()
        inputs, targets = _batch(params)
        _, mean_grads = backward(params, inputs, targets)
        _, sum_grads = backward(params, inputs, targets, reduction="sum")
        count = targets.size
        assert np.allclose(params_to_vector(sum_grads),
                           params_to_vector(mean_grads) * count,
                           rtol=1e-12, atol=0)

    def test_masked_padding_equals_trimmed_sequence(self):
        params = _network((3, 4, 2), seed=5)
        rng = np.random.default_rng(12)
        short = rng.standard_normal((1, 3, 3))
        targets_short = (rng.random((1, 3, 2)) < 0.5).astype(float)
        padded = np.concatenate(
            [short, rng.standard_normal((1, 2, 3))], axis=1)
        targets_padded = np.concatenate(
            [targets_short, np.zeros((1, 2, 2))], axis=1)
        mask = np.array([[1.0, 1.0, 1.0, 0.0, 0.0]])
        loss_a, grads_a = backward(params, short, targets_short)
        loss_b, grads_b = backward(params, padded, targets_padded, mask=mask)
        assert loss_b == pytest.approx(loss_a, rel=1e-12)
        assert np.allclose(params_to_vector(grads_a),
                           params_to_vector(grads_b), rtol=1e-12, atol=1e-15)

    def test_saturated_posteriors_stop_gradient(self):
        params = _network((2, 3, 1), seed=3)
        params.b_out[:] = 50.0  # sigmoid(50) rounds to exactly 1.0
        inputs = np.zeros((1, 2, 2))
        targets = np.zeros((1, 2, 1))
        loss, grads = backward(params, inputs, targets)
        assert loss > 10  # clamped cost, not infinity
        assert np.array_equal(params_to_vector(grads),
                              np.zeros(params_to_vector(params).size))

    def test_gradients_are_views_over_one_vector(self):
        params = _network((3, 4, 3, 2))
        inputs, targets = _batch(params)
        _, grads = backward(params, inputs, targets)
        vector = params_to_vector(grads)
        assert vector is not params.vector
        _assert_views_tile_vector(grads)
        grads.b_out[0] = 123.0
        assert vector[-2] == 123.0


class TestUtilities:
    def test_sigmoid_stable_at_extremes(self):
        x = np.array([-1000.0, -20.0, 0.0, 20.0, 1000.0])
        out = sigmoid(x)
        assert np.all(np.isfinite(out))
        assert out[2] == 0.5
        assert out[0] == 0.0 and out[4] == 1.0
        assert out[1] == pytest.approx(math.exp(-20), rel=1e-9)

    def test_clip_rescales_only_long_vectors(self):
        grad = np.array([3.0, 4.0])
        clipped = clip_gradient_norm(grad, 1.0)
        assert np.linalg.norm(clipped) == pytest.approx(1.0)
        assert np.allclose(clipped, [0.6, 0.8])
        assert clip_gradient_norm(grad, 10.0) is grad


def seed_init_vector(layer_sizes, rng, forget_bias):
    """The per-array initialiser, flattened as the parameter vector."""
    chunks = []
    for d_in, hidden in zip(layer_sizes[:-2], layer_sizes[1:-1]):
        scale_in = 1.0 / np.sqrt(d_in)
        scale_rec = 1.0 / np.sqrt(hidden)
        w_input = rng.uniform(-scale_in, scale_in, size=(4 * hidden, d_in))
        w_recurrent = rng.uniform(-scale_rec, scale_rec,
                                  size=(4 * hidden, hidden))
        bias = np.zeros(4 * hidden)
        bias[hidden:2 * hidden] = forget_bias
        chunks.extend((w_input.ravel(), w_recurrent.ravel(), bias))
    h_last = layer_sizes[-2]
    classes = layer_sizes[-1]
    scale = 1.0 / np.sqrt(h_last)
    w_out = rng.uniform(-scale, scale, size=(classes, h_last))
    chunks.extend((w_out.ravel(), np.zeros(classes)))
    return np.concatenate(chunks)


def seed_sigmoid(x):
    """Boolean-mask sigmoid the slab form in binsed.lstm must reproduce."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def seed_layer_forward(layer, inputs):
    """Per-slice gate activations, one step at a time."""
    seqs, steps, _ = inputs.shape
    hidden = layer.hidden_size
    cache = {k: np.empty((seqs, steps, hidden))
             for k in ("i", "f", "g", "o", "c", "tc", "h")}
    h = np.zeros((seqs, hidden))
    c = np.zeros((seqs, hidden))
    pre_in = inputs @ layer.w_input.T + layer.bias
    for t in range(steps):
        z = pre_in[:, t] + h @ layer.w_recurrent.T
        i = seed_sigmoid(z[:, :hidden])
        f = seed_sigmoid(z[:, hidden:2 * hidden])
        g = np.tanh(z[:, 2 * hidden:3 * hidden])
        o = seed_sigmoid(z[:, 3 * hidden:])
        c = f * c + i * g
        tc = np.tanh(c)
        h = o * tc
        for key, value in zip("ifgo", (i, f, g, o)):
            cache[key][:, t] = value
        cache["c"][:, t], cache["tc"][:, t], cache["h"][:, t] = c, tc, h
    cache["x"] = inputs
    return cache


def seed_layer_backward(layer, cache, d_hidden_seq):
    """BPTT with hstacked gate gradients and dx computed inside the loop."""
    seqs, steps, hidden = d_hidden_seq.shape
    grads = LstmLayer(np.zeros_like(layer.w_input),
                      np.zeros_like(layer.w_recurrent),
                      np.zeros_like(layer.bias))
    dx_seq = np.zeros_like(cache["x"])
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
        dz = np.hstack((di * i * (1.0 - i),
                        df * f * (1.0 - f),
                        dg * (1.0 - g * g),
                        do * o * (1.0 - o)))
        grads.w_input += dz.T @ cache["x"][:, t]
        grads.w_recurrent += dz.T @ h_prev
        grads.bias += dz.sum(axis=0)
        dx_seq[:, t] = dz @ layer.w_input
        dh_carry = dz @ layer.w_recurrent
    return grads, dx_seq


def seed_backward(params, inputs, targets, mask):
    """Posteriors, mean loss and gradients as the original kernel made them."""
    caches = []
    x = inputs
    for layer in params.layers:
        caches.append(seed_layer_forward(layer, x))
        x = caches[-1]["h"]
    probs = seed_sigmoid(x @ params.w_out.T + params.b_out)
    loss = bce_loss(probs, targets, mask=mask)
    clamped_off = (probs > PROB_EPS) & (probs < 1.0 - PROB_EPS)
    d_logits = (probs - targets) * clamped_off * mask[:, :, None]
    d_logits = d_logits / (float(mask.sum()) * probs.shape[2])
    seqs, steps, _ = x.shape
    flat_dlogits = d_logits.reshape(seqs * steps, -1)
    grads = _zeros_like(params)
    grads.w_out = flat_dlogits.T @ x.reshape(seqs * steps, -1)
    grads.b_out = flat_dlogits.sum(axis=0)
    d_hidden = d_logits @ params.w_out
    for index in reversed(range(len(params.layers))):
        grads.layers[index], d_hidden = seed_layer_backward(
            params.layers[index], caches[index], d_hidden)
    return probs, loss, grads


class TestSeedEquivalence:
    """The kernel must match the original one bit for bit, not just closely."""

    @pytest.mark.parametrize("sizes,seqs,steps", [
        ((89, 32, 32, 3), 32, 25),   # the quick-start network and minibatch
        ((6, 1, 1, 2), 4, 7),        # H = 1
        ((6, 5, 4, 3), 4, 1),        # T = 1
        ((6, 8, 3), 5, 9),           # one hidden layer
        ((6, 8, 7, 3), 1, 9),        # S = 1
    ])
    def test_posteriors_loss_and_gradients_bit_identical(self, sizes, seqs,
                                                         steps):
        params = _network(sizes, seed=11)
        rng = np.random.default_rng(23)
        inputs = rng.standard_normal((seqs, steps, sizes[0])) * 2.0
        targets = (rng.random((seqs, steps, sizes[-1])) < 0.3).astype(float)
        mask = np.ones((seqs, steps))
        mask[-1, steps // 2 + 1:] = 0.0     # padded tail on one sequence
        want_probs, want_loss, want = seed_backward(params, inputs, targets,
                                                    mask)
        loss, grads = backward(params, inputs, targets, mask=mask)
        assert np.array_equal(forward(params, inputs), want_probs)
        assert loss == want_loss
        for got_layer, want_layer in zip(grads.layers, want.layers):
            assert np.array_equal(got_layer.w_input, want_layer.w_input)
            assert np.array_equal(got_layer.w_recurrent,
                                  want_layer.w_recurrent)
            assert np.array_equal(got_layer.bias, want_layer.bias)
        assert np.array_equal(grads.w_out, want.w_out)
        assert np.array_equal(grads.b_out, want.b_out)

    def test_sigmoid_bit_identical_at_edges(self):
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny,
                          1e-310, -1e-310, 709.0, -709.0, 745.0, -745.0,
                          746.0, -746.0])
        slab = np.random.default_rng(5).standard_normal((32, 128)) * 20.0
        for x in (edges, slab):
            # NaN's sign bit may differ, so NaNs compare as equal.
            assert np.array_equal(sigmoid(x), seed_sigmoid(x), equal_nan=True)
            numbers = ~np.isnan(x)
            assert np.array_equal(np.signbit(sigmoid(x)[numbers]),
                                  np.signbit(seed_sigmoid(x)[numbers]))
