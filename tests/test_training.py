import math

import numpy as np
import pytest

from binsed.audio import FrameGrid
from binsed.errors import DivergenceError
from binsed.events import EventRoll
from binsed.layout import FeatureLayout
from binsed.lstm import forward, params_to_vector
from binsed.training import (AdamState, SequenceBatch, TrainConfig, adam_init,
                             adam_step, block_mix, concat_batches,
                             detect_roll, fit_scaler, init_train_state,
                             predict_posteriors, run_training,
                             split_sequences, stitch_sequences,
                             validation_error_rate)


class TestScaler:
    def test_statistics_over_stacked_frames(self):
        a = np.array([[1.0, 10.0], [3.0, 10.0]])
        b = np.array([[5.0, 10.0]])
        scaler = fit_scaler([a, b])
        assert np.allclose(scaler.mean, [3.0, 10.0])
        # Zero-variance dimensions pass through centred, not divided by 0.
        assert np.allclose(scaler.std, [np.std([1, 3, 5]), 1.0])
        out = scaler.transform(np.vstack([a, b]))
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out[:, 1], 0.0)

    def test_transform_standardises_new_data(self):
        rng = np.random.default_rng(4)
        data = rng.standard_normal((500, 3)) * [2.0, 5.0, 0.1] + [1, -4, 9]
        scaler = fit_scaler([data])
        out = scaler.transform(data)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_scaler([])


class TestSequenceSplitting:
    def test_exact_multiple_no_padding(self):
        feats = np.arange(50.0).reshape(10, 5)
        targs = np.ones((10, 2))
        batch = split_sequences(feats, targs, sequence_length=5)
        assert batch.inputs.shape == (2, 5, 5)
        assert batch.mask.sum() == 10

    def test_partial_tail_zero_padded_and_masked(self):
        feats = np.ones((7, 3))
        targs = np.ones((7, 1))
        batch = split_sequences(feats, targs, sequence_length=5)
        assert batch.inputs.shape == (2, 5, 3)
        assert batch.mask[1].tolist() == [1.0, 1.0, 0.0, 0.0, 0.0]
        assert np.all(batch.inputs[1, 2:] == 0)
        assert np.all(batch.targets[1, 2:] == 0)

    def test_stitch_round_trip(self):
        rng = np.random.default_rng(6)
        feats = rng.standard_normal((23, 4))
        targs = rng.standard_normal((23, 2))
        batch = split_sequences(feats, targs, sequence_length=5)
        assert np.array_equal(stitch_sequences(batch.inputs, batch.mask),
                              feats)
        assert np.array_equal(stitch_sequences(batch.targets, batch.mask),
                              targs)

    def test_frame_mismatch_rejected(self):
        with pytest.raises(ValueError):
            split_sequences(np.zeros((5, 2)), np.zeros((4, 1)))

    def test_empty_recording_rejected(self):
        with pytest.raises(ValueError):
            split_sequences(np.zeros((0, 2)), np.zeros((0, 1)))

    def test_concat_checks_layout_and_order(self):
        la = FeatureLayout((("a", 2),))
        lb = FeatureLayout((("b", 2),))
        batch_a = split_sequences(np.zeros((5, 2)), np.zeros((5, 1)),
                                  5, layout=la, class_order=("x",))
        batch_b = split_sequences(np.zeros((5, 2)), np.zeros((5, 1)),
                                  5, layout=lb, class_order=("x",))
        combined = concat_batches([batch_a, batch_a])
        assert combined.sequence_count == 2
        with pytest.raises(ValueError, match="layouts"):
            concat_batches([batch_a, batch_b])
        batch_c = split_sequences(np.zeros((5, 2)), np.zeros((5, 1)),
                                  5, layout=la, class_order=("y",))
        with pytest.raises(ValueError, match="class orders"):
            concat_batches([batch_a, batch_c])
        with pytest.raises(ValueError):
            concat_batches([])


class TestBlockMix:
    LAYOUT = FeatureLayout((("mel_1", 2), ("tdoa", 1)))

    def _two_sequence_batch(self):
        # Two one-step sequences with hand-picked block values.
        inputs = np.array([[[math.log(2.0), 0.0, 5.0]],
                           [[math.log(2.0), 1.0, -3.0]]])
        targets = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        mask = np.array([[1.0], [1.0]])
        return SequenceBatch(inputs=inputs, targets=targets, mask=mask,
                             layout=self.LAYOUT, class_order=("a", "b"))

    def test_mixture_blocks_follow_their_domains(self):
        batch = self._two_sequence_batch()
        mixed = block_mix(batch, np.random.default_rng(0), ratio=0.5)
        assert mixed.sequence_count == 3
        # Originals stay in place.
        assert np.array_equal(mixed.inputs[:2], batch.inputs)
        new = mixed.inputs[2, 0]
        # Only one distinct pair exists, so the mixture is fully determined:
        # mel adds linear energies (log 2 + log 2 -> log 4), the rest take max.
        assert new[0] == pytest.approx(math.log(4.0))
        assert new[1] == pytest.approx(np.logaddexp(0.0, 1.0))
        assert new[2] == 5.0
        assert mixed.targets[2, 0].tolist() == [1.0, 1.0]
        assert mixed.mask[2, 0] == 1.0

    def test_padding_stays_masked_in_mixtures(self):
        batch = self._two_sequence_batch()
        batch.mask[1, 0] = 0.0
        mixed = block_mix(batch, np.random.default_rng(0), ratio=0.5)
        assert mixed.mask[2, 0] == 0.0

    def test_mixture_count_scales_with_ratio(self):
        rng = np.random.default_rng(1)
        inputs = rng.standard_normal((10, 3, 3))
        batch = SequenceBatch(inputs=inputs, targets=np.zeros((10, 3, 1)),
                              mask=np.ones((10, 3)), layout=self.LAYOUT)
        assert block_mix(batch, rng, ratio=1.0).sequence_count == 20
        assert block_mix(batch, rng, ratio=0.3).sequence_count == 13
        zero = block_mix(batch, rng, ratio=0.0)
        assert zero.sequence_count == 10

    def test_pairs_never_mix_a_sequence_with_itself(self):
        rng = np.random.default_rng(2)
        inputs = np.zeros((6, 1, 3))
        inputs[:, 0, 2] = np.arange(6.0)  # distinct tdoa values
        targets = np.eye(6).reshape(6, 1, 6)
        batch = SequenceBatch(inputs=inputs, targets=targets,
                              mask=np.ones((6, 1)), layout=self.LAYOUT,
                              class_order=tuple("abcdef"))
        mixed = block_mix(batch, rng, ratio=20.0)
        # Every mixture ORs two different one-hot targets.
        assert np.all(mixed.targets[6:].sum(axis=2) == 2)

    def test_requires_layout_and_two_sequences(self):
        batch = self._two_sequence_batch()
        batch.layout = None
        with pytest.raises(ValueError, match="layout"):
            block_mix(batch, np.random.default_rng(0))
        single = SequenceBatch(inputs=np.zeros((1, 2, 3)),
                               targets=np.zeros((1, 2, 1)),
                               mask=np.ones((1, 2)), layout=self.LAYOUT)
        with pytest.raises(ValueError, match="two sequences"):
            block_mix(single, np.random.default_rng(0))


class TestAdam:
    def test_matches_textbook_reference(self):
        rng = np.random.default_rng(3)
        params = rng.standard_normal(7)
        state = adam_init(7)
        m = np.zeros(7)
        v = np.zeros(7)
        expected = params.copy()
        for step in range(1, 6):
            grad = rng.standard_normal(7)
            params, state = adam_step(params, grad, state,
                                      learning_rate=0.01, beta1=0.9,
                                      beta2=0.999, epsilon=1e-8)
            m = 0.9 * m + (1 - 0.9) * grad
            v = 0.999 * v + (1 - 0.999) * grad * grad
            m_hat = m / (1 - 0.9 ** step)
            v_hat = v / (1 - 0.999 ** step)
            expected = expected - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(params, expected)
            assert state.step == step

    def test_first_step_size_is_learning_rate(self):
        # Bias correction makes the first update ~lr * sign(gradient)
        # regardless of the gradient's magnitude.
        for scale in (1e-4, 1.0, 1e4):
            params = np.zeros(3)
            grad = np.array([1.0, -1.0, 1.0]) * scale
            updated, _ = adam_step(params, grad, adam_init(3),
                                   learning_rate=0.5)
            assert np.allclose(updated, [-0.5, 0.5, -0.5], rtol=1e-3)

    def test_state_is_not_mutated(self):
        state = adam_init(2)
        adam_step(np.zeros(2), np.ones(2), state)
        assert state.step == 0
        assert np.all(state.first_moment == 0)


def _toy_problem(frames=400, seed=0):
    """Class 0 fires when feature 0 is high, class 1 when feature 1 is high."""
    rng = np.random.default_rng(seed)
    drivers = (rng.random((frames, 2)) < 0.35).astype(float)
    feats = drivers * 2.0 + rng.standard_normal((frames, 2)) * 0.1
    return feats, drivers


def _toy_setup(config, frames=400, seed=0):
    feats, targs = _toy_problem(frames, seed)
    scaler = fit_scaler([feats])
    scaled = scaler.transform(feats)
    batch = split_sequences(scaled, targs, config.sequence_length)
    roll = EventRoll(activity=targs.astype(np.uint8), class_order=("a", "b"))
    state = init_train_state(2, 2, config, seed=11)
    return state, batch, [(scaled, roll)]


class TestRunTraining:
    CONFIG = TrainConfig(hidden_sizes=(8,), batch_size=8, max_epochs=30,
                         patience=10, sequence_length=20, block_mix_ratio=0.0)

    def test_loss_falls_and_best_params_hit_low_error(self):
        state, batch, validation = _toy_setup(self.CONFIG)
        state = run_training(state, batch, validation, self.CONFIG)
        assert state.history[-1].train_loss < state.history[0].train_loss
        assert state.best_validation_er == min(r.validation_er
                                               for r in state.history)
        assert state.best_validation_er < 0.5
        assert [r.epoch for r in state.history] == \
            list(range(1, state.epoch + 1))

    def test_stall_stops_after_patience_epochs(self):
        config = TrainConfig(hidden_sizes=(4,), learning_rate=0.0,
                             batch_size=8, max_epochs=50, patience=3,
                             sequence_length=20, block_mix_ratio=0.0)
        state, batch, validation = _toy_setup(config)
        state = run_training(state, batch, validation, config)
        # Epoch 1 improves on the infinite initial best; nothing changes
        # afterwards, so the run stops exactly `patience` epochs later.
        assert state.stopped
        assert state.epoch == 4
        assert state.epochs_since_improvement == 3

    def test_zero_patience_behaves_like_one(self):
        config = TrainConfig(hidden_sizes=(4,), learning_rate=0.0,
                             batch_size=8, max_epochs=50, patience=0,
                             sequence_length=20, block_mix_ratio=0.0)
        state, batch, validation = _toy_setup(config)
        state = run_training(state, batch, validation, config)
        assert state.epoch == 2

    def test_target_error_rate_stops_immediately(self):
        config = TrainConfig(hidden_sizes=(4,), learning_rate=0.0,
                             batch_size=8, max_epochs=50, patience=10,
                             sequence_length=20, block_mix_ratio=0.0,
                             target_validation_er=1.0)
        state, batch, validation = _toy_setup(config)
        state = run_training(state, batch, validation, config)
        assert state.stopped and state.epoch == 1

    def test_best_params_restored_not_last(self):
        state, batch, validation = _toy_setup(self.CONFIG)
        state = run_training(state, batch, validation, self.CONFIG)
        best_epoch = min(state.history, key=lambda r: r.validation_er)
        er, _ = validation_error_rate(state.best_params, validation,
                                      self.CONFIG.threshold,
                                      self.CONFIG.sequence_length)
        assert er == pytest.approx(best_epoch.validation_er)

    def test_non_finite_loss_raises(self):
        state, batch, validation = _toy_setup(self.CONFIG)
        batch.inputs[0, 0, 0] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            run_training(state, batch, validation, self.CONFIG)

    def test_requires_validation_and_matching_width(self):
        state, batch, validation = _toy_setup(self.CONFIG)
        with pytest.raises(ValueError, match="validation"):
            run_training(state, batch, [], self.CONFIG)
        wide = SequenceBatch(inputs=np.zeros((2, 20, 5)),
                             targets=np.zeros((2, 20, 2)),
                             mask=np.ones((2, 20)))
        with pytest.raises(ValueError, match="input size"):
            run_training(state, wide, validation, self.CONFIG)

    def test_validation_segments_last_one_second_on_any_hop(self):
        # 200 frames, reference active in frame 0 only, and a network that
        # answers "active" everywhere: every segment after the first is one
        # insertion.  A 10 ms hop means 100-frame segments, so ER is 1; on
        # the default 20 ms grid the same rolls hold four segments.
        for hop_ms, expected_er in ((10.0, 1.0), (20.0, 3.0)):
            config = TrainConfig(hidden_sizes=(4,), learning_rate=0.0,
                                 max_epochs=1, block_mix_ratio=0.0,
                                 grid=FrameGrid(hop_length_ms=hop_ms))
            state = init_train_state(2, 1, config, seed=0)
            state.params_vector = np.zeros_like(state.params_vector)
            params = state.params
            params.b_out[:] = 5.0
            state.params_vector = params_to_vector(params)
            activity = np.zeros((200, 1), dtype=np.uint8)
            activity[0] = 1
            roll = EventRoll(activity=activity, class_order=("a",))
            values = np.zeros((200, 2))
            batch = split_sequences(values, activity.astype(float), 25)
            state = run_training(state, batch, [(values, roll)], config)
            assert state.history[0].validation_er == expected_er

    def test_identical_seeds_train_identically(self):
        runs = []
        for _ in range(2):
            state, batch, validation = _toy_setup(self.CONFIG)
            state = run_training(state, batch, validation, self.CONFIG)
            runs.append(state)
        assert np.array_equal(runs[0].params_vector, runs[1].params_vector)
        assert runs[0].history == runs[1].history


class TestInference:
    def test_predict_posteriors_matches_plain_forward(self):
        config = TrainConfig(hidden_sizes=(6,), sequence_length=10)
        state = init_train_state(3, 2, config, seed=5)
        values = np.random.default_rng(7).standard_normal((20, 3))
        direct = forward(state.params, values.reshape(2, 10, 3))
        assert np.allclose(predict_posteriors(state.params, values, 10),
                           direct.reshape(20, 2), rtol=1e-12, atol=0)

    def test_predict_posteriors_keeps_frame_count(self):
        config = TrainConfig(hidden_sizes=(6,), sequence_length=25)
        state = init_train_state(3, 2, config, seed=5)
        values = np.random.default_rng(7).standard_normal((37, 3))
        assert predict_posteriors(state.params, values, 25).shape == (37, 2)

    def test_detect_roll_threshold_is_strict(self):
        config = TrainConfig(hidden_sizes=(4,))
        state = init_train_state(2, 2, config, seed=0)
        zeros = np.zeros_like(state.params_vector)
        state.params_vector = zeros  # posteriors exactly 0.5 everywhere
        scaler = fit_scaler([np.zeros((4, 2))])
        roll = detect_roll(state.params, scaler, np.zeros((30, 2)),
                           ("a", "b"), threshold=0.5)
        assert roll.activity.sum() == 0

    def test_detect_roll_validates_shapes(self):
        config = TrainConfig(hidden_sizes=(4,))
        state = init_train_state(2, 2, config, seed=0)
        scaler = fit_scaler([np.zeros((4, 3))])
        with pytest.raises(ValueError, match="width"):
            detect_roll(state.params, scaler, np.zeros((30, 3)), ("a", "b"))
        scaler = fit_scaler([np.zeros((4, 2))])
        with pytest.raises(ValueError, match="class order"):
            detect_roll(state.params, scaler, np.zeros((30, 2)), ("a",))

    def test_perfect_prediction_scores_zero_error(self):
        # A network that always answers 0.5 is wrong everywhere; compare
        # against a reference that is fully inactive instead.
        config = TrainConfig(hidden_sizes=(4,))
        state = init_train_state(2, 1, config, seed=0)
        state.params_vector = np.zeros_like(state.params_vector)
        roll = EventRoll(activity=np.zeros((100, 1), dtype=np.uint8),
                         class_order=("a",))
        er, f = validation_error_rate(state.params,
                                      [(np.zeros((100, 2)), roll)],
                                      threshold=0.5, sequence_length=25)
        assert er == 0.0
