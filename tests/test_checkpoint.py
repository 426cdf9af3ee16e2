import dataclasses
import json
import struct

import numpy as np
import pytest

from binsed.audio import FrameGrid
from binsed.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from binsed.container import write_features
from binsed.errors import DataError
from binsed.events import EventRoll
from binsed.features import FeatureConfig
from binsed.folds import FoldSplit
from binsed.layout import FeatureLayout, FeatureMatrix
from binsed.tdoa import TdoaConfig
from binsed.training import (Scaler, TrainConfig, fit_scaler,
                             init_train_state, run_training, split_sequences)

SPLIT = FoldSplit(fold_index=1, train=("r2", "r0"), validation=("r3",),
                  test=("r1",))
# Non-default values in every nested config and tuple; two mel bands, so
# "mel_1" is the two columns of LAYOUT.
FEATURES = FeatureConfig(grid=FrameGrid(hop_length_ms=10.0), mel_bands=2,
                         pitch_f_min=80.0,
                         tdoa=TdoaConfig(window_lengths_ms=(100.0, 300.0)))
LAYOUT = FeatureLayout((("mel_1", 2),))


def _edit_header(path, edit):
    """Rewrite a record's JSON header through ``edit``, keeping its arrays."""
    blob = path.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 8)
    header = json.loads(blob[12:12 + length])
    edit(header)
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(blob[:8] + struct.pack("<I", len(text)) + text
                     + blob[12 + length:])


def _record(state, scaler):
    """A checkpoint of ``state`` with the settings and split it records."""
    return Checkpoint(state=state, scaler=scaler,
                      class_order=("dog", "car horn", "beep"),
                      combination="mel_1", split=SPLIT,
                      feature_config=FEATURES, sequence_length=12,
                      threshold=0.375, seed=2 ** 40 + 3, context="metro hall",
                      sample_rate=22050)


def _checkpoint(seed=0, with_history=True):
    config = TrainConfig(hidden_sizes=(4,))
    state = init_train_state(2, 3, config, seed=seed)
    if with_history:
        state.rng.standard_normal(10)  # advance so the RNG state is nontrivial
        state.epoch = 7
        state.best_validation_er = 0.25
        state.best_params_vector = state.params_vector * 0.5
        state.epochs_since_improvement = 2
        from binsed.training import EpochRecord
        state.history = [EpochRecord(1, 0.9, 1.0, 0.0),
                         EpochRecord(2, 0.5, 0.25, 75.0)]
    return _record(state, Scaler(mean=np.array([1.0, -2.0]),
                                 std=np.array([3.0, 0.5])))


class TestRoundTrip:
    def test_everything_survives(self, tmp_path):
        original = _checkpoint()
        path = tmp_path / "fold0.ckpt"
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert loaded.combination == "mel_1"
        assert loaded.class_order == ("dog", "car horn", "beep")
        assert loaded.layout.blocks == LAYOUT.blocks
        assert loaded.split == SPLIT
        assert loaded.feature_config == FEATURES
        assert loaded.sequence_length == 12
        assert loaded.threshold == 0.375
        assert loaded.seed == 2 ** 40 + 3
        assert loaded.context == "metro hall"
        assert loaded.sample_rate == 22050
        a, b = original.state, loaded.state
        assert b.layer_sizes == a.layer_sizes
        assert np.array_equal(b.params_vector, a.params_vector)
        assert np.array_equal(b.best_params_vector, a.best_params_vector)
        assert np.array_equal(b.adam.first_moment, a.adam.first_moment)
        assert b.adam.step == a.adam.step
        assert b.epoch == 7
        assert b.best_validation_er == 0.25
        assert b.epochs_since_improvement == 2
        assert b.stopped is False
        assert b.history == a.history

    def test_rng_stream_continues_identically(self, tmp_path):
        original = _checkpoint(seed=9)
        path = tmp_path / "fold0.ckpt"
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert np.array_equal(original.state.rng.standard_normal(16),
                              loaded.state.rng.standard_normal(16))

    def test_missing_best_params(self, tmp_path):
        original = _checkpoint(with_history=False)
        path = tmp_path / "fresh.ckpt"
        save_checkpoint(path, original)
        loaded = load_checkpoint(path)
        assert loaded.state.best_params_vector is None
        assert loaded.state.best_validation_er == np.inf
        assert loaded.state.history == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameters_keep_their_dtype_and_moments_stay_float64(
            self, tmp_path, dtype):
        original = _checkpoint()
        state = original.state
        state.params_vector = state.params_vector.astype(dtype)
        state.best_params_vector = state.best_params_vector.astype(dtype)
        # Moments that float32 cannot hold.
        state.adam.first_moment[:] = 1.0 / 3.0
        state.adam.second_moment[:] = 1e-300
        path = tmp_path / "fold0.ckpt"
        save_checkpoint(path, original)
        loaded = load_checkpoint(path).state
        for got, want in ((loaded.params_vector, state.params_vector),
                          (loaded.best_params_vector,
                           state.best_params_vector)):
            assert got.dtype == dtype
            assert np.array_equal(got, want)
        for got, want in ((loaded.adam.first_moment, state.adam.first_moment),
                          (loaded.adam.second_moment,
                           state.adam.second_moment)):
            assert got.dtype == np.float64
            assert np.array_equal(got, want)
        assert load_checkpoint(path).scaler.mean.dtype == np.float64

    def test_save_load_save_is_byte_identical(self, tmp_path):
        original = _checkpoint()
        first = tmp_path / "a.ckpt"
        second = tmp_path / "b.ckpt"
        save_checkpoint(first, original)
        save_checkpoint(second, load_checkpoint(first))
        assert first.read_bytes() == second.read_bytes()


class TestResume:
    def test_resumed_training_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        feats = rng.standard_normal((200, 2))
        targs = (rng.random((200, 2)) < 0.3).astype(float)
        scaler = fit_scaler([feats])
        scaled = scaler.transform(feats)
        roll = EventRoll(activity=targs.astype(np.uint8),
                         class_order=("a", "b"))
        validation = [(scaled, roll)]

        def fresh_state():
            return init_train_state(
                2, 2, TrainConfig(hidden_sizes=(4,)), seed=13)

        def config(max_epochs):
            return TrainConfig(hidden_sizes=(4,), batch_size=16,
                               max_epochs=max_epochs, patience=100,
                               sequence_length=10, block_mix_ratio=0.0)

        batch = split_sequences(scaled, targs, 10)
        straight = run_training(fresh_state(), batch, validation, config(6))

        first_half = run_training(fresh_state(), batch, validation, config(3))
        path = tmp_path / "half.ckpt"
        # The record's class order names the two classes the network has.
        save_checkpoint(path, dataclasses.replace(_record(first_half, scaler),
                                                  class_order=roll.class_order))
        resumed = run_training(load_checkpoint(path).state, batch, validation,
                               config(6))

        assert resumed.epoch == straight.epoch == 6
        assert np.array_equal(resumed.params_vector, straight.params_vector)
        assert np.array_equal(resumed.adam.second_moment,
                              straight.adam.second_moment)
        assert resumed.history == straight.history


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"BSF1" + b"\x00" * 32)
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        save_checkpoint(path, _checkpoint())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v9.ckpt"
        save_checkpoint(path, _checkpoint())
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version"):
            load_checkpoint(path)

    @pytest.mark.parametrize("version", [1, 2, 3, 4, 5, 6])
    def test_older_version_is_refused_with_advice_to_retrain(self, tmp_path,
                                                             version):
        path = tmp_path / f"v{version}.ckpt"
        save_checkpoint(path, _checkpoint())
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", version)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match=f"version {version} .*retrain"):
            load_checkpoint(path)

    def test_header_is_one_sorted_json_object(self, tmp_path):
        path = tmp_path / "fold1.ckpt"
        save_checkpoint(path, _checkpoint())
        blob = path.read_bytes()
        version, length = struct.unpack_from("<II", blob, 4)
        text = blob[12:12 + length].decode("utf-8")
        header = json.loads(text)
        assert version == 7
        assert text == json.dumps(header, sort_keys=True)
        # No "layout": it is derived from the combination and settings.
        assert header["sample_rate"] == 22050
        assert sorted(header) == [
            "adam_step", "arrays", "best_validation_er", "class_order",
            "combination", "context", "epoch", "epochs_since_improvement",
            "features", "layer_sizes", "rng", "sample_rate", "seed",
            "sequence_length", "split", "stopped", "threshold"]
        assert [(name, dtype) for name, dtype, _ in header["arrays"]] == [
            ("scaler_mean", "<f8"), ("scaler_std", "<f8"), ("params", "<f4"),
            ("adam_first", "<f8"), ("adam_second", "<f8"),
            ("history", "<f8"), ("best_params", "<f4")]
        assert header["arrays"][5][2] == [2, 4]
        assert header["split"]["test"] == ["r1"]
        assert header["rng"]["bit_generator"] == "PCG64"

    @pytest.mark.parametrize("dtype", ["<f2", "|O"])
    def test_unknown_parameter_dtype(self, tmp_path, dtype):
        path = tmp_path / "odd.ckpt"
        save_checkpoint(path, _checkpoint())

        def retype(header):
            assert header["arrays"][2][0] == "params"
            header["arrays"][2][1] = dtype
        _edit_header(path, retype)
        with pytest.raises(DataError, match="malformed checkpoint header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key,value,message", [
        ("class_order", ["dog", "beep"], "layer sizes"),
        ("features.mel_bands", 3, "layer sizes"),
        ("layer_sizes", [2, 5, 3], "array 'params' has shape")])
    def test_header_that_does_not_fit_the_arrays(self, tmp_path, key, value,
                                                 message):
        """``key`` is a dotted path into the header."""
        path = tmp_path / "unfit.ckpt"
        save_checkpoint(path, _checkpoint())

        def edit(header):
            *parents, name = key.split(".")
            for parent in parents:
                header = header[parent]
            header[name] = value
        _edit_header(path, edit)
        with pytest.raises(DataError, match=message):
            load_checkpoint(path)

    def test_bytes_past_the_arrays(self, tmp_path):
        path = tmp_path / "long.ckpt"
        save_checkpoint(path, _checkpoint())
        path.write_bytes(path.read_bytes() + b"\x00" * 7)
        with pytest.raises(DataError, match="past its arrays"):
            load_checkpoint(path)

    def test_huge_declared_shape_is_truncated_before_allocating(self,
                                                                 tmp_path):
        path = tmp_path / "huge.ckpt"
        save_checkpoint(path, _checkpoint())

        # 2**62 float32 values: a reader that allocated them before checking
        # the file's length would fail with MemoryError, not DataError.
        def enlarge(header):
            assert header["arrays"][2][0] == "params"
            header["arrays"][2][2] = [2 ** 62]
        _edit_header(path, enlarge)
        with pytest.raises(DataError, match="checkpoint truncated"):
            load_checkpoint(path)

    def test_feature_container_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "clip.feat"
        write_features(path, FeatureMatrix(values=np.ones((3, 2)),
                                           layout=LAYOUT))
        with pytest.raises(DataError, match="not a checkpoint"):
            load_checkpoint(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, _checkpoint())
        blob = bytearray(path.read_bytes())
        blob[12] = ord("[")
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="malformed checkpoint header"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")
