import json
import struct

import numpy as np
import pytest

from binsed.container import (MAGIC, VERSION, export_csv, read_features,
                              read_record, write_features, write_record)
from binsed.errors import DataError
from binsed.layout import FeatureLayout, FeatureMatrix


def _matrix(frames=7, seed=3):
    rng = np.random.default_rng(seed)
    layout = FeatureLayout((("mel_1", 4), ("tdoa", 2)))
    return FeatureMatrix(values=rng.standard_normal((frames, 6)),
                         layout=layout)


class TestRoundTrip:
    def test_values_survive_float32_round_trip(self, tmp_path):
        fm = _matrix()
        path = tmp_path / "clip.feat"
        write_features(path, fm)
        back = read_features(path)
        assert back.layout.blocks == fm.layout.blocks
        assert back.values.dtype == np.float64
        assert np.array_equal(back.values,
                              fm.values.astype(np.float32).astype(np.float64))

    def test_float32_values_are_exact(self, tmp_path):
        layout = FeatureLayout((("a", 3),))
        vals = np.array([[0.5, -1.25, 3.0], [2.0, 0.0, -0.125]])
        fm = FeatureMatrix(values=vals, layout=layout)
        path = tmp_path / "x.feat"
        write_features(path, fm)
        assert np.array_equal(read_features(path).values, vals)

    def test_target_roll_round_trip(self, tmp_path):
        layout = FeatureLayout((("class:dog", 1), ("class:car horn", 1)))
        roll = np.array([[1, 0], [1, 1], [0, 0]], dtype=np.uint8)
        fm = FeatureMatrix(values=roll.astype(np.float64), layout=layout)
        path = tmp_path / "clip.targets"
        write_features(path, fm)
        back = read_features(path)
        assert back.layout.block_names == ("class:dog", "class:car horn")
        assert np.array_equal(back.values.astype(np.uint8), roll)

    def test_zero_frames(self, tmp_path):
        layout = FeatureLayout((("a", 2),))
        fm = FeatureMatrix(values=np.zeros((0, 2)), layout=layout)
        path = tmp_path / "empty.feat"
        write_features(path, fm)
        back = read_features(path)
        assert back.frame_count == 0
        assert back.width == 2

    def test_writes_are_byte_deterministic(self, tmp_path):
        fm = _matrix()
        a, b = tmp_path / "a.feat", tmp_path / "b.feat"
        write_features(a, fm)
        write_features(b, fm)
        assert a.read_bytes() == b.read_bytes()


class TestCorruption:
    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.feat"
        path.write_bytes(b"RIFF" + b"\x00" * 64)
        with pytest.raises(DataError, match="not a feature container"):
            read_features(path)

    def test_truncated_payload(self, tmp_path):
        fm = _matrix()
        path = tmp_path / "clip.feat"
        write_features(path, fm)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 10])
        with pytest.raises(DataError, match="truncated"):
            read_features(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "tiny.feat"
        path.write_bytes(b"BS")
        with pytest.raises(DataError):
            read_features(path)

    def test_unsupported_version(self, tmp_path):
        fm = _matrix()
        path = tmp_path / "clip.feat"
        write_features(path, fm)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError,
                           match="unsupported feature container version 9 "):
            read_features(path)

    def test_version_1_is_refused_with_advice_to_extract_again(self,
                                                               tmp_path):
        path = tmp_path / "old.feat"
        write_features(path, _matrix())
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataError, match="version 1 .*re-run the extract"):
            read_features(path)

    def test_bytes_past_the_arrays(self, tmp_path):
        path = tmp_path / "long.feat"
        write_features(path, _matrix())
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(DataError, match="past its arrays"):
            read_features(path)

    def test_checkpoint_is_not_a_feature_container(self, tmp_path):
        path = tmp_path / "fold0.ckpt"
        write_record(path, b"BSC1", 5, {}, {"params": (np.ones(3), "<f4")})
        with pytest.raises(DataError, match="not a feature container"):
            read_features(path)

    def test_blocks_that_do_not_match_the_values(self, tmp_path):
        path = tmp_path / "odd.feat"
        write_record(path, MAGIC, VERSION, {"blocks": [["a", 5]]},
                     {"values": (np.ones((2, 4)), "<f4")})
        with pytest.raises(DataError, match="malformed feature container"):
            read_features(path)


class TestRecord:
    def test_round_trip_keeps_names_order_dtypes_and_shapes(self, tmp_path):
        path = tmp_path / "x.rec"
        first = np.arange(6, dtype=np.float64).reshape(2, 3) / 3
        write_record(path, b"TEST", 3, {"note": "x"},
                     {"b": (first, "<f8"), "a": ([], "<f4"),
                      "c": (np.float64(1.5), "<f4")})
        header, arrays = read_record(path, b"TEST", 3, "test record", "")
        assert header == {"note": "x"}
        assert list(arrays) == ["b", "a", "c"]
        assert np.array_equal(arrays["b"], first)
        assert arrays["a"].shape == (0,) and arrays["a"].dtype == np.float32
        assert arrays["c"].shape == () and arrays["c"] == 1.5
        assert not arrays["b"].flags.writeable  # views, not copies

    @pytest.mark.parametrize("spec", [
        ["a", "|O", [2]], ["a", "<f2", [2]], ["a", "<f8", [-1]],
        ["a", "<f8", [1.5]], ["a", "<f8", "2"], [1, "<f8", [2]], ["a"]])
    def test_malformed_array_entry(self, tmp_path, spec):
        path = tmp_path / "x.rec"
        text = json.dumps({"arrays": [spec]}).encode("utf-8")
        path.write_bytes(b"TEST" + struct.pack("<II", 1, len(text)) + text
                         + b"\x00" * 16)
        with pytest.raises(DataError, match="malformed test record header"):
            read_record(path, b"TEST", 1, "test record", "")

    def test_header_longer_than_the_file(self, tmp_path):
        path = tmp_path / "x.rec"
        path.write_bytes(b"TEST" + struct.pack("<II", 1, 1000) + b"{}")
        with pytest.raises(DataError, match="test record truncated"):
            read_record(path, b"TEST", 1, "test record", "")


class TestCsvExport:
    def test_header_and_cells(self, tmp_path):
        layout = FeatureLayout((("mel_1", 2), ("tdoa", 1)))
        vals = np.array([[1.5, -2.0, 3.25], [0.0, 4.0, -0.5]])
        fm = FeatureMatrix(values=vals, layout=layout)
        path = tmp_path / "clip.csv"
        export_csv(path, fm)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "mel_1[0],mel_1[1],tdoa[0]"
        assert lines[1] == "1.5,-2,3.25"
        assert lines[2] == "0,4,-0.5"
