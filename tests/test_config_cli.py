import dataclasses
import json
import os
import shutil
import struct
import subprocess
import sys

import numpy as np
import pytest

import binsed
from binsed import cli, features
from binsed.audio import AudioClip, FrameGrid, decode_wav, encode_wav
from binsed.checkpoint import Checkpoint, load_checkpoint, save_checkpoint
from binsed.cli import main
from binsed.config import RunConfig, load_config, write_resolved_config
from binsed.container import read_features, write_features
from binsed.errors import DataError, UsageError
from binsed.events import EventRoll, roll_to_events
from binsed.features import FeatureConfig, assemble_features
from binsed.layout import FeatureLayout, FeatureMatrix
from binsed.lstm import params_to_vector
from binsed.metrics import SegmentCounts, score
from binsed.pipeline import (ContextData, ablation_tokens,
                             check_fold_coverage, discover_recordings,
                             evaluate_context, extract_context, fold_seed,
                             read_context_features, train_fold,
                             write_context_features)
from binsed.folds import FoldSplit, make_folds
from binsed.tdoa import TdoaConfig
from binsed.training import (Scaler, TrainConfig, detect_roll, fit_scaler,
                             init_train_state)


class TestLoadConfig:
    def test_defaults_without_file(self):
        config = load_config(None)
        assert config.features == "mel_2;tdoa;pitch_2"
        assert config.fold_count == 4
        assert config.hidden_sizes == (32, 32)
        assert config.tdoa_windows_ms == (120.0, 240.0, 480.0)

    def test_flags_override_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 7, "learning_rate": 0.01,
                                    "features": "mel_1"}))
        config = load_config(path, {"seed": 9, "patience": None})
        assert config.seed == 9          # flag wins
        assert config.learning_rate == 0.01   # file value kept
        assert config.patience == 100   # None overrides are ignored

    def test_tuple_fields_accept_lists_and_strings(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"hidden_sizes": [64, 32],
                                    "contexts": ["home", "street"]}))
        config = load_config(path, {"tdoa_windows_ms": "120, 240"})
        assert config.hidden_sizes == (64, 32)
        assert config.contexts == ("home", "street")
        assert config.tdoa_windows_ms == (120.0, 240.0)
        config = load_config(None, {"hidden_sizes": "16 8"})
        assert config.hidden_sizes == (16, 8)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"learning_rte": 0.1}))
        with pytest.raises(UsageError, match="learning_rte"):
            load_config(path)

    def test_unreadable_and_malformed_files(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(UsageError, match="not valid JSON"):
            load_config(bad)
        array = tmp_path / "array.json"
        array.write_text("[1, 2]")
        with pytest.raises(UsageError, match="JSON object"):
            load_config(array)

    @pytest.mark.parametrize("overrides", [{"features": "mel_9"},
                                           {"fold_count": 0},
                                           {"fold_count": 1},
                                           {"threshold": 1.5},
                                           {"validation_fraction": 1.0},
                                           {"hidden_sizes": ()},
                                           {"max_epochs": 0},
                                           {"hop_length_ms": 0},
                                           {"frame_length_ms": -40},
                                           {"tdoa_windows_ms": []},
                                           {"tdoa_windows_ms": [120, 0]},
                                           {"mel_bands": 0},
                                           {"tdoa_bands": 0},
                                           {"mic_spacing_m": 0},
                                           {"pitch_f_min": 5000},
                                           {"pitch_f_min": 0},
                                           {"log_floor": 0},
                                           {"seed": -1},
                                           {"synth_recordings": 0},
                                           {"synth_recordings": -2},
                                           {"synth_duration": 0},
                                           {"synth_duration": -1.5},
                                           {"synth_sample_rate": 0}])
    def test_validation_failures(self, overrides):
        with pytest.raises(UsageError):
            load_config(None, overrides)

    @pytest.mark.parametrize("key,value", [
        ("fold_count", "3"), ("batch_size", 32.0), ("learning_rate", "0.003"),
        ("seed", None), ("seed", True), ("hidden_sizes", [16.5]),
        ("hidden_sizes", [True]), ("macro_average", "no"),
        ("export_csv", 1), ("validation_fraction", False), ("features", 5),
        ("contexts", ["park", 3]), ("contexts", {"park": 1}),
        ("tdoa_windows_ms", ["120"]), ("tdoa_windows_ms", 120.0),
        ("synth_plan", None)])
    def test_wrongly_typed_values_are_refused(self, tmp_path, key, value):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value}))
        with pytest.raises(UsageError, match=f"bad value for {key}"):
            load_config(path)

    def test_values_keep_their_json_form(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"learning_rate": 1, "macro_average": True,
                                    "tdoa_windows_ms": [120, 240.5]}))
        config = load_config(path)
        # A float key keeps an integer as given, so config.json keeps it too;
        # tuple items are cast to their type.
        assert type(config.learning_rate) is int
        assert json.loads(config.to_json())["learning_rate"] == 1
        assert config.macro_average is True
        assert config.tdoa_windows_ms == (120.0, 240.5)
        assert all(type(w) is float for w in config.tdoa_windows_ms)

    def test_defaults_are_the_component_defaults(self):
        config = RunConfig()
        assert config.feature_config() == FeatureConfig()
        assert config.train_config() == TrainConfig()
        assert config.with_feature_config(FeatureConfig()) == config

    def test_feature_keys_map_both_ways(self):
        features = FeatureConfig(
            grid=FrameGrid(frame_length_ms=30.0, hop_length_ms=10.0),
            mel_bands=24, log_floor=1e-8, pitch_f_min=80.0,
            pitch_f_max=3000.0, pitch_threshold=0.2,
            tdoa=TdoaConfig(band_count=4, window_lengths_ms=(60.0, 90.0),
                            mic_spacing_m=0.3))
        config = RunConfig().with_feature_config(features)
        assert config.feature_config() == features
        assert (config.hop_length_ms, config.tdoa_bands) == (10.0, 4)

    def test_optimiser_range_edges_are_accepted(self):
        # 0 keeps meaning no clipping; a zero moment decay is plain momentum.
        config = load_config(None, {"gradient_clip": 0, "beta1": 0.0,
                                    "beta2": 0.0, "pitch_threshold": 1.0})
        assert config.train_config().gradient_clip == 0
        assert load_config(None, {"pitch_threshold": 0}).pitch_threshold == 0

    def test_bad_tuple_value(self):
        with pytest.raises(UsageError, match="hidden_sizes"):
            load_config(None, {"hidden_sizes": "a,b"})

    def test_resolved_config_round_trips(self, tmp_path):
        config = load_config(None, {"seed": 123, "features": "mel_1"})
        write_resolved_config(tmp_path, config)
        reloaded = load_config(tmp_path / "config.json")
        assert reloaded == config

    def test_derived_configs_carry_fields(self):
        config = load_config(None, {"mel_bands": 24, "hop_length_ms": 10.0,
                                    "learning_rate": 0.5, "patience": 7})
        feature_config = config.feature_config()
        assert feature_config.mel_bands == 24
        assert feature_config.grid.hop_length_ms == 10.0
        train_config = config.train_config()
        assert train_config.learning_rate == 0.5
        assert train_config.patience == 7
        assert train_config.grid == feature_config.grid


class TestPipelineUnits:
    def test_fold_seed_distinguishes_every_axis(self):
        base = fold_seed(1, "home", "mel_1", 0)
        variants = [fold_seed(2, "home", "mel_1", 0),
                    fold_seed(1, "street", "mel_1", 0),
                    fold_seed(1, "home", "mel_2", 0),
                    fold_seed(1, "home", "mel_1", 1)]
        base_draw = np.random.default_rng(base).integers(1 << 62)
        for variant in variants:
            assert np.random.default_rng(variant).integers(1 << 62) != base_draw
        again = fold_seed(1, "home", "mel_1", 0)
        assert np.random.default_rng(again).integers(1 << 62) == base_draw

    def test_fold_coverage_requires_train_examples(self):
        # r0 holds class a in its only frame, r1 holds a and b.
        data = ContextData(context="c", combination="mel_1",
                           class_order=("a", "b"), recordings=["r0", "r1"],
                           features={}, feature_config=FeatureConfig(),
                           sample_rate=16000,
                           rolls={name: EventRoll(activity=np.array(
                               [active], dtype=np.uint8),
                               class_order=("a", "b"))
                               for name, active in (("r0", [1, 0]),
                                                    ("r1", [1, 1]))})
        good = FoldSplit(fold_index=0, train=("r1",), validation=(),
                         test=("r0",))
        check_fold_coverage(data, good)
        bad = FoldSplit(fold_index=1, train=("r0",), validation=(),
                        test=("r1",))
        with pytest.raises(DataError, match="'b'"):
            check_fold_coverage(data, bad)

    def test_fold_coverage_reads_the_targets(self, tmp_path):
        """An annotation between two frame centres gives its class no frame,
        so a fold that trains on it alone does not cover the class."""
        rng = np.random.default_rng(0)
        for name, lines in (("r0", "0.0\t0.5\ta\n0.101\t0.109\tb\n"),
                            ("r1", "0.0\t0.5\ta\n0.5\t1.0\tb\n")):
            for part in ("audio", "annotations"):
                (tmp_path / "ctx" / part).mkdir(parents=True, exist_ok=True)
            encode_wav(tmp_path / "ctx" / "audio" / f"{name}.wav",
                       AudioClip(samples=rng.uniform(-0.5, 0.5, (2, 16000)),
                                 sample_rate=16000))
            (tmp_path / "ctx" / "annotations" / f"{name}.txt").write_text(lines)
        config = load_config(None, {"data_root": str(tmp_path),
                                    "features": "mel_1"})
        data = extract_context(config, "ctx")
        assert data.class_order == ("a", "b")
        assert not data.rolls["r0"].activity[:, 1].any()
        with pytest.raises(DataError, match=r"fold 0: test classes \['b'\]"):
            check_fold_coverage(data, FoldSplit(fold_index=0, train=("r0",),
                                                validation=(), test=("r1",)))
        check_fold_coverage(data, FoldSplit(fold_index=1, train=("r1",),
                                            validation=(), test=("r0",)))

    def test_evaluate_scores_one_second_segments_on_a_10ms_hop(self):
        # Each recording: 200 frames, reference active in frame 0 only,
        # scored against a model that answers "active" everywhere.  At the
        # 10 ms hop the checkpoints record (the config keeps the default
        # 20 ms) a segment is 100 frames, so every recording has one
        # reference and one insertion.
        config = load_config(None, {"fold_count": 2, "features": "mel_1"})
        # Two mel bands, so "mel_1" is the two columns of ``layout``.
        hop_10ms = FeatureConfig(grid=FrameGrid(hop_length_ms=10.0),
                                 mel_bands=2)
        names = [f"r{i}" for i in range(4)]
        layout = FeatureLayout((("mel_1", 2),))
        activity = np.zeros((200, 1), dtype=np.uint8)
        activity[0] = 1
        data = ContextData(
            context="c", combination="mel_1", class_order=("a",),
            recordings=names,
            features={n: FeatureMatrix(values=np.zeros((200, 2)),
                                       layout=layout) for n in names},
            feature_config=hop_10ms, sample_rate=16000,
            rolls={n: EventRoll(activity=activity, class_order=("a",))
                   for n in names})
        state = init_train_state(2, 1, config.train_config(), seed=0)
        state.params_vector = np.zeros_like(state.params_vector)
        params = state.params
        params.b_out[:] = 5.0
        state.params_vector = params_to_vector(params)
        halves = (tuple(names[:2]), tuple(names[2:]))
        checkpoints = {
            k: Checkpoint(state=state, scaler=fit_scaler([np.ones((3, 2))]),
                          class_order=("a",), combination="mel_1",
                          split=FoldSplit(fold_index=k, train=halves[1 - k],
                                          validation=(), test=halves[k]),
                          feature_config=hop_10ms, sequence_length=25,
                          threshold=0.5, seed=config.seed, context="c",
                          sample_rate=16000)
            for k in (0, 1)}
        report, per_fold = evaluate_context(config, data,
                                            checkpoints=checkpoints)
        assert report.counts.references == 4
        assert report.counts.insertions == 4
        assert report.error_rate == 1.0
        assert [c.references for c in per_fold] == [2, 2]

    def test_ablation_tokens_dedupe_in_order(self):
        tokens = ablation_tokens(["mel_2;tdoa", "mel_1", "tdoa;pitch_2"])
        assert tokens == ["mel_2", "tdoa", "mel_1", "pitch_2"]

    def test_discover_recordings_errors(self, tmp_path):
        with pytest.raises(DataError, match="no audio directory"):
            discover_recordings(str(tmp_path), "nowhere")
        audio = tmp_path / "ctx" / "audio"
        audio.mkdir(parents=True)
        with pytest.raises(DataError, match="no recordings"):
            discover_recordings(str(tmp_path), "ctx")
        (audio / "r0.wav").write_bytes(b"RIFF")
        with pytest.raises(DataError, match="no annotation"):
            discover_recordings(str(tmp_path), "ctx")

    def test_read_features_requires_extract_run(self, tmp_path):
        config = RunConfig(out_dir=str(tmp_path))
        with pytest.raises(DataError, match="extract command"):
            read_context_features(config, "park")


def _trained_copy(workspace, name):
    out = workspace / name
    for part in ("features", "models"):
        shutil.copytree(workspace / "out" / part, out / part)
    return out


def _tree(root):
    """Every file under ``root`` with its bytes."""
    return {path: path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file()}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One tiny synth -> extract -> train pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    config_path = root / "run.json"
    config_path.write_text(json.dumps({
        "data_root": str(root / "data"),
        "out_dir": str(root / "out"),
        "contexts": ["park"],
        "features": "mel_1;tdoa",
        "seed": 5,
        "fold_count": 2,
        "hidden_sizes": [6],
        "learning_rate": 0.01,
        "batch_size": 16,
        "max_epochs": 3,
        "patience": 2,
        "sequence_length": 25,
        "block_mix_ratio": 1.0,
        "synth_recordings": 4,
        "synth_duration": 4.0,
    }))
    assert main(["synth", "--config", str(config_path)]) == 0
    assert main(["extract", "--config", str(config_path)]) == 0
    assert main(["train", "--config", str(config_path)]) == 0
    return root


class TestCliPipeline:
    def test_artifact_layout(self, workspace):
        out = workspace / "out"
        assert (out / "config.json").is_file()
        feature_dir = out / "features" / "park"
        manifest = json.loads((feature_dir / "manifest.json").read_text())
        assert manifest["combination"] == "mel_1;tdoa"
        assert manifest["recordings"] == [f"rec{i:03d}" for i in range(4)]
        assert set(manifest["class_order"]) == {"rumble", "hiss", "beep"}
        for name in manifest["recordings"]:
            assert (feature_dir / f"{name}.feat").is_file()
            assert (feature_dir / f"{name}.targets").is_file()
        for fold in (0, 1):
            assert (out / "models" / "park" / f"fold{fold}.ckpt").is_file()
            log = (out / "models" / "park" / f"fold{fold}.log").read_text()
            assert log.startswith("epoch,train_loss,validation_er")
            assert len(log.strip().split("\n")) >= 2

    def test_evaluate_writes_table_and_json(self, workspace, capsys):
        assert main(["evaluate", "--config", str(workspace / "run.json")]) == 0
        printed = capsys.readouterr().out
        assert "park ER" in printed and "average F" in printed
        out = workspace / "out" / "evaluation"
        results = json.loads((out / "results.json").read_text())
        assert "park" in results and "average" in results
        assert len(results["park"]["per_fold"]) == 2
        assert (out / "results.txt").read_text().startswith("features")

    def test_evaluate_labels_rows_with_the_extracted_combination(
            self, workspace, capsys):
        # Without "features" the config resolves to the default
        # mel_2;tdoa;pitch_2, but the context was extracted as mel_1;tdoa.
        config = json.loads((workspace / "run.json").read_text())
        del config["features"]
        path = workspace / "no_features.json"
        path.write_text(json.dumps(config))
        assert main(["evaluate", "--config", str(path)]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(
            "mel_1;tdoa ")
        out = workspace / "out" / "evaluation"
        results = json.loads((out / "results.json").read_text())
        assert results["park"]["combination"] == "mel_1;tdoa"
        assert (out / "results.txt").read_text().splitlines()[1].startswith(
            "mel_1;tdoa ")

    def test_evaluate_refuses_mixed_combinations(self, workspace, capsys):
        data = workspace / "data_mixed"
        out = workspace / "out_mixed"
        for context in ("park", "street"):
            shutil.copytree(workspace / "data" / "park", data / context)
        for context, features in (("park", "mel_1;tdoa"), ("street", "mel_1")):
            assert main(["extract", "--config", str(workspace / "run.json"),
                         "--data-root", str(data), "--out", str(out),
                         "--context", context, "--features", features]) == 0
        (out / "config.json").unlink()
        capsys.readouterr()
        assert main(["evaluate", "--config", str(workspace / "run.json"),
                     "--out", str(out),
                     "--context", "park", "--context", "street"]) == 2
        err = capsys.readouterr().err
        assert "park (mel_1;tdoa)" in err and "street (mel_1)" in err
        assert not (out / "config.json").exists()

    def test_failed_evaluate_writes_no_config(self, workspace):
        run = str(workspace / "run.json")
        # No features, as in an ablate per-combination directory.
        bare = workspace / "out_bare"
        assert main(["evaluate", "--config", run, "--out", str(bare)]) == 2
        assert not (bare / "config.json").exists()
        # Features but no checkpoints.
        unfit = workspace / "out_unfit"
        shutil.copytree(workspace / "out" / "features", unfit / "features")
        assert main(["evaluate", "--config", run, "--out", str(unfit)]) == 2
        assert not (unfit / "config.json").exists()

    def test_evaluate_refuses_a_wrongly_typed_macro_average(self, workspace,
                                                            capsys):
        # "no" is truthy: read as given, it would print the macro row.
        out = _trained_copy(workspace, "out_macro_no")
        path = workspace / "macro_no.json"
        path.write_text(json.dumps({"out_dir": str(out), "contexts": ["park"],
                                    "macro_average": "no"}))
        before = _tree(out)
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert "bad value for macro_average: 'no'" in err
        assert "Traceback" not in err
        assert _tree(out) == before

    def test_evaluate_refuses_conflicting_features(self, workspace, capsys):
        # evaluate takes no --features: the extraction decided them.
        out = _trained_copy(workspace, "out_conflict")
        before = _tree(out)
        with pytest.raises(SystemExit) as excinfo:
            main(["evaluate", "--config", str(workspace / "run.json"),
                  "--out", str(out), "--features", "mel_2;tdoa"])
        assert excinfo.value.code == 1
        assert "--features" in capsys.readouterr().err
        assert _tree(out) == before

    def test_evaluate_records_the_extracted_combination(self, workspace):
        # The config resolves to the default mel_2;tdoa;pitch_2, but the
        # context was extracted as mel_1;tdoa: results.json says what ran,
        # and evaluate leaves train's config.json alone.
        config = json.loads((workspace / "run.json").read_text())
        del config["features"]
        path = workspace / "default_features.json"
        path.write_text(json.dumps(config))
        out = _trained_copy(workspace, "out_recorded")
        for flags, averaging in (([], "micro"), (["--macro"], "macro")):
            assert main(["evaluate", "--config", str(path),
                         "--out", str(out)] + flags) == 0
            results = json.loads(
                (out / "evaluation" / "results.json").read_text())
            assert results["park"]["combination"] == "mel_1;tdoa"
            assert results["averaging"] == averaging
        assert not (out / "config.json").exists()

    def test_detect_writes_event_list(self, workspace):
        wav = workspace / "data" / "park" / "audio" / "rec000.wav"
        ckpt = workspace / "out" / "models" / "park" / "fold0.ckpt"
        out_file = workspace / "detected.txt"
        assert main(["detect", "--checkpoint", str(ckpt), "--audio", str(wav),
                     "--out-file", str(out_file)]) == 0
        for line in out_file.read_text().splitlines():
            onset, offset, label = line.split("\t")
            assert float(onset) < float(offset)
            assert label in {"rumble", "hiss", "beep"}

    def test_repeated_runs_are_byte_identical(self, workspace):
        rerun = workspace / "rerun.json"
        config = json.loads((workspace / "run.json").read_text())
        config["out_dir"] = str(workspace / "out2")
        rerun.write_text(json.dumps(config))
        assert main(["extract", "--config", str(rerun)]) == 0
        assert main(["train", "--config", str(rerun)]) == 0
        for rel in (os.path.join("features", "park", "rec000.feat"),
                    os.path.join("models", "park", "fold0.ckpt"),
                    os.path.join("models", "park", "fold1.ckpt")):
            a = (workspace / "out" / rel).read_bytes()
            b = (workspace / "out2" / rel).read_bytes()
            assert a == b, rel

    def test_ablate_grid(self, workspace, capsys):
        assert main(["ablate", "--config", str(workspace / "run.json"),
                     "--combinations", "mel_1,tdoa",
                     "--out", str(workspace / "out")]) == 0
        printed = capsys.readouterr().out
        table = json.loads((workspace / "out" / "ablation" /
                            "table.json").read_text())
        assert set(table) == {"mel_1", "tdoa"}
        assert "park" in table["mel_1"]
        assert printed.splitlines()[1].startswith("mel_1")

    def test_ablate_matches_extract_train_evaluate(self, workspace):
        # The ablation extracts tdoa, mel_2 and mel_1 once and slices
        # mel_1;tdoa out of that wider, differently ordered matrix.
        run = workspace / "run.json"
        out = workspace / "out_ablate"
        assert main(["ablate", "--config", str(run), "--out", str(out),
                     "--combinations", "tdoa;mel_2,mel_1;tdoa"]) == 0
        assert main(["evaluate", "--config", str(run)]) == 0
        for fold in (0, 1):
            trained = workspace / "out" / "models" / "park" / f"fold{fold}.ckpt"
            ablated = (out / "ablation" / "mel_1+tdoa" / "models" / "park"
                       / f"fold{fold}.ckpt")
            assert ablated.read_bytes() == trained.read_bytes()
        results = json.loads((workspace / "out" / "evaluation" /
                              "results.json").read_text())["park"]
        table = json.loads((out / "ablation" / "table.json").read_text())
        # One score record, combination and counts included, for both.
        assert table["mel_1;tdoa"]["park"] == results

    def test_detect_features_equal_the_extracted_container(self, workspace):
        wav = workspace / "data" / "park" / "audio" / "rec001.wav"
        stored = read_features(workspace / "out" / "features" / "park" /
                               "rec001.feat")
        fresh = assemble_features(decode_wav(str(wav)), "mel_1;tdoa")
        assert fresh.layout == stored.layout
        assert fresh.values.tobytes() == stored.values.tobytes()

    def test_recorded_combination_names_the_extracted_blocks(self, workspace):
        config = load_config(workspace / "run.json",
                             {"out_dir": str(workspace / "out_tokens")})
        data = extract_context(config, "park",
                               tokens=["tdoa", "mel_1", "pitch_1"])
        write_context_features(config, data)
        directory = workspace / "out_tokens" / "features" / "park"
        manifest = json.loads((directory / "manifest.json").read_text())
        stored = read_features(directory / "rec000.feat")
        assert manifest["combination"] == ";".join(stored.layout.block_names)
        assert manifest["combination"] == "tdoa;mel_1;pitch_1"

    def test_synth_with_explicit_plan(self, workspace):
        plan = workspace / "plan.txt"
        plan.write_text("rumble 0-1 6 0.5 2.0 noise\n")
        assert main(["synth", "--config", str(workspace / "run.json"),
                     "--data-root", str(workspace / "plandata"),
                     "--context", "studio", "--plan", str(plan),
                     "--duration", "3.0"]) == 0
        assert (workspace / "plandata" / "studio" / "audio" /
                "scene.wav").is_file()
        text = (workspace / "plandata" / "studio" / "annotations" /
                "scene.txt").read_text()
        assert text == "0.500\t2.000\trumble\n"


@pytest.fixture(scope="module")
def three_folds(workspace):
    """The workspace's features, trained with seed 9 into three folds."""
    out = workspace / "three_folds"
    shutil.copytree(workspace / "out" / "features", out / "features")
    assert main(["train", "--config", str(workspace / "run.json"),
                 "--out", str(out), "--seed", "9", "--folds", "3"]) == 0
    return out


def _evaluate(out, capsys, **config):
    """Exit code and stderr of evaluate on ``out`` with a config file that
    holds ``config`` and the workspace's context."""
    path = out.parent / f"{out.name}_evaluate.json"
    path.write_text(json.dumps({"contexts": ["park"], **config}))
    capsys.readouterr()
    code = main(["evaluate", "--config", str(path), "--out", str(out)])
    return code, capsys.readouterr().err


class TestRunRecord:
    """evaluate and detect read the settings the run recorded: the manifest's
    feature settings and each checkpoint's split, sequence length and
    threshold, never their own flags or config."""

    def test_evaluate_scores_each_checkpoints_own_test_set(
            self, workspace, three_folds, capsys):
        results = []
        for config in ({"seed": 41, "fold_count": 4},
                       {"seed": 9, "fold_count": 3}, {}):
            assert _evaluate(three_folds, capsys, **config)[0] == 0
            results.append(json.loads((three_folds / "evaluation" /
                                       "results.json").read_text()))
        assert results[0] == results[1] == results[2]
        data = read_context_features(RunConfig(out_dir=str(three_folds)),
                                     "park")
        splits = make_folds(data.recordings, fold_count=3, seed=9)
        for k, counts in enumerate(results[0]["park"]["per_fold"]):
            ckpt = load_checkpoint(three_folds / "models" / "park" /
                                   f"fold{k}.ckpt")
            assert ckpt.split == splits[k]
            want = SegmentCounts()
            for name in splits[k].test:
                want = want + score(data.rolls[name], detect_roll(
                    ckpt.state.best_params, ckpt.scaler, data.features[name],
                    data.class_order))
            assert counts == dataclasses.asdict(want)

    @pytest.mark.parametrize("change", ["stale", "missing", "duplicate"])
    def test_evaluate_refuses_folds_that_do_not_partition(
            self, workspace, three_folds, capsys, change):
        out = workspace / f"folds_{change}"
        for part in ("features", "models"):
            shutil.copytree(three_folds / part, out / part)
        models = out / "models" / "park"
        if change == "stale":
            # A two-fold retrain leaves the three-fold run's fold2.ckpt.
            assert main(["train", "--config", str(workspace / "run.json"),
                         "--out", str(out), "--folds", "2"]) == 0
            assert (models / "fold2.ckpt").is_file()
        elif change == "missing":
            (models / "fold1.ckpt").unlink()
        else:
            shutil.copy(models / "fold0.ckpt", models / "fold1.ckpt")
        code, err = _evaluate(out, capsys)
        assert code == 2
        assert str(models) in err and "partition" in err
        assert not (out / "evaluation").exists()

    def test_evaluate_refuses_features_extracted_with_other_settings(
            self, workspace, capsys):
        out = _trained_copy(workspace, "out_resettled")
        config = json.loads((workspace / "run.json").read_text())
        config.update(out_dir=str(out), pitch_threshold=0.2)
        path = workspace / "resettled.json"
        path.write_text(json.dumps(config))
        assert main(["extract", "--config", str(path)]) == 0
        code, err = _evaluate(out, capsys)
        assert code == 2 and "other settings" in err

    @pytest.mark.parametrize("command", ["evaluate", "train"])
    def test_manifest_without_feature_settings(self, workspace, capsys,
                                               command):
        out = _trained_copy(workspace, f"out_old_manifest_{command}")
        manifest_path = out / "features" / "park" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["features"]
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main([command, "--config", str(workspace / "run.json"),
                     "--out", str(out)]) == 2
        assert "re-run the extract command" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["no_combination", "no_recordings",
                                        "no_sample_rate", "truncated"])
    def test_malformed_manifest_is_refused(self, workspace, capsys, damage):
        out = _trained_copy(workspace, f"out_manifest_{damage}")
        manifest_path = out / "features" / "park" / "manifest.json"
        text = manifest_path.read_text()
        if damage == "truncated":
            text = text[: len(text) // 2]
        else:
            manifest = json.loads(text)
            del manifest[damage.removeprefix("no_")]
            text = json.dumps(manifest)
        manifest_path.write_text(text)
        capsys.readouterr()
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"malformed manifest {manifest_path}" in err
        assert "Traceback" not in err

    def test_a_renamed_feature_directory_trains_under_its_new_name(
            self, workspace, capsys):
        out = workspace / "out_renamed"
        shutil.copytree(workspace / "out" / "features" / "park",
                        out / "features" / "yard")
        capsys.readouterr()
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out", str(out), "--context", "yard"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2 and all(line.startswith("yard: ")
                                       for line in lines)
        assert os.listdir(out / "models") == ["yard"]
        for fold in (0, 1):
            ckpt = load_checkpoint(out / "models" / "yard" / f"fold{fold}.ckpt")
            assert ckpt.context == "yard"
        assert main(["evaluate", "--out", str(out), "--context", "yard"]) == 0

    @pytest.mark.parametrize("name,combination", [
        ("fewer", "mel_1"), ("more", "mel_1;tdoa;pitch_1"),
        ("reordered", "tdoa;mel_1"), ("malformed", "mel_1;bogus")])
    def test_manifest_that_does_not_name_the_feature_blocks_is_refused(
            self, workspace, capsys, name, combination):
        out = _trained_copy(workspace, f"out_blocks_{name}")
        manifest_path = out / "features" / "park" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["combination"] = combination
        manifest_path.write_text(json.dumps(manifest))
        before = _tree(out)
        for command in ("train", "evaluate"):
            capsys.readouterr()
            assert main([command, "--config", str(workspace / "run.json"),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "re-run the extract command" in err
            assert "Traceback" not in err
        assert _tree(out) == before

    def test_train_fold_refuses_a_combination_that_is_not_its_features(
            self, workspace):
        # The checkpoint would derive the same width in another column order.
        config = load_config(workspace / "run.json")
        data = read_context_features(config, "park")
        split = make_folds(data.recordings, fold_count=2, seed=5)[0]
        with pytest.raises(ValueError, match="does not give the feature"):
            train_fold(config, data, split, combination="tdoa;mel_1")

    def test_detect_refuses_a_version_1_checkpoint(self, workspace, capsys):
        blob = bytearray((workspace / "out" / "models" / "park" /
                          "fold0.ckpt").read_bytes())
        blob[4:8] = struct.pack("<I", 1)
        old = workspace / "version1.ckpt"
        old.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(old), "--audio",
                     str(workspace / "data" / "park" / "audio" /
                         "rec000.wav")]) == 2
        assert "retrain" in capsys.readouterr().err

    @pytest.mark.parametrize("short", ["best_params", "scaler"])
    def test_detect_refuses_arrays_that_do_not_fit_the_header(
            self, workspace, capsys, short):
        ckpt = load_checkpoint(workspace / "out" / "models" / "park" /
                               "fold0.ckpt")
        if short == "best_params":
            ckpt.state.best_params_vector = ckpt.state.best_params_vector[:-5]
        else:
            ckpt.scaler = Scaler(mean=ckpt.scaler.mean[:-1],
                                 std=ckpt.scaler.std[:-1])
        path = workspace / f"short_{short}.ckpt"
        save_checkpoint(path, ckpt)
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(path), "--audio",
                     str(workspace / "data" / "park" / "audio" /
                         "rec000.wav")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "retrain" in err

    @pytest.mark.parametrize("name,combination", [
        ("unknown", "mel_1;tdoa;bogus"), ("narrower", "mel_1"),
        ("duplicate", "mel_1;mel_1"), ("empty", "")])
    def test_detect_refuses_a_combination_that_is_not_its_layout(
            self, workspace, capsys, name, combination):
        ckpt = load_checkpoint(workspace / "out" / "models" / "park" /
                               "fold0.ckpt")
        ckpt.combination = combination
        path = workspace / f"combination_{name}.ckpt"
        save_checkpoint(path, ckpt)
        # Refused as it loads, before any audio is decoded.
        with pytest.raises(DataError, match="retrain it with the train"):
            load_checkpoint(path)
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(path), "--audio",
                     str(workspace / "data" / "park" / "audio" /
                         "rec000.wav")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_detect_refuses_other_feature_settings_before_decoding(
            self, workspace, capsys, monkeypatch):
        # The header's mel_bands no longer gives the width the model reads.
        ckpt = load_checkpoint(workspace / "out" / "models" / "park" /
                               "fold0.ckpt")
        ckpt.feature_config = dataclasses.replace(ckpt.feature_config,
                                                  mel_bands=24)
        path = workspace / "mel_bands_24.ckpt"
        save_checkpoint(path, ckpt)
        with pytest.raises(DataError, match="layer sizes"):
            load_checkpoint(path)

        def decode(path):
            raise AssertionError(f"decoded {path}")
        monkeypatch.setattr(cli, "decode_wav", decode)
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(path), "--audio",
                     str(workspace / "data" / "park" / "audio" /
                         "rec000.wav")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "retrain" in err

    def test_detect_refuses_a_wav_with_sample_rate_0(self, workspace, capsys):
        blob = bytearray((workspace / "data" / "park" / "audio" /
                          "rec000.wav").read_bytes())
        assert blob[12:16] == b"fmt "
        blob[24:28] = struct.pack("<I", 0)
        wav = workspace / "rate0.wav"
        wav.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(workspace / "out" /
                                                   "models" / "park" /
                                                   "fold0.ckpt"),
                     "--audio", str(wav)]) == 2
        err = capsys.readouterr().err
        assert "sample rate 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("damage", ["renamed", "wide"])
    def test_targets_that_are_not_the_manifest_classes_are_refused(
            self, workspace, capsys, damage):
        out = _trained_copy(workspace, f"out_targets_{damage}")
        path = out / "features" / "park" / "rec001.targets"
        targets = read_features(path)
        names = targets.layout.block_names
        if damage == "renamed":
            layout = FeatureLayout(tuple((f"{n}!", 1) for n in names))
            values = targets.values
        else:
            layout = FeatureLayout(tuple((n, 2) for n in names))
            values = np.repeat(targets.values, 2, axis=1)
        write_features(path, FeatureMatrix(values=values, layout=layout))
        before = _tree(out)
        capsys.readouterr()
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'rec001'" in err and "re-run the extract command" in err
        assert "Traceback" not in err
        assert _tree(out) == before

    def test_features_shorter_than_their_targets_are_refused(self, workspace,
                                                             capsys):
        out = _trained_copy(workspace, "out_short_features")
        path = out / "features" / "park" / "rec000.feat"
        matrix = read_features(path)
        write_features(path, FeatureMatrix(values=matrix.values[:-7],
                                           layout=matrix.layout))
        capsys.readouterr()
        assert main(["train", "--config", str(workspace / "run.json"),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'rec000'" in err and "re-run the extract command" in err
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("setting,value,combination", [
        ("hop_length_ms", 10.0, "mel_1;tdoa"),
        ("pitch_f_min", 1000.0, "mel_1;pitch_1")])
    def test_detect_uses_the_recorded_feature_settings(
            self, workspace, setting, value, combination):
        config = json.loads((workspace / "run.json").read_text())
        config.update({"out_dir": str(workspace / f"out_{setting}"),
                       "features": combination, setting: value})
        path = workspace / f"{setting}.json"
        path.write_text(json.dumps(config))
        assert main(["extract", "--config", str(path)]) == 0
        assert main(["train", "--config", str(path)]) == 0
        ckpt_path = workspace / f"out_{setting}" / "models" / "park" / \
            "fold0.ckpt"
        wav = workspace / "data" / "park" / "audio" / "rec001.wav"
        out_file = workspace / f"detected_{setting}.txt"
        assert main(["detect", "--checkpoint", str(ckpt_path),
                     "--audio", str(wav), "--out-file", str(out_file)]) == 0

        ckpt = load_checkpoint(ckpt_path)
        recorded = load_config(path).feature_config()
        assert ckpt.feature_config == recorded != FeatureConfig()

        def events(feature_config):
            matrix = assemble_features(decode_wav(str(wav)), combination,
                                       feature_config)
            roll = detect_roll(ckpt.state.best_params, ckpt.scaler, matrix,
                               ckpt.class_order)
            return "".join(f"{e.onset:.2f}\t{e.offset:.2f}\t{e.label}\n"
                           for e in roll_to_events(
                               roll, feature_config.grid).events)

        # The default settings would give another event list.
        assert out_file.read_text() == events(recorded) \
            != events(FeatureConfig())

    def test_train_records_the_manifest_feature_settings(self, workspace):
        config = json.loads((workspace / "run.json").read_text())
        config.update(out_dir=str(workspace / "out_hop10"), hop_length_ms=10.0)
        extract_config = workspace / "hop10.json"
        extract_config.write_text(json.dumps(config))
        assert main(["extract", "--config", str(extract_config)]) == 0
        del config["hop_length_ms"]
        config["out_dir"] = str(workspace / "run_hop10")
        train_config = workspace / "hop10_train.json"
        train_config.write_text(json.dumps(config))
        shutil.copytree(workspace / "out_hop10" / "features",
                        workspace / "run_hop10" / "features")
        assert main(["train", "--config", str(train_config)]) == 0
        recorded = workspace / "run_hop10" / "config.json"
        assert json.loads(recorded.read_text())["hop_length_ms"] == 10.0
        assert load_config(recorded).feature_config() == load_checkpoint(
            workspace / "run_hop10" / "models" / "park" / "fold0.ckpt"
        ).feature_config
        assert main(["extract", "--config", str(recorded),
                     "--out", str(workspace / "rerun_hop10")]) == 0
        for name in ("rec000", "rec003"):
            rel = os.path.join("features", "park", f"{name}.feat")
            assert (workspace / "rerun_hop10" / rel).read_bytes() \
                == (workspace / "out_hop10" / rel).read_bytes()

    @pytest.mark.parametrize("command,flags", [
        ("evaluate", ["--seed", "9"]),
        ("evaluate", ["--folds", "3"]),
        ("evaluate", ["--data-root", "data"]),
        ("detect", ["--threshold", "0.9"]),
        ("detect", ["--hidden-sizes", "99"]),
        ("detect", ["--config", "run.json"])])
    def test_flags_that_duplicate_the_record_are_usage_errors(
            self, workspace, capsys, command, flags):
        before = _tree(workspace)
        args = {"evaluate": ["--config", str(workspace / "run.json")],
                "detect": ["--checkpoint", str(workspace / "out" / "models" /
                                               "park" / "fold0.ckpt"),
                           "--audio", str(workspace / "data" / "park" /
                                          "audio" / "rec000.wav")]}[command]
        with pytest.raises(SystemExit) as excinfo:
            main([command] + args + flags)
        assert excinfo.value.code == 1
        assert flags[0] in capsys.readouterr().err
        assert _tree(workspace) == before


class TestCliErrors:
    def test_unknown_command_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 1

    def test_bad_flag_value_exits_one(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--folds", "lots"])
        assert excinfo.value.code == 1

    def test_missing_context_is_usage_error(self, tmp_path):
        assert main(["extract", "--out", str(tmp_path)]) == 1

    def test_invalid_feature_grammar_is_usage_error(self, tmp_path):
        assert main(["extract", "--context", "park", "--features", "mel_9",
                     "--out", str(tmp_path)]) == 1

    def test_missing_data_is_data_error(self, tmp_path):
        assert main(["extract", "--context", "park",
                     "--data-root", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")]) == 2

    def test_train_before_extract_is_data_error(self, tmp_path):
        assert main(["train", "--context", "park",
                     "--out", str(tmp_path / "empty")]) == 2

    @pytest.mark.parametrize("command", ["extract", "train", "ablate"])
    def test_failed_run_writes_no_config(self, tmp_path, command):
        # extract and ablate find no recordings; train finds no features.
        out = tmp_path / f"run_{command}"
        grid = ["--combinations", "mel_1"] if command == "ablate" else []
        assert main([command, "--context", "park", "--out", str(out),
                     "--data-root", str(tmp_path / "nowhere")] + grid) == 2
        assert not (out / "config.json").exists()

    @pytest.mark.parametrize("command,flags", [
        ("train", ["--export-csv"]),
        ("train", ["--combinations", "mel_1"]),
        ("train", ["--macro"]),
        ("extract", ["--hidden-sizes", "99"]),
        ("extract", ["--max-epochs", "7"]),
        ("extract", ["--seed", "3"]),
        ("ablate", ["--features", "mel_1"]),
        ("ablate", ["--export-csv"]),
        ("synth", ["--patience", "3"]),
        ("synth", ["--out", "runs"])])
    def test_flags_a_command_never_reads_are_usage_errors(
            self, tmp_path, capsys, command, flags):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--context", "park",
                  "--data-root", str(tmp_path / "data")] + flags)
        assert excinfo.value.code == 1
        assert flags[0] in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key,value", [
        ("learning_rate", -0.003), ("learning_rate", 0.0),
        ("beta1", 1.0), ("beta1", -0.1), ("beta2", 1.0), ("beta2", 1.5),
        ("adam_epsilon", 0.0), ("gradient_clip", -1.0),
        ("pitch_threshold", 1.5), ("pitch_threshold", -0.1),
        ("learning_rate", float("nan")), ("beta2", float("nan")),
        ("gradient_clip", float("inf")), ("threshold", float("nan")),
        ("block_mix_ratio", float("inf")),
        ("tdoa_windows_ms", [120.0, float("inf")]), ("seed", -1)])
    def test_settings_that_train_nonsense_are_refused(self, tmp_path, capsys,
                                                       key, value):
        # No data exists, so a run that got past the check would exit 2.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({key: value, "contexts": ["park"],
                                    "data_root": str(tmp_path / "nowhere"),
                                    "out_dir": str(tmp_path / "out")}))
        assert main(["train", "--config", str(path)]) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags,key", [
        (["--recordings", "-2"], "synth_recordings"),
        (["--recordings", "0"], "synth_recordings"),
        (["--duration", "0"], "synth_duration"),
        (["--sample-rate", "0"], "synth_sample_rate"),
        (["--seed", "-1"], "seed")])
    def test_synth_settings_that_render_nothing_are_refused(
            self, tmp_path, capsys, flags, key):
        assert main(["synth", "--context", "park",
                     "--data-root", str(tmp_path / "data")] + flags) == 1
        assert f"{key} must be" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_pitch_above_nyquist_is_a_data_error(self, tmp_path, capsys,
                                                 monkeypatch):
        data = str(tmp_path / "data")
        assert main(["synth", "--data-root", data, "--context", "low",
                     "--recordings", "2", "--duration", "2",
                     "--sample-rate", "6000", "--seed", "1"]) == 0

        def extract(*flags):
            capsys.readouterr()
            code = main(["extract", "--data-root", data, "--context", "low",
                         "--out", str(tmp_path / flags[-1].replace(";", "+"))]
                        + list(flags))
            return code, capsys.readouterr().err

        # Refused before any STFT or TDOA work.
        with monkeypatch.context() as patch:
            for name in ("stft", "extract_tdoa"):
                patch.setattr(features, name, lambda *a, **k: 1 / 0)
            code, err = extract("--features", "mel_2;pitch_2")
        assert code == 2
        assert "pitch_f_max 4000.0 Hz" in err and "3000.0 Hz" in err
        assert "Traceback" not in err
        assert not (tmp_path / "mel_2+pitch_2").exists()
        assert extract("--features", "mel_2;tdoa")[0] == 0

    def test_negative_learning_rate_flag_is_refused(self, tmp_path, capsys):
        assert main(["train", "--context", "park", "--learning-rate", "-0.003",
                     "--data-root", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "out")]) == 1
        assert "learning_rate must be positive" in capsys.readouterr().err

    def test_detect_missing_checkpoint_is_data_error(self, tmp_path):
        wav = tmp_path / "x.wav"
        wav.write_bytes(b"RIFF")
        assert main(["detect", "--checkpoint", str(tmp_path / "no.ckpt"),
                     "--audio", str(wav)]) == 2


def _synth(data_root, context, rate, seed, recordings=1):
    assert main(["synth", "--data-root", str(data_root), "--context", context,
                 "--recordings", str(recordings), "--duration", "2",
                 "--sample-rate", str(rate), "--seed", str(seed)]) == 0
    return data_root / context


class TestSampleRates:
    """Features and models follow the sample rate they were made at, so
    recordings and models at other rates are refused, never resampled."""

    @pytest.mark.parametrize("command", ["extract", "ablate"])
    def test_a_context_of_mixed_sample_rates_is_refused(
            self, tmp_path, capsys, command):
        mixed = _synth(tmp_path / "data", "mixed", 16000, 1, recordings=2)
        odd = _synth(tmp_path / "data44", "mixed", 44100, 2)
        for part, suffix in (("audio", ".wav"), ("annotations", ".txt")):
            shutil.copy(odd / part / f"rec000{suffix}",
                        mixed / part / f"rec002{suffix}")
        grid = ["--combinations", "mel_1"] if command == "ablate" else []
        capsys.readouterr()
        assert main([command, "--data-root", str(tmp_path / "data"),
                     "--context", "mixed", "--out", str(tmp_path / "out")]
                    + grid) == 2
        err = capsys.readouterr().err
        assert "'rec000' is at 16000 Hz, 'rec002' at 44100 Hz" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_contexts_extracted_at_different_rates_are_refused(
            self, tmp_path, capsys):
        out = tmp_path / "out"
        for context, rate in (("slow", 16000), ("fast", 22050)):
            _synth(tmp_path / "data", context, rate, 3, recordings=3)
            assert main(["extract", "--data-root", str(tmp_path / "data"),
                         "--context", context, "--out", str(out),
                         "--features", "mel_1"]) == 0
        manifest = json.loads((out / "features" / "fast" /
                               "manifest.json").read_text())
        assert manifest["sample_rate"] == 22050
        before = _tree(out)
        for command in ("train", "evaluate"):
            capsys.readouterr()
            assert main([command, "--out", str(out), "--context", "slow",
                         "--context", "fast"]) == 2
            err = capsys.readouterr().err
            assert "slow (mel_1) at 16000 Hz" in err
            assert "fast (mel_1) at 22050 Hz" in err
        assert _tree(out) == before

    def test_detect_refuses_a_clip_at_another_rate(self, workspace, tmp_path,
                                                   capsys, monkeypatch):
        clip = _synth(tmp_path / "data", "park", 44100, 5) / "audio" / "rec000.wav"
        monkeypatch.setattr(cli, "assemble_features",
                            lambda *a, **k: 1 / 0)
        capsys.readouterr()
        assert main(["detect", "--checkpoint", str(workspace / "out" /
                                                   "models" / "park" /
                                                   "fold0.ckpt"),
                     "--audio", str(clip),
                     "--out-file", str(tmp_path / "events.txt")]) == 2
        err = capsys.readouterr().err
        assert "44100 Hz" in err and "16000 Hz" in err
        assert "Traceback" not in err
        assert not (tmp_path / "events.txt").exists()

    def test_evaluate_refuses_a_checkpoint_at_another_rate(self, workspace,
                                                          capsys):
        out = _trained_copy(workspace, "out_rate_edited")
        path = out / "models" / "park" / "fold1.ckpt"
        ckpt = load_checkpoint(path)
        assert ckpt.sample_rate == 16000
        ckpt.sample_rate = 22050
        save_checkpoint(path, ckpt)
        code, err = _evaluate(out, capsys)
        assert code == 2
        assert "fold 1" in err and "22050 Hz" in err and "16000 Hz" in err
        assert not (out / "evaluation").exists()

    @pytest.mark.parametrize("value", ["16000", 0])
    def test_a_sample_rate_that_is_not_a_positive_integer_is_refused(
            self, workspace, capsys, value):
        out = _trained_copy(workspace, f"out_manifest_rate_{value}")
        manifest_path = out / "features" / "park" / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert manifest["sample_rate"] == 16000
        manifest["sample_rate"] = value
        manifest_path.write_text(json.dumps(manifest))
        before = _tree(out)
        for command in ("train", "evaluate"):
            capsys.readouterr()
            assert main([command, "--config", str(workspace / "run.json"),
                         "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert f"malformed manifest {manifest_path}" in err
            assert "re-run the extract command" in err
        assert _tree(out) == before

    def test_a_hop_of_a_fractional_sample_count_is_refused(
            self, workspace, tmp_path, capsys, monkeypatch):
        odd = _synth(tmp_path / "data", "odd", 11025, 4, recordings=2)
        ckpt = load_checkpoint(workspace / "out" / "models" / "park" /
                               "fold0.ckpt")
        ckpt.sample_rate = 11025
        model = tmp_path / "model_11025.ckpt"
        save_checkpoint(model, ckpt)
        # Refused before any STFT or TDOA work.
        monkeypatch.setattr(features, "stft", lambda *a, **k: 1 / 0)
        monkeypatch.setattr(features, "extract_tdoa", lambda *a, **k: 1 / 0)
        for command in (["extract", "--data-root", str(tmp_path / "data"),
                         "--context", "odd", "--out", str(tmp_path / "out")],
                        ["detect", "--checkpoint", str(model),
                         "--audio", str(odd / "audio" / "rec000.wav")]):
            capsys.readouterr()
            assert main(command) == 2
            err = capsys.readouterr().err
            assert "20.0 ms hop at 11025 Hz is 220.5 samples" in err
            assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        with pytest.raises(DataError, match="220.5 samples"):
            features.extract_block_values(decode_wav(odd / "audio" /
                                                     "rec000.wav"), ["mel_1"])

    def test_rates_with_a_whole_sample_hop_extract(self, tmp_path):
        for rate, hop in ((22050, 441), (44100, 882)):
            context = f"rate{rate}"
            _synth(tmp_path / "data", context, rate, 6, recordings=2)
            assert main(["extract", "--data-root", str(tmp_path / "data"),
                         "--context", context, "--out", str(tmp_path / "out"),
                         "--features", "mel_2;tdoa;pitch_2"]) == 0
            data = read_context_features(
                RunConfig(out_dir=str(tmp_path / "out")), context)
            assert data.sample_rate == rate
            assert FrameGrid().hop_samples(rate) == hop
            # 2 s of 40 ms frames on a 20 ms hop.
            assert data.features["rec000"].frame_count == 99


def _python(code, **env_overrides):
    """Run ``code`` in a fresh interpreter that imports this binsed."""
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")}
    src = os.path.dirname(os.path.dirname(os.path.abspath(binsed.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    env.update(env_overrides)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


class TestBlasPinning:
    def test_package_import_leaves_numpy_unloaded(self):
        assert _python("import sys, binsed; "
                       "print('numpy' in sys.modules)") == "False"

    def test_cli_pins_unset_thread_variables(self):
        assert _python("import os, binsed.cli; print(' '.join(os.environ[v] "
                       "for v in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', "
                       "'MKL_NUM_THREADS')))") == "1 1 1"

    def test_cli_keeps_a_user_setting(self):
        assert _python("import os, binsed.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])",
                       OPENBLAS_NUM_THREADS="2") == "2"

    # A library caller that never imports binsed.cli: binsed.pipeline loads
    # numpy, and forked fold workers inherit its BLAS threads.
    def test_library_import_pins_unset_thread_variables(self):
        assert _python("import os, binsed.pipeline; print(' '.join("
                       "os.environ[v] for v in ('OPENBLAS_NUM_THREADS', "
                       "'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))") == "1 1 1"

    def test_library_import_keeps_a_caller_setting(self):
        assert _python("import os, binsed.pipeline; "
                       "print(os.environ['MKL_NUM_THREADS'])",
                       MKL_NUM_THREADS="3") == "3"

    def test_library_import_runs_openblas_on_one_thread(self):
        # numpy wheels bundle OpenBLAS as numpy.libs/libscipy_openblas*.
        count = _python(
            "import ctypes, glob, os, binsed.pipeline, numpy; "
            "libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "
            "'..', 'numpy.libs', 'libscipy_openblas64_*')); "
            "lib = libs and ctypes.CDLL(libs[0]); "
            "get = getattr(lib, 'scipy_openblas_get_num_threads64_', None); "
            "print(get() if get else 'unknown')")
        if count == "unknown":
            pytest.skip("numpy's bundled OpenBLAS is not loaded here")
        assert count == "1"
