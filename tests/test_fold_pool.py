"""Every fold of a command trains on one process pool; the parent writes
their files in job order (context, combination, fold).

Checkpoints and logs must not depend on the worker count, and a fold that
fails in a worker must leave the files the serial order would have left.
"""

import concurrent.futures
import gc
import json
import multiprocessing
import os
import shutil
import signal
import time
import weakref

import pytest

from binsed import parallel, pipeline
from binsed.checkpoint import load_checkpoint, save_checkpoint
from binsed.cli import main
from binsed.config import load_config
from binsed.errors import DataError, DivergenceError


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Six short recordings, extracted once, with a three-fold run config."""
    root = tmp_path_factory.mktemp("pool")
    config_path = root / "run.json"
    config_path.write_text(json.dumps({
        "data_root": str(root / "data"),
        "out_dir": str(root / "extracted"),
        "contexts": ["park"],
        "features": "mel_1;tdoa",
        "seed": 7,
        "fold_count": 3,
        "hidden_sizes": [6],
        "learning_rate": 0.01,
        "batch_size": 16,
        "max_epochs": 3,
        "patience": 2,
        "synth_recordings": 6,
        "synth_duration": 3.0,
    }))
    assert main(["synth", "--config", str(config_path)]) == 0
    assert main(["extract", "--config", str(config_path)]) == 0
    return root


@pytest.fixture(scope="module")
def contexts(corpus):
    """Two more contexts beside park: street, synthesised with another seed,
    and broken, park's recordings with a class only rec000 has, so the fold
    that tests rec000 never trains on that class."""
    run = str(corpus / "run.json")
    assert main(["synth", "--config", run, "--context", "street",
                 "--seed", "8"]) == 0
    shutil.copytree(corpus / "data" / "park", corpus / "data" / "broken")
    with open(corpus / "data" / "broken" / "annotations" / "rec000.txt",
              "a", encoding="utf-8") as fh:
        fh.write("0.500\t1.500\tbark\n")
    assert main(["extract", "--config", run, "--context", "street",
                 "--context", "broken"]) == 0
    return corpus


def _config(corpus, out_dir):
    return load_config(corpus / "run.json", {"out_dir": str(out_dir)})


def _with_features(corpus, name, contexts=("park",)):
    """A run directory holding a copy of the extracted features."""
    out = corpus / name
    for context in contexts:
        shutil.copytree(corpus / "extracted" / "features" / context,
                        out / "features" / context)
    return out


def _model_files(out, context="park"):
    directory = out / "models" / context
    if not directory.is_dir():
        return {}
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(parallel, "cpu_count", lambda: cpus)


def _record_pool_sizes(monkeypatch):
    """The worker count of each process pool started from now on."""
    sizes = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return sizes


class TestWorkerCount:
    def test_files_identical_for_any_worker_count_and_per_fold_calls(
            self, corpus, monkeypatch):
        config = _config(corpus, corpus / "extracted")
        data = pipeline.read_context_features(config, "park")
        # The reference: train_fold called here, one split at a time.
        serial = corpus / "serial"
        directory = serial / "models" / "park"
        directory.mkdir(parents=True)
        for split in pipeline.context_folds(config, data):
            checkpoint = pipeline.train_fold(config, data, split)
            save_checkpoint(str(directory / f"fold{split.fold_index}.ckpt"),
                            checkpoint)
            pipeline.write_training_log(
                str(directory / f"fold{split.fold_index}.log"), checkpoint)
        want = _model_files(serial)
        assert sorted(want) == ["fold0.ckpt", "fold0.log", "fold1.ckpt",
                                "fold1.log", "fold2.ckpt", "fold2.log"]

        sizes = _record_pool_sizes(monkeypatch)
        for cpus in (1, 2, 3, 4):
            _force_cpus(monkeypatch, cpus)
            out = corpus / f"workers{cpus}"
            pipeline.train_context(_config(corpus, out), data)
            assert _model_files(out) == want, cpus
        # Three folds on two CPUs take three workers, so the last round
        # leaves no core idle; never more workers than the three folds.
        assert sizes == [1, 3, 3, 3]

    def test_cli_train_identical_on_one_and_two_cpus(self, corpus,
                                                     monkeypatch):
        runs = []
        for cpus in (1, 2):
            _force_cpus(monkeypatch, cpus)
            out = _with_features(corpus, f"cli_workers{cpus}")
            assert main(["train", "--config", str(corpus / "run.json"),
                         "--out", str(out)]) == 0
            runs.append(_model_files(out))
        assert runs[0] == runs[1] and len(runs[0]) == 6


class TestPoolSize:
    """``parallel.pool_size`` against its rule, over CPU and job counts."""

    @pytest.mark.parametrize("jobs,cpus,workers", [
        (3, 2, 3), (4, 2, 2), (6, 2, 2), (42, 2, 2), (5, 2, 3), (7, 2, 4),
        (3, 1, 1), (42, 1, 1), (1, 2, 1), (2, 4, 2), (5, 4, 5), (6, 4, 6)])
    def test_values(self, jobs, cpus, workers):
        assert parallel.pool_size(jobs, cpus) == workers

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 64])
    def test_rule(self, cpus):
        for jobs in range(1, 101):
            workers = parallel.pool_size(jobs, cpus)
            fewest = min(cpus, jobs)
            assert fewest <= workers <= min(jobs, 2 * cpus), (jobs, cpus)
            if cpus == 1 or jobs % cpus == 0:
                assert workers == fewest, (jobs, cpus)
            if workers > fewest:
                # Every core busy until the pool ends ...
                last_round = jobs % workers
                assert last_round == 0 or last_round >= cpus, (jobs, cpus)
                # ... from the fewest workers that manage it.
                for fewer in range(fewest, workers):
                    assert 0 < jobs % fewer < cpus, (jobs, cpus, fewer)


class TestOnePool:
    """Every fold of a command trains on one pool, written in job order."""

    def test_two_contexts_match_each_context_trained_alone(self, contexts,
                                                           monkeypatch):
        run = str(contexts / "run.json")
        want = {}
        for context in ("park", "street"):
            out = _with_features(contexts, f"alone_{context}", (context,))
            assert main(["train", "--config", run, "--out", str(out),
                         "--context", context]) == 0
            want[context] = _model_files(out, context)
            assert len(want[context]) == 6
        sizes = _record_pool_sizes(monkeypatch)
        for cpus in (1, 2, 3):
            _force_cpus(monkeypatch, cpus)
            out = _with_features(contexts, f"together{cpus}",
                                 ("park", "street"))
            assert main(["train", "--config", run, "--out", str(out),
                         "--context", "park", "--context", "street"]) == 0
            assert {c: _model_files(out, c) for c in want} == want, cpus
            assert pipeline._jobs == []
        # One pool per command, one worker per CPU.
        assert sizes == [1, 2, 3]

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_uncovered_fold_refused_before_any_training(self, contexts,
                                                        capsys, command):
        # broken comes after park: park's folds would train first.
        out = _with_features(contexts, f"uncovered_{command}",
                             ("park", "broken"))
        grid = ["--combinations", "mel_1,mel_1;tdoa"] \
            if command == "ablate" else []
        capsys.readouterr()
        assert main([command, "--config", str(contexts / "run.json"),
                     "--out", str(out), "--context", "park",
                     "--context", "broken"] + grid) == 2
        assert "['bark'] never occur" in capsys.readouterr().err
        assert list(out.rglob("models")) == []
        assert list(out.rglob("*.ckpt")) == []
        assert list(out.rglob("config.json")) == []

    def test_coverage_is_checked_before_the_generator_exists(self, contexts):
        # So a command can write its config.json between the check and the
        # first fold, from one check.
        extracted = _config(contexts, contexts / "extracted")
        runs = [(_config(contexts, contexts / "uncovered_call"),
                 pipeline.read_context_features(extracted, context))
                for context in ("park", "broken")]
        with pytest.raises(DataError, match="never occur"):
            pipeline.train_runs(runs)
        assert pipeline._jobs == []
        assert not (contexts / "uncovered_call").exists()

    def test_checkpoints_record_the_seed_and_context(self, contexts):
        extracted = _config(contexts, contexts / "extracted")
        data = [pipeline.read_context_features(extracted, context)
                for context in ("park", "street")]
        out = contexts / "seeded"
        config = load_config(contexts / "run.json",
                             {"out_dir": str(out), "seed": 11})
        trained = list(pipeline.train_runs([(config, d) for d in data]))
        # Job order: context, then fold.
        assert [(c.context, c.split.fold_index) for c in trained] == [
            (context, k) for context in ("park", "street") for k in range(3)]
        for checkpoint in trained:
            assert checkpoint.seed == 11
            saved = load_checkpoint(
                out / "models" / checkpoint.context
                / f"fold{checkpoint.split.fold_index}.ckpt")
            assert (saved.seed, saved.context) == (11, checkpoint.context)

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_failing_combination_keeps_only_the_earlier_ones(
            self, corpus, monkeypatch, capsys, cpus):
        _force_cpus(monkeypatch, cpus)
        _fail_in_worker(monkeypatch, 0, DivergenceError("loss became nan"),
                        combination="mel_1;tdoa")
        out = corpus / f"ablate_failing{cpus}"
        capsys.readouterr()
        assert main(["ablate", "--config", str(corpus / "run.json"),
                     "--out", str(out),
                     "--combinations", "mel_1,mel_1;tdoa"]) == 3
        assert "loss became nan" in capsys.readouterr().err
        ablation = out / "ablation"
        # No mel_1+tdoa directory and no table.json or table.txt.
        assert os.listdir(ablation) == ["mel_1"]
        assert sorted(_model_files(ablation / "mel_1")) == [
            f"fold{k}.{ext}" for k in range(3) for ext in ("ckpt", "log")]
        assert multiprocessing.active_children() == []
        assert pipeline._jobs == []


def _fail_in_worker(monkeypatch, fold, error, combination=None):
    """Make ``train_fold`` raise ``error`` for ``fold`` (of ``combination``
    only, unless None), in the worker only."""
    parent = os.getpid()
    original = pipeline.fold_seed

    def fold_seed(config_seed, context, combination_name, fold_index):
        assert os.getpid() != parent, "train_fold ran in the parent"
        if fold_index == fold and combination in (None, combination_name):
            raise error
        return original(config_seed, context, combination_name, fold_index)

    monkeypatch.setattr(pipeline, "fold_seed", fold_seed)


ERRORS = [(DataError("fold 1 broke on its data"), 2),
          (DivergenceError("loss became non-finite at epoch 2"), 3)]


class TestFailingFold:
    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("error", [error for error, _ in ERRORS])
    def test_error_reaches_the_parent_and_later_folds_are_not_saved(
            self, corpus, monkeypatch, cpus, error):
        _force_cpus(monkeypatch, cpus)
        _fail_in_worker(monkeypatch, 1, error)
        out = corpus / f"failing_{type(error).__name__}_{cpus}"
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        with pytest.raises(type(error)) as excinfo:
            pipeline.train_context(_config(corpus, out), data)
        assert type(excinfo.value) is type(error)
        assert str(excinfo.value) == str(error)
        assert sorted(_model_files(out)) == ["fold0.ckpt", "fold0.log"]

    @pytest.mark.parametrize("error,code", ERRORS)
    def test_cli_exit_code_and_files(self, corpus, monkeypatch, capsys,
                                     error, code):
        _force_cpus(monkeypatch, 2)
        _fail_in_worker(monkeypatch, 1, error)
        out = _with_features(corpus, f"cli_failing_{type(error).__name__}")
        capsys.readouterr()
        assert main(["train", "--config", str(corpus / "run.json"),
                     "--out", str(out)]) == code
        assert str(error) in capsys.readouterr().err
        assert sorted(_model_files(out)) == ["fold0.ckpt", "fold0.log"]

    def test_first_fold_failing_saves_nothing(self, corpus, monkeypatch):
        _force_cpus(monkeypatch, 1)
        _fail_in_worker(monkeypatch, 0, DataError("fold 0 broke"))
        out = _with_features(corpus, "first_failing")
        assert main(["train", "--config", str(corpus / "run.json"),
                     "--out", str(out)]) == 2
        assert _model_files(out) == {}


class TestStoppedFolds:
    """A failing fold stops the folds still training instead of waiting for
    them, and leaves no child process behind."""

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    @pytest.mark.parametrize("failing", [0, 1])
    def test_failure_stops_running_folds(self, corpus, monkeypatch, cpus,
                                         failing):
        _force_cpus(monkeypatch, cpus)
        original = pipeline.fold_seed

        def fold_seed(config_seed, context, combination, fold_index):
            if fold_index == failing:
                raise DataError(f"fold {failing} broke at once")
            if fold_index > failing:
                time.sleep(120)  # a fold that would train for minutes
            return original(config_seed, context, combination, fold_index)

        monkeypatch.setattr(pipeline, "fold_seed", fold_seed)
        out = corpus / f"stopped_{failing}_{cpus}"
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        start = time.monotonic()
        with pytest.raises(DataError, match=f"fold {failing} broke at once"):
            pipeline.train_context(_config(corpus, out), data)
        assert time.monotonic() - start < 20
        assert multiprocessing.active_children() == []
        saved = [f"fold{k}.{ext}" for k in range(failing)
                 for ext in ("ckpt", "log")]
        assert sorted(_model_files(out)) == saved


    def test_stopping_never_cuts_a_result_short(self, corpus, monkeypatch):
        """Fold 1 fails while folds 0 and 2 send large results at about the
        same time, on more workers than cores, thirty times over: a worker
        stopped halfway through sending would leave the parent waiting for
        the rest of the message."""
        _force_cpus(monkeypatch, 3)

        def train_fold(config, data, split, features=None, combination=None):
            if split.fold_index == 1:
                time.sleep(0.03)
                raise DataError("fold 1 broke")
            time.sleep(0.02 + 0.001 * split.fold_index)
            return b"x" * (8 << 20)

        monkeypatch.setattr(pipeline, "train_fold", train_fold)
        monkeypatch.setattr(pipeline, "save_checkpoint",
                            lambda path, checkpoint: None)
        monkeypatch.setattr(pipeline, "write_training_log",
                            lambda path, checkpoint: None)
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        config = _config(corpus, corpus / "stress")

        def hung(signum, frame):
            raise TimeoutError("train_context did not return")

        previous = signal.signal(signal.SIGALRM, hung)
        try:
            for _ in range(30):
                signal.alarm(20)
                with pytest.raises(DataError, match="fold 1 broke"):
                    pipeline.train_context(config, data)
                signal.alarm(0)
                assert multiprocessing.active_children() == []
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)


class TestHandOff:
    """train_runs hands each fold over once its files are written and keeps
    none of them after that."""

    def test_a_dropped_checkpoint_is_freed_by_the_next_fold(self, corpus):
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        refs = []
        freed = []
        for checkpoint in pipeline.train_runs(
                [(_config(corpus, corpus / "handed"), data)]):
            refs.append(weakref.ref(checkpoint))
            del checkpoint
            gc.collect()
            freed.append([ref() is None for ref in refs])
        # The generator holds the fold it yielded last, and no earlier one.
        assert freed == [[False], [True, False], [True, True, False]]

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_closing_stops_the_remaining_folds(self, corpus, monkeypatch,
                                               cpus):
        _force_cpus(monkeypatch, cpus)
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        out = corpus / f"closed{cpus}"
        trained = pipeline.train_runs([(_config(corpus, out), data)])
        assert next(trained).split.fold_index == 0
        trained.close()
        assert multiprocessing.active_children() == []
        assert pipeline._jobs == []
        assert sorted(_model_files(out)) == ["fold0.ckpt", "fold0.log"]


class TestTrainCombination:
    def test_conflicting_features_refused(self, corpus, capsys):
        # train takes no --features: the extraction decided them.
        out = _with_features(corpus, "train_conflict")
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--config", str(corpus / "run.json"),
                  "--out", str(out), "--features", "mel_1"])
        assert excinfo.value.code == 1
        assert "--features" in capsys.readouterr().err
        assert not (out / "config.json").exists()
        assert not (out / "models").exists()

    def test_a_spaced_combination_trains_as_its_blocks(self, corpus):
        data = pipeline.read_context_features(
            _config(corpus, corpus / "extracted"), "park")
        trees = []
        for name, features in (("tight", "mel_1;tdoa"),
                               ("spaced", " mel_1 ; tdoa")):
            out = corpus / f"combination_{name}"
            config = load_config(corpus / "run.json",
                                 {"out_dir": str(out), "features": features})
            trained = pipeline.train_runs([(config, data)])
            assert [c.combination for c in trained] == ["mel_1;tdoa"] * 3
            trees.append(_model_files(out))
        assert trees[0] == trees[1] and len(trees[0]) == 6

    def test_config_records_the_extracted_combination(self, corpus):
        # The config resolves to the default mel_2;tdoa;pitch_2, but the
        # context was extracted as mel_1;tdoa: config.json says what ran.
        config = json.loads((corpus / "run.json").read_text())
        del config["features"]
        path = corpus / "default_features.json"
        path.write_text(json.dumps(config))
        out = _with_features(corpus, "train_recorded")
        assert main(["train", "--config", str(path), "--out", str(out)]) == 0
        recorded = json.loads((out / "config.json").read_text())
        assert recorded["features"] == "mel_1;tdoa"
        assert len(_model_files(out)) == 6
