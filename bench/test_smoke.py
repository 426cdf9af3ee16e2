"""Tests of the benchmark itself, on its smoke configuration.

Run from the repository root:

    python3 -m pytest bench/test_smoke.py

Each workload runs untraced and traced on one short recording, one epoch and
a few detect requests, and must emit every metric BENCHMARK.json declares,
with its unit.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARATION = json.load(_fh)
WORKLOADS = [w["name"] for w in DECLARATION["workloads"]]

sys.path.insert(0, HERE)
import tracing  # noqa: E402

# Layers a workload must not touch at all (the traced run reports 0 calls).
ABSENT = {
    "extract_wide": ("lstm.backward.calls", "lstm.forward.s",
                     "checkpoint.load_checkpoint.s"),
    "train_folds": ("tdoa.extract_tdoa.calls", "pitch.extract_pitch.frames",
                    "audio.stft.calls"),
    "detect_stream": ("lstm.backward.calls", "container.write_features.bytes",
                      "container.read_features.s"),
}


def run_bench(cwd, workload, trace, extra=("--smoke",)):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_declared_metric_is_emitted(workload, trace):
    out = run_bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARATION["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], float) and \
            math.isfinite(metric["value"]), name
    if trace:
        for name in ABSENT[workload]:
            assert result["metrics"][name]["value"] == 0.0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in DECLARATION["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench(str(tmp_path), WORKLOADS[0], 0, extra=())
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_self_time_subtracts_children(monkeypatch):
    module = types.ModuleType("fake_layers")

    def inner():
        return sum(range(20000))

    def outer():
        return module.inner() + module.inner()

    module.inner, module.outer = inner, outer
    monkeypatch.setitem(sys.modules, "fake_layers", module)
    tracer = tracing.Tracer(sites=(
        ("fake_layers", "inner", "fake.inner", None),
        ("fake_layers", "outer", "fake.outer", None)))
    with tracer.recording("r0"):
        module.outer()
    module.outer()  # outside recording: no spans
    stats = tracing.layer_stats(tracer, ["r0"])
    assert stats.calls == {"fake.outer": 1, "fake.inner": 2}
    assert stats.nesting_violations == 0
    assert stats.self_time["fake.outer"] == pytest.approx(
        stats.busy["fake.outer"] - stats.busy["fake.inner"])
    assert stats.top_level == stats.busy["fake.outer"]
    assert module.outer is outer
