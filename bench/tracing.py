"""Span recording around binsed's layer boundaries, from outside the package.

Callers inside binsed look functions up as module attributes (for example
``features.py`` calls its own global ``extract_tdoa``), so a layer is traced
by replacing that attribute at every call site with a wrapper that records a
span: name, start, end, parent span and request id.  Spans stay in memory;
``Tracer.dump`` writes them out once the run ends.

A span's self time is its duration minus the time its direct children cover.
Calls are strictly nested in this single-threaded program, so children never
overlap and their durations can simply be summed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    request: str
    name: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


def _tdoa_counts(args, kwargs, result):
    config = kwargs.get("config")
    if config is None:
        from binsed.tdoa import TdoaConfig
        config = TdoaConfig()
    frames = result.values.shape[0]
    return {"delay_estimates":
            frames * len(config.window_lengths_ms) * config.band_count}


def _pitch_counts(args, kwargs, result):
    return {"frames": result.values.shape[0]}


def _container_write_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _clip_counts(args, kwargs, result):
    # clip_gradient_norm hands back its argument unchanged unless it scaled it.
    return {"clipped": int(result is not args[0])}


# (module whose attribute callers look up, attribute, span name, counter).
# A function called from several modules is wrapped at each of them.
SITES: tuple[tuple[str, str, str, object], ...] = (
    ("binsed.synth", "synthesize_scene", "synth.synthesize_scene", None),
    ("binsed.synth", "write_scene", "synth.write_scene", None),
    ("binsed.pipeline", "extract_context", "pipeline.extract_context", None),
    ("binsed.pipeline", "write_context_features",
     "pipeline.write_context_features", None),
    ("binsed.pipeline", "read_context_features",
     "pipeline.read_context_features", None),
    ("binsed.pipeline", "train_context", "pipeline.train_context", None),
    ("binsed.pipeline", "train_fold", "pipeline.train_fold", None),
    ("binsed.pipeline", "evaluate_context", "pipeline.evaluate_context", None),
    ("binsed.pipeline", "decode_wav", "audio.decode_wav", None),
    ("binsed.audio", "decode_wav", "audio.decode_wav", None),
    ("binsed.pipeline", "extract_block_values",
     "features.extract_block_values", None),
    ("binsed.features", "extract_block_values",
     "features.extract_block_values", None),
    ("binsed.features", "assemble_features", "features.assemble_features",
     None),
    ("binsed.features", "stft", "audio.stft", None),
    ("binsed.features", "extract_log_mel", "melbank.extract_log_mel", None),
    ("binsed.features", "extract_pitch", "pitch.extract_pitch",
     _pitch_counts),
    ("binsed.features", "extract_tdoa", "tdoa.extract_tdoa", _tdoa_counts),
    ("binsed.pipeline", "write_features", "container.write_features",
     _container_write_counts),
    ("binsed.pipeline", "read_features", "container.read_features", None),
    ("binsed.pipeline", "rasterize", "events.rasterize", None),
    ("binsed.events", "roll_to_events", "events.roll_to_events", None),
    ("binsed.pipeline", "run_training", "training.run_training", None),
    ("binsed.pipeline", "detect_roll", "training.detect_roll", None),
    ("binsed.training", "detect_roll", "training.detect_roll", None),
    ("binsed.training", "block_mix", "training.block_mix", None),
    ("binsed.training", "adam_step", "training.adam_step", None),
    ("binsed.training", "validation_error_rate",
     "training.validation_error_rate", None),
    ("binsed.pipeline", "score", "metrics.score", None),
    ("binsed.training", "score", "metrics.score", None),
    ("binsed.pipeline", "save_checkpoint", "checkpoint.save_checkpoint", None),
    ("binsed.checkpoint", "save_checkpoint", "checkpoint.save_checkpoint",
     None),
    ("binsed.pipeline", "load_checkpoint", "checkpoint.load_checkpoint", None),
    ("binsed.checkpoint", "load_checkpoint", "checkpoint.load_checkpoint",
     None),
    ("binsed.training", "backward", "lstm.backward", None),
    ("binsed.training", "forward", "lstm.forward", None),
    ("binsed.lstm", "forward", "lstm.forward", None),
    ("binsed.training", "vector_to_params", "lstm.vector_to_params", None),
    ("binsed.training", "params_to_vector", "lstm.params_to_vector", None),
    ("binsed.training", "clip_gradient_norm", "lstm.clip_gradient_norm",
     _clip_counts),
)


class Tracer:
    """Records spans for calls made inside ``recording``.

    Wrappers are only in place inside ``recording``, so untraced work runs on
    the original functions.
    """

    def __init__(self, sites=SITES):
        self.sites = sites
        self.spans: list[Span | None] = []
        self.counts: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float))
        self.request: str | None = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def recording(self, request: str):
        """Wrap every site and record spans under ``request`` for the block."""
        if self.request is not None:
            raise RuntimeError("a request is already being recorded")
        self._install()
        self.request = request
        try:
            yield
        finally:
            self.request = None
            self._uninstall()

    def _install(self) -> None:
        for module_name, attribute, span_name, counter in self.sites:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            self._originals.append((module, attribute, original))
            setattr(module, attribute,
                    self._wrap(original, span_name, counter))

    def _uninstall(self) -> None:
        for module, attribute, original in reversed(self._originals):
            setattr(module, attribute, original)
        self._originals.clear()

    def _wrap(self, fn, span_name: str, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = tracer.request
            stack = tracer._stack
            span_id = len(tracer.spans)
            parent = stack[-1] if stack else None
            tracer.spans.append(None)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans[span_id] = Span(span_id, parent, request,
                                             span_name, start, end)
            if counter is not None:
                per_request = tracer.counts[request]
                for key, value in counter(args, kwargs, result).items():
                    per_request[f"{span_name}.{key}"] += value
            return result

        return wrapper

    def dump(self, path: str) -> None:
        payload = {
            "spans": [[s.span_id, s.parent, s.request, s.name, s.start, s.end]
                      for s in self.spans if s is not None],
            "counts": {request: dict(counts)
                       for request, counts in self.counts.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


@dataclass
class LayerStats:
    busy: dict[str, float]
    self_time: dict[str, float]
    calls: dict[str, int]
    counts: dict[str, float]
    top_level: float          # time covered by spans without a parent
    requests: int
    nesting_violations: int


def layer_stats(tracer: Tracer, requests: list[str]) -> LayerStats:
    """Totals over the spans of ``requests``, keyed by span name and by module.

    Module keys (the part of a span name before the first dot) carry the sum
    over that module's spans; busy time is only summed per span name, since
    a module's spans may nest inside each other.
    """
    wanted = set(requests)
    spans = [s for s in tracer.spans if s is not None and s.request in wanted]
    child_time: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    busy: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    violations = 0
    top_level = 0.0
    for span in spans:
        if span.parent is None:
            top_level += span.duration
        children = child_time.get(span.span_id, 0.0)
        if children > span.duration:
            violations += 1
        own = span.duration - children
        module = span.name.split(".", 1)[0]
        busy[span.name] += span.duration
        calls[span.name] += 1
        self_time[span.name] += own
        self_time[module] += own
    counts: dict[str, float] = defaultdict(float)
    for request in requests:
        for key, value in tracer.counts.get(request, {}).items():
            counts[key] += value
    return LayerStats(busy=busy, self_time=self_time, calls=calls,
                      counts=counts, top_level=top_level,
                      requests=len(requests),
                      nesting_violations=violations)
