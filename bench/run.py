"""binsed benchmark: one workload per process, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload extract_wide --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in BENCHMARK.json at the repository root;
the reasons behind them are in bench/NOTES.md.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it alternates untraced and
traced copies of each operation and reports the per-layer metrics, averaged
per traced operation, plus the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  A record of the
run (environment, metrics, latencies) and the spans of a traced run are
written under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SETUP_REPEATS = 3


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, one set-up: for the benchmark's "
                             "own tests")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_declaration() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git_dir = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


class Calibration:
    """A fixed numpy kernel timed just before every operation.

    A shared machine's speed drifts by 10-30 % over seconds as other tenants
    come and go.  The kernel mixes the work binsed's
    hot paths do (real FFTs, small matrix products, tanh) and follows that
    drift closely, so each timed operation is scaled by REFERENCE_S over the
    kernel's current time: the figures read as if every run had the machine
    in the state where the kernel takes REFERENCE_S.  Raw times are kept in
    the run record.
    """

    # Near the kernel's time on a 2-core Xeon VM; only ratios between runs
    # matter, so this is a fixed convention, not a setting.
    REFERENCE_S = 0.004
    REPEATS = 5

    def __init__(self):
        import numpy
        rng = numpy.random.default_rng(0)
        self.numpy = numpy
        self.signal = rng.standard_normal((64, 2048))
        self.weights = 0.01 * rng.standard_normal((128, 128))
        self.state = rng.standard_normal((64, 128))

    def _once(self) -> float:
        np = self.numpy
        start = time.perf_counter()
        np.fft.irfft(0.5 * np.fft.rfft(self.signal, axis=1), axis=1)
        hidden = self.state
        for _ in range(20):
            hidden = np.tanh(hidden @ self.weights)
        return time.perf_counter() - start

    def sample(self) -> list[float]:
        return [self._once() for _ in range(self.REPEATS)]

    def factor(self, *samples: list[float]) -> float:
        """REFERENCE_S over the median kernel time in ``samples``; the
        median drops one-off interruptions."""
        return self.REFERENCE_S / statistics.median(
            t for sample in samples for t in sample)


class Uncalibrated:
    """Stands in for Calibration on a workload whose operations the kernel
    does not follow (see the workload's ``calibrated``): factors are 1."""

    def sample(self) -> list[float]:
        return []

    def factor(self, *samples: list[float]) -> float:
        return 1.0


def run_op(op, latencies, failures, log):
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception:  # a failed operation is counted, not fatal
        latencies.append(time.perf_counter() - start)
        failures.append(op.request)
        log(f"operation {op.request} raised:\n{traceback.format_exc()}")
        return
    latencies.append(time.perf_counter() - start)
    problems = op.check(outcome)
    if problems:
        failures.append(op.request)
        log(f"operation {op.request} failed its checks: {problems}")


def measure(workload, seconds, rng, calibration, log):
    """Whole rounds of operations, in a fresh random order each round, until
    ``seconds`` have passed; a round is never cut short, so every run covers
    the workload's lengths in equal measure.  Returns the ops run, their
    latencies, their calibration factors and the failures.  An operation's
    factor comes from the kernel samples taken just before and just after
    it and around its two neighbours, which spans a few seconds at most."""
    ops_run, latencies, samples, failures = [], [], [], []
    begin = time.perf_counter()
    while True:
        ops = workload.round()
        rng.shuffle(ops)
        for op in ops:
            samples.append(calibration.sample())
            run_op(op, latencies, failures, log)
            ops_run.append(op)
        if time.perf_counter() - begin >= seconds:
            samples.append(calibration.sample())
            factors = [calibration.factor(*samples[max(i - 1, 0):i + 3])
                       for i in range(len(latencies))]
            return ops_run, latencies, factors, failures


def throughput(ops, latencies) -> float:
    """Audio seconds per wall second over the distinct operations, each timed
    by the median of its repetitions, so that a slow spell of a shared
    machine during a few operations moves the figure little."""
    times: dict[str, list[float]] = {}
    audio: dict[str, float] = {}
    for op, latency in zip(ops, latencies):
        times.setdefault(op.request, []).append(latency)
        audio[op.request] = op.audio_s
    return sum(audio.values()) / sum(statistics.median(t)
                                     for t in times.values())


def measure_traced(workload, tracer, seconds, rng, log):
    """Each operation runs twice back to back, once untraced and once traced,
    alternating which goes first; returns both latency lists and the traced
    request ids."""
    plain, traced, requests, failures = [], [], [], []
    begin = time.perf_counter()
    pair = 0
    while True:
        ops = workload.round()
        rng.shuffle(ops)
        for op in ops:
            for traced_copy in ((False, True) if pair % 2 == 0
                                else (True, False)):
                if traced_copy:
                    request = f"{op.request}#{pair}"
                    requests.append(request)
                    with tracer.recording(request):
                        run_op(op, traced, failures, log)
                else:
                    run_op(op, plain, failures, log)
            pair += 1
        if time.perf_counter() - begin >= seconds:
            return plain, traced, requests, failures


def per_layer_metrics(declared, stats, setup_stats, quality, plain, traced):
    ops = max(stats.requests, 1)
    setups = max(setup_stats.requests, 1)
    values = {}
    for name in declared:
        base, _, kind = name.rpartition(".")
        if base == "quality":
            value = quality[kind]
        elif name == "trace.overhead_ratio":
            value = (sum(traced) - sum(plain)) / sum(plain)
        elif name == "trace.op_s":
            value = sum(traced) / ops
        elif name == "trace.untraced_s":
            value = (sum(traced) - stats.top_level) / ops
        elif name == "trace.spans":
            value = sum(stats.calls.values()) / ops
        elif name == "lstm.clip_rate":
            steps = stats.calls.get("lstm.clip_gradient_norm", 0)
            clipped = stats.counts.get("lstm.clip_gradient_norm.clipped", 0)
            value = clipped / steps if steps else 0.0
        elif base.startswith("synth."):
            value = setup_stats.busy.get(base, 0.0) / setups
        elif kind == "s":
            value = stats.busy.get(base, 0.0) / ops
        elif kind == "self_s":
            value = stats.self_time.get(base, 0.0) / ops
        elif kind == "calls":
            value = stats.calls.get(base, 0) / ops
        else:
            value = stats.counts.get(name, 0.0) / ops
        values[name] = float(value)
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    process_start = time.perf_counter()
    for var in THREAD_VARS:
        os.environ[var] = "1"
    declaration = load_declaration()
    names = [w["name"] for w in declaration["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; expected one of {names}",
              file=sys.stderr)
        return 2
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "binsed", "__init__.py")):
        print(f"binsed sources not found under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    load_before = os.getloadavg()
    import numpy  # imports here count toward set-up time
    import tracing
    import workloads
    import_s = time.perf_counter() - process_start

    def log(message):
        print(message, file=sys.stderr, flush=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    tracer = tracing.Tracer() if args.trace else None
    calibration = Calibration() if workload.calibrated else Uncalibrated()
    work_root = os.path.join(ROOT, ".bench_work",
                             f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    try:
        setup_times, setup_factors = [], []
        for index in range(1 if args.smoke else SETUP_REPEATS):
            work_dir = os.path.join(work_root, f"setup{index}")
            setup_factors.append(calibration.factor(calibration.sample()))
            start = time.perf_counter()
            with (tracer.recording(f"setup{index}") if tracer is not None
                  else contextlib.nullcontext()):
                workload.setup(work_dir)
            setup_times.append(time.perf_counter() - start)
            if index:
                shutil.rmtree(os.path.join(work_root, f"setup{index - 1}"))
        rng = random.Random(args.seed)
        if tracer is None:
            ops_run, latencies, factors, failures = measure(
                workload, args.seconds, rng, calibration, log)
            attempted = len(latencies)
        else:
            plain, latencies, requests, failures = measure_traced(
                workload, tracer, args.seconds, rng, log)
            attempted = len(plain) + len(latencies)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when other runs use it
            os.rmdir(os.path.dirname(work_root))

    quality = workload.quality.values()
    if tracer is None:
        scaled = [t * f for t, f in zip(latencies, factors)]
        metrics = {
            "setup_s": statistics.median(
                (import_s + t) * f for t, f in zip(setup_times, setup_factors)),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "audio_s_per_s": throughput(ops_run, scaled),
            "op_p50_ms": 1000.0 * float(numpy.percentile(scaled, 50)),
            "op_p90_ms": 1000.0 * float(numpy.percentile(scaled, 90)),
        }
        declared = declaration["end_to_end"]
    else:
        stats = tracing.layer_stats(tracer, requests)
        setup_stats = tracing.layer_stats(
            tracer, [f"setup{i}" for i in range(len(setup_times))])
        if stats.nesting_violations:
            failures.append("trace")
            log(f"{stats.nesting_violations} spans whose children outlast "
                "them")
        declared = declaration["per_layer"]
        metrics = per_layer_metrics([m["name"] for m in declared], stats,
                                    setup_stats, quality, plain, latencies)
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        log(f"metrics computed {sorted(set(metrics) ^ set(units))} do not "
            "match BENCHMARK.json")
        return 3

    env = environment(args.seed)
    env["loadavg_before"] = load_before
    env["loadavg_after"] = os.getloadavg()
    correct = not failures
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = dict(result, workload=args.workload, smoke=args.smoke,
                  environment=env, quality=quality, import_s=import_s,
                  setup_times_s=setup_times, setup_factors=setup_factors,
                  latencies_s=latencies,
                  factors=factors if tracer is None else None)
    with open(os.path.join(out_dir, f"{stem}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, f"{stem}-spans.json"))

    print("environment " + json.dumps(env))
    print("quality " + json.dumps(quality))
    print(f"operations {attempted} attempted, {len(failures)} failed")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
