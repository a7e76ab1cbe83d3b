#!/usr/bin/env python3
"""Run one workload of the somgmm benchmark and print its metrics.

Usage (from the repository root):

    python3 bench/run.py --workload fourcluster --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout the script sits in.
Set-up runs several times and its median is reported.  With ``--trace 0``
the workload is measured untraced for ``--seconds`` and the end-to-end
metrics of ``BENCHMARK.json`` are printed; with ``--trace 1`` half the time
runs untraced and half with every public somgmm function wrapped in a span,
and the per-layer metrics are printed, each averaged per workload operation.

The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  The line before it records the environment and the per-
operation samples; ``bench/compare.py`` reads both.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# One BLAS thread: the per-step kernels are single-threaded numpy, and on a
# small shared machine a spinning BLAS pool only adds run-to-run spread.
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def load_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def import_package():
    """Import somgmm from this checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "somgmm" / "__init__.py").is_file():
        sys.exit(f"bench: no somgmm package under {SRC}")
    for var in BLAS_ENV:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import somgmm
    if Path(somgmm.__file__).resolve().parent != (SRC / "somgmm").resolve():
        sys.exit(f"bench: imported somgmm from {somgmm.__file__}, not {SRC}")
    return somgmm


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment():
    import numpy
    import scipy
    import somgmm
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # older numpy has no dict form of its config
        blas = "unknown"
    return {
        "somgmm.BACKEND": somgmm.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(os.environ.get(BLAS_ENV[0], "0")),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seconds, tracer=None):
    """Run operations until the next one would end past ``seconds`` of wall
    time; at least one runs.  Returns the samples and the peak RSS after the
    first operation, which later ones can only raise through heap
    fragmentation, varying with how many of them fit in the time."""
    op = workload.op if tracer is None else tracer.wrap(workload.op, "bench.op")
    samples = []
    start = time.perf_counter()
    while True:
        sample = op(len(samples))
        samples.append(sample)
        if len(samples) == 1:
            first_peak = peak_rss_mb()
        if time.perf_counter() - start + raw_seconds(sample) > seconds:
            return samples, first_peak


def raw_seconds(sample):
    """Uncorrected wall time of an operation (a mark's first field)."""
    return sum(end[0] - begin[0] for begin, end in sample.wall)


def wall_seconds(clock, sample):
    return sum(clock.seconds(begin, end) for begin, end in sample.wall)


def median_rate(clock, name, samples, setup_rates):
    marks = [s.rates[name] for s in samples if name in s.rates]
    if not marks:
        marks = [r[name] for r in setup_rates if name in r]
    if not marks:
        raise KeyError(f"workload measures no {name}")
    return statistics.median(units / clock.seconds(begin, end)
                             for units, begin, end in marks)


def end_to_end(spec, clock, samples, setup_times, setup_rates, first_peak):
    values = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            v = statistics.median(setup_times)
        elif name == "wall_s":
            v = statistics.median(wall_seconds(clock, s) for s in samples)
        elif name == "peak_rss_mb":
            v = first_peak
        else:
            v = median_rate(clock, name, samples, setup_rates)
        values[name] = {"value": v, "unit": m["unit"]}
    return values


def per_layer(spec, summary, counters, n_ops, extra):
    """Per-layer metrics from the trace, each divided by the traced
    operation count.  Names are ``<span>.<stat>``; ``calls`` and ``self_s``
    come from the spans, other stats from the counters."""
    values = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in extra:
            v = extra[name]
        else:
            span, stat = name.rsplit(".", 1)
            if stat in ("calls", "self_s"):
                v = summary.get(span, {}).get(stat, 0) / n_ops
            elif stat == "per_step":
                steps = summary.get("trainer.sgd_step", {}).get("calls", 0)
                calls = summary.get(span, {}).get("calls", 0)
                v = calls / steps if steps else 0.0
            else:
                v = counters.get(name, 0) / n_ops
        values[name] = {"value": v, "unit": m["unit"]}
    return values


def cross_check(workload, summary, counters, n_ops):
    """Problems where the trace disagrees with the workload's arithmetic."""
    problems = []
    for span, want in workload.expected_calls(n_ops).items():
        got = summary.get(span, {}).get("calls", 0)
        if got != want:
            problems.append(f"{span}.calls = {got}, expected {want}")
    for name, want in workload.counted_work(n_ops).items():
        if counters.get(name, 0) != want:
            problems.append(f"{name} = {counters.get(name, 0)}, expected {want}")
    return problems


def run(name, seed, seconds, trace, sizes, trace_out=None):
    """Set up and measure one workload; return (result, record)."""
    from clock import CalibratedClock, PlainClock
    from tracer import Instrumentation, Tracer
    from workloads import WORKLOADS

    spec = load_spec()
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        workload = WORKLOADS[name](sizes, seed, workdir)
        # Calibration would run inside the spans, so the traced run times
        # with the plain clock, both halves alike.
        clock = workload.clock = PlainClock() if trace else CalibratedClock()
        setup_marks, setup_rates = [], []
        with clock:
            for _ in range(sizes.setups):
                start = clock.now()
                workload.setup()
                setup_marks.append((start, clock.now()))
                setup_rates.append(workload.setup_rates)
            samples, first_peak = measure(workload, seconds / 2 if trace else seconds)
        setup_times = [clock.seconds(a, b) for a, b in setup_marks]

        if not trace:
            metrics = end_to_end(spec, clock, samples, setup_times, setup_rates,
                                 first_peak)
            traced = []
        else:
            tracer = Tracer()
            with Instrumentation(tracer):
                traced, _ = measure(workload, seconds / 2, tracer)
            summary = tracer.summary()
            n = len(traced)
            for problem in cross_check(workload, summary, tracer.counters, n):
                workload.ledger.fail("trace-cross-check", problem)
            overhead = (statistics.median(wall_seconds(clock, s) for s in traced)
                        - statistics.median(wall_seconds(clock, s) for s in samples))
            metrics = per_layer(spec, summary, tracer.counters, n, {
                "trace.overhead_s": overhead,
                "ops_attempted": workload.ledger.attempted,
                "ops_failed": workload.ledger.failed,
            })
            if trace_out:
                tracer.write(trace_out)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ledger = workload.ledger
    for message in ledger.messages:
        print(f"bench: {name}: {message}", file=sys.stderr)
    result = {
        "correct": not ledger.hard_failure,
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": metrics,
    }
    record = {
        "env": environment(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "setup_s": setup_times,
        "wall_s": [wall_seconds(clock, s) for s in samples],
        "raw_wall_s": [raw_seconds(s) for s in samples],
        "end_peak_rss_mb": peak_rss_mb(),
        "traced_wall_s": [wall_seconds(clock, s) for s in traced],
        "failures": ledger.messages,
    }
    return result, record


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None,
                   help="with --trace 1, also write every span here as JSON lines")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    import_package()
    from workloads import FULL, WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    result, record = run(args.workload, args.seed, args.seconds, args.trace,
                         FULL, args.trace_out)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
