"""Benchmark of the intlegendre package, driven from outside through its
public functions and ``cli.main``.

    python3 perfbench/run.py --workload verify-deep --seed 1 --seconds 30 --trace 0

One process, one load thread, closed loop: the next operation starts when the
last one returns. An operation's time is the CPU time it takes, in this
process (every thread) and in the child processes it waits for. On the
workloads of many short operations, these times are scaled to a reference
machine speed, measured by a fixed reference job timed before every
operation (see README.md). Outputs are spilled to an unnamed
temporary file between operations, and after the timed phase every output is
checked against an oracle that shares no code with the package (see
oracle.py). The last line printed is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give each
metric with its unit, the run's environment, the fail share, the tail
latency, and the unscaled and wall-clock figures.

With ``--trace 0`` the metrics are the end-to-end ones. With ``--trace 1`` the
run first executes operations untraced for half of ``--seconds``, then the
same operations again with span tracing installed, and reports per-layer
metrics plus the tracing overhead (traced operation time over untraced,
minus 1).

Why CPU time: on a shared 2-vCPU VM, an operation's wall time also holds the
time its threads wait for a virtual CPU, and that wait moved verify-deep's
median by up to 40 % from run to run; its CPU time moved by a third as much.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter, process_time, thread_time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUP_REPEATS = 7
# CPU time of one reference job at the speed the figures are scaled to: its
# median on a 2-vCPU Intel Xeon VM with Python 3.11.7 in that machine's
# fastest periods.
REFERENCE_S = 0.6e-3
REFERENCE_REPEATS = 3
# Set-up is timed once per repeat, not once per operation, so each of its
# reference readings can afford more jobs.
SETUP_REFERENCE_REPEATS = 15
# Operations on each side whose reference timings set an operation's speed.
SPEED_WINDOW = 5
# Workloads whose latencies are scaled to REFERENCE_S. verify-deep is never
# scaled: it completes three to five operations of several seconds each, which
# average the machine's speed themselves, while its few reference samples
# would catch only a handful of instants.
SCALED = ("table-requests", "float-numerics")

import workloads  # noqa: E402


def _environment(args: argparse.Namespace) -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            load = handle.read().strip()
    except OSError:
        load = "unavailable"
    return (f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} python={platform.python_version()} "
            f"nproc={len(os.sched_getaffinity(0))} loadavg={load}")


def reference_job() -> None:
    """A fixed slice of the work the package does: rational arithmetic on
    growing integers, then a float loop."""
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(1, k * k + 1)
    total = 0.0
    for i in range(3000):
        total += math.sqrt(i)


def reference_time(repeats: int = REFERENCE_REPEATS) -> float:
    """Median CPU time of a few reference jobs: how fast the machine runs
    right now."""
    times = []
    for _ in range(repeats):
        t0 = thread_time()
        reference_job()
        times.append(thread_time() - t0)
    return statistics.median(times)


def op_clock() -> float:
    """CPU seconds used so far by this process, all its threads, and the
    child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def harrell_davis_median(values: list[float]) -> float:
    """The Harrell-Davis estimate of the median: a weighted mean of the
    sorted values, the i-th weighted by the Beta((n+1)/2, (n+1)/2)
    probability of ((i-1)/n, i/n].

    The operations of a mix differ in cost by orders of magnitude, so the
    plain sample median jumps between neighbouring operations that may be
    far apart; this estimate moves smoothly with them. The Beta density is
    integrated by the midpoint rule, 16 points to an interval.
    """
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2
    points = 16
    weights = []
    for i in range(n):
        w = 0.0
        for k in range(points):
            p = (i + (k + 0.5) / points) / n
            # log density relative to its peak at 1/2, so that nothing underflows there
            w += math.exp((a - 1) * (math.log(4 * p) + math.log1p(-p)))
        weights.append(w)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def measure_setup(workload: str, seed: int, size: str) -> tuple[float, list[tuple], workloads.Runner]:
    """Median over SETUP_REPEATS of: a fresh interpreter importing the
    package's command line, plus generating this run's inputs and building
    the tables they need. Each is timed in CPU time and scaled to reference
    speed by reference jobs timed just before and after it, on every
    workload."""
    times = []
    for _ in range(SETUP_REPEATS):
        before = reference_time(SETUP_REFERENCE_REPEATS)
        t0 = op_clock()
        subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r}); "
                        "import intlegendre.cli"], check=True)
        ops = workloads.generate(workload, seed, size)
        runner = workloads.Runner(SRC, size)
        runner.prepare(ops)
        elapsed = op_clock() - t0
        speed = (before + reference_time(SETUP_REFERENCE_REPEATS)) / 2 / REFERENCE_S
        times.append(elapsed / speed)
    return statistics.median(times), ops, runner


def run_ops(runner, ops, scaled: bool, spill, seconds: float | None = None,
            count: int | None = None, tracer=None) -> tuple[list[float], list[float], list[float]]:
    """Closed loop over ops until `seconds` of wall time have passed or
    `count` ops ran.

    Each op and its output are pickled to `spill` after the op returns, so
    outputs kept for checking after the timed phase take no memory in this
    process. With `scaled`, a reference job is timed before every operation
    and once after the last. Returns (times, raw CPU times, wall times) of
    the operations; the times are the raw CPU times scaled to reference
    speed when `scaled`.
    """
    raw, wall, refs = [], [], []
    start = perf_counter()
    i = 0
    while (i < count) if count is not None else (perf_counter() - start < seconds):
        op = ops[i % len(ops)]
        if scaled:
            refs.append(reference_time())
        if tracer is not None:
            tracer.begin_op(i)
        w0, c0 = perf_counter(), op_clock()
        result = runner.run(op, i)
        raw.append(op_clock() - c0)
        wall.append(perf_counter() - w0)
        pickle.dump((op, result), spill, protocol=pickle.HIGHEST_PROTOCOL)
        del result
        i += 1
    if not scaled:
        return raw, raw, wall
    refs.append(reference_time())
    return scale_to_reference(raw, refs), raw, wall


def scale_to_reference(raw: list[float], refs: list[float]) -> list[float]:
    """Divide each latency by the machine's speed around it.

    The machine the benchmark runs on shares its CPUs, and its speed drifts
    by a third or more over tens of seconds. The median reference time over
    the SPEED_WINDOW operations on each side, against REFERENCE_S, measures
    that drift where the operation ran.
    """
    return [t / (statistics.median(refs[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 2])
                 / REFERENCE_S) for i, t in enumerate(raw)]


def count_failures(spill) -> int:
    """Operations that raised or whose output disagrees with the oracle,
    read back from `spill`. Identical outputs of one operation are checked
    once."""
    spill.seek(0)
    verdict: dict = {}
    failed = 0
    while True:
        try:
            op, result = pickle.load(spill)
        except EOFError:
            return failed
        key = (op, result)
        if key not in verdict:
            verdict[key] = workloads.check(op, result)
        failed += not verdict[key]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(setup_s: float, latencies: list[float], raw: list[float], wall: list[float],
               failed: int, rss_mb: float) -> dict:
    attempted = len(latencies)
    ms = sorted(1000.0 * t for t in latencies)
    print(f"fail_share {failed / attempted!r} (failed {failed} of {attempted})")
    # The tail is reported only where at least ten samples lie beyond it.
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[-1] if attempted > 1 else ms[0]
    beyond = sum(t > p90 for t in ms)
    shown = repr(p90) if beyond >= 10 else "n/a"
    print(f"op_p90_ms {shown} ms (samples={attempted}, beyond={beyond})")
    print(f"unscaled: ops_per_s {(attempted - failed) / sum(raw)!r} 1/s, "
          f"op_p50_ms {1000.0 * harrell_davis_median(raw)!r} ms, "
          f"machine speed {sum(latencies) / sum(raw)!r} of reference")
    print(f"wall: ops_per_s {(attempted - failed) / sum(wall)!r} 1/s, "
          f"op_p50_ms {1000.0 * harrell_davis_median(wall)!r} ms")
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric((attempted - failed) / sum(latencies), "1/s"),
        "op_p50_ms": _metric(harrell_davis_median(ms), "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }


def per_layer(runner, ops, scaled: bool, spill, seconds: float) -> tuple[dict, int]:
    from spans import Tracer

    untraced, _, wall = run_ops(runner, ops, scaled, spill, seconds=seconds / 2)
    count = len(wall)
    tracer = Tracer()
    runner.tracer = tracer
    tracer.install()
    try:
        traced, _, _ = run_ops(runner, ops, scaled, spill, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
        runner.tracer = None
    metrics = {name: _metric(value, _layer_unit(name))
               for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_share"] = _metric(sum(traced) / sum(untraced) - 1.0, "ratio")
    print(f"# spans={tracer.span_count()} ops={count}")
    return metrics, 2 * count


def _layer_unit(name: str) -> str:
    if name.endswith(".self_s"):
        return "s"
    if name.endswith(".max_coeff_bits"):
        return "bits"
    return "count"


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "intlegendre", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    print(_environment(args))
    sys.path.insert(0, SRC)

    setup_s, ops, runner = measure_setup(args.workload, args.seed, size)
    scaled = args.workload in SCALED
    # An unnamed file in the benchmark's own directory: nothing is left
    # behind, even if the run is killed.
    with tempfile.TemporaryFile(dir=HERE) as spill:
        if args.trace:
            metrics, attempted = per_layer(runner, ops, scaled, spill, args.seconds)
            failed = count_failures(spill)
        else:
            latencies, raw, wall = run_ops(runner, ops, scaled, spill, seconds=args.seconds)
            attempted = len(wall)
            # peak resident set of the timed phase, read before the oracle loads NumPy
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = count_failures(spill)
            metrics = end_to_end(setup_s, latencies, raw, wall, failed, rss_mb)
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
