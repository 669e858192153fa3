#!/usr/bin/env python3
"""Benchmark of the lightwalk command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload trajectory --seed 1 --seconds 30 --trace 0

One process runs one workload as a closed loop: one client, one op at a
time, each op a call of ``lightwalk.cli.run`` on argv drawn from ``--seed``,
its output checked against the frozen reference model (``reference.py``).
Every end-to-end time is scaled to a reference machine speed by
``speed.SpeedMeter``, so that stretches of a loaded shared machine cancel
out; unscaled times are printed alongside. Ops run until their summed wall
time reaches ``--seconds``.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
ops untraced for half the time and traced for the other half, and reports
the per-layer metrics of the traced half (times unscaled, per op, and
including the speed meter's samples, under 1% of the time); the spans go
to ``.perfbench_run/trace-<workload>-seed<seed>.json``.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

import numpy

import spans
from speed import SpeedMeter
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".perfbench_run"
SETUP_REPEATS = 11
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
SHOWN_FAILURES = 3

# Gated end-to-end metrics. wall_s (the timed phase) and fail_ratio are
# printed but not gated: the phase length is set by --seconds, and failures
# are reported as "failed" and make the run incorrect.
END_TO_END = (
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("work_per_s", "work/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# Set-up as a user pays it: import in a fresh process, then the first call.
# Then the same process probes the machine's slowness with the scalar kernel,
# since import is scalar Python work.
_SETUP_CODE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import lightwalk.cli
code, _ = lightwalk.cli.run(sys.argv[3:])
seconds = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from speed import slowness_now
print(seconds, slowness_now("scalar", 20))
sys.exit(code)
"""


class Phase(NamedTuple):
    wall: list[float]  # wall seconds of each op
    scaled: list[float]  # the same at the reference machine speed
    cpu: list[float]  # process CPU seconds of each op, all threads
    failed: int
    work: int
    lines: int
    bytes_out: int


def environment() -> dict:
    """What a number depends on besides the code, so results from different
    machines are never compared."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.machine())
    except OSError:
        cpu = platform.machine()
    threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {name: os.environ.get(name, "unset") for name in threads},
    }


def measure_setup(warm_argv: list[str]) -> list[float]:
    """Set-up seconds of fresh processes, at the reference machine speed."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE), *warm_argv],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up process exited {done.returncode}: {done.stderr.strip()}")
        seconds, slowness = map(float, done.stdout.split()[-2:])
        samples.append(seconds / slowness)
    return samples


def _call(cli, calls: list[list[str]]) -> tuple[list[tuple[int, str]], str | None, float]:
    """Results of the op's calls, the traceback if one raised, and CPU seconds."""
    results, error, cpu_start = [], None, time.process_time()
    try:
        for argv in calls:
            results.append(cli.run(argv))  # looked up per call, so tracing sees it
    except Exception:  # an op that raises is a failed op; the run goes on
        error = traceback.format_exc()
    return results, error, time.process_time() - cpu_start


def run_phase(cli, meter: SpeedMeter, workload, rng, seconds: float, traced: bool) -> Phase:
    """Closed loop of ops until their wall times sum to ``seconds``."""
    phase = Phase([], [], [], 0, 0, 0, 0)
    failed = work = lines = bytes_out = 0
    while sum(phase.wall) < seconds:
        op = workload.make_op(rng, traced)
        (results, error, cpu), wall, slowness = meter.timed(lambda: _call(cli, op.calls))
        phase.cpu.append(cpu)
        phase.wall.append(wall)
        phase.scaled.append(wall / slowness)
        if error is None:
            try:
                error = op.check(results)
            except (ValueError, IndexError) as exc:  # output that does not parse
                error = f"malformed output: {exc}"
        if error:
            failed += 1
            if failed <= SHOWN_FAILURES:
                print(f"op {len(phase.wall)} failed: {error}", file=sys.stderr)
        work += op.work
        lines += sum(document.count("\n") for _, document in results)
        bytes_out += sum(len(document.encode()) for _, document in results)
    return phase._replace(failed=failed, work=work, lines=lines, bytes_out=bytes_out)


def tail(durations: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, or a quarter of
    the samples when the run holds too few ops for that: the maximum of a
    handful of ops says more about the machine than about the program."""
    ordered = sorted(durations)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n // 4)
    return ordered[n - beyond - 1], f"p{100.0 * (n - beyond) / n:.1f} of {n} ops, {beyond} beyond"


def end_to_end(cli, meter: SpeedMeter, workload, seed: int, seconds: float):
    setup = measure_setup(workload.warm_argv())
    cli.run(workload.warm_argv())  # lazy first-call set-up, outside the timed phase
    with meter:
        phase = run_phase(cli, meter, workload, numpy.random.default_rng(seed), seconds, False)
    wall = sum(phase.scaled)
    tail_s, tail_note = tail(phase.scaled)
    metrics = {
        "op_p50_s": statistics.median(phase.scaled),
        "op_tail_s": tail_s,
        "work_per_s": phase.work / wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "op_p50_s": f"unscaled {statistics.median(phase.wall):.6g} s",
        "op_tail_s": tail_note,
        "work_per_s": f"{workload.work_unit}/s",
        "setup_s": f"median of {SETUP_REPEATS} fresh processes: import lightwalk.cli + first call",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return phase, metrics, notes


def per_layer(package, meter: SpeedMeter, workload, seed: int, seconds: float):
    cli = package.cli
    cli.run(workload.warm_argv())
    recorder = spans.Recorder()
    with meter:
        plain = run_phase(cli, meter, workload, numpy.random.default_rng(seed), seconds / 2,
                          False)
    with meter, spans.installed(recorder, package):
        traced = run_phase(cli, meter, workload, numpy.random.default_rng(seed), seconds / 2,
                           True)
    ops = len(traced.wall)
    metrics = spans.layer_metrics(recorder, ops)
    metrics["cli.rows_out"] = traced.lines / ops
    metrics["cli.bytes_out"] = traced.bytes_out / ops
    metrics["process.cpu_s"] = sum(plain.cpu) / len(plain.cpu)
    metrics["process.cpu_per_wall"] = sum(plain.cpu) / sum(plain.wall)
    # Both phases draw the same inputs in the same order; compare op by op.
    metrics["trace.overhead_s"] = statistics.median(
        t - u for t, u in zip(traced.scaled, plain.scaled))
    metrics = {name: metrics[name] for name, _ in spans.LAYER_METRICS}
    notes = {name: "computed" for name in spans.COMPUTED}
    notes["process.cpu_s"] = f"per untraced op; {len(plain.wall)} untraced, {ops} traced ops"
    notes["trace.overhead_s"] = ("median over ops of traced minus untraced time, "
                                 "at the reference speed")
    errors = recorder.counts["trace.tally_errors"]
    if errors:
        notes["trace.overhead_s"] += f"; {errors} counts not computed"

    path = RUN_DIR / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "ops": ops,
        "spans": recorder.spans, "counts": dict(recorder.counts), "metrics": metrics,
    }), encoding="utf-8")
    print(f"spans: {len(recorder.spans)} written to {path.relative_to(ROOT)}")

    def per_op(items):
        return ", ".join(f"{label} {seconds / ops:.4g} s" for label, seconds in items)

    print(f"dominant self times per op (traced op {sum(traced.wall) / ops:.4g} s): "
          f"{per_op(recorder.dominant())}")
    _, whole, _ = recorder.self_times()
    checks = [label for label in whole if label.startswith("validation.")]
    if checks:
        heaviest = max(checks, key=whole.get)
        print(f"within {heaviest} ({whole[heaviest] / ops:.4g} s): "
              f"{per_op(recorder.dominant(heaviest))}")
    both = Phase(plain.wall + traced.wall, plain.scaled + traced.scaled, plain.cpu + traced.cpu,
                 plain.failed + traced.failed, 0, 0, 0)
    return both, metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lightwalk" / "__init__.py").is_file():
        print(f"perfbench: no lightwalk package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lightwalk.cli

    if not Path(lightwalk.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: lightwalk imported from {lightwalk.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    RUN_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](lightwalk, RUN_DIR)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if workload.name == "acceptance":
        print("note: acceptance inputs are fixed; the seed has no effect")
    meter = SpeedMeter(workload.probe)
    if args.trace:
        phase, metrics, notes = per_layer(lightwalk, meter, workload, args.seed, args.seconds)
        units = dict(spans.LAYER_METRICS)
    else:
        phase, metrics, notes = end_to_end(lightwalk.cli, meter, workload, args.seed,
                                           args.seconds)
        units = dict(END_TO_END)
    slowness = meter.slowness()
    print(f"machine slowness ({workload.probe} probe): median {statistics.median(slowness):.3g}, "
          f"range {min(slowness):.3g}-{max(slowness):.3g} over {len(slowness)} samples")

    attempted = len(phase.wall)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:40s} {value:.6g} {units[name]}{note}")
    if not args.trace:
        print(f"{'wall_s':40s} {sum(phase.scaled):.6g} s  (timed phase, not gated; "
              f"unscaled {sum(phase.wall):.6g} s)")
    print(f"{'fail_ratio':40s} {phase.failed / attempted:.6g}  ({phase.failed}/{attempted} ops)")
    print(json.dumps({
        "correct": phase.failed == 0,
        "attempted": attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
