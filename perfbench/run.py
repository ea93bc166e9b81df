#!/usr/bin/env python3
"""crhop benchmark: one workload on one seed, end to end or layer by layer.

    python3 perfbench/run.py --workload {grid,setup-bound,loop-bound} \\
        [--seed 1] [--seconds 40] [--trace 0|1]

Run from the root of a checkout; crhop is imported from its src/. Every run
is serial (CRHOP_WORKERS is removed from the environment). A workload is a
sequence of blocks of operations built from the seed (workloads.py); each
block is checked against golden.json on seeds 1 and 2.

--trace 0 warms up, then runs blocks 0, 1, 2, ... while the next one still
fits in --seconds, and reports the end-to-end metrics over all of them:

  runs_per_s   engine.run calls over the host seconds of the blocks (for the
               grid, the whole run_sweep calls, with their CSV and JSON files)
  run_ms.p50,  percentiles of engine.run latency over every call; below 200
  run_ms.p95   calls, "p95" is the highest percentile with ten calls beyond
               it (the printed line says which)
  setup_s      median over fresh interpreters of the time from process start
               to the first timed call: imports and building the inputs
  peak_rss_mb  peak resident set size of the measuring process

Every timed operation has inputs of its own, so a figure rests on thousands
of inputs rather than on repeats of a few, and the inputs of one seed cost
nearly what those of any other seed cost. What still varies is the host: on
a shared host the speed of interpreter-bound code drifts by a third or more
from one minute to the next, which no statistic over one run can undo. So
after every engine.run call the benchmark also times workloads.
reference_work(), fixed pure-Python code that shares nothing with crhop,
and the four timings above are reported at reference speed: measured times
divided, and runs_per_s multiplied, by the host slowdown, the mean time of
reference_work() over REFERENCE_SECONDS. The reference calls are timed
apart and excluded from every measured figure; the figures in host time
are printed beside the reported ones. A change to crhop moves the reported
figures as it moves host time; the host's drift moves both crhop and the
reference and cancels out.

--trace 1 runs one untraced and one traced pass over block 0, without the
reference calls, and reports the per-layer metrics of tracing.py in host
time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it print every metric with
its unit, the golden-check status and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import golden
import tracing
import workloads

SETUP_PROBES = 9
# Reference speed: about what one workloads.reference_work() call takes on an
# Intel Xeon vCPU of a shared 2-vCPU host under Python 3.11 (1.2-2.6 ms were
# seen there). It only sets the scale of the reported timings.
REFERENCE_SECONDS = 0.002
OUT_DIR = workloads.HERE / "out"

END_TO_END_UNITS = {
    "runs_per_s": "1/s", "run_ms.p50": "ms", "run_ms.p95": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=golden.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one start-up sample for setup_s
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def probe_setup(name: str, seed: int) -> None:
    """Do what a measured process does before its first timed call, then print the clock."""
    workloads.import_crhop()
    workloads.WORKLOADS[name](seed, workloads.SIZES[name])
    print(repr(time.monotonic()))


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    """Start-up times of `probes` fresh interpreters (CLOCK_MONOTONIC is system-wide)."""
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--probe-setup"],
            capture_output=True, text=True, timeout=120, cwd=workloads.ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def tail_percentile(n: int) -> float:
    """95, or with fewer than 200 samples the highest percentile with ten samples beyond it."""
    return 95.0 if n >= 200 else max(0.0, 100.0 * (n - 10) / n)


def environment(load_start) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "loadavg_start": [round(x, 2) for x in load_start],
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "serial": "CRHOP_WORKERS" not in os.environ,
    }


class Tally:
    """Operations attempted and failed over the passes of one invocation."""

    def __init__(self, name: str, seed: int, size: int):
        self.key = (name, seed, size)
        self.golden = golden.load()
        self.status = "unchecked"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.broken: list[str] = []  # faults of the whole invocation rather than of one operation

    def add(self, block: int, p, reference=None) -> None:
        """Count one pass over `block`; `reference`, when given, is a pass it must reproduce exactly."""
        status, bad = golden.check(self.golden, *self.key, block, p)
        if status == "checked":
            self.status = status
        if reference is not None:
            bad |= golden.mismatched_ops(reference, p)
        bad |= p.failed
        self.attempted += p.attempted
        self.failed += len(bad)
        self.problems.extend(p.problems)
        self.problems.extend(f"block {block} {k}: digest differs" for k in sorted(bad - p.failed)[:5])


def end_to_end(crhop, name, seed, seconds, size, probes):
    # Start-up probes are spread over the invocation, between blocks, so that
    # their median does not hang on one moment of the host's load.
    setup = measure_setup(name, seed, probes - probes // 2)
    spread_out = probes // 2  # taken at even steps of the timed seconds
    wl = workloads.WORKLOADS[name](seed, size)
    wl.warm_up()
    tally = Tally(name, seed, size)
    latencies: list[float] = []
    gauges: list[float] = []
    spent = 0.0  # host seconds of the blocks, without the gauge
    block = 0
    started = time.perf_counter()
    while True:
        block_started = time.perf_counter()
        p = wl.run_pass(block, gauged=True)
        block_wall = time.perf_counter() - block_started
        tally.add(block, p)
        latencies.extend(p.run_latencies.values())
        gauges.extend(p.gauge_seconds)
        spent += p.seconds
        block += 1
        elapsed = time.perf_counter() - started
        while len(setup) < probes and elapsed >= seconds * (len(setup) - probes + spread_out + 1) / (spread_out + 1):
            setup += measure_setup(name, seed, 1)
        if time.perf_counter() - started + block_wall > seconds:
            break
    setup += measure_setup(name, seed, max(0, probes - len(setup)))
    latencies.sort()
    tail = tail_percentile(len(latencies))
    measured = {
        "runs_per_s": len(latencies) / spent,
        "run_ms.p50": nearest_rank(latencies, 50.0) * 1e3,
        "run_ms.p95": nearest_rank(latencies, tail) * 1e3,
        "setup_s": statistics.median(setup),
    }
    # Host seconds per reference second: above 1 when the host runs slower
    # than the reference speed.
    slowdown = statistics.mean(gauges) / REFERENCE_SECONDS
    metrics = {
        "runs_per_s": measured["runs_per_s"] * slowdown,
        "run_ms.p50": measured["run_ms.p50"] / slowdown,
        "run_ms.p95": measured["run_ms.p95"] / slowdown,
        "setup_s": measured["setup_s"] / slowdown,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "runs_per_s": f"{len(latencies)} runs in {block} blocks, {spent:.4g} host s",
        "run_ms.p50": f"n={len(latencies)} runs",
        "run_ms.p95": f"n={len(latencies)} runs; nearest-rank p{tail:g}",
        "setup_s": f"median of {len(setup)} start-ups, host s min {min(setup):.4f} max {max(setup):.4f}",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    for k, v in measured.items():
        notes[k] += f"; {v:.6g} {END_TO_END_UNITS[k]} in host time"
    lines = [
        f"host slowdown {slowdown:.4f}: mean of {len(gauges)} reference_work() calls "
        f"{statistics.mean(gauges) * 1e3:.4f} ms against {REFERENCE_SECONDS * 1e3:g} ms",
    ]
    return tally, {k: (v, END_TO_END_UNITS[k], notes[k]) for k, v in metrics.items()}, lines


def per_layer(crhop, name, seed, size):
    wl = workloads.WORKLOADS[name](seed, size)
    wl.warm_up()
    tally = Tally(name, seed, size)
    untraced = wl.run_pass(0)
    tally.add(0, untraced)
    with tracing.Tracer(crhop) as tracer:
        traced = wl.run_pass(0)
    tally.add(0, traced, reference=untraced)
    values = tracing.layer_metrics(tracer, traced, untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
    spans_file.write_text(json.dumps({"stats": tracer.stats, "spans": tracer.spans}) + "\n", "utf-8")
    metrics = {
        m.name: (values[m.name], m.unit, f"moves {m.moves} on {m.on}; not on {m.not_on}")
        for m in tracing.LAYER_METRICS
    }
    if not tracer.restored:
        tally.broken.append("a wrapped attribute was not restored after the traced pass")
    share = tracer.seconds("engine.build_environment") / max(tracer.seconds("engine.run"), 1e-12)
    return tally, metrics, [
        f"build_environment share of engine.run time: {share:.3f}",
        f"spans and per-run counts: {spans_file.relative_to(workloads.ROOT)}",
    ]


def measure(name: str, seed: int, seconds: float, trace: int, size: int | None = None,
            probes: int = SETUP_PROBES) -> tuple[dict, list[str]]:
    """Result object and the human-readable lines that precede it."""
    load_start = os.getloadavg()
    crhop = workloads.import_crhop()
    size = workloads.SIZES[name] if size is None else size
    if trace:
        tally, metrics, notes = per_layer(crhop, name, seed, size)
    else:
        tally, metrics, notes = end_to_end(crhop, name, seed, seconds, size, probes)
    lines = [f"workload {name} seed {seed} trace {trace}: golden digests {tally.status}"]
    lines += [f"  {p}" for p in (tally.broken + tally.problems)[:20]] + notes
    width = max(len(k) for k in metrics)
    lines += [f"{k:<{width}} = {v:.6g} {unit}  ({note})" for k, (v, unit, note) in metrics.items()]
    ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"{'failed_ratio':<{width}} = {tally.failed}/{tally.attempted} = {ratio:.6g}")
    lines.append("env " + json.dumps(environment(load_start), sort_keys=True))
    result = {
        "correct": not tally.broken and tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in metrics.items()},
    }
    return result, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads.serial_environment()
    try:
        if args.probe_setup:
            probe_setup(args.workload, args.seed)
            return 0
        result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
    except workloads.CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
