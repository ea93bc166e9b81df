#!/usr/bin/env python3
"""Measure a change against its parent at both levels and write BENCH_<pr>.json.

    python3 scripts/bench_record.py PARENT CHANGE --pr N

PARENT and CHANGE are the roots of two checkouts; the file is written to
CHANGE/BENCH_<N>.json. For each of PAIRS pairs, in both checkouts one after
the other, this runs

  - `perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0`
    for each workload W, keeping the final JSON line (correct, attempted,
    failed and the end-to-end metrics);
  - `scripts/run_full_grid.py --runs 3` serially, timing its wall seconds
    and hashing every data.csv and summary.json it writes, so the file
    shows whether both checkouts wrote the same bytes;
  - the Tier-1 suite, timing its wall seconds and keeping its summary line.

The full grid and Tier-1 also record their CPU seconds, the user + sys time
of the child from getrusage, which leaves out any time it waits for a core.

Pairs alternate which checkout runs first; ten pairs is the fewest that can
show a gain as better in nine of ten. The file holds every run and, per
checkout, the median of each figure over the pairs, the commit and the line
count of src/crhop/*.py. CRHOP_WORKERS is removed from every child's
environment, so everything runs serially. A pair takes five to six minutes
on two cores, so the whole record takes about an hour.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

WORKLOADS = ("grid", "setup-bound", "loop-bound")
PAIRS = 10
SEED = 1
SECONDS = 40.0  # BENCHMARK.json's run_seconds
GRID_RUNS = 3
TIER1 = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]


def child_env(checkout: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CRHOP_WORKERS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
    return env


def cpu_seconds() -> float:
    """User + sys CPU seconds of every child this process has waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def timed(argv: list[str], checkout: Path, ok: tuple[int, ...] = (0,)) -> tuple[float, float, str]:
    """Wall seconds, CPU seconds and standard output of one child run from the
    checkout root; any exit code outside `ok` stops the record."""
    started, cpu = time.perf_counter(), cpu_seconds()
    done = subprocess.run([sys.executable, *argv], cwd=checkout, env=child_env(checkout),
                          capture_output=True, text=True)
    seconds, cpu = time.perf_counter() - started, cpu_seconds() - cpu
    if done.returncode not in ok:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return seconds, cpu, done.stdout


def workload(checkout: Path, name: str) -> dict:
    argv = ["perfbench/run.py", "--workload", name, "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", "0"]
    _, _, out = timed(argv, checkout)
    return json.loads(out.strip().splitlines()[-1])


def full_grid(checkout: Path) -> dict:
    with tempfile.TemporaryDirectory() as out:
        seconds, cpu, _ = timed(["scripts/run_full_grid.py", "--runs", str(GRID_RUNS), "--out", out], checkout)
        digest = hashlib.sha256()
        for path in sorted(Path(out).rglob("*")):
            if path.name in ("data.csv", "summary.json"):
                digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    return {"seconds": seconds, "cpu_seconds": cpu, "outputs_sha256": digest.hexdigest()}


def tier1(checkout: Path) -> dict:
    seconds, cpu, out = timed(TIER1, checkout, ok=(0, 1))  # pytest exits 1 when a test fails; the summary says so
    return {"seconds": seconds, "cpu_seconds": cpu, "summary": out.strip().splitlines()[-1]}


def measure_pair(sides: dict, order: tuple) -> dict:
    """One run of every figure per checkout. Both checkouts run each task
    back to back, so the host's drift over minutes does not fall between them."""
    out = {side: {"workloads": {}} for side in sides}
    for name in WORKLOADS:
        for side in order:
            out[side]["workloads"][name] = workload(sides[side], name)
    for key, task in (("full_grid", full_grid), ("tier1", tier1)):
        for side in order:
            out[side][key] = task(sides[side])
    return out


def medians(runs: list[dict]) -> dict:
    """Median of every figure over one checkout's runs; failures are summed."""
    out = {}
    for name in WORKLOADS:
        results = [r["workloads"][name] for r in runs]
        out[name] = {metric: statistics.median(x["metrics"][metric]["value"] for x in results)
                     for metric in results[0]["metrics"]}
        out[name].update(attempted=sum(x["attempted"] for x in results),
                         failed=sum(x["failed"] for x in results),
                         correct=all(x["correct"] for x in results))
    out["full_grid_seconds"] = statistics.median(r["full_grid"]["seconds"] for r in runs)
    out["full_grid_cpu_seconds"] = statistics.median(r["full_grid"]["cpu_seconds"] for r in runs)
    out["full_grid_outputs_sha256"] = sorted({r["full_grid"]["outputs_sha256"] for r in runs})
    out["tier1_seconds"] = statistics.median(r["tier1"]["seconds"] for r in runs)
    out["tier1_cpu_seconds"] = statistics.median(r["tier1"]["cpu_seconds"] for r in runs)
    out["tier1_summary"] = sorted({r["tier1"]["summary"] for r in runs})
    return out


def revision(checkout: Path) -> dict:
    """Commit of a checkout, whether its tracked files differ from it, and the
    line count of its src/crhop/*.py (ROADMAP aim 2)."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True).stdout.strip()
    src_lines = sum(len(path.read_bytes().splitlines()) for path in (checkout / "src" / "crhop").glob("*.py"))
    return {"commit": git("rev-parse", "HEAD"), "modified": bool(git("status", "--porcelain", "--untracked-files=no")),
            "src_lines": src_lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pr", type=int, required=True)
    args = parser.parse_args(argv)

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {side: [] for side in sides}
    for pair in range(PAIRS):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side, result in measure_pair(sides, order).items():
            runs[side].append(result)
        print(f"pair {pair + 1}/{PAIRS} measured", file=sys.stderr, flush=True)

    record = {
        "pr": args.pr,
        "machine": {"python": platform.python_version(), "numpy": metadata.version("numpy"),
                    "arch": platform.machine(), "cpus": os.cpu_count()},
        "settings": {"seed": SEED, "seconds": SECONDS, "pairs": PAIRS,
                     "full_grid_runs_per_cell": GRID_RUNS, "tier1": ["python", *TIER1]},
        "checkouts": {side: revision(path) for side, path in sides.items()},
        "median": {side: medians(side_runs) for side, side_runs in runs.items()},
        "runs": runs,
    }
    out = sides["change"] / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
