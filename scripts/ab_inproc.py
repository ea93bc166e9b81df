#!/usr/bin/env python3
"""A/B of two checkouts inside one interpreter, on the benchmark's operations.

    python3 scripts/ab_inproc.py PARENT CHANGE --workload W [--seed 1] [--seconds 40]

PARENT and CHANGE are the roots of two checkouts. Their timings from separate
processes drift with the host from one hour to the next, which can hide a
change of a few percent. Here one process holds both trees: each
checkout's src/crhop is imported under a package name of its own
(crhop_parent, crhop_change), and before each block of operations the name
`crhop` is pointed at one of them, so that CHANGE's perfbench/workloads.py
runs the same block once on each. Blocks alternate which tree runs first, and
each block's CPU time is taken per tree.

The tree imported first can run faster or slower for reasons of its own, so
the comparison runs twice, in two child processes: PARENT imported first,
then CHANGE imported first, each for --seconds of CPU time and at least
MIN_BLOCKS blocks. A grid block is one 336-cell sweep per tree, so a short
--seconds alone leaves too few grid blocks to resolve a few percent; the
other workloads pass MIN_BLOCKS within a few seconds. The script prints
each order's geometric-mean CPU-time ratio CHANGE/PARENT over its blocks and
the geometric mean over both orders (below 1 means CHANGE is faster; its
inverse is the runs/s factor). It exits 1 if any operation's record or
output file differs between the trees, or if an operation fails on either.
CRHOP_WORKERS is removed, so every sweep runs serially.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
MIN_BLOCKS = 60  # per load order; see the module docstring


def load(side: str, root: Path):
    """Import root/src/crhop as the package crhop_<side>, with the submodules perfbench reaches."""
    name, package = f"crhop_{side}", root / "src" / "crhop"
    spec = importlib.util.spec_from_file_location(name, package / "__init__.py",
                                                  submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    for sub in ("engine", "experiment"):
        importlib.import_module(f"{name}.{sub}")
    return module


def activate(side: str) -> None:
    """Point `crhop` and its submodules at crhop_<side>'s modules."""
    for key in [k for k in sys.modules if k == "crhop" or k.startswith("crhop.")]:
        del sys.modules[key]
    prefix = f"crhop_{side}"
    for key, module in list(sys.modules.items()):
        if key == prefix or key.startswith(prefix + "."):
            sys.modules["crhop" + key[len(prefix):]] = module


def child(order: tuple[str, str], roots: dict, workload: str, seed: int, seconds: float) -> dict:
    """Blocks 0, 1, ... of the workload on both trees, loaded in `order`, for
    `seconds` of CPU time and at least MIN_BLOCKS blocks."""
    for side in order:
        load(side, roots[side])
    sys.path.insert(0, str(roots["change"] / "perfbench"))
    import workloads

    workloads.serial_environment()
    runs = {}
    for side in order:
        activate(side)
        runs[side] = workloads.WORKLOADS[workload](seed, workloads.SIZES[workload])
        runs[side].warm_up()
    ratios, problems, spent, block = [], [], 0.0, 0
    while (spent < seconds or block < MIN_BLOCKS) and not problems:
        cpu, passes = {}, {}
        for side in order if block % 2 == 0 else order[::-1]:
            activate(side)
            t0 = time.process_time()
            passes[side] = runs[side].run_pass(block)
            cpu[side] = time.process_time() - t0
        for side, p in passes.items():
            problems += [f"block {block} {side}: {problem}" for problem in p.problems]
        a, b = passes["parent"], passes["change"]
        for key in sorted(set(a.digests) | set(b.digests) | set(a.files) | set(b.files)):
            if a.digests.get(key, a.files.get(key)) != b.digests.get(key, b.files.get(key)):
                problems.append(f"block {block} {key}: records differ")
        ratios.append(cpu["change"] / cpu["parent"])
        spent += cpu["parent"] + cpu["change"]
        block += 1
    return {"order": list(order), "ratios": ratios, "problems": problems[:20]}


def geomean(values: list[float]) -> float:
    return math.exp(sum(map(math.log, values)) / len(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=("grid", "setup-bound", "loop-bound"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0, help="CPU seconds of blocks per load order")
    parser.add_argument("--order", choices=("parent-first", "change-first"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    if args.order:  # one load order, in this process
        order = SIDES if args.order == "parent-first" else SIDES[::-1]
        print(json.dumps(child(order, roots, args.workload, args.seed, args.seconds)))
        return 0

    env = {k: v for k, v in os.environ.items() if k != "CRHOP_WORKERS"}
    results = []
    for order in ("parent-first", "change-first"):
        argv = [sys.executable, __file__, str(roots["parent"]), str(roots["change"]), "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--order", order]
        done = subprocess.run(argv, env=env, capture_output=True, text=True)
        if done.returncode:
            sys.exit(f"{order} run exited {done.returncode}:\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
        ratios = results[-1]["ratios"]
        print(f"{order}: {len(ratios)} blocks, CPU time change/parent x{geomean(ratios):.4f}")
    ratio = geomean([r for result in results for r in result["ratios"]])
    print(f"{args.workload}: CPU time change/parent x{ratio:.4f} (runs/s x{1 / ratio:.4f})")
    problems = [p for result in results for p in result["problems"]]
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
