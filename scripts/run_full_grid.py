#!/usr/bin/env python3
"""Run the full evaluation grid and emit per-sub-sweep CSV/JSON.

Three sub-sweeps cover the scenario families of interest:
  A. 10 channels, symmetric sets, zero and high activity
  B. 10 channels, asymmetric sets with similarity m in {9, 5, 2}
  C. 20 channels, asymmetric m in {2, 5}, including mixed activity

All four protocols and both handshakes run in every sub-sweep with paired
seeds, so any two cells differing only in protocol or handshake share their
topologies and occupancy traces. The defaults took 9–10 s on 2 cores
(Python 3.11, serial); set CRHOP_WORKERS to run a sub-sweep's environment
groups (cells that share a topology and occupancy) in parallel. Each
sub-sweep starts at most one worker per group.

Usage: python scripts/run_full_grid.py [--out results] [--runs 30] [--seed 1]
"""

import argparse
import os
import sys
import time

from crhop.errors import CrhopError
from crhop.experiment import SweepConfig, run_sweep

PROTOCOLS = ("mdmca", "mrcs", "mmca", "memca")
HANDSHAKES = ("2wh", "3wh")
NODES = (3, 10, 20)


def sub_sweeps(runs, seed):
    shared = dict(protocols=PROTOCOLS, handshakes=HANDSHAKES, nodes=NODES,
                  runs=runs, base_seed=seed, max_slots=20_000)
    return {
        "sym10": SweepConfig(channels=(10,), modes=("sym",),
                             activities=("zero", "high"), **shared),
        "asym10": SweepConfig(channels=(10,), modes=(9, 5, 2),
                              activities=("zero", "high"), **shared),
        "asym20": SweepConfig(channels=(20,), modes=(2, 5),
                              activities=("zero", "high", "mix"), **shared),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results")
    parser.add_argument("--runs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    try:
        for name, config in sub_sweeps(args.runs, args.seed).items():
            out_dir = os.path.join(args.out, name)
            started = time.time()
            results = run_sweep(config, out_dir)
            print(f"{name}: {len(results)} cells in {time.time() - started:.0f}s -> {out_dir}")
    except CrhopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
