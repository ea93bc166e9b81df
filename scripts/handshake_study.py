#!/usr/bin/env python3
"""Paired study of the two handshakes: ATTR and PPR with sign tests.

For each (protocol, activity) pair this runs the 10-channel symmetric
scenario under both handshakes on paired seeds and prints the ratios plus
one-sided sign-test p-values for "three-way beats two-way".

Usage: python scripts/handshake_study.py [--runs 50] [--nodes 10] [--seed 90210]
"""

import argparse
import sys

from crhop.engine import Scenario
from crhop.errors import CrhopError
from crhop.experiment import run_group
from crhop.metrics import compare


def cell(value, spec: str) -> str:
    """value formatted to spec, or "-" right-aligned in its width when undefined
    (a single node has ATTR 0 and no rendezvous)."""
    return format(value, spec) if value is not None else format("-", f">{spec.split('.')[0]}")


def study(args) -> None:
    print(f"{'protocol':8} {'activity':8} {'attr3':>8} {'attr2':>8} {'ratio':>6} "
          f"{'p_attr':>9} {'ppr3':>7} {'ppr2':>7} {'p_ppr':>9}")
    for protocol in ("mdmca", "mrcs", "mmca", "memca"):
        for activity in ("zero", "high"):
            cells = {}
            for handshake in ("3wh", "2wh"):
                sc = Scenario(nodes=args.nodes, channels=10, mode="sym",
                              activity=activity, protocol=protocol,
                              handshake=handshake, max_slots=20_000)
                cells[handshake] = run_group([sc], args.runs, args.seed)[0]
            summary = compare(cells["3wh"], cells["2wh"])
            print(f"{protocol:8} {activity:8} {cells['3wh'].attr_slots:8.1f} "
                  f"{cells['2wh'].attr_slots:8.1f} {cell(summary.attr_ratio, '6.3f')} "
                  f"{summary.attr_p_value:9.2e} {cell(cells['3wh'].ppr, '7.2f')} "
                  f"{cell(cells['2wh'].ppr, '7.2f')} {cell(summary.ppr_p_value, '9.2e')}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=50)
    parser.add_argument("--nodes", type=int, default=10)
    parser.add_argument("--seed", type=int, default=90210)
    try:
        study(parser.parse_args(argv))
    except CrhopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
