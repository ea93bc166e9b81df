"""Command-line entry points: run, sweep, check-table1, trace."""

from __future__ import annotations

import argparse
import errno
import os
import sys
from dataclasses import replace

from .activity import ACTIVITY_CLASSES
from .engine import COMPLETION_MODES, run
from .errors import CrhopError, GenerationFailureError, InvalidParameterError, writing
from .experiment import (
    AXES,
    CONFIG_KEYS,
    _csv_text,
    cells,
    check_table1,
    config_from_mapping,
    load_rates_file,
    parse_config_file,
    run_sweep,
)
from .handshake import HANDSHAKE_KINDS
from .protocols import STRATEGY_KINDS
from .seeding import derive_run_seed
from .topology import load_positions

TRACE_COLUMNS = ("slot", "half", "channel", "kind", "sender", "receiver", "pr")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per Scenario field, plus --seed, each storing its text under the
    configuration key it sets (--m sets modes, --positions is read apart).

    A flag left unset keeps the field's Scenario default.
    """
    parser.add_argument("--protocol", dest="protocols", default="mdmca", choices=STRATEGY_KINDS)
    parser.add_argument("--handshake", dest="handshakes", default="3wh", choices=HANDSHAKE_KINDS)
    parser.add_argument("--nodes", default="3")
    parser.add_argument("--channels", default="10")
    parser.add_argument("--mode", default="sym", choices=["sym", "asym"])
    parser.add_argument("--m", help="similarity ratio for asym mode")
    parser.add_argument("--k", dest="per_node_size", metavar="K",
                        help="per-node set size for asym mode")
    parser.add_argument("--activity", dest="activities", default="zero", choices=ACTIVITY_CLASSES)
    parser.add_argument("--max-slots")
    parser.add_argument("--area", help="WxH in meters, e.g. 400x400")
    parser.add_argument("--range", dest="radio_range")
    parser.add_argument("--completion-mode", choices=COMPLETION_MODES)
    parser.add_argument("--emca-window", help="slots a completed memca node keeps responding")
    parser.add_argument("--share-unconfirmed", dest="share_unconfirmed_links",
                        action="store_const", const="true",
                        help="let nodes propagate direct links before confirming them")
    parser.add_argument("--rates", dest="rates_file", metavar="RATES",
                        help="JSON rates file overriding the built-in table")
    parser.add_argument("--positions", help="'id x y' position file (skips random topology)")
    parser.add_argument("--seed", dest="base_seed", metavar="SEED", default="1")


def _one_cell_config(args):
    """The one-cell SweepConfig that run/trace flags describe."""
    text = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    if args.m is not None:
        text["modes"] = args.m
    config = config_from_mapping(text)
    if any(len(getattr(config, axis)) != 1 for axis in AXES):
        raise InvalidParameterError("run and trace take one value per flag")
    if args.mode == "sym":
        # a symmetric cell runs the full pool, whatever --m and --k say
        config = replace(config, modes=("sym",), per_node_size=None)
    elif config.modes == ("sym",):
        raise InvalidParameterError("asym mode needs --m, an integer similarity ratio")
    if args.positions is not None:
        config = replace(config, positions=tuple(load_positions(args.positions)))
    return config


def _cmd_run(args) -> int:
    config = _one_cell_config(args)
    results = run_sweep(config, args.out)
    if not results:
        raise GenerationFailureError(f"the cell is infeasible: see infeasible_cells in {args.out}/summary.json")
    for res in results:
        ppr_text = "undefined" if res.ppr is None else f"{res.ppr:.3f}"
        print(
            f"{res.scenario['protocol']}/{res.scenario['handshake']} "
            f"N={res.scenario['N']} C={res.scenario['C']} {res.scenario['mode']} "
            f"activity={res.scenario['activity']}: attr={res.attr_slots:.3f} slots, "
            f"ppr={ppr_text}, censored={res.censored_nodes}"
        )
    print(f"wrote {args.out}/data.csv and {args.out}/summary.json")
    return 0


def _cmd_sweep(args) -> int:
    config = config_from_mapping(parse_config_file(args.config)) if args.config else None
    overrides = {key: getattr(args, key) for key in CONFIG_KEYS if getattr(args, key, None) is not None}
    config = config_from_mapping(overrides, config)
    results = run_sweep(config, args.out)
    infeasible = len(cells(config)) - len(results)
    print(f"{len(results)} cells, {infeasible} infeasible -> {args.out}/data.csv")
    return 0


def _cmd_check_table1(args) -> int:
    table = load_rates_file(args.rates) if args.rates is not None else None
    checks = check_table1(table=table)
    for c in checks:
        verdict = "ok" if c.ok else "MISMATCH"
        print(f"CH-{c.channel}: lambda_x={c.lambda_x} lambda_y={c.lambda_y} "
              f"U={c.computed:.3f} expected={c.expected:.2f} {verdict}")
    passed = all(c.ok for c in checks)
    print(f"table check: {'PASS' if passed else 'FAIL'}")
    return 0 if passed else 1


def _cmd_trace(args) -> int:
    """Run `--run-index` of the cell `crhop run` sweeps, traced, as CSV."""
    if args.run_index < 0:
        raise InvalidParameterError(f"run index must be >= 0, got {args.run_index}")
    config = _one_cell_config(args)
    (scenario,) = cells(config)
    seed = derive_run_seed(config.base_seed, scenario.environment_key(), args.run_index)
    out, part = sys.stdout, None
    if args.out:  # a temporary file beside --out, renamed onto it once the run succeeds, so a failed run leaves none
        head, tail = os.path.split(args.out)
        part = os.path.join(head, f".{tail}.{os.getpid()}.part")
        with writing(args.out):
            if os.path.isdir(args.out):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            out = open(part, "w", encoding="utf-8", newline="")
    try:
        record = run(scenario, seed, trace=True)
        out.write(_csv_text(TRACE_COLUMNS, (dict(zip(TRACE_COLUMNS, row)) for row in record.trace)))
        if part is not None:
            out.close()
            with writing(args.out):
                os.replace(part, args.out)
    finally:
        if part is not None:
            out.close()
            if os.path.exists(part):
                os.remove(part)
    ttrs = ", ".join(str(t) for t in record.ttr_half_slots)
    print(f"# ttr_half_slots=[{ttrs}] packets={record.packets} rendezvous={record.rendezvous}",
          file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="crhop",
                                     description="Multihop blind-rendezvous simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario cell")
    _add_scenario_flags(p_run)
    p_run.add_argument("--runs", default="30")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep grid")
    # Every flag but --config and --out overrides the configuration key it
    # stores under, and is read the same way as that key.
    p_sweep.add_argument("--config")
    p_sweep.add_argument("--seed", dest="base_seed", metavar="SEED")
    p_sweep.add_argument("--runs")
    p_sweep.add_argument("--max-slots")
    p_sweep.add_argument("--protocols", help="comma list")
    p_sweep.add_argument("--handshakes", help="comma list")
    p_sweep.add_argument("--nodes", help="comma list")
    p_sweep.add_argument("--channels", help="comma list")
    p_sweep.add_argument("--modes", help="comma list of sym or m values")
    p_sweep.add_argument("--activities", help="comma list")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_check = sub.add_parser("check-table1", help="verify the activity rate table")
    p_check.add_argument("--rates", default=None)
    p_check.set_defaults(func=_cmd_check_table1)

    p_trace = sub.add_parser("trace", help="single run with a full transcript")
    _add_scenario_flags(p_trace)
    p_trace.add_argument("--run-index", type=int, default=0)
    p_trace.add_argument("--out", default=None)
    p_trace.set_defaults(func=_cmd_trace)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CrhopError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
