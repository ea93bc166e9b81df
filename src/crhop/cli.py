"""Command-line entry points: run, sweep, check-table1, trace."""

from __future__ import annotations

import argparse
import csv
import os
import sys

from .engine import Scenario, run
from .errors import CrhopError
from .experiment import (
    SweepConfig,
    check_table1,
    config_from_mapping,
    load_rates_file,
    parse_area,
    parse_config_file,
    parse_emca_window,
    run_sweep,
)
from .seeding import derive_run_seed
from .topology import load_positions

TRACE_COLUMNS = ("slot", "half", "channel", "kind", "sender", "receiver", "pr")


def _add_scenario_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--protocol", default="mdmca", choices=["mdmca", "mrcs", "mmca", "memca"])
    parser.add_argument("--handshake", default="3wh", choices=["2wh", "3wh"])
    parser.add_argument("--nodes", type=int, default=3)
    parser.add_argument("--channels", type=int, default=10)
    parser.add_argument("--mode", default="sym", choices=["sym", "asym"])
    parser.add_argument("--m", type=int, default=None, help="similarity ratio for asym mode")
    parser.add_argument("--k", type=int, default=None, help="per-node set size for asym mode")
    parser.add_argument("--activity", default="zero", choices=["zero", "low", "long", "high", "mix"])
    parser.add_argument("--max-slots", type=int, default=100_000)
    parser.add_argument("--area", default=None, help="WxH in meters, e.g. 400x400")
    parser.add_argument("--range", dest="radio_range", type=float, default=None)
    parser.add_argument("--completion-mode", default="responder-only",
                        choices=["active", "responder-only", "silent"])
    parser.add_argument("--emca-window", default="inf",
                        help="slots a completed memca node keeps responding")
    parser.add_argument("--share-unconfirmed", action="store_true",
                        help="let nodes propagate direct links before confirming them")
    parser.add_argument("--rates", default=None, help="JSON rates file overriding the built-in table")
    parser.add_argument("--positions", default=None, help="'id x y' position file (skips random topology)")
    parser.add_argument("--seed", type=int, default=1)


def _scenario_from_args(args) -> Scenario:
    kwargs = dict(
        nodes=args.nodes,
        channels=args.channels,
        mode=args.mode,
        m=args.m,
        per_node_size=args.k,
        activity=args.activity,
        protocol=args.protocol,
        handshake=args.handshake,
        max_slots=args.max_slots,
        completion_mode=args.completion_mode,
        emca_window=parse_emca_window(args.emca_window),
        share_unconfirmed_links=args.share_unconfirmed,
    )
    if args.area is not None:
        kwargs["area"] = parse_area(args.area)
    if args.radio_range is not None:
        kwargs["radio_range"] = args.radio_range
    if args.rates is not None:
        kwargs["rates_table"] = load_rates_file(args.rates)
    if args.positions is not None:
        kwargs["positions"] = tuple(load_positions(args.positions))
    scenario = Scenario(**kwargs)
    scenario.validate()
    return scenario


def _cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    config = SweepConfig(
        protocols=(scenario.protocol,),
        handshakes=(scenario.handshake,),
        nodes=(scenario.nodes,),
        channels=(scenario.channels,),
        modes=(("sym",) if scenario.mode == "sym" else (scenario.m,)),
        activities=(scenario.activity,),
        runs=args.runs,
        base_seed=args.seed,
        max_slots=scenario.max_slots,
        area=scenario.area,
        radio_range=scenario.radio_range,
        per_node_size=scenario.per_node_size,
        completion_mode=scenario.completion_mode,
        emca_window=scenario.emca_window,
        share_unconfirmed_links=scenario.share_unconfirmed_links,
        rates_table=scenario.rates_table,
    )
    results = run_sweep(config, args.out)
    for res in results:
        ppr_text = "undefined" if res.ppr is None else f"{res.ppr:.3f}"
        print(
            f"{res.scenario['protocol']}/{res.scenario['handshake']} "
            f"N={res.scenario['N']} C={res.scenario['C']} {res.scenario['mode']} "
            f"activity={res.scenario['activity']}: attr={res.attr_slots:.3f} slots, "
            f"ppr={ppr_text}, censored={res.censored_nodes}"
        )
    if args.trace:
        env_key = scenario.environment_key()
        for index in range(args.runs):
            seed = derive_run_seed(args.seed, env_key, index)
            record = run(scenario, seed, trace=True)
            path = os.path.join(args.out, f"trace_run{index}.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                _write_trace(fh, record)
    print(f"wrote {args.out}/data.csv and {args.out}/summary.json")
    return 0


def _cmd_sweep(args) -> int:
    base = SweepConfig()
    if args.config is not None:
        base = config_from_mapping(parse_config_file(args.config), base)
    overrides = {}
    if args.seed is not None:
        overrides["base_seed"] = str(args.seed)
    if args.runs is not None:
        overrides["runs"] = str(args.runs)
    if args.max_slots is not None:
        overrides["max_slots"] = str(args.max_slots)
    for key in ("protocols", "handshakes", "nodes", "channels", "modes", "activities"):
        value = getattr(args, key)
        if value is not None:
            overrides[key] = value
    config = config_from_mapping(overrides, base)
    results = run_sweep(config, args.out)
    print(f"{len(results)} cells -> {args.out}/data.csv")
    return 0


def _cmd_check_table1(args) -> int:
    table = load_rates_file(args.rates) if args.rates is not None else None
    report = check_table1(table=table)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def _write_trace(stream, record) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(TRACE_COLUMNS)
    for slot, half, channel, kind, sender, receiver, pr in record.trace:
        writer.writerow([slot, half, channel, kind, sender,
                         "" if receiver is None else receiver, pr])


def _cmd_trace(args) -> int:
    scenario = _scenario_from_args(args)
    seed = derive_run_seed(args.seed, scenario.environment_key(), args.run_index)
    record = run(scenario, seed, trace=True)
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        _write_trace(out, record)
    finally:
        if args.out:
            out.close()
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
    p_run.add_argument("--runs", type=int, default=30)
    p_run.add_argument("--trace", action="store_true",
                       help="also write trace_run<i>.csv transcripts into --out")
    p_run.add_argument("--out", required=True)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a configured sweep grid")
    p_sweep.add_argument("--config", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--runs", type=int, default=None)
    p_sweep.add_argument("--max-slots", type=int, default=None)
    p_sweep.add_argument("--protocols", default=None, help="comma list")
    p_sweep.add_argument("--handshakes", default=None, help="comma list")
    p_sweep.add_argument("--nodes", default=None, help="comma list")
    p_sweep.add_argument("--channels", default=None, help="comma list")
    p_sweep.add_argument("--modes", default=None, help="comma list of sym or m values")
    p_sweep.add_argument("--activities", default=None, help="comma list")
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
