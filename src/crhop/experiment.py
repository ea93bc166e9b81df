"""Configuration-driven experiment sweeps with reproducible output files.

A sweep is the cross product of the configured axes. Every cell runs R times
with seeds derived from (base seed, environment key, run index); cells that
differ only in protocol or handshake therefore share seeds, topology and
occupancy traces, which is what makes the emitted comparisons paired. Output
is a data.csv plus summary.json per sweep, free of timestamps, so a rerun
with the same configuration is byte-identical.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from .activity import ACTIVITY_CLASSES, RATE_TABLE, TABLE_UTILIZATION, ActivityRates, utilization
from .engine import DEFAULT_AREA, DEFAULT_RANGE, Scenario, run
from .errors import GenerationFailureError, InvalidParameterError
from .metrics import ExperimentResult, summarize
from .seeding import derive_run_seed

WORKERS_ENV_VAR = "CRHOP_WORKERS"

DATA_COLUMNS = (
    "protocol", "handshake", "N", "C", "mode", "m", "activity", "seed",
    "attr_slots", "ppr", "sd", "censored",
)

PLOT_COLUMNS = (
    "protocol", "handshake", "N", "C", "mode", "m", "activity", "metric", "value",
)


@dataclass(frozen=True)
class SweepConfig:
    """Axes and shared settings of one sweep."""

    protocols: tuple[str, ...] = ("mdmca", "mrcs", "mmca", "memca")
    handshakes: tuple[str, ...] = ("2wh", "3wh")
    nodes: tuple[int, ...] = (3, 10, 20)
    channels: tuple[int, ...] = (10,)
    modes: tuple = ("sym",)  # entries: "sym" or an int similarity ratio m
    activities: tuple[str, ...] = ("zero",)
    runs: int = 30
    base_seed: int = 1
    max_slots: int = 100_000
    area: tuple[float, float] = DEFAULT_AREA
    radio_range: float = DEFAULT_RANGE
    per_node_size: int | None = None
    completion_mode: str = "responder-only"
    emca_window: float = math.inf
    share_unconfirmed_links: bool = False
    rates_table: tuple[tuple[float, float], ...] | None = None

    def validate(self) -> None:
        if self.runs < 1:
            raise InvalidParameterError(f"runs must be >= 1, got {self.runs}")
        if not (self.protocols and self.handshakes and self.nodes and self.channels
                and self.modes and self.activities):
            raise InvalidParameterError("every sweep axis needs at least one value")


def cells(config: SweepConfig) -> list[Scenario]:
    """Scenarios of the sweep, in deterministic axis order."""
    config.validate()
    out = []
    for protocol in config.protocols:
        for handshake in config.handshakes:
            for n in config.nodes:
                for c in config.channels:
                    for mode_entry in config.modes:
                        for activity in config.activities:
                            mode = "sym" if mode_entry == "sym" else "asym"
                            m = None if mode == "sym" else int(mode_entry)
                            out.append(
                                Scenario(
                                    nodes=n,
                                    channels=c,
                                    mode=mode,
                                    m=m,
                                    per_node_size=None if mode == "sym" else config.per_node_size,
                                    activity=activity,
                                    protocol=protocol,
                                    handshake=handshake,
                                    area=config.area,
                                    radio_range=config.radio_range,
                                    max_slots=config.max_slots,
                                    completion_mode=config.completion_mode,
                                    emca_window=config.emca_window,
                                    share_unconfirmed_links=config.share_unconfirmed_links,
                                    rates_table=config.rates_table,
                                )
                            )
    return out


def scenario_descriptor(scenario: Scenario, base_seed: int) -> dict:
    return {
        "protocol": scenario.protocol,
        "handshake": scenario.handshake,
        "N": scenario.nodes,
        "C": scenario.channels,
        "mode": scenario.mode,
        "m": scenario.m,
        "activity": scenario.activity,
        "seed": base_seed,
    }


def run_cell(scenario: Scenario, runs: int, base_seed: int) -> ExperimentResult:
    """Execute one cell: R runs on hierarchically derived paired seeds."""
    env_key = scenario.environment_key()
    seeds = [derive_run_seed(base_seed, env_key, r) for r in range(runs)]
    records = [run(scenario, s) for s in seeds]
    return summarize(scenario_descriptor(scenario, base_seed), seeds, records)


def _run_cell_task(args):
    scenario, runs, base_seed = args
    try:
        return run_cell(scenario, runs, base_seed)
    except GenerationFailureError as exc:
        # infeasible geometry: report the cell and let the sweep continue
        return (scenario_descriptor(scenario, base_seed), f"{type(exc).__name__}: {exc}")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def data_csv_text(results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(DATA_COLUMNS)
    for res in results:
        sc = res.scenario
        writer.writerow(
            [
                sc["protocol"], sc["handshake"], sc["N"], sc["C"], sc["mode"],
                _fmt(sc["m"]), sc["activity"], sc["seed"],
                _fmt(res.attr_slots), _fmt(res.ppr), _fmt(res.attr_sd),
                res.censored_nodes,
            ]
        )
    return buf.getvalue()


def summary_payload(config: SweepConfig, results, failures) -> dict:
    return {
        "config": {
            "protocols": list(config.protocols),
            "handshakes": list(config.handshakes),
            "nodes": list(config.nodes),
            "channels": list(config.channels),
            "modes": list(config.modes),
            "activities": list(config.activities),
            "runs": config.runs,
            "base_seed": config.base_seed,
            "max_slots": config.max_slots,
            "area": list(config.area),
            "radio_range": config.radio_range,
            "per_node_size": config.per_node_size,
            "completion_mode": config.completion_mode,
            "emca_window": "inf" if math.isinf(config.emca_window) else config.emca_window,
            "share_unconfirmed_links": config.share_unconfirmed_links,
        },
        "cells": [
            {
                "scenario": {k: v for k, v in res.scenario.items()},
                "attr_slots": res.attr_slots,
                "ppr": res.ppr,
                "attr_sd": res.attr_sd,
                "attr_min": res.attr_min,
                "attr_max": res.attr_max,
                "censored_nodes": res.censored_nodes,
                "undefined_ppr_runs": res.undefined_ppr_runs,
            }
            for res in results
        ],
        "infeasible_cells": [
            {"scenario": desc, "error": message} for desc, message in failures
        ],
    }


def parse_area(text: str) -> tuple[float, float]:
    """Area side lengths from 'WxH' text, in meters."""
    try:
        width, height = text.lower().split("x")
        return float(width), float(height)
    except ValueError:
        raise InvalidParameterError(f"area must be WxH in meters, e.g. 400x400, got {text!r}") from None


def parse_emca_window(text: str) -> float:
    """memca response window in slots; 'inf' or empty text means unbounded."""
    if text in ("inf", ""):
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise InvalidParameterError(f"emca_window must be a number or inf, got {text!r}") from None


def run_sweep(config: SweepConfig, out_dir: str) -> list[ExperimentResult]:
    """Run every cell and write data.csv + summary.json under out_dir.

    Infeasible cells (e.g. topology generation failure) are reported in the
    summary and skipped; the sweep continues. Worker count comes from the
    CRHOP_WORKERS environment variable (default 1).
    """
    config.validate()
    tasks = [(sc, config.runs, config.base_seed) for sc in cells(config)]
    text = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        workers = int(text)
    except ValueError:
        raise InvalidParameterError(f"{WORKERS_ENV_VAR} must be an integer, got {text!r}") from None
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_cell_task, tasks))
    else:
        outcomes = [_run_cell_task(t) for t in tasks]

    results = [o for o in outcomes if isinstance(o, ExperimentResult)]
    failures = [o for o in outcomes if not isinstance(o, ExperimentResult)]

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "data.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write(data_csv_text(results))
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary_payload(config, results, failures), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return results


@dataclass(frozen=True)
class Table1Check:
    channel: int
    lambda_x: float
    lambda_y: float
    computed: float
    expected: float
    ok: bool


@dataclass(frozen=True)
class Table1Report:
    checks: tuple[Table1Check, ...]
    tolerance: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            verdict = "ok" if c.ok else "MISMATCH"
            out.append(
                f"CH-{c.channel}: lambda_x={c.lambda_x} lambda_y={c.lambda_y} "
                f"U={c.computed:.3f} expected={c.expected:.2f} {verdict}"
            )
        out.append(f"table check: {'PASS' if self.ok else 'FAIL'}")
        return out


def check_table1(
    table: tuple[tuple[float, float], ...] | None = None,
    expected: tuple[float, ...] | None = None,
    tolerance: float = 0.01,
) -> Table1Report:
    """Recompute every channel's utilization and diff against the rounded row."""
    rows = RATE_TABLE if table is None else tuple(table)
    want = TABLE_UTILIZATION if expected is None else tuple(expected)
    if len(rows) != len(want):
        raise InvalidParameterError("rates and expected utilization rows differ in length")
    checks = []
    for i, ((lx, ly), u_expected) in enumerate(zip(rows, want), start=1):
        u = utilization(ActivityRates(lx, ly))
        checks.append(Table1Check(i, lx, ly, u, u_expected, abs(u - u_expected) <= tolerance))
    return Table1Report(tuple(checks), tolerance)


def plot_rows(results, grouping: str | None = None) -> list[dict]:
    """Long-format rows, one per (cell, metric), for external plotting."""
    if not results:
        raise InvalidParameterError("no results to emit")
    rows = []
    for res in results:
        sc = res.scenario
        base = {
            "protocol": sc["protocol"], "handshake": sc["handshake"], "N": sc["N"],
            "C": sc["C"], "mode": sc["mode"], "m": sc["m"], "activity": sc["activity"],
        }
        rows.append(dict(base, metric="attr_slots", value=res.attr_slots))
        rows.append(dict(base, metric="ppr", value=res.ppr))
    if grouping is not None:
        if grouping not in PLOT_COLUMNS:
            raise InvalidParameterError(f"unknown grouping column {grouping!r}")
        rows.sort(key=lambda r: (str(r[grouping]),))
    return rows


def emit_plotdata(results, grouping: str | None = None) -> str:
    """CSV text in stable column order; floats round-trip exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(PLOT_COLUMNS)
    for row in plot_rows(results, grouping):
        writer.writerow([_fmt(row[c]) for c in PLOT_COLUMNS])
    return buf.getvalue()


def parse_config_file(path: str) -> dict[str, str]:
    """Read a "key = value" configuration file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidParameterError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def load_rates_file(path: str) -> tuple[tuple[float, float], ...]:
    """JSON list of [lambda_x, lambda_y] pairs overriding the built-in table."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    rows = tuple((float(lx), float(ly)) for lx, ly in data)
    if not rows:
        raise InvalidParameterError(f"{path}: empty rates table")
    return rows


_LIST_KEYS = {"protocols", "handshakes", "nodes", "channels", "modes", "activities"}


def config_from_mapping(mapping: dict[str, str], base: SweepConfig | None = None) -> SweepConfig:
    """Apply textual configuration keys on top of a base SweepConfig."""
    config = base if base is not None else SweepConfig()
    updates = {}
    for key, value in mapping.items():
        if key in _LIST_KEYS:
            items = [v.strip() for v in value.split(",") if v.strip()]
            if key in ("nodes", "channels"):
                updates[key] = tuple(int(v) for v in items)
            elif key == "modes":
                updates[key] = tuple(v if v == "sym" else int(v) for v in items)
            else:
                updates[key] = tuple(items)
        elif key in ("runs", "max_slots", "base_seed"):
            updates[key] = int(value)
        elif key == "per_node_size":
            updates[key] = None if value in ("", "none") else int(value)
        elif key == "area":
            updates[key] = parse_area(value)
        elif key == "radio_range":
            updates[key] = float(value)
        elif key == "completion_mode":
            updates[key] = value
        elif key == "emca_window":
            updates[key] = parse_emca_window(value)
        elif key == "share_unconfirmed_links":
            updates[key] = value.lower() in ("1", "true", "yes", "on")
        elif key == "rates_file":
            updates["rates_table"] = load_rates_file(value)
        else:
            raise InvalidParameterError(f"unknown configuration key {key!r}")
    for activity_list in (updates.get("activities"), ):
        if activity_list:
            for a in activity_list:
                if a not in ACTIVITY_CLASSES:
                    raise InvalidParameterError(f"unknown activity class {a!r}")
    return replace(config, **updates)
