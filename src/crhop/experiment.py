"""Configuration-driven experiment sweeps with reproducible output files.

A sweep is the cross product of the configured axes. Every cell runs R times
with seeds derived from (base seed, environment key, run index); cells that
differ only in protocol or handshake therefore share seeds, topology and
occupancy traces, which is what makes the emitted comparisons paired. Output
is a data.csv plus summary.json per sweep, free of timestamps, so a rerun
with the same configuration is byte-identical.

Cells with one environment key form a group, one task of the sweep: per run
index the group builds one engine Environment and runs its cells on it in
cell order, which cannot change a record (see crhop.engine). Results and
infeasible cells go back in cell order.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field, fields, make_dataclass, replace
from itertools import product

from .activity import RATE_TABLE, TABLE_UTILIZATION, ActivityRates, utilization
from .engine import Scenario, build_environment, run
from .errors import GenerationFailureError, InvalidParameterError, read_input, writing
from .handshake import HANDSHAKE_KINDS
from .metrics import ExperimentResult, summarize
from .protocols import STRATEGY_KINDS
from .seeding import derive_run_seed

WORKERS_ENV_VAR = "CRHOP_WORKERS"

# A cell's identity columns, in output order: its scenario descriptor's keys
# but "seed", which names the sweep's base seed.
CELL_COLUMNS = ("protocol", "handshake", "N", "C", "mode", "m", "activity")
DATA_COLUMNS = (*CELL_COLUMNS, "seed", "attr_slots", "ppr", "sd", "censored")

# ExperimentResult fields a summary.json cell holds next to its scenario.
SUMMARY_FIELDS = (
    "attr_slots", "ppr", "attr_sd", "attr_min", "attr_max", "censored_nodes", "undefined_ppr_runs",
)

# Sweep axes in cell order, each with the Scenario field it sets. A modes
# entry is "sym" or the similarity ratio m of an asymmetric cell.
AXES = {
    "protocols": "protocol", "handshakes": "handshake", "nodes": "nodes",
    "channels": "channels", "modes": "mode", "activities": "activity",
}

# Scenario fields no axis sets: every cell of a sweep shares their values.
SHARED_FIELDS = tuple(f.name for f in fields(Scenario) if f.name not in {*AXES.values(), "m"})


@dataclass(frozen=True)
class _Axes:
    protocols: tuple[str, ...] = STRATEGY_KINDS
    handshakes: tuple[str, ...] = HANDSHAKE_KINDS
    nodes: tuple[int, ...] = (3, 10, 20)
    channels: tuple[int, ...] = (10,)
    modes: tuple = ("sym",)
    activities: tuple[str, ...] = ("zero",)
    runs: int = 30
    base_seed: int = 1

    def validate(self) -> None:
        if self.runs < 1:
            raise InvalidParameterError(f"runs must be >= 1, got {self.runs}")
        if not all(getattr(self, axis) for axis in AXES):
            raise InvalidParameterError("every sweep axis needs at least one value")


SweepConfig = make_dataclass(
    "SweepConfig",
    [(f.name, f.type, field(default=f.default)) for f in fields(Scenario) if f.name in SHARED_FIELDS],
    bases=(_Axes,),
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": "Axes, run count and base seed of one sweep, plus the Scenario "
                   "fields its cells share, under the same names and defaults.",
    },
)


def _mode_fields(entry, per_node_size) -> dict:
    """Scenario fields that one modes entry sets."""
    if entry == "sym":
        return {"mode": "sym", "m": None, "per_node_size": None}
    return {"mode": "asym", "m": int(entry), "per_node_size": per_node_size}


def cells(config: SweepConfig) -> list[Scenario]:
    """Scenarios of the sweep, in deterministic axis order."""
    config.validate()
    points = [
        dict(zip(AXES.values(), values))
        for values in product(*(getattr(config, axis) for axis in AXES))
    ]
    for point in points:
        point.update(_mode_fields(point["mode"], config.per_node_size))
    shared = {name: getattr(config, name) for name in SHARED_FIELDS}
    template = Scenario(**{**shared, **points[0]})
    out = [replace(template, **point) for point in points]
    for scenario in out:
        scenario.validate()
    return out


def scenario_descriptor(scenario: Scenario, base_seed: int) -> dict:
    """A cell's identity columns, each read from its Scenario field, and the base seed."""
    field_of = {"N": "nodes", "C": "channels"}
    return {**{c: getattr(scenario, field_of.get(c, c)) for c in CELL_COLUMNS}, "seed": base_seed}


def run_group(scenarios: list[Scenario], runs: int, base_seed: int) -> list[ExperimentResult]:
    """Execute cells that share one environment key, R runs each, in the given order.

    Per run index the environment is built once and every cell runs on it.
    A cell whose behaviour an earlier cell already ran (memca at the default
    unbounded window after mmca) gets that record from the environment,
    unwalked: a record is a pure function of the environment and the
    behaviour key, so it is the record the cell would compute.
    """
    if not scenarios:
        raise InvalidParameterError("run_group needs at least one cell")
    env_key = scenarios[0].environment_key()
    seeds = [derive_run_seed(base_seed, env_key, r) for r in range(runs)]
    records = [[] for _ in scenarios]
    for seed in seeds:
        environment = build_environment(scenarios[0], seed)
        for scenario, cell_records in zip(scenarios, records):
            cell_records.append(run(scenario, seed, environment=environment))
    return [
        summarize(scenario_descriptor(scenario, base_seed), seeds, cell_records)
        for scenario, cell_records in zip(scenarios, records)
    ]


def _run_group_task(args):
    scenarios, runs, base_seed = args
    try:
        return run_group(scenarios, runs, base_seed)
    except GenerationFailureError as exc:
        # infeasible geometry: report the group's cells and let the sweep continue
        return [(scenario_descriptor(sc, base_seed), f"{type(exc).__name__}: {exc}") for sc in scenarios]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(columns, rows) -> str:
    """CSV text of dict rows in `columns` order; floats round-trip exactly, None is empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_fmt(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def data_csv_text(results) -> str:
    return _csv_text(DATA_COLUMNS, (
        {**res.scenario, "attr_slots": res.attr_slots, "ppr": res.ppr, "sd": res.attr_sd,
         "censored": res.censored_nodes}
        for res in results
    ))


# Echoed only when set, so the summary of a sweep without them keeps its bytes.
_ECHOED_WHEN_SET = ("rates_table", "positions")


def _plain(value):
    """JSON form of a config value: tuples as lists, an unbounded float as "inf"."""
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if value == math.inf:
        return "inf"
    return value


def summary_payload(config: SweepConfig, results, failures) -> dict:
    echo = {
        f.name: _plain(getattr(config, f.name))
        for f in fields(config)
        if not (f.name in _ECHOED_WHEN_SET and getattr(config, f.name) is None)
    }
    return {
        "config": echo,
        "cells": [
            {"scenario": res.scenario, **{name: getattr(res, name) for name in SUMMARY_FIELDS}}
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
    summary and skipped; the sweep continues. CRHOP_WORKERS sets the worker
    count, an integer >= 1 (default 1), capped at the number of environment
    groups: a one-group sweep, as every `crhop run` is, stays serial.
    """
    scenarios = cells(config)
    groups: dict[str, list[int]] = {}  # environment key -> indices of its cells, ascending
    for i, scenario in enumerate(scenarios):
        groups.setdefault(scenario.environment_key(), []).append(i)
    tasks = [([scenarios[i] for i in group], config.runs, config.base_seed) for group in groups.values()]
    text = os.environ.get(WORKERS_ENV_VAR, "1")
    try:
        workers = int(text)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidParameterError(f"{WORKERS_ENV_VAR} must be an integer >= 1, got {text!r}")
    workers = min(workers, len(tasks))  # a pool starts all its workers at the first submit
    with writing(out_dir):
        os.makedirs(out_dir, exist_ok=True)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported here: serial sweeps never pay for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            by_group = list(pool.map(_run_group_task, tasks))
    else:
        by_group = [_run_group_task(t) for t in tasks]
    outcomes = [None] * len(scenarios)  # back in cell order
    for group, group_outcomes in zip(groups.values(), by_group):
        for i, outcome in zip(group, group_outcomes):
            outcomes[i] = outcome

    results = [o for o in outcomes if isinstance(o, ExperimentResult)]
    failures = [o for o in outcomes if not isinstance(o, ExperimentResult)]

    data, summary = os.path.join(out_dir, "data.csv"), os.path.join(out_dir, "summary.json")
    with writing(data), open(data, "w", encoding="utf-8", newline="") as fh:
        fh.write(data_csv_text(results))
    with writing(summary), open(summary, "w", encoding="utf-8") as fh:
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


def check_table1(table: tuple[tuple[float, float], ...] | None = None) -> tuple[Table1Check, ...]:
    """Recompute every channel's utilization and diff against its rounded row, within 0.01."""
    rows = RATE_TABLE if table is None else tuple(table)
    if len(rows) != len(TABLE_UTILIZATION):
        raise InvalidParameterError("rates and expected utilization rows differ in length")
    checks = []
    for i, ((lx, ly), u_expected) in enumerate(zip(rows, TABLE_UTILIZATION), start=1):
        u = utilization(ActivityRates(lx, ly))
        checks.append(Table1Check(i, lx, ly, u, u_expected, abs(u - u_expected) <= 0.01))
    return tuple(checks)


def parse_config_file(path: str) -> dict[str, str]:
    """Read a "key = value" configuration file; '#' starts a comment."""
    mapping: dict[str, str] = {}
    for lineno, raw in enumerate(read_input(path).splitlines(), start=1):
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
    text = read_input(path)
    try:
        rows = tuple((float(lx), float(ly)) for lx, ly in json.loads(text))
    except (TypeError, ValueError):
        raise InvalidParameterError(f"{path}: expected a JSON list of [lambda_x, lambda_y] pairs") from None
    if not rows:
        raise InvalidParameterError(f"{path}: empty rates table")
    for row in rows:
        try:
            ActivityRates(*row)
        except InvalidParameterError as exc:
            raise InvalidParameterError(f"{path}: {exc}") from None
    return rows


def _items(parse):
    """Parser of a comma-separated list whose items `parse` reads."""
    return lambda text: tuple(parse(item.strip()) for item in text.split(",") if item.strip())


def _mode_entry(text: str):
    return text if text == "sym" else int(text)


def _boolean(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


# Configuration-file key -> parser of its value text. Each key names the
# SweepConfig field it sets, except rates_file, which sets rates_table.
CONFIG_KEYS = {
    "protocols": _items(str),
    "handshakes": _items(str),
    "nodes": _items(int),
    "channels": _items(int),
    "modes": _items(_mode_entry),
    "activities": _items(str),
    "runs": int,
    "base_seed": int,
    "max_slots": int,
    "per_node_size": lambda text: None if text in ("", "none") else int(text),
    "area": parse_area,
    "radio_range": float,
    "completion_mode": str,
    "emca_window": parse_emca_window,
    "share_unconfirmed_links": _boolean,
    "rates_file": load_rates_file,
}


def config_from_mapping(mapping: dict[str, str], base: SweepConfig | None = None) -> SweepConfig:
    """Apply textual configuration keys on top of a base SweepConfig."""
    updates = {}
    for key, text in mapping.items():
        if key not in CONFIG_KEYS:
            raise InvalidParameterError(f"unknown configuration key {key!r}")
        try:
            value = CONFIG_KEYS[key](text)
        except ValueError as exc:
            raise InvalidParameterError(f"configuration key {key!r}: {exc}") from None
        updates["rates_table" if key == "rates_file" else key] = value
    return replace(base if base is not None else SweepConfig(), **updates)
