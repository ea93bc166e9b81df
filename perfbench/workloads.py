"""The benchmark's workloads: inputs built from the benchmark seed, one block at a time.

crhop is imported from this checkout's `src/` and used only through its
public modules, so the benchmark measures the code it sits beside. A
workload is an endless sequence of blocks, each a fixed list of operations
(a run, or a sweep cell for `grid`) that is a pure function of the
benchmark seed and the block's index. A timed invocation executes blocks
0, 1, 2, ... serially until its time is up, so every operation it times has
inputs of its own, and the figures average over as many inputs as the time
allows. A pass over a block returns a digest per operation for the golden
check.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "work"  # scratch space for grid output, removed after each pass

PROTOCOLS = ("mdmca", "mrcs", "mmca", "memca")
HANDSHAKES = ("2wh", "3wh")
GRID_NODES = (3, 10, 20)
GRID_MAX_SLOTS = 20_000
REFERENCE_ITERATIONS = 5_000


class CheckoutError(Exception):
    """The checkout holds no importable crhop source tree."""


def import_crhop():
    """Import crhop from <checkout>/src, refusing any other copy."""
    if not (SRC / "crhop" / "__init__.py").is_file():
        raise CheckoutError(f"no crhop package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import crhop
    import crhop.engine
    import crhop.experiment

    if Path(crhop.__file__).resolve().parent != SRC / "crhop":
        raise CheckoutError(f"crhop was imported from {crhop.__file__}, not from {SRC}")
    return crhop


def run_seed(workload: str, seed: int, index: int) -> int:
    """64-bit simulation seed of operation `index`; a pure function of its arguments."""
    material = f"perfbench|{workload}|{seed}|{index}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "little")


def record_digest(record) -> str:
    """SHA-256 (first 64 bits, hex) of a run's (ttr_half_slots, censored, packets, rendezvous).

    Values are normalised to plain ints and bools, so the digest is the same
    whatever integer types the engine returns.
    """
    payload = [
        [int(t) for t in record.ttr_half_slots],
        [bool(c) for c in record.censored],
        int(record.packets),
        int(record.rendezvous),
    ]
    blob = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def record_problems(record) -> list[str]:
    """Invariants every run record must satisfy, whatever the seed."""
    problems = []
    n = record.node_count
    if len(record.ttr_half_slots) != n or len(record.censored) != n:
        problems.append("per-node tuples do not cover every node")
    budget = 2 * record.max_slots
    for t, c in zip(record.ttr_half_slots, record.censored):
        if not 0 <= t <= budget or (c and t != budget):
            problems.append(f"time to rendezvous {t} (censored={c}) outside the budget {budget}")
            break
    if not 0 <= record.rendezvous <= record.packets:
        problems.append(f"rendezvous {record.rendezvous} not within 0..packets {record.packets}")
    return problems


def reference_work() -> int:
    """A fixed piece of pure-Python work that shares no code with crhop.

    Its duration gauges how fast the host runs interpreter-bound code at the
    moment: on a shared host that speed drifts by a third or more from one
    minute to the next, and crhop slows with it in step.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
        total += len(str(i))
    return total


def gauge(into: list[float]) -> None:
    """Time one reference_work() call into `into`."""
    t0 = time.perf_counter()
    reference_work()
    into.append(time.perf_counter() - t0)


def half_slots(record) -> int:
    """Half-slots the run simulated, counted from its record."""
    if any(record.censored):
        return 2 * record.max_slots
    return max(record.ttr_half_slots, default=0)


@dataclass
class PassResult:
    """What one pass over a block produced: per-operation digests, records and timings."""

    digests: dict[str, str | None] = field(default_factory=dict)  # None: the operation raised
    files: dict[str, str] = field(default_factory=dict)
    records: list = field(default_factory=list)
    # Host seconds of each engine.run call, and of the rest of each run_sweep
    # call: summaries and the CSV and JSON files.
    run_latencies: dict[str, float] = field(default_factory=dict)
    overhead_seconds: dict[str, float] = field(default_factory=dict)
    bytes_written: int = 0
    # Host seconds of the reference_work() call after each engine.run call,
    # when the pass gauges the host; they are not part of `seconds`.
    gauge_seconds: list[float] = field(default_factory=list)
    failed: set[str] = field(default_factory=set)  # raised, infeasible or broke an invariant
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.digests)

    @property
    def seconds(self) -> float:
        return sum(self.run_latencies.values()) + sum(self.overhead_seconds.values())

    def fail(self, key: str, message: str) -> None:
        self.failed.add(key)
        self.problems.append(f"{key}: {message}")


@contextmanager
def timed_runs(latencies: list[float], gauge_into: list[float] | None):
    """Append the latency of every engine.run call made inside the block.

    With `gauge_into`, each call is followed by a timed reference_work().

    run_sweep reaches the engine through module attributes, so the timer is
    installed on each of them and the originals are put back on exit.
    """
    import crhop.engine
    import crhop.experiment

    modules = (crhop.engine, crhop.experiment)
    saved = [(m, m.run) for m in modules]
    original = crhop.engine.run

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            latencies.append(time.perf_counter() - t0)
            if gauge_into is not None:
                gauge(gauge_into)

    for m, fn in saved:
        if fn is original:
            m.run = timed
    try:
        yield
    finally:
        for m, fn in saved:
            m.run = fn


class RunsWorkload:
    """Independent `crhop.engine.run` calls: `size` runs of every scenario per block.

    Every run has a simulation seed of its own. Cells of a sweep share seeds
    between protocols and handshakes; here that would make eight runs share
    one topology and occupancy trace, and a run's cost vary eight times less
    independently from seed to seed.
    """

    def __init__(self, name: str, seed: int, size: int, scenarios: list):
        self.name, self.seed, self.size, self.scenarios = name, seed, size, scenarios

    def ops(self, block: int) -> list[tuple[str, object, int]]:
        """(operation key, Scenario, simulation seed) of every run of `block`."""
        n = len(self.scenarios)
        return [
            (f"{i}/{sc.protocol}/{sc.handshake}", sc, run_seed(self.name, self.seed, i * n + j))
            for i in range(block * self.size, (block + 1) * self.size)
            for j, sc in enumerate(self.scenarios)
        ]

    def run_pass(self, block: int = 0, ops=None, gauged: bool = False) -> PassResult:
        import crhop.engine

        out = PassResult()
        for key, scenario, seed in self.ops(block) if ops is None else ops:
            t0 = time.perf_counter()
            try:
                record = crhop.engine.run(scenario, seed)
            except Exception as exc:  # a failing run is counted, not fatal
                out.digests[key] = None
                out.fail(key, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                out.run_latencies[key] = time.perf_counter() - t0
                if gauged:
                    gauge(out.gauge_seconds)
            out.digests[key] = record_digest(record)
            out.records.append(record)
            for problem in record_problems(record):
                out.fail(key, problem)
        return out

    def warm_up(self) -> None:
        self.run_pass(ops=self.ops(0)[:4])


def setup_bound(seed: int, size: int) -> RunsWorkload:
    """Blocks of `size` independent N=10 runs whose cost is topology rejection sampling."""
    from crhop.engine import Scenario

    scenario = Scenario(
        nodes=10, channels=10, mode="sym", activity="zero",
        protocol="mdmca", handshake="3wh", max_slots=GRID_MAX_SLOTS,
    )
    return RunsWorkload("setup-bound", seed, size, [scenario])


def loop_bound(seed: int, size: int) -> RunsWorkload:
    """Blocks of `size` runs of each of the 8 protocol x handshake cells of N=20,
    C=20, asym m=2, high activity: long runs whose cost is the half-slot loop."""
    from crhop.engine import Scenario

    return RunsWorkload("loop-bound", seed, size, [
        Scenario(
            nodes=20, channels=20, mode="asym", m=2, activity="high",
            protocol=protocol, handshake=handshake, max_slots=GRID_MAX_SLOTS,
        )
        for protocol in PROTOCOLS
        for handshake in HANDSHAKES
    ])


def cell_key(sweep: str, desc: dict) -> str:
    mode = desc["mode"] if desc["m"] is None else f"{desc['mode']}{desc['m']}"
    return f"{sweep}/{desc['protocol']}/{desc['handshake']}/N{desc['N']}/C{desc['C']}/{mode}/{desc['activity']}"


class GridWorkload:
    """The evaluation grid of scripts/run_full_grid.py at one run per cell, via run_sweep.

    Block b is the whole grid under its own base seed: the benchmark seed for
    block 0, so that block 0 is `run_full_grid.py --runs 1 --seed <seed>`,
    and a seed derived from the benchmark seed and b after it.
    """

    def __init__(self, seed: int, size: int):
        self.seed, self.size = seed, size

    def sweeps(self, block: int) -> dict:
        """Sub-sweep name -> SweepConfig of `block`; `size` < 3 keeps only the smallest node counts."""
        from crhop.experiment import SweepConfig

        shared = dict(
            protocols=PROTOCOLS, handshakes=HANDSHAKES, nodes=GRID_NODES[:self.size], runs=1,
            base_seed=self.seed if block == 0 else run_seed("grid", self.seed, block),
            max_slots=GRID_MAX_SLOTS,
        )
        return {
            "sym10": SweepConfig(channels=(10,), modes=("sym",), activities=("zero", "high"), **shared),
            "asym10": SweepConfig(channels=(10,), modes=(9, 5, 2), activities=("zero", "high"), **shared),
            "asym20": SweepConfig(channels=(20,), modes=(2, 5), activities=("zero", "high", "mix"), **shared),
        }

    def run_pass(self, block: int = 0, sweeps=None, gauged: bool = False) -> PassResult:
        import crhop.experiment

        out = PassResult()
        WORK_DIR.mkdir(exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="grid-", dir=WORK_DIR))
        try:
            for name, config in (self.sweeps(block) if sweeps is None else sweeps).items():
                sub = tmp / name
                latencies = []
                gauged_before = len(out.gauge_seconds)
                t0 = time.perf_counter()
                try:
                    with timed_runs(latencies, out.gauge_seconds if gauged else None):
                        results = crhop.experiment.run_sweep(config, str(sub))
                except Exception as exc:  # the whole sub-sweep failed
                    out.digests[name] = None
                    out.fail(name, f"{type(exc).__name__}: {exc}")
                    continue
                finally:
                    elapsed = time.perf_counter() - t0 - sum(out.gauge_seconds[gauged_before:])
                    out.overhead_seconds[name] = elapsed - sum(latencies)
                    out.run_latencies.update((f"{name}/{i}", x) for i, x in enumerate(latencies))
                for res in results:
                    key = cell_key(name, res.scenario)
                    digest = hashlib.sha256()
                    for record in res.records:
                        digest.update(record_digest(record).encode("ascii"))
                        out.records.append(record)
                        for problem in record_problems(record):
                            out.fail(key, problem)
                    out.digests[key] = digest.hexdigest()[:16]
                for fname in ("data.csv", "summary.json"):
                    path = sub / fname
                    out.files[f"{name}/{fname}"] = file_digest(path)
                    out.bytes_written += path.stat().st_size
                infeasible = json.loads((sub / "summary.json").read_text("utf-8"))["infeasible_cells"]
                for cell in infeasible:
                    key = cell_key(name, cell["scenario"])
                    out.digests[key] = None
                    out.fail(key, f"infeasible: {cell['error']}")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return out

    def warm_up(self) -> None:
        from dataclasses import replace

        name, config = next(iter(self.sweeps(0).items()))
        self.run_pass(sweeps={name: replace(config, protocols=config.protocols[:1], nodes=config.nodes[:1])})


WORKLOADS = {"grid": GridWorkload, "setup-bound": setup_bound, "loop-bound": loop_bound}
# Size of a block: node counts of the grid, simulation seeds of the others.
SIZES = {"grid": len(GRID_NODES), "setup-bound": 100, "loop-bound": 2}


def serial_environment() -> None:
    """Make every sweep run serially, in this process."""
    os.environ.pop("CRHOP_WORKERS", None)
