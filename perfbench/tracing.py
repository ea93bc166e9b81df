"""Per-layer timing of crhop, taken from outside by wrapping its public functions.

`Tracer` replaces module functions and class attributes with timing
wrappers for the duration of a `with` block and puts the originals back on
exit. Calls that happen every half-slot (occupancy sensing, hop selection,
knowledge lookups, handshakes) are aggregated into counts and summed time;
`run_sweep`, `run_cell`, `run` and `build_environment` also get one span per
call (with its parent span and the outermost span it belongs to), and every
`run` span carries its run's counts. Self time is a call's duration minus
the time spent in wrapped calls beneath it on the stack.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

SPANNED = frozenset({
    "experiment.run_sweep", "experiment.run_cell", "engine.run", "engine.build_environment",
})
# Calls that never reach another wrapped call: no frame is pushed for them.
LEAVES = (
    "topology.is_connected", "seeding.labeled_rng", "activity.is_busy",
    "protocols.select", "handshake.knowledge", "handshake.run",
)
PREDICATES = frozenset({"topology.is_connected", "activity.is_busy"})  # also count True answers


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    moves: str  # end-to-end metrics it should move
    on: str  # workload where it should move them
    not_on: str  # workloads where it should not


SETUP = ("runs_per_s, run_ms.p50, run_ms.p95", "setup-bound", "loop-bound")
LOOP = ("runs_per_s, run_ms.p95, peak_rss_mb", "loop-bound", "setup-bound")
HANDSHAKE = ("runs_per_s", "grid, loop-bound", "none")
EXPERIMENT = ("runs_per_s", "grid", "setup-bound, loop-bound (both bypass this layer)")

# Times and counts are per simulation run of the traced pass; ratios are not.
LAYER_METRICS = (
    LayerMetric("topology.generate_ms", "ms", "lower", *SETUP),
    LayerMetric("topology.accept_ratio", "ratio", "higher", *SETUP),
    LayerMetric("spectrum.assign_ms", "ms", "lower", *SETUP),
    LayerMetric("seeding.labeled_rng_calls", "count", "lower", *SETUP),
    LayerMetric("seeding.labeled_rng_s", "s", "lower", *SETUP),
    LayerMetric("engine.build_environment_ms", "ms", "lower", *SETUP),
    LayerMetric("activity.is_busy_calls", "count", "lower", *LOOP),
    LayerMetric("activity.is_busy_s", "s", "lower", *LOOP),
    LayerMetric("activity.busy_ratio", "ratio", "higher", *LOOP),
    LayerMetric("protocols.select_calls", "count", "lower", *LOOP),
    LayerMetric("protocols.select_s", "s", "lower", *LOOP),
    LayerMetric("handshake.knowledge_calls", "count", "lower", *LOOP),
    LayerMetric("handshake.knowledge_s", "s", "lower", *LOOP),
    LayerMetric("engine.half_slots", "count", "lower", *LOOP),
    LayerMetric("engine.loop_us_per_half_slot", "us", "lower", *LOOP),
    LayerMetric("handshake.run_calls", "count", "lower", *HANDSHAKE),
    LayerMetric("handshake.run_s", "s", "lower", *HANDSHAKE),
    LayerMetric("handshake.first_meeting_ratio", "ratio", "higher", *HANDSHAKE),
    LayerMetric("protocols.make_strategy_s", "s", "lower", *HANDSHAKE),
    LayerMetric("experiment.run_cell_s", "s", "lower", *EXPERIMENT),
    LayerMetric("experiment.write_s", "s", "lower", *EXPERIMENT),
    LayerMetric("experiment.bytes_written", "bytes", "lower", *EXPERIMENT),
    LayerMetric("metrics.summarize_s", "s", "lower", *EXPERIMENT),
    LayerMetric("trace.overhead_ratio", "ratio", "lower", "none (cost of this traced pass)", "all", "all"),
)


def _targets(crhop):
    """(owner, attribute, layer name) of everything the tracer wraps."""
    import numpy as np

    engine, experiment = crhop.engine, crhop.experiment
    yield experiment, "run_sweep", "experiment.run_sweep"
    yield experiment, "run_cell", "experiment.run_cell"
    yield experiment, "summarize", "metrics.summarize"
    yield experiment, "run", "engine.run"
    yield engine, "run", "engine.run"
    yield engine, "build_environment", "engine.build_environment"
    yield engine, "generate_topology", "topology.generate"
    yield engine, "assign_channels", "spectrum.assign"
    yield engine, "labeled_rng", "seeding.labeled_rng"
    yield engine, "make_strategy", "protocols.make_strategy"
    yield engine, "run_handshake", "handshake.run"
    yield crhop.Topology, "is_connected", "topology.is_connected"
    yield crhop.ChannelProcess, "is_busy", "activity.is_busy"
    yield crhop.NeighborTables, "knowledge", "handshake.knowledge"
    owners = []
    for kind in crhop.protocols.STRATEGY_KINDS:
        cls = type(crhop.make_strategy(kind, (1, 2, 3), np.random.default_rng(0)))
        owner = next(c for c in cls.__mro__ if "select" in vars(c))
        if owner not in owners:
            owners.append(owner)
            yield owner, "select", "protocols.select"


class Tracer:
    """Context manager that times crhop's layers while it is active."""

    def __init__(self, crhop):
        self._crhop = crhop
        # name -> [calls, inclusive seconds, self seconds, True answers]
        self.stats: dict[str, list] = {}
        self.spans: list[dict] = []
        self.restored = False
        # One frame per active non-leaf call: [seconds in wrapped calls beneath it,
        # innermost enclosing span].
        self._stack = [[0.0, None]]
        self._saved: list[tuple[object, str, object]] = []
        self._epoch = time.perf_counter()

    def __enter__(self):
        wrappers = {}  # one wrapper per original, however many names point at it
        for owner, attr, name in _targets(self._crhop):
            original = vars(owner).get(attr)
            if original is None:
                continue
            if id(original) not in wrappers:
                wrappers[id(original)] = self._wrap(original, name)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrappers[id(original)])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self.restored = all(vars(owner)[attr] is original for owner, attr, original in self._saved)
        return False

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0])

    def _wrap(self, fn, name: str):
        stat = self._stat(name)
        stack = self._stack
        clock = time.perf_counter

        if name in LEAVES:
            predicate = name in PREDICATES

            def leaf(*args, **kwargs):
                t0 = clock()
                out = fn(*args, **kwargs)
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt
                if predicate and out:
                    stat[3] += 1
                stack[-1][0] += dt
                return out

            return leaf

        spans = self.spans
        spanned = name in SPANNED
        counts_per_run = name == "engine.run"
        leaf_stats = [(leaf_name, self._stat(leaf_name)) for leaf_name in LEAVES]
        epoch = self._epoch

        def traced(*args, **kwargs):
            parent = stack[-1]
            enclosing = parent[1]
            span = None
            if spanned:
                span = {
                    "id": len(spans),
                    "parent": None if enclosing is None else enclosing["id"],
                    "trace": len(spans) if enclosing is None else enclosing["trace"],
                    "name": name,
                }
                spans.append(span)
            frame = [0.0, span or enclosing]
            if counts_per_run:
                before = [(s[0], s[1]) for _, s in leaf_stats]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                parent[0] += dt
                if span is not None:
                    span["start"] = t0 - epoch
                    span["end"] = t1 - epoch
                if counts_per_run:
                    span["counts"] = {
                        leaf_name: [s[0] - c, s[1] - t]
                        for (leaf_name, s), (c, t) in zip(leaf_stats, before)
                        if s[0] != c
                    }

        return traced

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_seconds(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def true_answers(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0, 0])[3]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, float]:
    """Per-layer values of one traced pass, against the untraced pass of the same inputs."""
    from workloads import half_slots

    runs = len(traced.records)
    hs = sum(half_slots(r) for r in traced.records)
    t = tracer

    def per_run(x):
        return _ratio(x, runs)

    values = {
        "topology.generate_ms": per_run(t.seconds("topology.generate")) * 1e3,
        "topology.accept_ratio": _ratio(t.true_answers("topology.is_connected"), t.calls("topology.is_connected")),
        "spectrum.assign_ms": per_run(t.seconds("spectrum.assign")) * 1e3,
        "seeding.labeled_rng_calls": per_run(t.calls("seeding.labeled_rng")),
        "seeding.labeled_rng_s": per_run(t.seconds("seeding.labeled_rng")),
        "engine.build_environment_ms": per_run(t.seconds("engine.build_environment")) * 1e3,
        "activity.is_busy_calls": per_run(t.calls("activity.is_busy")),
        "activity.is_busy_s": per_run(t.seconds("activity.is_busy")),
        "activity.busy_ratio": _ratio(t.true_answers("activity.is_busy"), t.calls("activity.is_busy")),
        "protocols.select_calls": per_run(t.calls("protocols.select")),
        "protocols.select_s": per_run(t.seconds("protocols.select")),
        "handshake.knowledge_calls": per_run(t.calls("handshake.knowledge")),
        "handshake.knowledge_s": per_run(t.seconds("handshake.knowledge")),
        "engine.half_slots": per_run(hs),
        # the engine's own code: a run's time outside every wrapped call beneath it
        "engine.loop_us_per_half_slot": _ratio(t.self_seconds("engine.run"), hs) * 1e6,
        "handshake.run_calls": per_run(t.calls("handshake.run")),
        "handshake.run_s": per_run(t.seconds("handshake.run")),
        "handshake.first_meeting_ratio": _ratio(sum(r.rendezvous for r in traced.records), t.calls("handshake.run")),
        "protocols.make_strategy_s": per_run(t.seconds("protocols.make_strategy")),
        "experiment.run_cell_s": per_run(t.seconds("experiment.run_cell")),
        # run_sweep minus its cells: building and writing data.csv and summary.json
        "experiment.write_s": per_run(t.self_seconds("experiment.run_sweep")),
        "experiment.bytes_written": per_run(traced.bytes_written),
        "metrics.summarize_s": per_run(t.seconds("metrics.summarize")),
        "trace.overhead_ratio": _ratio(traced.seconds, untraced.seconds),
    }
    return values
