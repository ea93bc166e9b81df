"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pass/fail status.
"""

import itertools
import statistics
import time
from fractions import Fraction

import numpy as np
import pytest

import reference
from conftest import CHAIN_POSITIONS, PAIR_POSITIONS, ScriptedElection
from crhop.activity import ON, ActivityRates, state_probabilities, utilization
from crhop.engine import Scenario, run
from crhop.experiment import SweepConfig, cells, check_table1, run_group, run_sweep
from crhop.handshake import NeighborTables, run_handshake
from crhop.metrics import compare, per_run_attr_slots
from reference import ids
from test_protocols import FakeRng, dual_clock_reference_trace

from crhop.protocols import MdmcaStrategy

CH4 = ActivityRates(0.22, 1.44)


def report(line):
    print(f"\n[acceptance] {line}")


# criterion 1 -----------------------------------------------------------------

def test_criterion_1_rate_table_reproduction():
    start = time.monotonic()
    checks = check_table1()
    elapsed = time.monotonic() - start
    assert all(c.ok for c in checks), [c for c in checks if not c.ok]
    assert len(checks) == 20
    assert all(abs(c.computed - c.expected) <= 0.01 for c in checks)
    assert elapsed < 1.0
    report(f"criterion 1 PASS: all 20 utilizations within 0.01 ({elapsed:.3f}s)")


# criterion 2 -----------------------------------------------------------------

def test_criterion_2_occupancy_process_law():
    start = time.monotonic()
    u = utilization(CH4)
    assert u == pytest.approx(0.867, abs=0.001)
    for seed in range(10):
        intervals = reference.sample_intervals([], CH4, np.random.default_rng(1000 + seed), 100_000.0)
        frac = sum(d for s, d in intervals if s == ON) / sum(d for _, d in intervals)
        assert abs(frac - u) <= 0.02

    rng = np.random.default_rng(55)
    for _ in range(1000):
        rates = ActivityRates(float(rng.uniform(0.01, 100.0)), float(rng.uniform(0.01, 100.0)))
        p_on0, p_off0 = state_probabilities(rates, 0.0)
        assert (p_on0, p_off0) == (0.0, 1.0)
        p_on, p_off = state_probabilities(rates, float(rng.uniform(0.0, 1000.0)))
        assert p_on + p_off == 1.0
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(f"criterion 2 PASS: long-run ON fraction within 0.02 over 10 seeds, "
           f"transient law exact ({elapsed:.1f}s)")


# criterion 3 -----------------------------------------------------------------

def test_criterion_3_dual_clock_trace_conformance():
    start = time.monotonic()
    configs = 0
    for m in range(1, 7):
        for cu in itertools.combinations(range(1, 11), m):
            for j1, j2, r1, r2 in itertools.product(range(m), repeat=4):
                strat = MdmcaStrategy(cu, FakeRng([j1, j2], cycle=[r1, r2]))
                got = [(strat.select(1), strat.select(2)) for _ in range(3)]
                want = dual_clock_reference_trace(cu, j1, j2, r1, r2, 3)
                assert got == want, (cu, j1, j2, r1, r2, got, want)
                configs += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    report(f"criterion 3 PASS: {configs} clock configurations, zero trace "
           f"mismatches ({elapsed:.1f}s)")


# criterion 4 -----------------------------------------------------------------

def test_criterion_4_handshake_property_suite():
    start = time.monotonic()
    rng = np.random.default_rng(4242)
    sequences = 10_000
    for _ in range(sequences):
        n = int(rng.integers(2, 7))
        nodes = [NeighborTables(i) for i in range(n)]
        for _ in range(int(rng.integers(1, 9))):
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            kind = "2wh" if rng.integers(2) else "3wh"
            know_i = ids(nodes[i].dnl | nodes[i].inl)
            know_j = ids(nodes[j].dnl | nodes[j].inl)
            conf_i = ids(nodes[i].confirmed)
            conf_j_had_i = i in ids(nodes[j].confirmed)
            messages = run_handshake(kind, nodes[i], nodes[j])
            assert len(messages) == (2 if kind == "2wh" else 3)
            assert know_i <= ids(nodes[i].dnl | nodes[i].inl) and conf_i <= ids(nodes[i].confirmed)
            assert know_j <= ids(nodes[j].dnl | nodes[j].inl)
            assert j in ids(nodes[i].confirmed)
            if kind == "3wh":
                assert i in ids(nodes[j].confirmed)
                assert ids(nodes[i].dnl | nodes[i].inl) | {i} == ids(nodes[j].dnl | nodes[j].inl) | {j}
            else:
                assert (i in ids(nodes[j].confirmed)) == conf_j_had_i
            for t in (nodes[i], nodes[j]):
                assert t.owner not in ids(t.dnl | t.inl)
                assert not (ids(t.dnl) & ids(t.inl))
                assert ids(t.confirmed) <= ids(t.dnl)
    elapsed = time.monotonic() - start
    report(f"criterion 4 PASS: {sequences} randomized meeting sequences, zero "
           f"violations ({elapsed:.1f}s)")


# criterion 5 -----------------------------------------------------------------

CHAIN_ADJACENCY = {0: (1,), 1: (0, 2), 2: (1,)}
CHAIN_CAP_SLOTS = 3


class ChainModel:
    """Hand-written model of the 3-node chain on one idle channel with the
    three-way handshake, used as an independent oracle for the engine."""

    def __init__(self):
        self.dnl = [set(), set(), set()]
        self.inl = [set(), set(), set()]
        self.confirmed = [set(), set(), set()]
        self.complete = [False, False, False]
        self.ttr = [0, 0, 0]
        self.packets = 0
        self.met = set()

    def knowledge(self, i):
        return self.dnl[i] | self.inl[i]

    def shared_tables(self, i):
        # snapshots withhold unconfirmed direct links (engine default)
        return set(self.dnl[i] & self.confirmed[i]), set(self.inl[i])

    def absorb(self, i, sender, tables):
        dnl, inl = tables
        self.dnl[i].add(sender)
        self.inl[i].discard(sender)
        for peer in dnl | inl:
            if peer != i and peer not in self.dnl[i]:
                self.inl[i].add(peer)

    def run(self, chooser):
        half_slot = 0
        for slot in range(1, CHAIN_CAP_SLOTS + 1):
            for half in (1, 2):
                half_slot = 2 * slot - (1 if half == 1 else 0)
                eligible = [i for i in range(3)
                            if not self.complete[i] or (self.dnl[i] - self.confirmed[i])]
                initiator = chooser("initiator", eligible)
                in_range = [p for p in CHAIN_ADJACENCY[initiator]]
                know = self.knowledge(initiator)
                tiers = (
                    [p for p in in_range if p not in know],
                    [p for p in in_range if p in self.dnl[initiator] - self.confirmed[initiator]],
                    [p for p in in_range if p in self.inl[initiator]],
                    [p for p in in_range if p in self.confirmed[initiator]],
                )
                responder = chooser("responder", next(t for t in tiers if t))
                a, b = initiator, responder
                self.absorb(b, a, self.shared_tables(a))
                self.absorb(a, b, self.shared_tables(b))
                self.confirmed[a].add(b)
                self.absorb(b, a, self.shared_tables(a))
                self.confirmed[b].add(a)
                self.packets += 3
                self.met.add((min(a, b), max(a, b)))
                for i in range(3):
                    if not self.complete[i] and len(self.knowledge(i)) == 2:
                        self.complete[i] = True
                        self.ttr[i] = half_slot
                if all(self.complete):
                    return self.outcome()
        return self.outcome()

    def outcome(self):
        ttrs = tuple(self.ttr[i] if self.complete[i] else 2 * CHAIN_CAP_SLOTS
                     for i in range(3))
        censored = tuple(not c for c in self.complete)
        return ttrs, censored, self.packets, len(self.met)


def chain_scenario():
    return Scenario(nodes=3, channels=1, mode="sym", activity="zero",
                    protocol="mdmca", handshake="3wh", positions=CHAIN_POSITIONS,
                    max_slots=CHAIN_CAP_SLOTS)


def engine_outcome(script):
    election = ScriptedElection(script)
    record = run(chain_scenario(), 0, election=election)
    outcome = (record.ttr_half_slots, record.censored, record.packets, record.rendezvous)
    return outcome, election.log, election.probability


def model_outcome(script):
    election = ScriptedElection(script)
    outcome = ChainModel().run(election)
    return outcome, election.log, election.probability


def enumerate_tree(runner):
    """All election paths of a decision tree, each with exact probability."""
    results = {}

    def explore(prefix):
        outcome, log, probability = runner(prefix)
        key = tuple(entry[2] for entry in log)
        assert key not in results
        results[key] = (outcome, probability)
        for depth in range(len(prefix), len(log)):
            _tag, options, picked = log[depth]
            assert picked == 0
            taken = [entry[2] for entry in log[:depth]]
            for alternative in range(1, len(options)):
                explore(taken + [alternative])

    explore([])
    return results


def test_criterion_5_chain_enumeration_matches_engine():
    start = time.monotonic()
    engine_tree = enumerate_tree(engine_outcome)
    model_tree = enumerate_tree(model_outcome)
    assert engine_tree == model_tree
    total = sum(p for _, p in engine_tree.values())
    assert total == Fraction(1)

    distribution = {}
    complete_within_cap = Fraction(0)
    for outcome, probability in engine_tree.values():
        ttrs, censored, _packets, _rendezvous = outcome
        distribution[ttrs] = distribution.get(ttrs, Fraction(0)) + probability
        if not any(censored):
            complete_within_cap += probability
    elapsed = time.monotonic() - start
    assert complete_within_cap > Fraction(95, 100)
    report(
        f"criterion 5 PASS: {len(engine_tree)} election paths match the hand "
        f"model exactly; P(all complete within {CHAIN_CAP_SLOTS} slots) = "
        f"{complete_within_cap} ~= {float(complete_within_cap):.4f} ({elapsed:.1f}s)"
    )


# criteria 6 + 7 + 8 + 9 ------------------------------------------------------

PAIRED_SEEDS = 50
BASE_SEED = 90210


@pytest.fixture(scope="module")
def handshake_cells():
    # the two handshakes of one activity share each run's environment
    cells = {}
    for act in ("zero", "high"):
        pair = [
            Scenario(nodes=10, channels=10, mode="sym", activity=act,
                     protocol="mdmca", handshake=hs, max_slots=20_000)
            for hs in ("2wh", "3wh")
        ]
        for sc, result in zip(pair, run_group(pair, PAIRED_SEEDS, BASE_SEED)):
            cells[(sc.handshake, act)] = result
    return cells


@pytest.fixture(scope="module")
def protocol_cells():
    protocols = ("mdmca", "memca")
    group = [
        Scenario(nodes=10, channels=20, mode="asym", m=2, activity="high",
                 protocol=protocol, handshake="3wh", max_slots=20_000)
        for protocol in protocols
    ]
    return dict(zip(protocols, run_group(group, PAIRED_SEEDS, BASE_SEED)))


def test_criterion_6a_three_way_beats_two_way_attr(handshake_cells):
    start = time.monotonic()
    lines = []
    for activity in ("zero", "high"):
        summary = compare(handshake_cells[("3wh", activity)], handshake_cells[("2wh", activity)])
        assert summary.pairs == PAIRED_SEEDS
        assert summary.attr_ratio < 1.0
        assert summary.attr_p_value < 0.05
        lines.append(
            f"{activity}: ratio={summary.attr_ratio:.3f} "
            f"(soft target <= 0.7), p={summary.attr_p_value:.2e}"
        )
    elapsed = time.monotonic() - start
    report("criterion 6a PASS: ATTR(3WH) < ATTR(2WH) on 10-CH symmetric; "
           + "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_6b_dual_clock_beats_single_clock(protocol_cells):
    summary = compare(protocol_cells["mdmca"], protocol_cells["memca"])
    assert summary.pairs == PAIRED_SEEDS
    assert summary.improvement_pct > 0
    assert summary.attr_p_value < 0.05
    report(
        f"criterion 6b PASS: 20-CH asym m=2 high activity, improvement="
        f"{summary.improvement_pct:.1f}% (soft target >= 10%), p={summary.attr_p_value:.2e}"
    )


def test_criterion_6c_three_way_beats_two_way_ppr(handshake_cells):
    lines = []
    for activity in ("zero", "high"):
        summary = compare(handshake_cells[("3wh", activity)], handshake_cells[("2wh", activity)])
        assert summary.ppr_ratio is not None and summary.ppr_ratio < 1.0
        assert summary.ppr_p_value < 0.05
        lines.append(f"{activity}: ppr_ratio={summary.ppr_ratio:.3f} p={summary.ppr_p_value:.2e}")
    report("criterion 6c PASS: PPR(3WH) < PPR(2WH) on 10-CH symmetric; " + "; ".join(lines))


TREND_SEEDS = 30


def median_attr(result):
    return statistics.median(per_run_attr_slots(r) for r in result.records)


def test_criterion_7_monotone_trends():
    start = time.monotonic()

    def asym(m, channels, activity, k=10):
        sc = Scenario(nodes=5, channels=channels, mode="asym", m=m, per_node_size=k,
                      activity=activity, protocol="mdmca", handshake="3wh",
                      max_slots=30_000)
        return median_attr(run_group([sc], TREND_SEEDS, BASE_SEED)[0])

    def sym(activity):
        sc = Scenario(nodes=5, channels=10, mode="sym", activity=activity,
                      protocol="mdmca", handshake="3wh", max_slots=30_000)
        return median_attr(run_group([sc], TREND_SEEDS, BASE_SEED)[0])

    by_m = {m: asym(m, 20, "zero") for m in (9, 5, 2)}
    assert by_m[9] < by_m[5] < by_m[2], by_m

    by_activity = {act: sym(act) for act in ("zero", "high")}
    assert by_activity["zero"] < by_activity["high"], by_activity

    by_channels = {c: asym(2, c, "zero") for c in (10, 20)}
    assert by_channels[10] < by_channels[20], by_channels

    elapsed = time.monotonic() - start
    report(
        "criterion 7 PASS: median ATTR rises with shrinking similarity "
        f"(m 9/5/2 -> {by_m[9]:.2f}/{by_m[5]:.2f}/{by_m[2]:.2f}), with activity "
        f"(zero/high -> {by_activity['zero']:.2f}/{by_activity['high']:.2f}) and with "
        f"pool size (C 10/20 -> {by_channels[10]:.2f}/{by_channels[20]:.2f}) "
        f"({elapsed:.1f}s)"
    )


def test_criterion_8_sweep_determinism(tmp_path):
    config = SweepConfig(
        protocols=("mdmca", "mrcs", "mmca", "memca"),
        handshakes=("2wh", "3wh"),
        nodes=(3, 5),
        channels=(10,),
        modes=("sym", 5),
        activities=("zero", "mix"),
        runs=2,
        base_seed=7,
        max_slots=3000,
    )
    grid = cells(config)
    picker = np.random.default_rng(8)
    chosen = sorted(picker.choice(len(grid), size=3, replace=False).tolist())
    for index in chosen:
        sc = grid[index]
        single = SweepConfig(
            protocols=(sc.protocol,), handshakes=(sc.handshake,), nodes=(sc.nodes,),
            channels=(sc.channels,), modes=(("sym",) if sc.mode == "sym" else (sc.m,)),
            activities=(sc.activity,), runs=config.runs, base_seed=config.base_seed,
            max_slots=config.max_slots,
        )
        first = tmp_path / f"cell{index}-a"
        second = tmp_path / f"cell{index}-b"
        run_sweep(single, str(first))
        run_sweep(single, str(second))
        assert (first / "data.csv").read_bytes() == (second / "data.csv").read_bytes()
    report(f"criterion 8 PASS: byte-identical data.csv on cells {chosen}")


def test_criterion_9_ppr_floor(handshake_cells, protocol_cells):
    floors = {"2wh": 2, "3wh": 3}
    checked = 0
    for result in list(handshake_cells.values()) + list(protocol_cells.values()):
        for record in result.records:
            if record.rendezvous > 0:
                assert record.packets / record.rendezvous >= floors[record.handshake]
                checked += 1

    for handshake, expected in floors.items():
        sc = Scenario(nodes=2, channels=1, mode="sym", activity="zero",
                      protocol="mdmca", handshake=handshake, positions=PAIR_POSITIONS)
        record = run(sc, 1)
        assert record.packets / record.rendezvous == expected

    report(f"criterion 9 PASS: PPR floor held across {checked} runs; equality "
           "reached on the 2-node single-channel scenario")
