"""Runs on one shared Environment give the records of standalone runs."""

from collections import Counter
from dataclasses import replace

import pytest

from crhop import engine, experiment
from crhop.activity import ChannelProcess
from crhop.engine import FIRST_BLOCK_SLOTS, Environment, Scenario, build_environment, run
from crhop.errors import InvalidParameterError
from crhop.experiment import run_group
from crhop.handshake import HANDSHAKE_KINDS
from crhop.protocols import STRATEGIES, STRATEGY_KINDS

SEEDS = (3, 7)
BASE = dict(
    nodes=10, channels=8, mode="asym", m=2, per_node_size=4, activity="mix",
    area=(300.0, 300.0), max_slots=3 * FIRST_BLOCK_SLOTS,
)


def group_cells() -> list[Scenario]:
    """Cells of one environment key in sweep order (protocol-major), with
    every completion mode, a finite memca window and shorter budgets."""
    cells = [
        Scenario(protocol=protocol, handshake=handshake, completion_mode=mode, **BASE)
        for protocol in STRATEGY_KINDS
        for handshake in HANDSHAKE_KINDS
        for mode in ("responder-only", "silent", "active")
    ]
    cells.append(Scenario(protocol="memca", handshake="3wh", emca_window=2, **BASE))
    # budgets ending inside the first and the second block: the runs after
    # them read blocks these runs drew in full
    cells.append(Scenario(protocol="memca", handshake="2wh", **{**BASE, "max_slots": FIRST_BLOCK_SLOTS + 9}))
    cells.append(Scenario(protocol="mdmca", handshake="3wh", **{**BASE, "max_slots": 1}))
    return cells


@pytest.fixture(scope="module")
def standalone():
    return {(sc, seed): run(sc, seed) for sc in group_cells() for seed in SEEDS}


@pytest.mark.parametrize("order", ["sweep", "reverse"])
def test_shared_environment_runs_equal_standalone_runs(order, standalone):
    cells = group_cells() if order == "sweep" else group_cells()[::-1]
    for seed in SEEDS:
        environment = build_environment(cells[0], seed)
        for sc in cells:
            assert run(sc, seed, environment=environment) == standalone[(sc, seed)], (sc, seed)
    records = standalone.values()
    # the matrix reaches past the first block, and nodes fall silent mid-run
    assert max(max(r.ttr_half_slots) for r in records if not any(r.censored)) > 2 * FIRST_BLOCK_SLOTS
    assert any(any(r.censored) and not all(r.censored) for r in records)


def test_traced_run_on_a_shared_environment_equals_standalone():
    sc = Scenario(protocol="mmca", handshake="3wh", **BASE)
    environment = build_environment(sc, SEEDS[1])
    run(replace(sc, protocol="memca"), SEEDS[1], environment=environment)
    shared = run(sc, SEEDS[1], trace=True, environment=environment)
    assert shared == run(sc, SEEDS[1], trace=True)
    assert shared.trace


def test_a_group_derives_each_schedule_once(monkeypatch):
    reached = []  # (environment, clock class, block, trace) of every schedule call, the last one under way
    derived, busy, hops = Counter(), Counter(), Counter()

    def counting(draw, counts, key):
        def counted(*args):
            counts[key(*reached[-1])] += 1
            return draw(*args)
        return counted

    monkeypatch.setattr(engine, "_schedule", counting(engine._schedule, derived, lambda *key: key))
    busy_draws = counting(ChannelProcess.busy_bits, busy, lambda env, clock, b, trace: (env, b))
    monkeypatch.setattr(ChannelProcess, "busy_bits", busy_draws)
    for cls in set(STRATEGIES.values()):
        hop_draws = counting(cls.block, hops, lambda env, clock, b, trace: (env, clock, b))
        monkeypatch.setattr(cls, "block", staticmethod(hop_draws))
    schedule = Environment.schedule

    def reaching(self, protocol, b, trace):
        reached.append((self, STRATEGIES[protocol], b, trace))
        return schedule(self, protocol, b, trace)

    monkeypatch.setattr(Environment, "schedule", reaching)
    cells = [Scenario(protocol=p, handshake=h, **BASE) for p in STRATEGY_KINDS for h in HANDSHAKE_KINDS]
    run_group(cells, 2, 3)
    # one schedule per (environment, clock class, block, trace), one busy-bits
    # draw per (environment, block) and one hop block per (environment, clock
    # class, block) reached, and no draw for anything not reached
    assert derived == {key: 1 for key in reached}
    assert busy == {(env, b): 1 for env, _, b, _ in reached}
    assert hops == {(env, clock, b): 1 for env, clock, b, _ in reached}
    # two environments, three clock classes, and runs that go on past block 0
    assert len({(env, clock) for env, clock, _, _ in reached}) == 6
    assert any(b > 0 for _, _, b, _ in reached)


def test_untraced_and_traced_runs_interleaved_on_one_environment_equal_standalone():
    short = {**BASE, "max_slots": FIRST_BLOCK_SLOTS + 9}  # ends inside block 1
    runs = [  # (scenario, trace), all of one clock class
        (Scenario(protocol="mmca", handshake="2wh", **short), False),
        (Scenario(protocol="memca", handshake="3wh", **BASE), False),
        (Scenario(protocol="mmca", handshake="3wh", **short), True),
        (Scenario(protocol="memca", handshake="2wh", **BASE), True),
        (Scenario(protocol="memca", handshake="2wh", completion_mode="silent", **BASE), False),
    ]
    seed = SEEDS[1]
    environment = build_environment(runs[0][0], seed)
    records = [run(sc, seed, trace=trace, environment=environment) for sc, trace in runs]
    assert records == [run(sc, seed, trace=trace) for sc, trace in runs]
    # the short budgets stop runs still going, and the full ones after them read on past them
    assert any(records[0].censored) and any(records[2].censored)
    assert all(max(r.ttr_half_slots) > 2 * short["max_slots"] for r in (records[1], records[3]))


def test_environment_of_another_seed_or_key_is_refused():
    sc = Scenario(protocol="mdmca", handshake="3wh", **BASE)
    environment = build_environment(sc, SEEDS[0])
    with pytest.raises(InvalidParameterError):
        run(sc, SEEDS[1], environment=environment)
    with pytest.raises(InvalidParameterError):
        run(replace(sc, nodes=11), SEEDS[0], environment=environment)
    with pytest.raises(InvalidParameterError):
        run(replace(sc, activity="high"), SEEDS[0], environment=environment)


@pytest.mark.parametrize("max_slots, seed, blocks", [
    (BASE["max_slots"], SEEDS[0], 1),  # completes inside block 0
    (FIRST_BLOCK_SLOTS + 9, SEEDS[1], 2),  # still running when its budget, inside block 1, ends
])
def test_a_run_fetches_only_the_blocks_it_simulates(max_slots, seed, blocks, monkeypatch):
    fetched = []
    schedule = Environment.schedule

    def counted(self, protocol, b, trace):
        fetched.append(b)
        return schedule(self, protocol, b, trace)

    monkeypatch.setattr(Environment, "schedule", counted)
    record = run(Scenario(protocol="mmca", handshake="2wh", **{**BASE, "max_slots": max_slots}), seed)
    assert any(record.censored) == (blocks == 2)
    last = max(record.ttr_half_slots)  # the last half-slot the run simulated
    assert (last - 1) // (2 * FIRST_BLOCK_SLOTS) == blocks - 1
    assert fetched == list(range(blocks))


def walks(monkeypatch) -> list:
    """The (protocol, block, trace) of every Environment.schedule call from now on."""
    calls = []
    schedule = Environment.schedule

    def recorded(self, protocol, b, trace):
        calls.append((protocol, b, trace))
        return schedule(self, protocol, b, trace)

    monkeypatch.setattr(Environment, "schedule", recorded)
    return calls


def test_a_group_runs_unbounded_window_memca_once_as_mmca(monkeypatch):
    records = []  # (scenario, record) of every run run_group makes, in order
    engine_run = experiment.run

    def recorded(scenario, seed, **kwargs):
        records.append((scenario, engine_run(scenario, seed, **kwargs)))
        return records[-1][1]

    monkeypatch.setattr(experiment, "run", recorded)
    calls = walks(monkeypatch)
    cells = [Scenario(protocol=p, handshake=h, **BASE) for p in STRATEGY_KINDS for h in HANDSHAKE_KINDS]
    run_group(cells, 2, 3)
    by_cell = {cell: [record for sc, record in records if sc == cell] for cell in cells}
    for handshake in HANDSHAKE_KINDS:
        twin = by_cell[Scenario(protocol="mmca", handshake=handshake, **BASE)]
        assert len(twin) == 2 and by_cell[Scenario(protocol="memca", handshake=handshake, **BASE)] == twin
    # memca reaches no schedule; every other protocol does
    assert {protocol for protocol, _, _ in calls} == set(STRATEGY_KINDS) - {"memca"}


@pytest.mark.parametrize("changes, options", [
    pytest.param({"protocol": "memca", "emca_window": 2}, {}, id="finite-window"),
    pytest.param({}, {"trace": True}, id="traced"),
    pytest.param({"max_slots": FIRST_BLOCK_SLOTS + 9}, {}, id="shorter-budget"),
    pytest.param({"completion_mode": "active"}, {}, id="completion-mode"),
    pytest.param({"share_unconfirmed_links": True}, {}, id="shared-links"),
    pytest.param({"handshake": "2wh"}, {}, id="handshake"),
    pytest.param({"protocol": "mrcs"}, {}, id="clock-class"),
])
def test_a_run_of_another_behaviour_walks_on_its_own(changes, options, monkeypatch):
    calls = walks(monkeypatch)
    base = Scenario(protocol="mmca", handshake="3wh", **BASE)
    seed = SEEDS[1]
    environment = build_environment(base, seed)
    first = run(base, seed, environment=environment)
    twin = replace(base, protocol="memca")
    del calls[:]
    assert run(twin, seed, environment=environment) is first and not calls  # served, unwalked
    scenario = replace(base, **changes)
    record = run(scenario, seed, environment=environment, **options)
    assert calls, "the run walked no block"
    assert record == run(scenario, seed, **options)
    # and it left the twin's record as it was
    assert run(twin, seed, environment=environment) is first
