"""Runs on one shared Environment give the records of standalone runs."""

from dataclasses import replace

import pytest

from crhop.engine import FIRST_BLOCK_SLOTS, Environment, Scenario, build_environment, run
from crhop.errors import InvalidParameterError
from crhop.handshake import HANDSHAKE_KINDS
from crhop.protocols import STRATEGY_KINDS

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
    block = Environment.block

    def counted(self, protocol, b):
        fetched.append(b)
        return block(self, protocol, b)

    monkeypatch.setattr(Environment, "block", counted)
    record = run(Scenario(protocol="mmca", handshake="2wh", **{**BASE, "max_slots": max_slots}), seed)
    assert any(record.censored) == (blocks == 2)
    last = max(record.ttr_half_slots)  # the last half-slot the run simulated
    assert (last - 1) // (2 * FIRST_BLOCK_SLOTS) == blocks - 1
    assert fetched == list(range(blocks))
