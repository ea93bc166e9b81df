"""Engine invariants over random small scenarios."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from crhop import engine
from crhop.activity import ACTIVITY_CLASSES
from crhop.engine import COMPLETION_MODES, Scenario, build_environment, run
from crhop.handshake import D_REQ, HANDSHAKE_KINDS, HANDSHAKE_SIZES
from crhop.protocols import STRATEGY_KINDS
from crhop.seeding import seeded_rng, uniform_index
from reference import ids


@st.composite
def runs(draw, max_nodes=6):
    channels = draw(st.integers(1, 6))
    mode = draw(st.sampled_from(["sym", "asym"]))
    k = draw(st.integers(1, channels)) if mode == "asym" else None
    scenario = Scenario(
        nodes=draw(st.integers(1, max_nodes)),
        channels=channels,
        mode=mode,
        m=draw(st.integers(1, k)) if k else None,
        per_node_size=k,
        activity=draw(st.sampled_from(ACTIVITY_CLASSES)),
        protocol=draw(st.sampled_from(STRATEGY_KINDS)),
        handshake=draw(st.sampled_from(HANDSHAKE_KINDS)),
        completion_mode=draw(st.sampled_from(COMPLETION_MODES)),
        emca_window=draw(st.sampled_from([math.inf, 2.0])),
        share_unconfirmed_links=draw(st.booleans()),
        max_slots=draw(st.integers(1, 300)),
        # the small area makes single-hop placements, the larger one multihop
        area=draw(st.sampled_from([(100.0, 100.0), (250.0, 250.0)])),
    )
    return scenario, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(runs())
def test_run_record_invariants(case):
    scenario, seed = case
    record = run(scenario, seed)
    traced = run(scenario, seed, trace=True)
    assert record.trace is None
    assert replace(traced, trace=None) == record

    messages = [row for row in traced.trace if row[3] != "TUNE"]
    assert record.packets == len(messages)
    # a rendezvous is a pair's first handshake; lone D-REQs have no receiver
    pairs = {frozenset((s, r)) for _, _, _, kind, s, r, _ in messages if kind == D_REQ and r is not None}
    assert record.rendezvous == len(pairs)

    n, budget = scenario.nodes, 2 * scenario.max_slots
    assert record.packets >= HANDSHAKE_SIZES[scenario.handshake] * record.rendezvous
    assert record.rendezvous <= n * (n - 1) // 2
    last = {node for slot, half, _, _, s, r, _ in messages if (slot, half) == (scenario.max_slots, 2)
            for node in (s, r)}
    for node, (ttr, censored) in enumerate(zip(record.ttr_half_slots, record.censored)):
        if n == 1:
            assert (ttr, censored) == (0, False)
            continue
        assert 0 < ttr <= budget
        if censored:
            assert ttr == budget
        elif ttr == budget:
            # only a node that completed in the run's last half-slot
            assert node in last


@settings(max_examples=60, deadline=None)
@given(runs())
def test_neighbor_tables_keep_their_invariants(case):
    scenario, seed = case
    handshake = engine.run_handshake
    known: dict[int, set[int]] = {}  # owner -> its knowledge after its last handshake

    def checked(kind, initiator, responder, share_unconfirmed):
        messages = handshake(kind, initiator, responder, share_unconfirmed)
        for tables in (initiator, responder):
            dnl, inl, confirmed = ids(tables.dnl), ids(tables.inl), ids(tables.confirmed)
            assert tables.owner not in dnl and tables.owner not in inl
            assert not dnl & inl
            assert confirmed <= dnl
            knowledge = dnl | inl
            assert known.get(tables.owner, set()) <= knowledge
            known[tables.owner] = knowledge
        return messages

    # patched in the body: hypothesis rejects function-scoped fixtures under @given
    with mock.patch.object(engine, "run_handshake", checked):
        run(scenario, seed)


@settings(max_examples=40, deadline=None)
@given(runs(max_nodes=70), st.booleans())
def test_default_election_equals_a_uniform_pick_from_the_id_list(case, trace):
    # The default election picks the draw-th set bit of a mask and skips the
    # draw for one member; an election= callable gets every id list, one
    # member included, and draw(1) reads nothing. Up to 70 nodes reaches
    # clusters of three or more and masks past one machine word.
    scenario, seed = case
    draw = uniform_index(seeded_rng(build_environment(scenario, seed).seeds[scenario.nodes]))

    def election(tag, options):
        assert options == sorted(options)
        return options[draw(len(options))]

    assert run(scenario, seed, election=election, trace=trace) == run(scenario, seed, trace=trace)


@settings(max_examples=40, deadline=None)
@given(runs(), st.data())
def test_every_cell_of_an_environment_key_on_one_environment_equals_its_standalone_run(case, data):
    # Every protocol x handshake cell, each also with other values of some
    # behaviour fields, each traced or not, in a drawn order on one
    # environment: a record served from the environment's memo must be the
    # one the run would walk, so its behaviour key misses no field the walk
    # reads.
    scenario, seed = case
    others = {
        "max_slots": st.integers(1, 300).filter(lambda v: v != scenario.max_slots),
        "completion_mode": st.sampled_from([m for m in COMPLETION_MODES if m != scenario.completion_mode]),
        "emca_window": st.just(2.0 if scenario.emca_window == math.inf else math.inf),
        "share_unconfirmed_links": st.just(not scenario.share_unconfirmed_links),
    }
    fields = data.draw(st.sets(st.sampled_from(sorted(others)), min_size=1))
    variant = {field: data.draw(others[field]) for field in sorted(fields)}
    cells = [replace(scenario, protocol=p, handshake=h, **changes)
             for p in STRATEGY_KINDS for h in HANDSHAKE_KINDS for changes in ({}, variant)]
    order = data.draw(st.permutations([(cell, data.draw(st.booleans())) for cell in cells]))
    environment = build_environment(scenario, seed)
    for cell, trace in order:
        assert run(cell, seed, trace=trace, environment=environment) == run(cell, seed, trace=trace)


@st.composite
def blocks(draw, nodes):
    """(hops, busy, adjacency) of a random block: every node's channels, then
    the no-node row on channel 0; every channel's busy bits, row 0 unused; and
    a symmetric adjacency without self-links."""
    n, channels, width = draw(nodes), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    hops = np.zeros((n + 1, width), np.min_scalar_type(channels))
    hops[:-1] = rng.integers(1, channels + 1, size=(n, width))
    busy = np.zeros((channels + 1, width), dtype=bool)
    busy[1:] = rng.random((channels, width)) < draw(st.sampled_from([0.0, 0.5, 1.0]))
    links = np.triu(rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0])), 1)
    return hops, busy, links | links.T


@pytest.mark.parametrize("nodes", [st.integers(1, 64), st.integers(65, 70)], ids=["uint64-masks", "int-masks"])
@settings(max_examples=60, deadline=None)
@given(data=st.data(), trace=st.booleans())
def test_schedule_equals_a_loop_over_half_slots_and_channels(nodes, data, trace):
    hops, busy, adjacency = data.draw(blocks(nodes))
    n = len(adjacency)
    neighbours = [np.flatnonzero(row).tolist() for row in adjacency]
    # each node's r-th neighbour by id, or n past its degree, as Topology.peers
    peers = np.array([[ids[r] if r < len(ids) else n for ids in neighbours]
                      for r in range(max(map(len, neighbours)))]).reshape(-1, n)
    got = engine._schedule(hops, busy.copy(), peers, trace)
    want = reference.schedule(hops, busy.copy(), adjacency, trace)
    for name, a, b in zip(("busy", "lone", "at", "channel", "tuned"), got, want):
        assert (a.dtype, a.shape, a.flags.writeable) == (b.dtype, b.shape, False), name
        assert a.tolist() == b.tolist(), name
