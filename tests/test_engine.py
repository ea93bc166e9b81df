"""Slotted engine tests."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import CHAIN_POSITIONS, PAIR_POSITIONS, ScriptedElection
from crhop.engine import MAX_CHANNELS, Scenario, _clusters, build_environment, run
from crhop.errors import GenerationFailureError, InvalidParameterError
from crhop.handshake import D_ACK, D_REQ, D_RESP
from crhop.topology import from_positions


def clusters_of(member_ids, topology):
    """engine._clusters on ascending ids, decoded to sorted id lists."""
    members = sum(1 << i for i in member_ids)
    return [sorted(reference.ids(c)) for c in _clusters(members, topology.neighbor_masks)]


def pair_scenario(handshake="3wh", **kw):
    base = dict(
        nodes=2, channels=1, mode="sym", activity="zero", protocol="mdmca",
        handshake=handshake, positions=PAIR_POSITIONS,
    )
    base.update(kw)
    return Scenario(**base)


def chain_scenario(**kw):
    base = dict(
        nodes=3, channels=1, mode="sym", activity="zero", protocol="mdmca",
        handshake="3wh", positions=CHAIN_POSITIONS,
    )
    base.update(kw)
    return Scenario(**base)


class TestSingletonChannelPair:
    def test_three_way_exact_counts(self):
        record = run(pair_scenario("3wh"), 1)
        assert record.ttr_half_slots == (1, 1)
        assert record.packets == 3
        assert record.rendezvous == 1
        assert record.censored == (False, False)

    def test_two_way_exact_counts(self):
        record = run(pair_scenario("2wh"), 1)
        assert record.ttr_half_slots == (1, 1)
        assert record.packets == 2
        assert record.rendezvous == 1


def test_single_node_completes_immediately():
    sc = Scenario(nodes=1, channels=5, mode="sym", activity="high", protocol="mrcs",
                  handshake="3wh", positions=((3.0, 3.0),))
    record = run(sc, 99)
    assert record.ttr_half_slots == (0,)
    assert record.packets == 0
    assert record.rendezvous == 0


def test_rerun_is_bit_identical():
    sc = Scenario(nodes=6, channels=10, mode="asym", m=4, activity="mix",
                  protocol="mdmca", handshake="2wh", max_slots=5000)
    assert run(sc, 31337) == run(sc, 31337)


def test_all_randomness_is_seed_scoped():
    sc = Scenario(nodes=4, channels=10, mode="sym", activity="zero",
                  protocol="mrcs", handshake="3wh", max_slots=5000)
    assert run(sc, 1) != run(sc, 2)  # astronomically unlikely to collide


class TestSensingGate:
    def test_no_packet_on_busy_channel(self):
        sc = Scenario(nodes=6, channels=4, mode="sym", activity="high",
                      protocol="mrcs", handshake="3wh", max_slots=3000)
        record = run(sc, 5, trace=True)
        busy = {
            (slot, half, channel)
            for slot, half, channel, kind, *_rest, pr in record.trace
            if kind == "TUNE" and pr == "on"
        }
        messages = [row for row in record.trace if row[3] != "TUNE"]
        assert messages, "expected some traffic in the trace"
        for slot, half, channel, kind, sender, receiver, pr in messages:
            assert (slot, half, channel) not in busy
            assert pr == "off"

    def test_high_activity_defers_first_contact(self):
        # The pair starts on an idle channel at t=0 (processes start OFF),
        # so even under high activity slot 1 first half succeeds.
        record = run(pair_scenario("3wh", activity="high"), 3)
        assert record.ttr_half_slots == (1, 1)


class TestClusters:
    def test_one_handshake_per_cluster_half_slot(self):
        # three mutually in-range nodes, one channel: a single cluster, so at
        # most one paired exchange per half-slot
        sc = Scenario(nodes=3, channels=1, mode="sym", activity="zero",
                      protocol="mdmca", handshake="3wh",
                      positions=((0.0, 0.0), (10.0, 0.0), (10.0, 5.0)))
        record = run(sc, 7, trace=True)
        initiations = {}
        for slot, half, channel, kind, sender, receiver, _pr in record.trace:
            if kind == D_REQ and receiver is not None:
                initiations[(slot, half, channel)] = initiations.get((slot, half, channel), 0) + 1
        assert initiations and all(v == 1 for v in initiations.values())

    def test_restricting_to_tuned_nodes_splits_components(self):
        # a 5-chain stays connected, but with the middle node tuned away the
        # end pairs fall into separate clusters
        topo = from_positions([(i * 90.0, 0.0) for i in range(5)], 100.0)
        assert clusters_of([0, 1, 2, 3, 4], topo) == [[0, 1, 2, 3, 4]]
        assert clusters_of([0, 1, 3, 4], topo) == [[0, 1], [3, 4]]
        assert clusters_of([0, 2, 4], topo) == [[0], [2], [4]]

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1), share=st.floats(0.1, 0.9))
    def test_mask_search_equals_the_set_search(self, n, seed, share):
        # Each node lands within range of an earlier one, so the placement is
        # connected; up to 80 nodes takes the masks past one machine word.
        rng = np.random.default_rng(seed)
        points = [(0.0, 0.0)]
        for i in range(1, n):
            x, y = points[rng.integers(i)]
            angle, distance = rng.uniform(0.0, 2 * math.pi), rng.uniform(60.0, 95.0)
            points.append((x + distance * math.cos(angle), y + distance * math.sin(angle)))
        topo = from_positions(points, 100.0)
        member_ids = [i for i in range(n) if rng.random() < share]
        assert clusters_of(member_ids, topo) == reference.clusters(member_ids, topo)

    def test_untraced_clusters_see_only_nodes_with_an_adjacent_peer(self, monkeypatch):
        # Without silence every member _clusters receives must have an
        # adjacent member: a node alone on its channel, or whose channel
        # mates are all out of range, sends its lone D-REQ from the arrays.
        import crhop.engine

        real, seen = crhop.engine._clusters, []

        def recording(members, neighbor_masks):
            seen[-1][1].append(sorted(reference.ids(members)))
            return real(members, neighbor_masks)

        monkeypatch.setattr(crhop.engine, "_clusters", recording)
        sc = Scenario(nodes=20, channels=20, mode="asym", m=2, activity="high",
                      protocol="mmca", handshake="2wh", max_slots=200)
        for seed in range(3):
            seen.append((build_environment(sc, seed).topology, []))
            run(sc, seed)
        assert all(calls for _topo, calls in seen)
        for topo, calls in seen:
            for members in calls:
                assert all(any(topo.adjacency[i, j] for j in members) for i in members)


# Dense networks: one channel holds several clusters at once, and nodes fall
# silent mid-block (silent mode, or memca past its window). The traced run
# visits every node on every half-slot, so it is the reference.
@pytest.mark.parametrize("nodes", [30, 50])
@pytest.mark.parametrize("area", [(70.0, 70.0), (400.0, 400.0)], ids=["single-hop", "multihop"])
@pytest.mark.parametrize("behaviour", [
    dict(protocol="mdmca", handshake="3wh", completion_mode="silent"),
    dict(protocol="memca", handshake="2wh", emca_window=2),
], ids=["silent", "memca-window"])
def test_dense_untraced_run_equals_traced(nodes, area, behaviour):
    sc = Scenario(nodes=nodes, channels=3, mode="sym", activity="mix", area=area,
                  max_slots=150, **behaviour)
    record = run(sc, 5)
    assert not all(record.censored)
    assert replace(run(sc, 5, trace=True), trace=None) == record


class TestChainPropagation:
    def test_scripted_middle_first_trace(self):
        # slot 1: middle node handshakes both ends; slot 2: the remaining
        # incomplete end node completes off the middle node's tables even
        # though everyone it meets is already done
        election = ScriptedElection([1, 0, 1, 0, 0, 0])
        record = run(chain_scenario(), 123, election=election, trace=True)
        assert record.ttr_half_slots == (3, 2, 2)
        assert record.packets == 9
        assert record.rendezvous == 2  # pair (0,1) met twice, counted once
        kinds = [r[3] for r in record.trace if r[3] != "TUNE"]
        assert kinds == [D_REQ, D_RESP, D_ACK] * 3

    def test_chain_completes_quickly_across_seeds(self):
        for seed in range(50):
            record = run(chain_scenario(max_slots=200), seed)
            assert not any(record.censored)
            assert max(record.ttr_half_slots) <= 12


class TestResponderOnly:
    def test_completed_nodes_never_initiate_under_3wh(self):
        sc = Scenario(nodes=5, channels=5, mode="sym", activity="zero",
                      protocol="mdmca", handshake="3wh", max_slots=2000)
        record = run(sc, 11, trace=True)
        completion = {i: record.ttr_half_slots[i] for i in range(5)}
        for slot, half, _channel, kind, sender, receiver, _pr in record.trace:
            if kind == D_REQ:
                h = 2 * slot - (1 if half == 1 else 0)
                assert h <= completion[sender], "completed node initiated"

    def test_two_way_responder_reinitiates_toward_unconfirmed(self):
        # half-slot 1: node 1 initiates toward node 0, leaving node 0 holding
        # the link unconfirmed; half-slot 2: node 0, elected again, points its
        # handshake back at node 1 even though nothing new can be learned
        election = ScriptedElection([1, 0, 0, 0])
        record = run(chain_scenario(handshake="2wh", max_slots=50), 4,
                     election=election, trace=True)
        reqs = [r for r in record.trace if r[3] == D_REQ and r[5] is not None]
        assert (reqs[0][4], reqs[0][5]) == (1, 0)
        assert (reqs[1][4], reqs[1][5]) == (0, 1)
        # the repeat exchange burns packets without a new rendezvous event
        pair_01_reqs = [r for r in reqs if {r[4], r[5]} == {0, 1}]
        assert len(pair_01_reqs) >= 2
        assert record.rendezvous < len(reqs)

    def test_silent_mode_ends_participation(self):
        sc = chain_scenario(completion_mode="silent", max_slots=100)
        election = ScriptedElection([1, 0, 1, 0])
        record = run(sc, 5, election=election, trace=True)
        done_at = {i: record.ttr_half_slots[i] for i in range(3) if not record.censored[i]}
        for slot, half, _ch, kind, sender, _receiver, _pr in record.trace:
            if kind == "TUNE" and sender in done_at:
                # silent nodes may appear only up to the slot they complete in
                assert slot <= (done_at[sender] + 1) // 2


class TestCensoring:
    def test_budget_exhaustion_flags_nodes(self):
        sc = Scenario(nodes=2, channels=20, mode="asym", m=2, per_node_size=10,
                      activity="zero", protocol="mrcs", handshake="3wh", max_slots=2)
        saw_censored = False
        for seed in range(30):
            record = run(sc, seed)
            for ttr, flag in zip(record.ttr_half_slots, record.censored):
                if flag:
                    saw_censored = True
                    assert ttr == 2 * sc.max_slots
                else:
                    assert 0 < ttr <= 2 * sc.max_slots
        assert saw_censored


class TestEnvironmentPairing:
    def test_environment_identical_across_protocol_and_handshake(self):
        seed = 20_000
        base = dict(nodes=5, channels=10, mode="asym", m=5, activity="mix", max_slots=100)
        a = Scenario(protocol="mdmca", handshake="3wh", **base)
        b = Scenario(protocol="memca", handshake="2wh", **base)
        env_a, env_b = build_environment(a, seed), build_environment(b, seed)
        assert env_a.topology.positions == env_b.topology.positions
        assert env_a.smap == env_b.smap
        for index in range(4):  # busy bits of the first 704 slots
            assert np.array_equal(env_a.schedule("mdmca", index, False)[0], env_b.schedule("memca", index, False)[0])

    def test_environment_key_excludes_protocol_axes(self):
        base = dict(nodes=5, channels=10, mode="sym", activity="zero", max_slots=100)
        keys = {
            Scenario(protocol=p, handshake=h, **base).environment_key()
            for p in ("mdmca", "mrcs", "mmca", "memca")
            for h in ("2wh", "3wh")
        }
        assert len(keys) == 1
        other = Scenario(protocol="mdmca", handshake="3wh", nodes=6, channels=10,
                         mode="sym", activity="zero", max_slots=100)
        assert other.environment_key() not in keys


class TestValidation:
    def test_bad_scenarios_rejected(self):
        good = dict(nodes=3, channels=10, mode="sym", activity="zero",
                    protocol="mdmca", handshake="3wh")
        for field, value in [
            ("nodes", 0), ("channels", 0), ("mode", "partial"), ("activity", "stormy"),
            ("protocol", "jumpstay"), ("handshake", "4wh"), ("max_slots", 0),
            ("completion_mode", "zombie"), ("area", (math.nan, 400.0)), ("area", (math.inf, 400.0)),
            ("area", (400.0, 0.0)), ("radio_range", math.nan), ("radio_range", 0.0),
            ("emca_window", math.nan),
        ]:
            with pytest.raises(InvalidParameterError):
                Scenario(**{**good, field: value}).validate()
        with pytest.raises(InvalidParameterError):
            Scenario(**{**good, "mode": "asym", "m": 11}).validate()
        with pytest.raises(InvalidParameterError):
            Scenario(**{**good, "positions": ((0.0, 0.0),)}).validate()
        # every pair is adjacent, and completed memca nodes respond forever
        Scenario(**good, radio_range=math.inf, emca_window=math.inf).validate()

    def test_channel_count_is_capped(self):
        good = dict(nodes=2, mode="sym", activity="zero", protocol="mdmca", handshake="3wh")
        Scenario(channels=MAX_CHANNELS, **good).validate()
        with pytest.raises(InvalidParameterError, match=str(MAX_CHANNELS)):
            Scenario(channels=MAX_CHANNELS + 1, **good).validate()

    def test_generation_failure_surfaces(self, monkeypatch):
        import crhop.engine as engine_mod
        from crhop.topology import generate_topology as real_generate

        def budgeted(n, area, radio_range, rng):
            return real_generate(n, area, radio_range, rng, max_attempts=50)

        monkeypatch.setattr(engine_mod, "generate_topology", budgeted)
        sc = Scenario(nodes=10, channels=5, mode="sym", activity="zero",
                      protocol="mrcs", handshake="3wh",
                      area=(1000.0, 1000.0), radio_range=100.0)
        with pytest.raises(GenerationFailureError):
            run(sc, 1)


def test_memca_window_silences_after_expiry():
    sc = Scenario(nodes=3, channels=1, mode="sym", activity="zero", protocol="memca",
                  handshake="3wh", positions=CHAIN_POSITIONS, emca_window=2,
                  max_slots=60)
    record = run(sc, 9, trace=True)
    for i in range(3):
        if record.censored[i]:
            continue
        done_slot = (record.ttr_half_slots[i] + 1) // 2
        tunes = [r for r in record.trace if r[3] == "TUNE" and r[4] == i]
        assert all(r[0] <= done_slot + 2 for r in tunes)


@pytest.mark.parametrize("protocol", ["mdmca", "mrcs", "mmca", "memca"])
def test_probabilistic_completeness_zero_pr_symmetric(protocol):
    # connected topology, full channel pool, idle spectrum: every strategy
    # finishes discovery long before the slot budget
    sc = Scenario(nodes=5, channels=10, mode="sym", activity="zero",
                  protocol=protocol, handshake="3wh", max_slots=100_000)
    for seed in range(100):
        record = run(sc, seed)
        assert not any(record.censored)
        assert max(record.ttr_half_slots) < 2 * sc.max_slots


def test_packets_never_below_handshake_floor():
    for seed in range(10):
        sc = Scenario(nodes=5, channels=10, mode="sym", activity="mix",
                      protocol="mmca", handshake="2wh", max_slots=3000)
        record = run(sc, seed)
        if record.rendezvous:
            assert record.packets / record.rendezvous >= 2


@pytest.mark.parametrize("handshake", ["2wh", "3wh"])
def test_every_handshake_goes_through_engine_run_handshake(monkeypatch, handshake):
    # perfbench's handshake.run span and the neighbor-table invariant property
    # wrap engine.run_handshake, so the walk must call it for every handshake:
    # once per D-REQ with a receiver (a lone D-REQ has none).
    import crhop.engine

    calls = []
    original = crhop.engine.run_handshake

    def counted(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(crhop.engine, "run_handshake", counted)
    sc = Scenario(nodes=12, channels=3, mode="sym", activity="mix", protocol="mmca",
                  handshake=handshake, area=(150.0, 150.0), max_slots=300)
    record = run(sc, 3, trace=True)
    requests = sum(1 for row in record.trace if row[3] == D_REQ and row[5] is not None)
    assert requests > 0 and len(calls) == requests
    assert set(calls) == {handshake}


def test_packet_floor_violation_raises_even_without_asserts(monkeypatch):
    # An explicit check, not an assert, so `python -O` keeps it: a handshake
    # that transmits nothing breaks packets >= size * rendezvous.
    import crhop.engine

    monkeypatch.setattr(crhop.engine, "run_handshake", lambda *args: ())
    with pytest.raises(RuntimeError, match="packets cannot carry"):
        run(pair_scenario("3wh", max_slots=5), 1)
