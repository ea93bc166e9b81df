"""Handshake state-machine tests.

Tables hold bitmasks of node ids. The hand-written cases name their nodes
"A", "B", ...; `node` maps a name to its id and `names` decodes a mask back
to names, so each case reads as sets of names.
"""

import dataclasses
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crhop.errors import InvalidParameterError
from crhop.handshake import (
    D_ACK,
    D_REQ,
    D_RESP,
    NeighborTables,
    run_handshake,
)
import reference
from reference import ids

NAMES = string.ascii_uppercase


def node(name):
    """A node's id: its letter's place in NAMES, or the id itself."""
    return NAMES.index(name) if isinstance(name, str) else name


def bits(members):
    return sum(1 << node(m) for m in members)


def names(mask):
    return {NAMES[i] for i in ids(mask)}


def tables(owner, dnl=(), inl=(), confirmed=()):
    return NeighborTables(node(owner), bits(dnl), bits(inl), bits(confirmed))


def merge(t, sender, dnl, inl):
    reference.merge(t, node(sender), bits(dnl), bits(inl))


def knowledge(t):
    return ids(t.dnl | t.inl)


def view(t):
    """A node's picture of the network, itself included, by name."""
    return names(t.dnl | t.inl) | {NAMES[t.owner]}


def check_invariants(t):
    assert t.owner not in ids(t.dnl) | ids(t.inl)
    assert not (ids(t.dnl) & ids(t.inl))
    assert ids(t.confirmed) <= ids(t.dnl)


def messages_by_name(messages):
    return tuple((kind, NAMES[s], NAMES[r]) for kind, s, r in messages)


class TestMerge:
    def test_basic_union(self):
        local = tables("A")
        merge(local, "B", {"C"}, {"D"})
        assert names(local.dnl) == {"B"}
        assert names(local.inl) == {"C", "D"}
        check_invariants(local)

    def test_idempotent(self):
        msg = ("B", {"C"}, {"D"})
        once = tables("A")
        merge(once, *msg)
        twice = tables("A")
        merge(twice, *msg)
        merge(twice, *msg)
        assert once == twice

    def test_self_excluded(self):
        local = tables("A")
        merge(local, "B", {"A", "C"}, set())
        assert "A" not in names(local.inl) and "A" not in names(local.dnl)
        assert names(local.inl) == {"C"}

    def test_direct_wins_over_indirect(self):
        local = tables("A", dnl={"B"})
        merge(local, "C", {"B"}, set())
        assert names(local.dnl) == {"B", "C"}
        assert names(local.inl) == set()

    def test_sender_promoted_from_inl(self):
        local = tables("A", inl={"B"})
        merge(local, "B", set(), set())
        assert names(local.dnl) == {"B"} and names(local.inl) == set()

    def test_own_message_rejected(self):
        local = tables("A")
        with pytest.raises(InvalidParameterError):
            merge(local, "A", set(), set())


def test_a_node_cannot_handshake_with_itself():
    for kind in ("2wh", "3wh"):
        local = tables("A", dnl={"B"}, inl={"C"}, confirmed={"B"})
        with pytest.raises(InvalidParameterError):
            run_handshake(kind, local, local)
        assert local == tables("A", dnl={"B"}, inl={"C"}, confirmed={"B"})


class TestTwoWay:
    def test_fresh_pair(self):
        a, b = tables("A"), tables("B")
        messages = run_handshake("2wh", a, b)
        assert names(a.dnl) == {"B"} and names(a.confirmed) == {"B"}
        assert names(b.dnl) == {"A"} and names(b.confirmed) == set()
        assert messages_by_name(messages) == ((D_REQ, "A", "B"), (D_ACK, "B", "A"))

    def test_indirect_knowledge_carried(self):
        a, b = tables("A", dnl={"C"}), tables("B")
        run_handshake("2wh", a, b)
        assert "C" in names(b.inl)

    def test_repeat_meeting_confirms_reverse_link(self):
        a, b = tables("A"), tables("B")
        run_handshake("2wh", a, b)  # B's entry for A is unconfirmed
        assert names(b.dnl) - names(b.confirmed) == {"A"}
        messages = run_handshake("2wh", b, a)  # B re-initiates toward A
        assert len(messages) == 2
        assert names(b.confirmed) == {"A"} and names(a.confirmed) == {"B"}

    def test_knowledge_views_equal_when_sharing(self):
        a = tables("A", dnl={"C"}, inl={"D"}, confirmed={"C"})
        b = tables("B", dnl={"E"})
        run_handshake("2wh", a, b)
        assert view(a) == view(b)

    def test_gated_snapshot_withholds_unconfirmed(self):
        a = tables("A", dnl={"C"}, confirmed=())  # link to C not yet confirmed
        b = tables("B")
        run_handshake("2wh", a, b, share_unconfirmed=False)
        assert "C" not in names(b.dnl | b.inl)
        a2 = tables("A", dnl={"C"}, confirmed={"C"})
        b2 = tables("B")
        run_handshake("2wh", a2, b2, share_unconfirmed=False)
        assert "C" in names(b2.inl)


class TestThreeWay:
    def test_fresh_pair(self):
        a, b = tables("A"), tables("B")
        messages = run_handshake("3wh", a, b)
        assert names(a.confirmed) == {"B"} and names(b.confirmed) == {"A"}
        assert len(messages) == 3
        assert [m[0] for m in messages] == [D_REQ, D_RESP, D_ACK]

    def test_union_through_final_ack(self):
        a = tables("A", dnl={"C"}, inl={"D"})
        b = tables("B", inl={"E"})
        run_handshake("3wh", a, b)
        for t in (a, b):
            assert {"C", "D", "E"} <= names(t.dnl | t.inl)
        assert view(a) == view(b) == {"A", "B", "C", "D", "E"}

    def test_message_direction(self):
        a, b = tables("A"), tables("B")
        assert messages_by_name(run_handshake("3wh", a, b)) == (
            (D_REQ, "A", "B"),
            (D_RESP, "B", "A"),
            (D_ACK, "A", "B"),
        )


MAX_ID = 70  # masks past one machine word


@st.composite
def neighbor_tables(draw, owner):
    """Tables of `owner` that keep NeighborTables' invariants, ids up to MAX_ID."""
    mask = st.integers(min_value=0, max_value=(1 << MAX_ID + 1) - 1)
    dnl = draw(mask) & ~(1 << owner)
    inl = draw(mask) & ~(dnl | 1 << owner)
    return NeighborTables(owner, dnl, inl, draw(mask) & dnl)


@st.composite
def handshakes(draw):
    a = draw(st.integers(min_value=0, max_value=MAX_ID))
    b = draw(st.integers(min_value=0, max_value=MAX_ID).filter(lambda x: x != a))
    return (draw(st.sampled_from(["2wh", "3wh"])), draw(neighbor_tables(a)), draw(neighbor_tables(b)),
            draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(handshakes())
def test_run_handshake_equals_the_reference_snapshot_and_merge_steps(case):
    kind, initiator, responder, share_unconfirmed = case
    expected_initiator, expected_responder = dataclasses.replace(initiator), dataclasses.replace(responder)
    expected = reference.handshake(kind, expected_initiator, expected_responder, share_unconfirmed)
    assert run_handshake(kind, initiator, responder, share_unconfirmed) == expected
    assert (initiator, responder) == (expected_initiator, expected_responder)
    for t in (initiator, responder):
        check_invariants(t)


@st.composite
def meeting_sequences(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    length = draw(st.integers(min_value=1, max_value=12))
    meetings = []
    for _ in range(length):
        i = draw(st.integers(min_value=0, max_value=n - 1))
        j = draw(st.integers(min_value=0, max_value=n - 1).filter(lambda x: x != i))
        kind = draw(st.sampled_from(["2wh", "3wh"]))
        meetings.append((i, j, kind))
    return n, meetings


class TestMeetingSequences:
    @settings(max_examples=150, deadline=None)
    @given(meeting_sequences())
    def test_invariants_hold_through_any_sequence(self, seq):
        n, meetings = seq
        nodes = [tables(i) for i in range(n)]
        for i, j, kind in meetings:
            before_i = (knowledge(nodes[i]), ids(nodes[i].confirmed))
            before_j = (knowledge(nodes[j]), ids(nodes[j].confirmed))
            resp_confirmed_initiator_before = i in ids(nodes[j].confirmed)
            messages = run_handshake(kind, nodes[i], nodes[j])
            assert len(messages) == (2 if kind == "2wh" else 3)
            for t in nodes:
                check_invariants(t)
                assert len(knowledge(t)) <= n - 1
            # monotone growth
            assert before_i[0] <= knowledge(nodes[i])
            assert before_i[1] <= ids(nodes[i].confirmed)
            assert before_j[0] <= knowledge(nodes[j])
            assert before_j[1] <= ids(nodes[j].confirmed)
            # knowledge superset of the peer's pre-handshake knowledge
            assert before_j[0] <= knowledge(nodes[i]) | {i}
            assert before_i[0] <= knowledge(nodes[j]) | {j}
            assert j in ids(nodes[i].confirmed)
            if kind == "3wh":
                assert i in ids(nodes[j].confirmed)
                assert view(nodes[i]) == view(nodes[j])
            else:
                assert (i in ids(nodes[j].confirmed)) == resp_confirmed_initiator_before

    def test_seeded_bulk_sequences(self):
        rng = np.random.default_rng(2024)
        for _ in range(500):
            n = int(rng.integers(2, 7))
            nodes = [tables(i) for i in range(n)]
            for _ in range(int(rng.integers(1, 15))):
                i, j = rng.choice(n, size=2, replace=False)
                kind = "2wh" if rng.integers(2) else "3wh"
                run_handshake(kind, nodes[int(i)], nodes[int(j)])
                for t in nodes:
                    check_invariants(t)
