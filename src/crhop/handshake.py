"""Discovery handshakes and the neighbor tables they exchange.

A handshake happens between two nodes tuned to the same idle channel. The
two-way form is D-REQ then D-ACK: only the initiator ends up knowing the
exchange completed, so only the initiator marks the link confirmed. The
three-way form inserts a D-RESP and closes with a D-ACK carrying the
initiator's merged tables, leaving both sides confirmed and with identical
views of the network.

Messages inside one half-slot are atomic: the half-second half-slot is long
enough for the full exchange, so there is no mid-handshake loss or
interruption to model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import InvalidParameterError

D_REQ = "D-REQ"
D_RESP = "D-RESP"
D_ACK = "D-ACK"

HANDSHAKE_KINDS = ("2wh", "3wh")
HANDSHAKE_SIZES = {"2wh": 2, "3wh": 3}


@dataclass(frozen=True)
class HandshakeMessage:
    """One control message carrying the sender's table snapshot."""

    kind: str
    sender: int
    dnl: frozenset[int]
    inl: frozenset[int]


@dataclass
class NeighborTables:
    """A node's direct (handshaken) and indirect (learned) neighbor lists.

    Invariants kept by `merge`: the owner never appears in either list, the
    lists are disjoint (direct wins), and `confirmed` is a subset of `dnl`.
    """

    owner: int
    dnl: set[int] = field(default_factory=set)
    inl: set[int] = field(default_factory=set)
    confirmed: set[int] = field(default_factory=set)

    def knowledge(self) -> frozenset[int]:
        return frozenset(self.dnl | self.inl)

    def unconfirmed(self) -> frozenset[int]:
        return frozenset(self.dnl - self.confirmed)

    def snapshot(self, kind: str, share_unconfirmed: bool = True) -> HandshakeMessage:
        """Tables as transmitted. With share_unconfirmed=False the sender
        withholds direct links it has not yet confirmed, so receivers cannot
        learn them second-hand until the sender re-confirms."""
        dnl = self.dnl if share_unconfirmed else self.dnl & self.confirmed
        return HandshakeMessage(kind, self.owner, frozenset(dnl), frozenset(self.inl))

    def merge(self, msg: HandshakeMessage) -> None:
        """Fold a received message into the tables.

        The sender becomes a direct neighbor; every node it reports becomes
        an indirect neighbor unless already direct. Idempotent.
        """
        if msg.sender == self.owner:
            raise InvalidParameterError("a node cannot merge its own message")
        self.dnl.add(msg.sender)
        self.inl.discard(msg.sender)
        for peer in msg.dnl | msg.inl:
            if peer != self.owner and peer not in self.dnl:
                self.inl.add(peer)


@dataclass(frozen=True)
class Transcript:
    """Messages of one completed handshake, in transmission order."""

    messages: tuple[tuple[str, int, int], ...]  # (kind, sender, receiver)

    @property
    def packets(self) -> int:
        return len(self.messages)


def run_2wh(
    initiator: NeighborTables,
    responder: NeighborTables,
    share_unconfirmed: bool = True,
) -> Transcript:
    """D-REQ / D-ACK exchange. Confirms the link for the initiator only."""
    req = initiator.snapshot(D_REQ, share_unconfirmed)
    responder.merge(req)
    ack = responder.snapshot(D_ACK, share_unconfirmed)
    initiator.merge(ack)
    initiator.confirmed.add(responder.owner)
    return Transcript(
        (
            (D_REQ, initiator.owner, responder.owner),
            (D_ACK, responder.owner, initiator.owner),
        )
    )


def run_3wh(
    initiator: NeighborTables,
    responder: NeighborTables,
    share_unconfirmed: bool = True,
) -> Transcript:
    """D-REQ / D-RESP / D-ACK exchange. Confirms the link for both sides.

    The closing D-ACK carries the initiator's post-merge tables, so the
    responder leaves the exchange synchronized with the initiator's view.
    """
    req = initiator.snapshot(D_REQ, share_unconfirmed)
    responder.merge(req)
    resp = responder.snapshot(D_RESP, share_unconfirmed)
    initiator.merge(resp)
    initiator.confirmed.add(responder.owner)
    ack = initiator.snapshot(D_ACK, share_unconfirmed)
    responder.merge(ack)
    responder.confirmed.add(initiator.owner)
    return Transcript(
        (
            (D_REQ, initiator.owner, responder.owner),
            (D_RESP, responder.owner, initiator.owner),
            (D_ACK, initiator.owner, responder.owner),
        )
    )


def run_handshake(
    kind: str,
    initiator: NeighborTables,
    responder: NeighborTables,
    share_unconfirmed: bool = True,
) -> Transcript:
    if kind == "2wh":
        return run_2wh(initiator, responder, share_unconfirmed)
    if kind == "3wh":
        return run_3wh(initiator, responder, share_unconfirmed)
    raise InvalidParameterError(f"unknown handshake kind {kind!r}")
