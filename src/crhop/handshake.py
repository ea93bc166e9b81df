"""Discovery handshakes and the neighbor tables they exchange.

A handshake happens between two nodes tuned to the same idle channel. The
two-way form is D-REQ then D-ACK: only the initiator ends up knowing the
exchange completed, so only the initiator marks the link confirmed. The
three-way form is the same exchange with the reply labelled D-RESP, closed
by a D-ACK carrying the initiator's merged tables, leaving both sides
confirmed and with identical views of the network.

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

    def snapshot(self, share_unconfirmed: bool = True) -> tuple[set[int], set[int]]:
        """(dnl, inl) as transmitted. With share_unconfirmed=False the sender
        withholds direct links it has not yet confirmed, so receivers cannot
        learn them second-hand until the sender re-confirms.

        The sets are the sender's own, not copies: a handshake merges each
        snapshot before its sender's tables change."""
        dnl = self.dnl if share_unconfirmed else self.dnl & self.confirmed
        return dnl, self.inl

    def merge(self, sender: int, dnl: set[int], inl: set[int]) -> None:
        """Fold a message from `sender` carrying its (dnl, inl) into the tables.

        The sender becomes a direct neighbor; every node it reports becomes
        an indirect neighbor unless already direct. Idempotent.
        """
        if sender == self.owner:
            raise InvalidParameterError("a node cannot merge its own message")
        self.dnl.add(sender)
        self.inl |= dnl | inl
        self.inl -= self.dnl
        self.inl.discard(self.owner)


def run_handshake(
    kind: str,
    initiator: NeighborTables,
    responder: NeighborTables,
    share_unconfirmed: bool = True,
) -> tuple[tuple[str, int, int], ...]:
    """One handshake; returns its (kind, sender, receiver) messages in order.

    Both kinds send a D-REQ and a reply (D-ACK for 2WH, D-RESP for 3WH),
    after which the initiator merges the reply and confirms the link. 3WH
    then closes with a D-ACK carrying the initiator's merged tables, which
    confirms the link for the responder too.
    """
    if kind not in HANDSHAKE_KINDS:
        raise InvalidParameterError(f"unknown handshake kind {kind!r}")
    a, b = initiator.owner, responder.owner
    responder.merge(a, *initiator.snapshot(share_unconfirmed))
    initiator.merge(b, *responder.snapshot(share_unconfirmed))
    initiator.confirmed.add(b)
    if kind == "2wh":
        return (D_REQ, a, b), (D_ACK, b, a)
    responder.merge(a, *initiator.snapshot(share_unconfirmed))
    responder.confirmed.add(a)
    return (D_REQ, a, b), (D_RESP, b, a), (D_ACK, a, b)
