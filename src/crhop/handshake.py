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

Tables are bitmasks of node ids, so a merge is two ORs and an AND-NOT.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError

D_REQ = "D-REQ"
D_RESP = "D-RESP"
D_ACK = "D-ACK"

HANDSHAKE_KINDS = ("2wh", "3wh")
HANDSHAKE_SIZES = {"2wh": 2, "3wh": 3}


@dataclass(slots=True)
class NeighborTables:
    """A node's direct (handshaken) and indirect (learned) neighbors and the
    direct links it has confirmed, each a bitmask of node ids (bit i is node i).

    Invariants kept by `merge`: the owner is in neither `dnl` nor `inl`, the
    two are disjoint (direct wins), and `confirmed` is a subset of `dnl`.
    """

    owner: int
    dnl: int = 0
    inl: int = 0
    confirmed: int = 0

    def snapshot(self, share_unconfirmed: bool = True) -> tuple[int, int]:
        """(dnl, inl) as transmitted. With share_unconfirmed=False the sender
        withholds direct links it has not yet confirmed, so receivers cannot
        learn them second-hand until the sender re-confirms."""
        return (self.dnl if share_unconfirmed else self.dnl & self.confirmed), self.inl

    def merge(self, sender: int, dnl: int, inl: int) -> None:
        """Fold a message from `sender` carrying its (dnl, inl) into the tables.

        The sender becomes a direct neighbor; every node it reports becomes
        an indirect neighbor unless already direct. Idempotent.
        """
        if sender == self.owner:
            raise InvalidParameterError("a node cannot merge its own message")
        self.dnl |= 1 << sender
        self.inl = (self.inl | dnl | inl) & ~(self.dnl | 1 << self.owner)


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
    initiator.confirmed |= 1 << b
    if kind == "2wh":
        return (D_REQ, a, b), (D_ACK, b, a)
    responder.merge(a, *initiator.snapshot(share_unconfirmed))
    responder.confirmed |= 1 << a
    return (D_REQ, a, b), (D_RESP, b, a), (D_ACK, a, b)
