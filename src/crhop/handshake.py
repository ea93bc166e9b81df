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

Tables are bitmasks of node ids, and `run_handshake` settles a whole
handshake in bit arithmetic on them: to merge a message is two ORs and an
AND-NOT, and it keeps the tables' invariants.
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

    Invariants kept by `run_handshake`: the owner is in neither `dnl` nor
    `inl`, the two are disjoint (direct wins), and `confirmed` is a subset of
    `dnl`.
    """

    owner: int
    dnl: int = 0
    inl: int = 0
    confirmed: int = 0


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
    confirms the link for the responder too. A node merging a message makes
    its sender a direct neighbor and every node the message reports an
    indirect one unless already direct. With share_unconfirmed=False a sender
    withholds the direct links it has not confirmed, so receivers cannot learn
    them second-hand until it confirms them.
    """
    if kind not in HANDSHAKE_KINDS:
        raise InvalidParameterError(f"unknown handshake kind {kind!r}")
    a, b = initiator.owner, responder.owner
    if a == b:
        raise InvalidParameterError("a node cannot handshake with itself")
    bit_a, bit_b = 1 << a, 1 << b
    dnl, inl, confirmed = initiator.dnl, initiator.inl, initiator.confirmed
    r_dnl, r_confirmed = responder.dnl | bit_a, responder.confirmed
    r_inl = (responder.inl | (dnl if share_unconfirmed else dnl & confirmed) | inl) & ~(r_dnl | bit_b)
    dnl |= bit_b
    inl = (inl | (r_dnl if share_unconfirmed else r_dnl & r_confirmed) | r_inl) & ~(dnl | bit_a)
    confirmed |= bit_b
    initiator.dnl, initiator.inl, initiator.confirmed = dnl, inl, confirmed
    responder.dnl, responder.inl = r_dnl, r_inl
    if kind == "2wh":
        return (D_REQ, a, b), (D_ACK, b, a)
    # Merging the closing D-ACK changes no table: beyond what the D-REQ
    # carried, the initiator's tables now hold only the responder and what the
    # responder sent it. So the D-ACK only confirms the link for the responder.
    responder.confirmed = r_confirmed | bit_a
    return (D_REQ, a, b), (D_RESP, b, a), (D_ACK, a, b)
