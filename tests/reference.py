"""Reference paths kept as test oracles, and a decoder for id masks.

Occupancy: a `crhop.activity.ChannelProcess` holds a whole channel pool; its
`busy_bits` draws holding times in batches, for every channel of a pass at
once, redraws zero variates by a mask, and keeps only the intervals ahead of
the last instant it served, every channel's in one flat array. `draw`,
`extend`, `is_busy` and `sample_intervals` draw one holding time per interval
and keep every interval end from time 0 in a list the caller owns, `ends`, so
the block form can be checked against them bit for bit. An even index in
`ends` is an OFF interval; math.inf marks an absorbing state.

Clusters: `crhop.engine._clusters` searches id bitmasks; `clusters` is the
set-based search over the topology's neighbor sets.

`ids` decodes an id bitmask (bit i is node i), the form of neighbor tables
and clusters, into the set of ids it holds.

Handshakes: `crhop.handshake.run_handshake` settles a handshake in straight-
line bit arithmetic; `snapshot` and `merge` are its steps one message at a
time, and `handshake` chains them: the D-REQ's snapshot merged by the
responder, the reply's by the initiator, which confirms the link, and for
3WH the closing D-ACK's by the responder, which confirms it too.

Topologies: `crhop.topology.generate_topology` decides links on the pairs
i<j and builds an n x n adjacency only for attempts with no isolated node;
`generate_topology` here is the sampler it replaced, unchanged: every attempt
gets the full (n, n) distance matrix from `unit_disk_adjacency`, and batches
are sized in n^2 cells by `FIRST_BATCH`, `MAX_BATCH` and `MAX_CELLS`.

Modular clocks: `crhop.protocols` serves mdmca's and mmca's stream values
from a list refilled CHUNK values at a time; `clock_reads` reads a node's
stream as it was read before, one value per `integers(bound)` in `select`
and one `integers(bound, size=k)` per block, and returns the values. Both
protocols step through one `select` on their shared clock base;
`modular_clock_trace` is the two per-class rules it replaced, as plain loops.

Schedules: `crhop.engine._schedule` derives a block's schedule in numpy;
`schedule` builds the same arrays in a plain loop over half-slots, channels
and nodes.

Seeding: `crhop.seeding.labeled_seeds` derives every labeled stream's seed in
one array pass; `labeled_rng` builds one label's stream through numpy's own
SeedSequence, the definition that pass reproduces.
"""

import hashlib
import math
from bisect import bisect_right

import numpy as np

from crhop.activity import OFF, ON
from crhop.errors import GenerationFailureError, InvalidParameterError
from crhop.handshake import D_ACK, D_REQ, D_RESP
from crhop.spectrum import is_prime
from crhop.topology import Topology


def labeled_rng(parent: np.random.SeedSequence, label: str) -> np.random.Generator:
    """The stream labeled `label` of `parent`: its spawn key gains the label's
    first four little-endian SHA-256 words."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))
    return np.random.default_rng(
        np.random.SeedSequence(entropy=parent.entropy, spawn_key=tuple(parent.spawn_key) + words)
    )


def draw(rng, rate: float) -> float:
    """One holding time at `rate`: a zero rate holds forever, a nonpositive draw is redrawn."""
    if rate == 0.0:
        return math.inf
    d = rng.exponential(1.0 / rate)
    while d <= 0.0:
        d = rng.exponential(1.0 / rate)
    return d


def extend(ends: list[float], rates, rng, t: float) -> None:
    """Append interval ends, one draw each, until one lies past t."""
    while not ends or ends[-1] <= t:
        rate = rates.lambda_y if len(ends) % 2 == 0 else rates.lambda_x
        end = (ends[-1] if ends else 0.0) + draw(rng, rate)
        ends.append(end)
        if end == math.inf:
            return


def is_busy(ends: list[float], rates, rng, t: float) -> bool:
    """True iff t falls inside an ON interval."""
    if rates.lambda_y == 0.0:
        return False
    extend(ends, rates, rng, t)
    return bisect_right(ends, t) % 2 == 1


def sample_intervals(ends: list[float], rates, rng, horizon: float) -> list[tuple[str, float]]:
    """Alternating (state, duration) list covering [0, horizon].

    Growing-horizon calls only ever extend `ends`; the final interval is
    truncated at the horizon in the returned view.
    """
    extend(ends, rates, rng, horizon)
    out = []
    start = 0.0
    for i, end in enumerate(ends):
        if start >= horizon:
            break
        out.append((OFF if i % 2 == 0 else ON, min(end, horizon) - start))
        start = end
    return out


def ids(mask: int) -> set[int]:
    """The ids in an id bitmask."""
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def clusters(member_ids: list[int], topology) -> list[list[int]]:
    """Connected components of the topology restricted to member_ids, each
    sorted, in the order of their first member in member_ids."""
    idset = set(member_ids)
    seen: set[int] = set()
    out = []
    for i in member_ids:
        if i in seen:
            continue
        comp = []
        stack = [i]
        seen.add(i)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in ids(topology.neighbor_masks[u]):
                if v in idset and v not in seen:
                    seen.add(v)
                    stack.append(v)
        out.append(sorted(comp))
    return out


def snapshot(tables, share_unconfirmed: bool = True) -> tuple[int, int]:
    """(dnl, inl) as `tables` transmits them. With share_unconfirmed=False the
    sender withholds direct links it has not yet confirmed."""
    return (tables.dnl if share_unconfirmed else tables.dnl & tables.confirmed), tables.inl


def merge(tables, sender: int, dnl: int, inl: int) -> None:
    """Fold a message from `sender` carrying its (dnl, inl) into `tables`: the
    sender becomes a direct neighbor, every node it reports an indirect one
    unless already direct. Idempotent."""
    if sender == tables.owner:
        raise InvalidParameterError("a node cannot merge its own message")
    tables.dnl |= 1 << sender
    tables.inl = (tables.inl | dnl | inl) & ~(tables.dnl | 1 << tables.owner)


def handshake(kind: str, initiator, responder, share_unconfirmed: bool = True) -> tuple:
    """One handshake as its messages' snapshot and merge steps; returns its
    (kind, sender, receiver) messages in order."""
    a, b = initiator.owner, responder.owner
    merge(responder, a, *snapshot(initiator, share_unconfirmed))
    merge(initiator, b, *snapshot(responder, share_unconfirmed))
    initiator.confirmed |= 1 << b
    if kind == "2wh":
        return (D_REQ, a, b), (D_ACK, b, a)
    merge(responder, a, *snapshot(initiator, share_unconfirmed))
    responder.confirmed |= 1 << a
    return (D_REQ, a, b), (D_RESP, b, a), (D_ACK, a, b)


FIRST_BATCH, MAX_BATCH, MAX_CELLS = 32, 128, 1 << 13  # batch sizes: see generate_topology


def unit_disk_adjacency(points: np.ndarray, radio_range: float) -> np.ndarray:
    """Adjacency of (..., n, 2) points: distinct pairs with dx*dx + dy*dy <= range*range."""
    x, y = np.moveaxis(points, -1, 0).copy()
    dx, dy = x[..., :, None] - x[..., None, :], y[..., :, None] - y[..., None, :]
    squared = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    return (squared <= radio_range * radio_range) & ~np.eye(points.shape[-2], dtype=bool)


def connected(adjacency: np.ndarray) -> np.ndarray:
    """Whether each (..., n, n) adjacency is connected: reach from node 0, one hop per matmul."""
    links = (adjacency | np.eye(adjacency.shape[-1], dtype=bool)).astype(np.float32)
    reached = links[..., :1, :]
    while not np.array_equal(grown := (reached @ links > 0).astype(np.float32), reached):
        reached = grown
    return reached.all(axis=(-2, -1))


def generate_topology(node_count, area, radio_range, rng, max_attempts):
    """The first connected of at most max_attempts attempts, drawn k at a time
    as random((k, n, 2)) * area; k doubles from FIRST_BATCH to MAX_BATCH within
    MAX_CELLS adjacency cells (k >= 1). Only attempts where no node is isolated
    are tested for connectivity."""
    width, height = area
    drawn = 0
    while drawn < max_attempts:
        size = min(max(drawn, FIRST_BATCH), MAX_BATCH, max(MAX_CELLS // node_count**2, 1), max_attempts - drawn)
        points = rng.random((size, node_count, 2)) * (width, height)
        adjacency = unit_disk_adjacency(points, radio_range)
        candidates = np.flatnonzero(adjacency.any(-1).all(-1) | (node_count == 1))
        hits = candidates[connected(adjacency[candidates])]
        if hits.size:
            return Topology.__new__(Topology)._index(points[hits[0]], adjacency[hits[0]])
        drawn += size
    raise GenerationFailureError(f"no connected placement within {max_attempts} attempts")


def modular_clock_trace(kind: str, cu, rng, halves: int) -> list[int]:
    """The channels of a fresh mdmca or mmca (memca) node on channel set `cu`
    over its first `halves` half-slots, reading one `rng.integers(bound)` per
    value: first its clocks, then its rates at every epoch it enters.

    mdmca: clocks j1 and j2 modulo m, the prime list in the first half-slot
    and the non-prime list in the second, each read at j mod its length, the
    full set for an empty list; a second channel equal to the first nudges
    j2 once. A rate pair every m slots. mmca: one clock modulo the least
    prime p >= m, read at j if j < m else j mod m; a rate every 2p half-slots.
    """
    cu = sorted(cu)
    m = len(cu)
    out = []
    if kind == "mdmca":
        mp = [c for c in cu if is_prime(c)]
        np_ = [c for c in cu if not is_prime(c)]
        j1, j2 = int(rng.integers(m)), int(rng.integers(m))
        t = 0
        while len(out) < halves:
            if t == 0:
                r1, r2 = int(rng.integers(m)), int(rng.integers(m))
            j1 = (j1 + r1) % m
            c1 = mp[j1 % len(mp)] if mp else cu[j1]
            out.append(c1)
            if len(out) == halves:
                break
            j2 = (j2 + r2) % m
            c2 = np_[j2 % len(np_)] if np_ else cu[j2]
            if c2 == c1:  # only possible when mp or np_ is empty
                j2 = (j2 + 1) % m
                c2 = cu[j2]
            out.append(c2)
            t = (t + 1) % m
        return out
    p = next(q for q in range(max(m, 2), 2 * m + 3) if is_prime(q))
    j, t = int(rng.integers(p)), 0
    while len(out) < halves:
        if t == 0:
            r = int(rng.integers(p))
        t = (t + 1) % (2 * p)
        j = (j + r) % p
        out.append(cu[j if j < m else j % m])
    return out


def clock_reads(kind: str, cu, rng, steps) -> list[int]:
    """The values an mdmca or mmca (memca) node on channel set `cu` reads from
    `rng` over `steps` of (as_block, slots): its first clocks, then its rates
    at every epoch it enters, an mdmca pair every m slots or an mmca rate every
    2p half-slots. `select` reads one integers(bound) per value; a block reads
    one integers(bound, size=(k, values per epoch)) for its k epochs, except
    for an mdmca node with an empty prime or non-prime list, which steps
    `select` in its blocks too."""
    cu = sorted(cu)
    m = len(cu)
    if kind == "mdmca":
        bound, per, period, units = m, 2, m, 1  # a pair per epoch of m slots
        batched = any(is_prime(c) for c in cu) and not all(is_prime(c) for c in cu)
    else:
        bound = next(p for p in range(max(m, 2), 2 * m + 3) if is_prime(p))
        per, period, units, batched = 1, 2 * bound, 2, True  # a rate per epoch of 2p half-slots
    values = [int(rng.integers(bound)) for _ in range(per)]
    clock = 0  # steps into the current epoch
    for as_block, slots in steps:
        count = units * slots
        entered = sum((clock + u) % period == 0 for u in range(count))
        if as_block and batched:
            if entered:
                values += rng.integers(bound, size=(entered, per)).ravel().tolist()
        else:
            values += [int(rng.integers(bound)) for _ in range(entered * per)]
        clock = (clock + count) % period
    return values


def schedule(hops: np.ndarray, busy: np.ndarray, adjacency: np.ndarray, trace: bool) -> tuple:
    """(busy, lone, at, channel, tuned) of one block, as `crhop.engine._schedule`
    derives them from hops (one row per node, then the no-node row) and busy
    bits (one row per channel, row 0 unused): a node on an idle channel with a
    neighbour on it is heard, as is every node when tracing, and any other
    node on an idle channel is lone. Each (half-slot, channel) with a heard
    node is one group, in that order, with the id mask of its heard nodes.
    Half-slots and channels come in their smallest dtypes, masks as uint64 up
    to 64 nodes and as Python ints above; every array is read-only."""
    n, width = len(hops) - 1, hops.shape[1]
    lone = np.zeros((n, width), dtype=bool)
    at, channels, masks = [], [], []
    for k in range(width):
        for c in range(len(busy)):
            tuned = [i for i in range(n) if hops[i, k] == c]
            idle = not busy[c, k]
            heard = [i for i in tuned if trace or idle and any(adjacency[i, j] for j in tuned)]
            for i in tuned:
                lone[i, k] = idle and i not in heard
            if heard:
                at.append(k)
                channels.append(c)
                masks.append(sum(1 << i for i in heard))
    out = (busy, lone, np.array(at, dtype=np.min_scalar_type(width - 1)), np.array(channels, dtype=hops.dtype),
           np.array(masks, dtype=np.uint64 if n <= 64 else object))
    for array in out:
        array.setflags(write=False)
    return out
