"""Slotted discrete-event core.

Time advances in synchronized 1-second slots, each split into two half-slots
(two rendezvous attempts per slot). Within a half-slot:

1. every participating node tunes to its strategy's channel;
2. each tuned channel's occupancy is sensed once, at the half-slot start;
   nodes on a busy channel sit the half-slot out;
3. the idle nodes on a channel form clusters by radio connectivity among
   themselves;
4. each cluster elects an initiator uniformly among members still
   discovering or holding unconfirmed links, and the initiator a responder in
   range, preferring never-handshaken over unconfirmed over confirmed peers;
5. the handshake runs atomically and the packet / rendezvous counters advance;
6. a lone incomplete node broadcasts an unanswered D-REQ (one packet);
7. nodes whose tables now cover all N-1 peers record their time to
   rendezvous, in half-slots, and drop to responder-only behavior.

The loop runs in blocks of half-slots. Block b covers the same slots in every
run: blocks start at FIRST_BLOCK_SLOTS and double up to MAX_BLOCK_SLOTS, and a
run reads its last block only up to its budget. A block's schedule says who
can meet in it: every node's channels and every channel's busy bits, each
drawn for the whole population in one pass, give the idle nodes with a
neighbour on their channel. Only those (every node when tracing) are visited:
numpy groups them by (half-slot, channel), each group an id mask, and one walk
over the groups, in that order, settles each cluster in place, skips silent
members and stops at the run's budget or after the half-slot in which the
last node completes. Any other idle node is a cluster of one, whose lone
D-REQ, if it is incomplete, is counted from the schedule's lone matrix.

Neighbor tables, tuned sets and clusters are id bitmasks (bit i is node i).
The walk makes the default election inline, the draw-th set bit with no draw
for one candidate, and settles each handshake with one run_handshake call; ids
are listed only for an `election=` callable, a trace row or a silence check.

A run is deterministic given (scenario, seed): all randomness flows through
labeled substreams of the run seed, and environment streams (topology,
channel assignment, channel occupancy) use labels that do not involve the
protocol or handshake, so paired runs share their environment. Elections keep
their own stream, read through seeding.uniform_index, and are drawn in
ascending channel order, then cluster order, exactly as when every half-slot
is stepped in turn.

A sweep builds one Environment per (environment key, seed) and runs every
protocol x handshake cell of that key on it. Runs read it only through
Environment.schedule: each block's busy bits are drawn once, and its hops
and its schedule per trace flag once per clock class, by the first run that
asks; the environment holds one clock class's hops and schedules at a time.
Neither sharing nor drawing past a run's budget or a node's silence can
change a record: each node's strategy stream and each channel's occupancy
stream is private to it, so a block is a pure function of those streams and
its slots; silence is permanent, so a silent node never needs its rows; a
block drawn for every node or channel at once reads each stream as one drawn
for each in turn would; and a schedule is a pure function of its block, the
topology and the trace flag, which runs read and never write, each cutting it
at its own budget and skipping its own silent members.

The environment also keeps each behaviour's record: the first run with a
behaviour key (clock class, handshake, max_slots, completion mode, link
sharing, memca's window, inf for any other protocol, and the trace flag)
stores its record, and every later run with that key returns it unwalked.
Serving it cannot change a record: a record is a pure function of the
environment and the behaviour key, since those fields are all the walk reads
beyond the environment key. So memca at the default unbounded window, whose
clock class, schedules and elections are mmca's, gets mmca's record computed
once. A run given an election= callable or building its own environment
neither reads nor stores one.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .activity import ACTIVITY_CLASSES, OFF, ON, ChannelProcess, busy_bits, make_profile
from .errors import InvalidParameterError
from .handshake import D_REQ, HANDSHAKE_KINDS, HANDSHAKE_SIZES, NeighborTables, run_handshake
from .protocols import STRATEGIES, STRATEGY_KINDS, channel_table, make_strategy
from .seeding import labeled_seeds, seeded_rng, uniform_index
from .spectrum import SpectrumMap, assign_channels
from .topology import Topology, from_positions, generate_topology

COMPLETION_MODES = ("active", "responder-only", "silent")

# Default geometry: connected placements are rarest near N = 6-12 (about 1 in
# 200 attempts), well within generate_topology's attempt budget at any N.
DEFAULT_AREA = (400.0, 400.0)
DEFAULT_RANGE = 100.0

# Slots per block of precomputed hops and occupancy. The first block is
# short because many runs end within a hundred half-slots; later blocks
# double up to the cap, which bounds the block arrays' memory: each holds
# nodes x half-slots entries.
FIRST_BLOCK_SLOTS = 64
MAX_BLOCK_SLOTS = 256

# Largest channel pool a scenario may ask for: channel sets, occupancy
# processes and busy bits grow with it (the paper's pools are 10 and 20).
MAX_CHANNELS = 4096

# Largest population a scenario may ask for: the topology's pair tables take
# about 48 bytes per node pair, about 0.4 GB at 4,096 nodes.
MAX_NODES = 4096


@dataclass(frozen=True)
class Scenario:
    """Full description of one simulation configuration.

    The one definition of every scenario setting: a SweepConfig carries each
    field no sweep axis sets under the same name and default, and the CLI has
    one flag per field.
    """

    nodes: int
    channels: int
    mode: str  # "sym" | "asym"
    activity: str
    protocol: str
    handshake: str
    m: int | None = None
    per_node_size: int | None = None
    area: tuple[float, float] = DEFAULT_AREA
    radio_range: float = DEFAULT_RANGE
    max_slots: int = 100_000
    completion_mode: str = "responder-only"
    emca_window: float = math.inf  # slots a completed memca node keeps responding
    # A node that has not confirmed a direct link cannot vouch for it, so by
    # default its snapshots withhold that link until a later handshake
    # confirms it. True shares tentative links immediately.
    share_unconfirmed_links: bool = False
    rates_table: tuple[tuple[float, float], ...] | None = None
    positions: tuple[tuple[float, float], ...] | None = None

    def validate(self) -> None:
        if not 1 <= self.nodes <= MAX_NODES:
            raise InvalidParameterError(f"nodes must be between 1 and {MAX_NODES}, got {self.nodes}")
        if not 1 <= self.channels <= MAX_CHANNELS:
            raise InvalidParameterError(f"channels must be between 1 and {MAX_CHANNELS}, got {self.channels}")
        if self.mode not in ("sym", "asym"):
            raise InvalidParameterError(f"mode must be 'sym' or 'asym', got {self.mode!r}")
        if self.mode == "asym":
            k = self.channels if self.per_node_size is None else self.per_node_size
            if self.m is None or not (1 <= self.m <= k <= self.channels):
                raise InvalidParameterError(
                    f"asym mode needs 1 <= m <= per_node_size <= channels, got "
                    f"m={self.m}, per_node_size={k}, channels={self.channels}"
                )
        if self.activity not in ACTIVITY_CLASSES:
            raise InvalidParameterError(f"unknown activity class {self.activity!r}")
        if self.protocol not in STRATEGY_KINDS:
            raise InvalidParameterError(f"unknown protocol {self.protocol!r}")
        if self.handshake not in HANDSHAKE_KINDS:
            raise InvalidParameterError(f"unknown handshake {self.handshake!r}")
        if self.completion_mode not in COMPLETION_MODES:
            raise InvalidParameterError(f"unknown completion mode {self.completion_mode!r}")
        if self.max_slots < 1:
            raise InvalidParameterError(f"max_slots must be >= 1, got {self.max_slots}")
        if not all(0 < side < math.inf for side in self.area):
            raise InvalidParameterError(f"area sides must be finite and positive, got {self.area}")
        if not self.radio_range > 0:
            raise InvalidParameterError(f"radio_range must be positive, got {self.radio_range}")
        if not self.emca_window > 0:
            raise InvalidParameterError("emca_window must be positive (use inf for unbounded)")
        if self.positions is not None and len(self.positions) != self.nodes:
            raise InvalidParameterError("positions, when given, must list every node")
        if self.rates_table is not None:
            if len(self.rates_table) < 1:
                raise InvalidParameterError("rates_table override must not be empty")
            make_profile(self.activity, self.channels, table=self.rates_table)  # has the rows the class reads

    def environment_key(self) -> str:
        """Identity of everything the protocol/handshake axes must share.

        Used to derive run seeds; deliberately excludes protocol, handshake
        and termination knobs so paired comparisons reuse topology, channel
        assignment and occupancy traces.
        """
        def tag(value, unset: str) -> str:
            return unset if value is None else hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:12]

        k = self.channels if self.per_node_size is None else self.per_node_size
        return (
            f"N={self.nodes};C={self.channels};mode={self.mode};m={self.m};k={k};"
            f"act={self.activity};area={self.area[0]}x{self.area[1]};"
            f"range={self.radio_range};rates={tag(self.rates_table, 'default')};"
            f"pos={tag(self.positions, 'random')}"
        )


@dataclass(frozen=True)
class RunRecord:
    """Bookkeeping of one run: per-node discovery times and traffic counts.

    `packets` counts every transmitted message once, including unanswered
    D-REQ broadcasts and repeat handshakes. `rendezvous` counts successful
    rendezvous events: handshakes between pairs meeting for the first time.
    A repeat handshake (e.g. the reverse exchange that confirms a two-way
    link) spends packets without adding a rendezvous, which is exactly the
    overhead PPR is meant to expose.
    """

    node_count: int
    handshake: str
    max_slots: int
    ttr_half_slots: tuple[int, ...]
    censored: tuple[bool, ...]
    packets: int
    rendezvous: int
    trace: tuple | None = None


class Environment:
    """What every run on one (environment key, seed) shares: the topology,
    channel sets and occupancy processes (one per channel, in channel order),
    each block's busy bits, shared by every clock class, and one clock record:
    the strategy class whose clocks run now (mmca and memca share one), its
    nodes and channel table, its hop blocks and each block's schedule,
    untraced and traced, replaced whole when a run of another class asks;
    and each behaviour key's record, which every later run with that key
    returns, as a record is a pure function of the environment and that key."""

    def __init__(self, key: str, seed, topology: Topology, smap: SpectrumMap,
                 processes: list[ChannelProcess], seeds: np.ndarray):
        self.key, self.seed = key, seed
        self.seeds = seeds  # each node's strategy stream, then the election's; restarted per clock class, per run
        self.topology, self.smap, self.processes = topology, smap, processes
        self._busy: list[np.ndarray] = []
        self._clock = None, [], None, [], {}  # (class, nodes, channel table, hop blocks, {(block, trace): schedule})
        self.records: dict[tuple, RunRecord] = {}  # behaviour key -> record of the first run with it

    def schedule(self, protocol: str, b: int, trace: bool) -> tuple[np.ndarray, ...]:
        """(busy, lone, at, channel, tuned): who can meet in block b under
        `protocol`'s clock, derived by the first run that asks and read, never
        written, by every later one. `busy` is every channel's busy bits (row 0
        unused) at the block's half-slots; `lone` marks (node, half-slot) where
        a node is idle with no neighbour on its channel, a cluster of one; the
        other three list the visited tunings (the idle nodes with a neighbour
        on their channel, or every tuning when traced) grouped by (half-slot,
        channel), in that order: each group's half-slot within the block, its
        channel and its id mask.

        Every run asks for blocks 0, 1, 2, ... in turn, stopping once it
        ends, so b never skips a block and the clocks only move forward.
        Blocks past a run's budget are safe to draw: every stream is private
        to one node or one channel, so the extra draws change no record.
        """
        clock, nodes, table, hops, schedules = self._clock
        if STRATEGIES[protocol] is not clock:
            nodes = [make_strategy(protocol, cu, seeded_rng(row)) for cu, row in zip(self.smap.available, self.seeds)]
            clock, table, hops, schedules = STRATEGIES[protocol], channel_table(nodes), [], {}
            self._clock = clock, nodes, table, hops, schedules
        if (b, trace) not in schedules:
            slots = min(FIRST_BLOCK_SLOTS << b, MAX_BLOCK_SLOTS)
            if b == len(hops):  # every node's channels, with a row n of channel 0 for no node
                block = np.zeros((len(nodes) + 1, 2 * slots), np.min_scalar_type(len(self.processes)))
                block[:-1] = clock.block(nodes, table, slots)
                hops.append(block)
            if b == len(self._busy):
                start = sum(busy.shape[1] for busy in self._busy)  # half-slots before block b
                busy = np.zeros((len(self.processes) + 1, 2 * slots), dtype=bool)
                busy[1:] = busy_bits(self.processes, start, 2 * slots)
                self._busy.append(busy)
            schedules[b, trace] = _schedule(hops[b], self._busy[b], self.topology.peers, trace)
        return schedules[b, trace]


def _schedule(hops: np.ndarray, busy: np.ndarray, peers, trace: bool) -> tuple[np.ndarray, ...]:
    """Environment.schedule of one block's hops (row n is no node) and busy
    bits, as read-only arrays: half-slots and channels in their smallest
    dtypes, id masks in uint64 up to 64 nodes and as Python ints above."""
    n, width = hops.shape[0] - 1, hops.shape[1]
    padded, hops = hops, hops[:-1]
    # busy[hops[i, k], k] by flat index, which int32 holds: (C + 1) * width < 2**31
    idle = ~np.take(busy, hops * np.int32(width) + np.arange(width, dtype=np.int32))
    # Only a node with a neighbour on its idle channel can be in a cluster
    # of two or more; nodes on one channel share its busy bit.
    met = np.zeros_like(idle)
    for column in peers:
        met |= padded[column] == hops
    heard = idle & met | trace
    cells = np.flatnonzero(heard)  # i * width + k of every heard (node i, half-slot k)
    who, at = np.divmod(cells, width)
    channels = busy.shape[0]  # group keys are k * channels + channel
    keys = at * channels + np.take(hops, cells)
    # A group's members may come in any order: its id mask is the OR of their
    # bits, which no order changes, so the sort need not be stable.
    order = np.argsort(keys)
    keys = keys[order]
    starts = np.flatnonzero(np.diff(keys, prepend=-1))
    group_at, group_channel = np.divmod(keys[starts], channels)
    bits = (np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64)) if n <= 64
            else np.array([1 << i for i in range(n)], dtype=object))  # id masks past one word: Python ints
    schedule = (busy, idle & ~heard, group_at.astype(np.min_scalar_type(width - 1)),
                group_channel.astype(hops.dtype), np.bitwise_or.reduceat(bits[who[order]], starts))
    for array in schedule:
        array.setflags(write=False)
    return schedule


def build_environment(scenario: Scenario, seed) -> Environment:
    """The environment of every run of (scenario's environment key, seed).

    A pure function of (environment axes, seed): the protocol and handshake
    choices never touch these streams. Every stream's seed is derived here.
    """
    scenario.validate()
    c, n = scenario.channels, scenario.nodes
    seeds = labeled_seeds(seed, ("topology", "channels", *(f"pr/{ch}" for ch in range(1, c + 1)),
                                 *(f"strategy/{i}" for i in range(n)), "election"))
    if scenario.positions is not None:
        topo = from_positions(list(scenario.positions), scenario.radio_range)
    else:
        topo = generate_topology(n, scenario.area, scenario.radio_range, seeded_rng(seeds[0]))
    smap = assign_channels(n, c, scenario.mode, seeded_rng(seeds[1]), m=scenario.m,
                           per_node_size=scenario.per_node_size)
    rates = make_profile(scenario.activity, c, table=scenario.rates_table)
    processes = [ChannelProcess(r, seeded_rng(row)) for r, row in zip(rates, seeds[2:])]
    return Environment(scenario.environment_key(), seed, topo, smap, processes, seeds[2 + c:])


def _clusters(members: int, neighbor_masks: list[int]) -> list[int]:
    """Connected components, as id masks, of the topology restricted to the ids
    in `members` (neighbor_masks[i] holds node i's neighbors), lowest id first."""
    out = []
    while members:
        frontier = members & -members
        left = members ^ frontier  # members not reached yet
        while frontier:
            low = frontier & -frontier
            reached = neighbor_masks[low.bit_length() - 1] & left
            left ^= reached
            frontier ^= low | reached
        out.append(members ^ left)
        members = left
    return out


def _ids(mask: int) -> list[int]:
    """The ids in an id mask, ascending."""
    ids = []
    while mask:
        ids.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return ids


def run(scenario: Scenario, seed, election=None, trace: bool = False,
        environment: Environment | None = None) -> RunRecord:
    """Simulate one run to completion or the slot budget.

    `election`, when given, replaces the uniform election stream: it is
    called as election(tag, options) with tag "initiator" or "responder" and
    a nonempty ascending id list, and must return one of the options.
    `trace` attaches the per-half-slot transcript to the returned record as
    rows of (slot, half, channel, kind, sender, receiver, pr_state).
    `environment`, when given, must come from build_environment for this
    scenario's environment key and this seed; without it the run builds its own.
    Without an `election`, a run on a given environment returns the record an
    earlier run of the same behaviour key left there (module docstring).
    """
    if environment is None:
        environment, memo = build_environment(scenario, seed), {}  # dropped after the run: nothing to keep
    else:
        scenario.validate()
        if environment.key != scenario.environment_key() or environment.seed != seed:
            raise InvalidParameterError("the environment was built for another environment key or seed")
        memo = environment.records if election is None else {}
    # The behaviour key: every field the walk reads that the environment key does not fix.
    window = scenario.emca_window if scenario.protocol == "memca" else math.inf
    behaviour = (STRATEGIES[scenario.protocol], scenario.handshake, scenario.max_slots,
                 scenario.completion_mode, scenario.share_unconfirmed_links, window, trace)
    if behaviour in memo:
        return memo[behaviour]
    n = scenario.nodes

    if election is None:
        draw = uniform_index(seeded_rng(environment.seeds[n]))

    neighbor_masks = environment.topology.neighbor_masks
    tables = [NeighborTables(i) for i in range(n)]
    done = {0: 0} if n == 1 else {}  # complete node id -> its TTR in half-slots
    complete = 0  # done's ids as a mask, kept only by the half-slot walk (n == 1 never walks)
    rows: list | None = [] if trace else None
    packets = 0
    # Counted apart from the tables so that the packet-floor check below
    # catches a handshake that links nothing.
    met_pairs: set[int] = set()  # id masks of the pairs that have handshaken
    quiet = 0  # nodes that may not initiate: complete, all direct links confirmed, mode not "active"
    silencing = scenario.completion_mode == "silent" or window < math.inf
    quieting = scenario.completion_mode != "active"
    everyone = (1 << n) - 1  # a node's tables are complete when they and it cover this
    kind, share = scenario.handshake, scenario.share_unconfirmed_links

    def is_silent(i: int, slot: int) -> bool:  # asked only when silencing, of a complete node
        # (ttr + 1) // 2 is the slot the node completed in
        return scenario.completion_mode == "silent" or slot > (done[i] + 1) // 2 + window

    b, slot0 = 0, 1  # block index and the block's first slot
    while len(done) < n and slot0 <= scenario.max_slots:
        busy, lone, group_at, group_channel, group_tuned = environment.schedule(scenario.protocol, b, trace)
        width = min(busy.shape[1], 2 * (scenario.max_slots - slot0 + 1))  # half-slots within the budget
        groups = zip(group_at.tolist(), group_channel.tolist(), group_tuned.tolist())
        k = -1
        for at_k, channel, tuned in groups:
            if at_k != k:
                if at_k >= width or len(done) == n:
                    break
                k, slot, half = at_k, slot0 + at_k // 2, 1 + at_k % 2
            if silencing and tuned & complete:
                for i in _ids(tuned & complete):
                    if is_silent(i, slot):
                        tuned ^= 1 << i
                if not tuned:
                    continue
            if rows is not None:
                state = ON if busy[channel, k] else OFF
                rows.extend((slot, half, channel, "TUNE", i, None, state) for i in _ids(tuned))
                if state == ON:
                    continue  # sensing gate: nobody transmits this half-slot
            # A pair of adjacent nodes is one cluster: the higher id's neighbours hold the lower.
            pair = tuned.bit_count() == 2 and neighbor_masks[tuned.bit_length() - 1] & tuned
            for cluster in (tuned,) if pair else _clusters(tuned, neighbor_masks):
                if not (eligible := cluster & ~quiet):
                    continue
                if not cluster & (cluster - 1):  # a cluster of one
                    if (i := cluster.bit_length() - 1) not in done:
                        packets += 1
                        if rows is not None:
                            rows.append((slot, half, channel, D_REQ, i, None, OFF))
                    continue
                # The draw-th candidate, ascending; one candidate draws nothing, as draw(1) reads nothing.
                if election is None:
                    if eligible & (eligible - 1):
                        for _ in range(draw(eligible.bit_count())):
                            eligible &= eligible - 1
                    init = (eligible & -eligible).bit_length() - 1
                else:
                    init = election("initiator", _ids(eligible))
                in_range = cluster & neighbor_masks[init]
                # Responder preference: peers never heard of, then direct links still
                # awaiting confirmation, then peers known only indirectly, then confirmed
                # links. The unconfirmed tier is what sends a two-way handshake's
                # responder back toward that neighbor at later meetings.
                mine = tables[init]
                dnl, inl, confirmed = mine.dnl, mine.inl, mine.confirmed
                tier = (
                    in_range & ~(dnl | inl)
                    or in_range & dnl & ~confirmed
                    or in_range & inl
                    or in_range & confirmed
                )
                if election is None:
                    if tier & (tier - 1):
                        for _ in range(draw(tier.bit_count())):
                            tier &= tier - 1
                    responder = (tier & -tier).bit_length() - 1
                else:
                    responder = election("responder", _ids(tier))
                theirs = tables[responder]
                messages = run_handshake(kind, mine, theirs, share)
                packets += len(messages)
                met_pairs.add(1 << init | 1 << responder)
                if rows is not None:
                    rows.extend((slot, half, channel, *message, OFF) for message in messages)
                # Settled at once: each is on one channel per half-slot, so no other cluster reads them.
                for i, node in ((init, mine), (responder, theirs)):
                    dnl, bit = node.dnl, 1 << i
                    if not complete & bit:  # an incomplete node is never quiet
                        if dnl | node.inl | bit != everyone:
                            continue
                        done[i] = 2 * slot - 2 + half
                        complete |= bit
                    if quieting and not dnl & ~node.confirmed:
                        quiet |= bit
                    else:
                        quiet &= ~bit
        # half-slots of the block each node spent incomplete; a node that
        # completed at half-slot k of the block has TTR first + k (k < 0 for
        # an earlier block, which sends none of the block's lone D-REQs)
        first = 2 * slot0 - 1
        ends = np.array([done.get(i, first + width) - first for i in range(n)])
        packets += int(np.count_nonzero(lone[:, :width] & (np.arange(width) < ends[:, None])))
        b, slot0 = b + 1, slot0 + busy.shape[1] // 2

    rendezvous = len(met_pairs)
    if packets < HANDSHAKE_SIZES[scenario.handshake] * rendezvous:
        raise RuntimeError(f"{packets} packets cannot carry {rendezvous} {scenario.handshake} rendezvous")
    memo[behaviour] = RunRecord(
        node_count=n,
        handshake=scenario.handshake,
        max_slots=scenario.max_slots,
        ttr_half_slots=tuple(done.get(i, 2 * scenario.max_slots) for i in range(n)),
        censored=tuple(i not in done for i in range(n)),
        packets=packets,
        rendezvous=rendezvous,
        trace=tuple(rows) if rows is not None else None,
    )
    return memo[behaviour]
