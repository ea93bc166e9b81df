"""Channel-selection strategies, one choice per half-slot.

All strategies make two rendezvous attempts per timeslot: `select(1)` for the
first half-slot and `select(2)` for the second, called in that order every
slot. The dual-clock strategy hops its prime channels in the first half and
its non-prime channels in the second; the baselines advance a single clock
once per half-slot over the full available set.

A strategy class's `block(nodes, table, slots)` returns every node's channels
for the next `slots` whole slots, one row per node in half-slot order, and
leaves each node as `slots` rounds of `select(1)`, `select(2)` would: same
channels, same stream consumption. A modular clock is affine within a rate
epoch, so a population's block is one np.repeat of rates per epoch, one cumsum
and one gather through its `channel_table`. `select` stays as the reference,
and serves mdmca nodes with an empty prime or non-prime list.

A modular clock redraws its rates once per epoch, a few values a block, and
takes every value (its first clocks, `select`'s and `block`'s redraws) through
`_take`, which serves them from a list refilled CHUNK values at a time. All
come from `integers(bound)` at one bound, and `integers(bound, size=a)` then
`size=b` gives what `size=a + b` does, so chunking changes no value, and after
t values taken the stream sits at CHUNK * ceil(t / CHUNK) whichever path took
them. mrcs takes a value every half-slot and reads each block in one draw.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NoChannelError
from .spectrum import is_prime, partition_prime

CHUNK = 64  # values per stream read of a modular clock


def _clocks(start: list, current: list, first: list, period: list, modulus: list, count: int, draw):
    """(clocks, last): every node's clock values over its next `count` steps,
    shape (nodes, count, clocks), and its rates at the last step. Node i's
    clocks start at start[i] and step by its current rates for first[i] steps;
    then draw(i, k) supplies k fresh rate tuples as one flat list, each held
    for period[i] steps. int32 holds every sum: moduli stay below a few
    thousand and a block below 600 steps."""
    values, repeats = [], []
    for i, (rate, held, length) in enumerate(zip(current, first, period)):
        values += rate
        repeats.append(min(held, count))
        if held < count:
            k = (count - held - 1) // length + 1
            values += draw(i, k)
            repeats += [length] * (k - 1) + [count - held - (k - 1) * length]
    rates = np.repeat(np.array(values, dtype=np.int32).reshape(-1, len(start[0])), repeats, axis=0)
    rates = rates.reshape(len(start), count, -1)
    last = rates[:, -1].tolist()
    rates[:, 0] += start
    clocks = np.cumsum(rates, axis=1, dtype=np.int32)
    return np.remainder(clocks, np.array(modulus, dtype=np.int32)[:, None, None], out=clocks), last


def channel_table(nodes: list) -> np.ndarray:
    """Every node's channel lists cycled to the population's largest modulus,
    so that a clock value indexes them: entry (i, l, j) is node i's l-th list
    at j mod its length, and 0 for an empty list. Built once per population;
    ids fit 16 bits, as pools stop at 4,096 channels."""
    width = max(s.modulus for s in nodes)
    cycled = [[(list(c) * (width // len(c) + 1))[:width] if c else [0] * width for c in s.lists] for s in nodes]
    return np.array(cycled, dtype=np.uint16)


def _lookup(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """table[i, l, index[i, s, l]] for every node i, step s and list l: one row per node."""
    rows = np.arange(0, table.size, table.shape[-1], dtype=index.dtype).reshape(len(table), 1, -1)
    return np.take(table, index + rows).reshape(len(table), -1)


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class _ChunkedStream:
    """A node's stream of draws from [0, bound), read CHUNK values at a time."""

    def _take(self, k: int) -> list:
        """The stream's next k values."""
        values = self._values
        if len(values) < k:
            values += self._rng.integers(self._bound, size=CHUNK * -((len(values) - k) // CHUNK)).tolist()
        taken = values[:k]
        del values[:k]
        return taken


class MdmcaStrategy(_ChunkedStream):
    """Dual modular clocks over the prime / non-prime split.

    Both clocks run modulo the available-set size m. Hop rates are redrawn
    uniformly from [0, m) every m slots (when the inner counter wraps), which
    also unsticks a rate of 0. The first half-slot maps clock 1 onto the
    prime list when it is nonempty, otherwise onto the full set; the second
    half-slot does the same with clock 2 and the non-prime list. The two
    halves can only pick the same channel when one of the lists is empty, in
    which case the second clock is nudged forward once.
    """

    kind = "mdmca"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = tuple(sorted(channels))
        if not self.cu:
            raise NoChannelError("empty available channel set")
        self.mp, self.np_ = (tuple(s) for s in partition_prime(self.cu))
        self.m = len(self.cu)
        self.lists, self.modulus = (self.mp, self.np_), self.m  # channel_table's view of the clocks
        self._rng, self._bound, self._values = rng, self.m, []
        self.j1, self.j2 = self._take(2)
        self.r1 = 0
        self.r2 = 0
        self.t = 0
        self._c1: int | None = None

    def select(self, half: int) -> int:
        if half == 1:
            if self.t == 0:
                self.r1, self.r2 = self._take(2)
            self.j1 = (self.j1 + self.r1) % self.m
            c1 = self.mp[self.j1 % len(self.mp)] if self.mp else self.cu[self.j1]
            self._c1 = c1
            return c1
        if half != 2:
            raise InvalidParameterError(f"half must be 1 or 2, got {half}")
        self.j2 = (self.j2 + self.r2) % self.m
        c2 = self.np_[self.j2 % len(self.np_)] if self.np_ else self.cu[self.j2]
        if c2 == self._c1:  # only possible when mp or np_ is empty
            self.j2 = (self.j2 + 1) % self.m
            c2 = self.cu[self.j2]
        self.t = (self.t + 1) % self.m
        return c2

    @staticmethod
    def block(nodes: list[MdmcaStrategy], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each.

        Nodes with both lists take all their epochs' rate pairs in one `_take`,
        the values `select` would take (module docstring); the others step `select`."""
        out = np.empty((len(nodes), 2 * slots), np.uint16)
        rows = [i for i, s in enumerate(nodes) if s.mp and s.np_]
        for i, s in enumerate(nodes):
            if not (s.mp and s.np_):
                # Either list empty: the halves can collide, and the nudge that
                # resolves a collision moves clock 2 for every later slot.
                out[i] = [s.select(half) for _ in range(slots) for half in (1, 2)]
        if rows:
            clocked = [nodes[i] for i in rows]
            clocks, last = _clocks(
                [(s.j1, s.j2) for s in clocked], [(s.r1, s.r2) for s in clocked],
                [(-s.t) % s.m for s in clocked], [s.m for s in clocked], [s.m for s in clocked], slots,
                lambda i, k: clocked[i]._take(2 * k),
            )
            out[rows] = _lookup(table[rows], clocks)
            for s, (r1, r2), (j1, j2) in zip(clocked, last, clocks[:, -1].tolist()):
                s.r1, s.r2, s.j1, s.j2, s.t = r1, r2, j1, j2, (s.t + slots) % s.m
        return out


class MrcsStrategy:
    """Uniform random pick from the available set, independent per half-slot."""

    kind = "mrcs"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = tuple(sorted(channels))
        if not self.cu:
            raise NoChannelError("empty available channel set")
        self.lists, self.modulus = (self.cu,), len(self.cu)
        self._rng = rng

    def select(self, half: int) -> int:
        return self.cu[int(self._rng.integers(len(self.cu)))]

    @staticmethod
    def block(nodes: list[MrcsStrategy], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each."""
        return _lookup(table, np.array([s._rng.integers(s.modulus, size=2 * slots) for s in nodes])[..., None])


class MmcaStrategy(_ChunkedStream):
    """Single modular clock with prime modulus p >= m.

    The clock advances once per half-slot; indices past the end of the
    available set wrap onto it via j mod m. The rate is redrawn uniformly
    from [0, p) every 2p half-slots.
    """

    kind = "mmca"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = tuple(sorted(channels))
        if not self.cu:
            raise NoChannelError("empty available channel set")
        self.m = len(self.cu)
        self.p = smallest_prime_at_least(self.m)
        self.lists, self.modulus = (self.cu,), self.p
        self._rng, self._bound, self._values = rng, self.p, []
        self.j, = self._take(1)
        self.r = 0
        self._steps = 0

    def select(self, half: int) -> int:
        if self._steps == 0:
            self.r, = self._take(1)
        self._steps = (self._steps + 1) % (2 * self.p)
        self.j = (self.j + self.r) % self.p
        return self.cu[self.j if self.j < self.m else self.j % self.m]

    @staticmethod
    def block(nodes: list[MmcaStrategy], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each.

        A node takes all its epochs' rates in one `_take`, the values `select`
        would take (module docstring)."""
        clocks, last = _clocks(
            [(s.j,) for s in nodes], [(s.r,) for s in nodes], [(-s._steps) % (2 * s.p) for s in nodes],
            [2 * s.p for s in nodes], [s.p for s in nodes], 2 * slots,
            lambda i, k: nodes[i]._take(k),
        )
        for s, (r,), (j,) in zip(nodes, last, clocks[:, -1].tolist()):
            s.r, s.j, s._steps = r, j, (s._steps + 2 * slots) % (2 * s.p)
        return _lookup(table, clocks)


# memca shares mmca's clock; it differs only in its termination policy,
# which lives in the engine (a responder window after completion).
STRATEGIES = {"mdmca": MdmcaStrategy, "mrcs": MrcsStrategy, "mmca": MmcaStrategy, "memca": MmcaStrategy}
STRATEGY_KINDS = tuple(STRATEGIES)


def make_strategy(kind: str, channels, rng: np.random.Generator):
    if kind not in STRATEGIES:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    return STRATEGIES[kind](channels, rng)
