"""Channel-selection strategies, one choice per half-slot.

All strategies make two rendezvous attempts per timeslot: `select(1)` for the
first half-slot and `select(2)` for the second, called in that order every
slot. The dual-clock strategy hops its prime channels in the first half and
its non-prime channels in the second; the baselines advance a single clock
once per half-slot over the full available set.

A strategy class's `block(nodes, table, slots)` returns every node's channels
for the next `slots` whole slots, one row per node in half-slot order, and
leaves each node as `slots` rounds of `select(1)`, `select(2)` would: same
channels, same stream consumption. mdmca, mmca and memca are one clock,
`_ModularClock`, with one `select` and `block`, given lists, modulus and
period; mrcs takes a value every half-slot and reads each block in one draw.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NoChannelError
from .spectrum import is_prime, partition_prime

CHUNK = 64  # values per stream read of a modular clock


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


def _available(channels) -> tuple:
    """The available set, sorted; an empty one is refused."""
    cu = tuple(sorted(channels))
    if not cu:
        raise NoChannelError("empty available channel set")
    return cu


class _ModularClock:
    """One modular clock per channel list, `k = len(lists)` in all, each
    stepping by its rate modulo `modulus` and read through its list. Every
    clock takes fresh rates from [0, modulus) every `period` steps; `j` and `r`
    hold one clock and one rate per list, and `steps` counts the steps into
    the current rate epoch. A step moves all k clocks, one a half-slot in
    turn, so `slots` slots are `2 * slots // k` steps.

    A clock is affine within a rate epoch, so a population's block is one
    np.repeat of rates per epoch, one cumsum and one gather through its
    `channel_table`. A node with an empty list steps `select` instead. Only
    an mdmca node with an empty prime or non-prime list has one: its halves
    can then collide, and the nudge that resolves a collision moves clock 2
    for every later slot, which no affine form holds.

    Every value a node reads (its first clocks, `select`'s and `block`'s
    rates) goes through `_take`, which serves it from a list refilled CHUNK
    values at a time. All come from `integers(modulus)`, one bound, and
    `integers(bound, size=a)` then `size=b` gives what `size=a + b` does, so
    chunking changes no value, and after t values taken the stream sits at
    CHUNK * ceil(t / CHUNK) whichever path took them.
    """

    def __init__(self, cu: tuple, lists: tuple, modulus: int, period: int, rng: np.random.Generator):
        self.cu, self.lists, self.modulus, self.period = cu, lists, modulus, period
        self._rng, self._values = rng, []
        self.j = self._take(len(lists))
        self.r = [0] * len(lists)
        self.steps = 0

    def _take(self, k: int) -> list:
        """The stream's next k values."""
        values = self._values
        if len(values) < k:
            values += self._rng.integers(self.modulus, size=CHUNK * -((len(values) - k) // CHUNK)).tolist()
        taken = values[:k]
        del values[:k]
        return taken

    def select(self, half: int) -> int:
        """The channel of half-slot `half` (1 or 2), from clock half - 1 of a two-list clock or the one
        clock of a one-list clock. An empty list reads the full set; a second clock that lands on the
        first half's channel then is nudged once past it."""
        if half != 1 and half != 2:
            raise InvalidParameterError(f"half must be 1 or 2, got {half}")
        j, lists, k = self.j, self.lists, len(self.lists)
        l = half - 1 if k == 2 else 0
        if not (l or self.steps):  # clock 0 opens a rate epoch
            self.r = self._take(k)
        at = j[l] = (j[l] + self.r[l]) % self.modulus
        chosen, first = lists[l], lists[0]
        c = chosen[at % len(chosen)] if chosen else self.cu[at]
        if l + 1 == k:  # the step's last clock
            if l and not (chosen and first) and c == (first[j[0] % len(first)] if first else self.cu[j[0]]):
                at = j[1] = (at + 1) % self.modulus
                c = self.cu[at]
            self.steps = (self.steps + 1) % self.period
        return c

    @staticmethod
    def block(nodes: list[_ModularClock], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each.

        A clocked node takes all its epochs' rates in one `_take`, the values
        `select` would take. int32 holds every sum: moduli stay below a few
        thousand and a block below 600 steps."""
        k = len(nodes[0].lists)
        count = 2 * slots // k
        out = np.empty((len(nodes), 2 * slots), np.uint16)
        rows, values, repeats = [], [], []
        for i, s in enumerate(nodes):
            if not all(s.lists):
                out[i] = [s.select(half) for _ in range(slots) for half in (1, 2)]
                continue
            rows.append(i)
            held = -s.steps % s.period  # steps left on the current rates
            values += s.r
            repeats.append(min(held, count))
            if held < count:
                epochs = (count - held - 1) // s.period + 1
                values += s._take(k * epochs)
                repeats += [s.period] * (epochs - 1) + [count - held - (epochs - 1) * s.period]
        if rows:
            clocked = [nodes[i] for i in rows]
            rates = np.repeat(np.array(values, dtype=np.int32).reshape(-1, k), repeats, axis=0)
            rates = rates.reshape(len(rows), count, k)
            last = rates[:, -1].tolist()
            rates[:, 0] += [s.j for s in clocked]
            clocks = np.cumsum(rates, axis=1, dtype=np.int32)
            np.remainder(clocks, np.array([s.modulus for s in clocked], dtype=np.int32)[:, None, None], out=clocks)
            for s, r, j in zip(clocked, last, clocks[:, -1].tolist()):
                s.r, s.j, s.steps = r, j, (s.steps + count) % s.period
            if len(rows) == len(nodes):  # no select rows: gather the whole table, with no row copies
                return _lookup(table, clocks)
            out[rows] = _lookup(table[rows], clocks)
        return out


class MdmcaStrategy(_ModularClock):
    """Dual modular clocks over the prime / non-prime split.

    Both clocks run modulo the available-set size m, and their rates are
    redrawn uniformly from [0, m) every m slots, which also unsticks a rate of
    0. Clock 1 reads the prime list in the first half-slot, clock 2 the
    non-prime list in the second; an empty list reads the full set, and the
    second clock is nudged once past a collision.
    """

    kind = "mdmca"

    def __init__(self, channels, rng: np.random.Generator):
        cu = _available(channels)
        super().__init__(cu, tuple(tuple(s) for s in partition_prime(cu)), len(cu), len(cu), rng)


class MrcsStrategy:
    """Uniform random pick from the available set, independent per half-slot."""

    kind = "mrcs"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = _available(channels)
        self.lists, self.modulus = (self.cu,), len(self.cu)
        self._rng = rng

    def select(self, half: int) -> int:
        return self.cu[int(self._rng.integers(len(self.cu)))]

    @staticmethod
    def block(nodes: list[MrcsStrategy], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each."""
        return _lookup(table, np.array([s._rng.integers(s.modulus, size=2 * slots) for s in nodes])[..., None])


class MmcaStrategy(_ModularClock):
    """Single modular clock with prime modulus p >= m.

    The clock advances once per half-slot; indices past the end of the
    available set wrap onto it via j mod m. The rate is redrawn uniformly
    from [0, p) every 2p half-slots.
    """

    kind = "mmca"

    def __init__(self, channels, rng: np.random.Generator):
        cu = _available(channels)
        p = smallest_prime_at_least(len(cu))
        super().__init__(cu, (cu,), p, 2 * p, rng)


# memca shares mmca's clock; it differs only in its termination policy,
# which lives in the engine (a responder window after completion).
STRATEGIES = {"mdmca": MdmcaStrategy, "mrcs": MrcsStrategy, "mmca": MmcaStrategy, "memca": MmcaStrategy}
STRATEGY_KINDS = tuple(STRATEGIES)


def make_strategy(kind: str, channels, rng: np.random.Generator):
    if kind not in STRATEGIES:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    return STRATEGIES[kind](channels, rng)
