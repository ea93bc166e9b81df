"""Channel-selection strategies, one choice per half-slot.

All strategies make two rendezvous attempts per timeslot, one per half-slot.
The dual-clock strategy hops its prime channels in the first half and its
non-prime channels in the second; the baselines advance a single clock once
per half-slot over the full available set.

A strategy class's `block(nodes, table, slots)` is its one hop rule: every
node's channels for the next `slots` whole slots, one row per node in
half-slot order. mdmca, mmca and memca are one clock, `_ModularClock`, given
lists, modulus and period; mrcs takes a value every half-slot and reads each
block in one draw. `select(half)` is read from `block`: half 1 steps a
one-slot block and half 2 returns that slot's second channel, so `slots`
rounds of `select(1)`, `select(2)` give one `slots`-slot block's channels
from the same stream values.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NoChannelError
from .spectrum import is_prime, partition_prime

CHUNK = 64  # values per stream read of a modular clock


def channel_table(nodes: list) -> np.ndarray:
    """Every node's channel lists cycled to the population's largest modulus,
    so that a clock value indexes them: entry (i, l, j) is node i's l-th list
    at j mod its length. Built once per population; ids fit 16 bits, as pools
    stop at 4,096 channels."""
    width = max(s.modulus for s in nodes)
    cycled = [[(list(c) * (width // len(c) + 1))[:width] for c in s.lists] for s in nodes]
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


class _Strategy:
    """The one `select` of every strategy class, read from the class's `block`."""

    _open = None  # the second channel of the slot select(1) opened, until select(2) reads it

    def select(self, half: int) -> int:
        """The channel of half-slot `half`: 1 steps a one-slot block, 2 returns its second channel.
        Any other half, or a 2 with no slot open, is refused and steps nothing."""
        if half != 1 and (half != 2 or self._open is None):
            raise InvalidParameterError(f"half must be 1, or 2 after a select(1), got {half}")
        if half == 2:
            c, self._open = self._open, None
            return c
        c, self._open = type(self).block([self], channel_table([self]), 1)[0].tolist()
        return c


class _ModularClock(_Strategy):
    """One modular clock per channel list, `k = len(lists)` in all, each
    stepping by its rate modulo `modulus` and read through its list. Every
    clock takes fresh rates from [0, modulus) every `period` steps; `j` and `r`
    hold one clock and one rate per list, and `steps` counts the steps into
    the current rate epoch. A step moves all k clocks, one a half-slot in
    turn, so `slots` slots are `2 * slots // k` steps.

    A clock is affine within a rate epoch, so a population's block is one
    np.repeat of rates per epoch, one cumsum and one gather through its
    `channel_table`. Two lists are disjoint, or both the full set; then the
    halves collide exactly when the clock values are equal, and clock 2 is
    nudged once past clock 1. That moves it for every later step, so the
    nudges are a running offset, one vector step per step of the block.

    Every value a node reads (its first clocks and its rates) goes through
    `_take`, which serves it from a list refilled CHUNK values at a time. All
    come from `integers(modulus)`, one bound, and `integers(bound, size=a)`
    then `size=b` gives what `size=a + b` does, so chunking changes no value,
    and after t values taken the stream sits at CHUNK * ceil(t / CHUNK)
    however the blocks that took them were sized.
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

    @staticmethod
    def block(nodes: list[_ModularClock], table: np.ndarray, slots: int) -> np.ndarray:
        """Every node's channels of the next `slots` slots, both halves of each.

        A node takes all its epochs' rates in one `_take`. int32 holds every
        sum: moduli stay below a few thousand and a block below 600 steps."""
        k = len(nodes[0].lists)
        count = 2 * slots // k
        values, repeats = [], []
        for s in nodes:
            held = -s.steps % s.period  # steps left on the current rates
            values += s.r
            repeats.append(min(held, count))
            if held < count:
                epochs = (count - held - 1) // s.period + 1
                values += s._take(k * epochs)
                repeats += [s.period] * (epochs - 1) + [count - held - (epochs - 1) * s.period]
        rates = np.repeat(np.array(values, dtype=np.int32).reshape(-1, k), repeats, axis=0)
        rates = rates.reshape(len(nodes), count, k)
        last = rates[:, -1].tolist()
        rates[:, 0] += [s.j for s in nodes]
        clocks = np.cumsum(rates, axis=1, dtype=np.int32)
        moduli = np.array([s.modulus for s in nodes], dtype=np.int32)
        np.remainder(clocks, moduli[:, None, None], out=clocks)
        tied = np.flatnonzero([k == 2 and s.lists[0] == s.lists[1] for s in nodes])
        if tied.size:
            c1, c2, m, nudges = clocks[tied, :, 0], clocks[tied, :, 1], moduli[tied], 0
            for t in range(count):
                nudges += (c2[:, t] + nudges) % m == c1[:, t]
                c2[:, t] = (c2[:, t] + nudges) % m
            clocks[tied, :, 1] = c2
        for s, r, j in zip(nodes, last, clocks[:, -1].tolist()):
            s.r, s.j, s.steps = r, j, (s.steps + count) % s.period
        return _lookup(table, clocks)


class MdmcaStrategy(_ModularClock):
    """Dual modular clocks over the prime / non-prime split.

    Both clocks run modulo the available-set size m, and their rates are
    redrawn uniformly from [0, m) every m slots, which also unsticks a rate of
    0. Clock 1 reads the prime list in the first half-slot, clock 2 the
    non-prime list in the second. When either list is empty, both clocks read
    the full set (the other list already is the full set), and the second
    clock is nudged once past a collision.
    """

    kind = "mdmca"

    def __init__(self, channels, rng: np.random.Generator):
        cu = _available(channels)
        super().__init__(cu, tuple(tuple(s) or cu for s in partition_prime(cu)), len(cu), len(cu), rng)


class MrcsStrategy(_Strategy):
    """Uniform random pick from the available set, independent per half-slot."""

    kind = "mrcs"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = _available(channels)
        self.lists, self.modulus = (self.cu,), len(self.cu)
        self._rng = rng

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
