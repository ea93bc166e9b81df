"""Channel-selection strategies, one choice per half-slot.

All strategies make two rendezvous attempts per timeslot: `select(1)` for the
first half-slot and `select(2)` for the second, called in that order every
slot. The dual-clock strategy hops its prime channels in the first half and
its non-prime channels in the second; the baselines advance a single clock
once per half-slot over the full available set.

`hops(slots)` returns the channels of the next `slots` whole slots at once,
in half-slot order, and leaves the strategy in the state that `slots` rounds
of `select(1)`, `select(2)` would: same channels, same stream consumption.
A modular clock is affine within a rate epoch, so a block is a cumulative
sum over rates repeated per epoch. Batched `integers(bound, size=k)` draws
equal k scalar draws on the same stream. `select` stays as the sequential
reference the block form is tested against.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameterError, NoChannelError
from .spectrum import is_prime, partition_prime


def _epoch_rates(current, first: int, period: int, count: int, draw) -> np.ndarray:
    """Per-step rates of the next `count` clock steps.

    The current rate holds for the `first` steps before the next redraw, then
    `draw(k)` supplies k fresh rates, each held for `period` steps. `draw`
    returns an array of shape (k, ...) and `current` matches its trailing
    shape.
    """
    held = np.full((min(first, count), *np.shape(current)), current)
    if first >= count:
        return held
    k = (count - first - 1) // period + 1
    fresh = np.repeat(draw(k), period, axis=0)[: count - first]
    return np.concatenate((held, fresh)) if first else fresh


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


class MdmcaStrategy:
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
        self._rng = rng
        self.j1 = int(rng.integers(self.m))
        self.j2 = int(rng.integers(self.m))
        self.r1 = 0
        self.r2 = 0
        self.t = 0
        self._c1: int | None = None

    def select(self, half: int) -> int:
        if half == 1:
            if self.t == 0:
                self.r1 = int(self._rng.integers(self.m))
                self.r2 = int(self._rng.integers(self.m))
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

    def hops(self, slots: int) -> np.ndarray:
        """Channels of the next `slots` slots, both halves of each, in order."""
        if not (self.mp and self.np_):
            # Either list empty: the halves can collide, and the nudge that
            # resolves a collision moves clock 2 for every later slot.
            return np.array([self.select(half) for _ in range(slots) for half in (1, 2)])
        m = self.m
        rates = _epoch_rates(
            (self.r1, self.r2), (-self.t) % m, m, slots,
            lambda k: self._rng.integers(m, size=(k, 2)),
        )
        clocks = (np.cumsum(rates, axis=0) + (self.j1, self.j2)) % m
        self.r1, self.r2 = rates[-1].tolist()
        self.j1, self.j2 = clocks[-1].tolist()
        self.t = (self.t + slots) % m
        # clock value -> channel, per half: row 0 prime list, row 1 non-prime
        cycled = np.array([(lst * (m // len(lst) + 1))[:m] for lst in (self.mp, self.np_)])
        out = cycled[(0, 1), clocks]
        self._c1 = int(out[-1, 0])
        return out.ravel()


class MrcsStrategy:
    """Uniform random pick from the available set, independent per half-slot."""

    kind = "mrcs"

    def __init__(self, channels, rng: np.random.Generator):
        self.cu = tuple(sorted(channels))
        if not self.cu:
            raise NoChannelError("empty available channel set")
        self._rng = rng

    def select(self, half: int) -> int:
        return self.cu[int(self._rng.integers(len(self.cu)))]

    def hops(self, slots: int) -> np.ndarray:
        """Channels of the next `slots` slots, both halves of each, in order."""
        return np.array(self.cu)[self._rng.integers(len(self.cu), size=2 * slots)]


class MmcaStrategy:
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
        self._rng = rng
        self.j = int(rng.integers(self.p))
        self.r = 0
        self._steps = 0

    def select(self, half: int) -> int:
        if self._steps == 0:
            self.r = int(self._rng.integers(self.p))
        self._steps = (self._steps + 1) % (2 * self.p)
        self.j = (self.j + self.r) % self.p
        return self.cu[self.j if self.j < self.m else self.j % self.m]

    def hops(self, slots: int) -> np.ndarray:
        """Channels of the next `slots` slots, both halves of each, in order."""
        period = 2 * self.p
        rates = _epoch_rates(
            self.r, (-self._steps) % period, period, 2 * slots,
            lambda k: self._rng.integers(self.p, size=k),
        )
        clock = (np.cumsum(rates) + self.j) % self.p
        self.r = int(rates[-1])
        self.j = int(clock[-1])
        self._steps = (self._steps + 2 * slots) % period
        return np.array(self.cu)[clock % self.m]


# memca shares mmca's clock; it differs only in its termination policy,
# which lives in the engine (a responder window after completion).
STRATEGIES = {"mdmca": MdmcaStrategy, "mrcs": MrcsStrategy, "mmca": MmcaStrategy, "memca": MmcaStrategy}
STRATEGY_KINDS = tuple(STRATEGIES)


def make_strategy(kind: str, channels, rng: np.random.Generator):
    if kind not in STRATEGIES:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    return STRATEGIES[kind](channels, rng)
