"""Primary-radio channel occupancy: alternating ON/OFF renewal processes.

Each channel alternates between idle (OFF) and busy (ON) periods. Holding
times are exponential and memoryless: an idle channel turns busy at rate
``lambda_y`` (so OFF durations have mean ``1/lambda_y``) and a busy channel
frees up at rate ``lambda_x`` (ON durations have mean ``1/lambda_x``). The
long-run fraction of time a channel is busy, its utilization, is therefore

    U = lambda_y / (lambda_x + lambda_y)

and the transient busy probability starting from idle at t = 0 is

    P_on(t) = U * (1 - exp(-(lambda_x + lambda_y) * t))

with P_off(t) = 1 - P_on(t). Processes always start OFF, which makes
P_on(0) = 0. A `ChannelProcess` samples a whole pool's traces, each channel's
from its own stream, and is read forward only: it keeps just the intervals
ahead of the last instant it served. Its `busy_bits` reads every channel at a
block of half-slot instants in one pass.

The module ships a 20-channel table of reference rate pairs grouped into the
activity classes zero / low / long / high, plus a "mix" profile that cycles
through them; utilizations for the high columns sit in [0.83, 0.87], which is
what the "85% activity" scenarios select.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

OFF = "off"
ON = "on"

ACTIVITY_CLASSES = ("zero", "low", "long", "high", "mix")

# One (lambda_x, lambda_y) pair per channel, cycling zero, low, long, high.
# Overridable wherever a profile is built; see make_profile(table=...).
RATE_TABLE: tuple[tuple[float, float], ...] = (
    (1000.0, 0.0), (1.0, 0.21), (0.25, 0.25), (0.22, 1.44),
    (1000.0, 0.0), (1.36, 0.22), (0.21, 0.24), (0.22, 1.58),
    (1000.0, 0.0), (1.26, 0.22), (0.22, 0.24), (0.23, 1.25),
    (1000.0, 0.0), (1.26, 0.21), (0.21, 0.22), (0.21, 1.06),
    (1000.0, 0.0), (1.28, 0.22), (0.20, 0.20), (0.21, 1.09),
)

# Rounded utilizations for the table above, used by the self-check command.
TABLE_UTILIZATION: tuple[float, ...] = (
    0.0, 0.17, 0.50, 0.86,
    0.0, 0.13, 0.53, 0.87,
    0.0, 0.14, 0.52, 0.84,
    0.0, 0.14, 0.51, 0.83,
    0.0, 0.14, 0.50, 0.83,
)

_CLASS_CYCLE = ("zero", "low", "long", "high")

# Largest rate a channel may have, per second: the table's largest. It keeps
# every holding-time scale at 1e-3 s or more, so no positive variate makes a zero
# duration, and a channel's batch for a 256-slot block near 320,000 variates (2.6 MB).
MAX_RATE = 1000.0


@dataclass(frozen=True)
class ActivityRates:
    """Rate pair of one channel's ON/OFF process.

    lambda_x drives OFF pressure (rate at which a busy channel goes idle),
    lambda_y drives ON pressure (rate at which an idle channel goes busy).
    """

    lambda_x: float
    lambda_y: float

    def __post_init__(self):
        if not (0 <= self.lambda_x <= MAX_RATE and 0 <= self.lambda_y <= MAX_RATE):
            raise InvalidParameterError(f"rates must be between 0 and {MAX_RATE:g}, got {self}")
        if self.lambda_x + self.lambda_y == 0:
            raise InvalidParameterError("degenerate rates: lambda_x + lambda_y must be > 0")


def utilization(rates: ActivityRates) -> float:
    """Long-run fraction of time the channel is busy."""
    return rates.lambda_y / (rates.lambda_x + rates.lambda_y)


def state_probabilities(rates: ActivityRates, t: float) -> tuple[float, float]:
    """(p_on, p_off) at time t for a process that starts OFF at t = 0.

    p_off is returned as 1 - p_on, which equals the closed form
    lambda_x / (lambda_x + lambda_y) + U * exp(-(lambda_x + lambda_y) * t)
    and guarantees the pair sums to exactly 1.0.
    """
    if t < 0:
        raise InvalidParameterError(f"t must be nonnegative, got {t}")
    u = utilization(rates)
    p_on = u * -math.expm1(-(rates.lambda_x + rates.lambda_y) * t)
    return p_on, 1.0 - p_on


def make_profile(
    activity: str,
    channel_count: int,
    table: tuple[tuple[float, float], ...] | None = None,
) -> list[ActivityRates]:
    """Rates for `channel_count` channels under a named activity profile.

    "mix" walks the reference table in channel order, repeating its
    zero/low/long/high pattern past the table's end. A single-class profile
    cycles through that class's columns of the table, so e.g. a two-channel
    "high" profile uses the first two high columns.
    """
    if channel_count < 1:
        raise InvalidParameterError(f"channel_count must be >= 1, got {channel_count}")
    if activity not in ACTIVITY_CLASSES:
        raise InvalidParameterError(f"unknown activity class {activity!r}")
    rows = tuple(table) if table is not None else RATE_TABLE
    if activity == "mix":
        picks = [rows[i % len(rows)] for i in range(channel_count)]
    else:
        offset = _CLASS_CYCLE.index(activity)
        columns = rows[offset :: len(_CLASS_CYCLE)]
        if not columns:
            raise InvalidParameterError(
                f"a {activity!r} profile needs a rates table of at least {offset + 1} rows, "
                f"got {len(rows)}"
            )
        picks = [columns[i % len(columns)] for i in range(channel_count)]
    return [ActivityRates(lx, ly) for lx, ly in picks]


class ChannelProcess:
    """Sampled ON/OFF traces of a channel pool, read forward and extended lazily.

    Channel c's trace depends only on rngs[c], the stream it owns. Intervals
    are half-open [start, end) and each channel's first is OFF. Only the
    intervals not yet passed are kept, every channel's in one flat array:
    `busy_bits` drops those ending at or before the last instant it served,
    which no later call may precede.
    """

    def __init__(self, rates: list[ActivityRates], rngs: list[np.random.Generator]):
        self._rngs = list(rngs)
        self.channels = len(rates)
        # Holding-time scales (OFF, ON) per channel; a zero rate holds its state forever.
        self._scales = np.array([[1.0 / x if x else math.inf for x in (r.lambda_y, r.lambda_x)] for r in rates])
        # Ends of the intervals not yet passed, beside their channels: channel c's
        # interval _passed[c] + i ends at its i-th entry, an even index is OFF, and
        # math.inf marks an absorbing state, as in the zero class from time 0.
        absorbing = np.array([r.lambda_y == 0.0 for r in rates])
        self._channel = np.flatnonzero(absorbing)
        self._ends = np.full(len(self._channel), math.inf)
        self._tail = np.where(absorbing, math.inf, 0.0)  # each channel's last end drawn, or its start
        self._passed = np.zeros(self.channels, dtype=np.intp)
        self._last = 0  # last half-slot served; no call may start before it

    def _draw(self, t: float) -> None:
        """Append interval ends to every channel until one lies past t.

        Channels whose ends stop short of t draw one batch of standard
        variates each, all of one size, each from its own stream. A stream
        serves the same variates however they are batched, and
        `exponential(scale)` is `scale * standard_exponential()`, so a row
        times its intervals' alternating 1/rate scales, summed in order, gives
        the ends one draw per interval would. A zero variate is redrawn: masked
        to a 0.0 duration, which adds exactly nothing, it closes no interval.
        That matches redrawing a non-positive duration only while x * scale
        cannot underflow, which MAX_RATE ensures. A zero rate's infinite scale
        makes its state absorbing.
        """
        while len(todo := np.flatnonzero(self._tail <= t)):
            tails, scales = self._tail[todo], self._scales[todo]
            # OFF/ON pairs enough to pass t with a wide margin
            pairs = int(np.max((t - tails) / scales.sum(axis=1) * 1.25)) + 8
            draws = np.array([self._rngs[c].standard_exponential(2 * pairs) for c in todo.tolist()])
            kept = draws > 0.0
            drawn = np.bincount(self._channel, minlength=self.channels)[todo] + self._passed[todo]
            # a kept variate's interval index is drawn - 1 plus the kept variates up to it; odd is ON
            odd = np.logical_xor.accumulate(kept, axis=1) ^ (drawn % 2 == 0)[:, None]
            scaled = np.where(odd, scales[:, 1:], scales[:, :1])
            durations = np.multiply(draws, scaled, out=np.zeros_like(draws), where=kept)
            durations[:, 0] += tails
            ends = np.cumsum(durations, axis=1)
            self._tail[todo] = ends[:, -1]
            self._ends = np.concatenate((self._ends, ends[kept]))
            self._channel = np.concatenate((self._channel, np.repeat(todo, np.count_nonzero(kept, axis=1))))

    def busy_bits(self, first: int, width: int) -> np.ndarray:
        """Busy bits of every channel at the half-slot instants (first + k) / 2,
        k < width, one row per channel; `first` may not precede the last
        half-slot an earlier call served.

        An end e has passed instant h / 2 iff ceil(2e) <= h, exactly, as 2e
        and h / 2 are exact in binary floating point. So each end flips its
        state from half-slot ceil(2e) on, and one bincount of the flips,
        summed along each row, counts the ends passed at every instant, as the
        reference's search with side="right" does; the count's parity is the
        state.
        """
        if width < 1 or first < self._last:
            raise InvalidParameterError(f"need half-slots from the last one served on, got {width} from {first}")
        last = first + width - 1
        self._draw(last * 0.5)
        flips = np.clip(np.ceil(2.0 * self._ends) - first, 0, width).astype(np.intp)
        counts = np.bincount(flips + self._channel * (width + 1), minlength=self.channels * (width + 1))
        counts = counts.reshape(-1, width + 1)
        counts[:, 0] += self._passed  # odd interval indices are ON
        self._passed = counts[:, :width].sum(axis=1)  # with the ends passed by the last instant
        ahead = flips == width
        self._ends, self._channel, self._last = self._ends[ahead], self._channel[ahead], last
        # a uint8 running count wraps modulo 256, which keeps its parity
        return (np.cumsum(counts[:, :width], axis=1, dtype=np.uint8) & 1).view(bool)
