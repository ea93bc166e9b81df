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
P_on(0) = 0. A `ChannelProcess` samples one channel's trace from its own
stream and is read forward only: it keeps just the intervals ahead of the last
instant it served. `busy_bits` reads every channel's process at a block of
half-slot instants in one pass.

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


@dataclass(frozen=True)
class ActivityRates:
    """Rate pair of one channel's ON/OFF process.

    lambda_x drives OFF pressure (rate at which a busy channel goes idle),
    lambda_y drives ON pressure (rate at which an idle channel goes busy).
    """

    lambda_x: float
    lambda_y: float

    def __post_init__(self):
        if not (0 <= self.lambda_x < math.inf and 0 <= self.lambda_y < math.inf):
            raise InvalidParameterError(f"rates must be finite and nonnegative, got {self}")
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
    """Sampled ON/OFF trace of one channel, read forward and extended lazily.

    The process owns its random stream, so a trace depends only on the stream
    it was created with. Intervals are half-open [start, end) and the first
    interval is always OFF. Only the intervals not yet passed are kept:
    `busy_bits` drops those ending at or before the last instant it served,
    which no later call may precede.
    """

    def __init__(self, rates: ActivityRates, rng: np.random.Generator):
        self._rng = rng
        # Holding-time scales (OFF, ON); a zero rate holds its state forever.
        self._scales = tuple(1.0 / r if r else math.inf for r in (rates.lambda_y, rates.lambda_x))
        # End times of the intervals not yet passed: interval _passed + i ends
        # at _ends[i], and an even interval index is an OFF interval.
        # math.inf marks an absorbing state, as in the zero class from time 0.
        self._ends = np.array([math.inf] if rates.lambda_y == 0.0 else [])
        self._tail = float(self._ends[-1]) if len(self._ends) else 0.0  # last end drawn, or the start
        self._passed = 0
        self._last = 0  # last half-slot served; no call may start before it


def _draw_ends(processes: list[ChannelProcess], t: float) -> None:
    """Append interval ends to every process until one lies past t.

    Processes whose ends stop short of t draw one batch of standard variates
    each, all of one size. `exponential(scale)` is `scale *
    standard_exponential()`, and a stream serves the same variates however
    they are batched, so a batch times the alternating 1/rate scales, summed
    in order along its row, appends the ends one draw per interval would. A
    batch with a non-positive duration is replayed one variate at a time, so
    the redraw takes the next variate at the same scale. A zero rate's
    infinite scale makes its state absorbing: every end from its own on is
    math.inf.
    """
    while todo := [p for p in processes if p._tail <= t]:
        starts = [p._tail for p in todo]
        # OFF/ON pairs enough to pass t with a wide margin
        pairs = max(int((t - start) / sum(p._scales) * 1.25) + 8 for p, start in zip(todo, starts))
        draws = np.array([p._rng.standard_exponential(2 * pairs) for p in todo])
        # each row's scales in pairs, (ON, OFF) where its next interval is ON
        scales = np.array([p._scales[::-1] if (p._passed + len(p._ends)) % 2 else p._scales for p in todo])
        durations = (draws.reshape(len(todo), pairs, 2) * scales[:, None]).reshape(len(todo), 2 * pairs)
        positive = (durations > 0.0).all(axis=1).tolist()
        durations[:, 0] += starts
        for p, row, ok, batch in zip(todo, np.cumsum(durations, axis=1), positive, draws):
            if not ok:
                ends = p._ends.tolist()
                for x in batch.tolist():
                    d = x * p._scales[(p._passed + len(ends)) % 2]
                    if d > 0.0:
                        ends.append((ends[-1] if ends else 0.0) + d)
                row = ends[len(p._ends):]
            p._ends = np.concatenate((p._ends, row))
            p._tail = float(p._ends[-1]) if len(p._ends) else 0.0


def busy_bits(processes: list[ChannelProcess], first: int, width: int) -> np.ndarray:
    """Busy bits of every process at the half-slot instants (first + k) / 2,
    k < width, one row per process; `first` may not precede the last
    half-slot an earlier call served.

    An end e has passed instant h / 2 iff ceil(2e) <= h, exactly, as 2e and
    h / 2 are exact in binary floating point. So each end flips its state from
    half-slot ceil(2e) on, and one bincount of the flips, summed along each
    row, counts the ends passed at every instant, as the reference's search
    with side="right" does; the count's parity is the state.
    """
    if width < 1 or any(first < p._last for p in processes):
        raise InvalidParameterError(f"need half-slots from the last one served on, got {width} from {first}")
    last = first + width - 1
    _draw_ends(processes, last * 0.5)
    sizes = [len(p._ends) for p in processes]
    flips = np.clip(np.ceil(2.0 * np.concatenate([p._ends for p in processes])) - first, 0, width)
    flips = flips.astype(np.intp) + np.repeat(np.arange(0, len(processes) * (width + 1), width + 1), sizes)
    counts = np.bincount(flips, minlength=len(processes) * (width + 1)).reshape(-1, width + 1)
    kept = counts[:, width].tolist()  # ends past the last instant
    counts[:, 0] += [p._passed for p in processes]  # odd interval indices are ON
    # a uint8 running count wraps modulo 256, which keeps its parity
    busy = (np.cumsum(counts[:, :width], axis=1, dtype=np.uint8) & 1).view(bool)
    for p, size, k in zip(processes, sizes, kept):
        if k < size:  # some end passed
            p._ends = p._ends[size - k:]
            p._passed += size - k
        p._last = last
    return busy
