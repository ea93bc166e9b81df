"""ON/OFF occupancy model tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from crhop.activity import (
    RATE_TABLE,
    TABLE_UTILIZATION,
    ActivityRates,
    ON,
    ChannelProcess,
    busy_bits,
    make_profile,
    state_probabilities,
    utilization,
)
from crhop.errors import InvalidParameterError

CH4 = ActivityRates(0.22, 1.44)  # high-activity reference pair
CH2 = ActivityRates(1.0, 0.21)  # low-activity reference pair


def rates_strategy():
    positive = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)
    return st.builds(ActivityRates, lambda_x=positive, lambda_y=positive)


class TestUtilization:
    def test_high_channel(self):
        assert utilization(CH4) == pytest.approx(0.867, abs=0.001)

    def test_low_channel(self):
        assert utilization(CH2) == pytest.approx(0.174, abs=0.001)

    def test_zero_channel(self):
        assert utilization(ActivityRates(1000.0, 0.0)) == 0.0

    def test_degenerate_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            ActivityRates(0.0, 0.0)

    def test_negative_rates_rejected(self):
        with pytest.raises(InvalidParameterError):
            ActivityRates(-1.0, 2.0)

    @pytest.mark.parametrize("lx, ly", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
    def test_non_finite_rates_rejected(self, lx, ly):
        with pytest.raises(InvalidParameterError):
            ActivityRates(lx, ly)

    def test_full_table_within_tolerance(self):
        for (lx, ly), expected in zip(RATE_TABLE, TABLE_UTILIZATION):
            assert abs(utilization(ActivityRates(lx, ly)) - expected) <= 0.01


class TestStateProbabilities:
    def test_starts_off(self):
        for rates in (CH4, CH2, ActivityRates(1000.0, 0.0)):
            assert state_probabilities(rates, 0.0) == (0.0, 1.0)

    def test_limit_is_utilization(self):
        p_on, p_off = state_probabilities(CH4, math.inf)
        assert p_on == pytest.approx(0.867, abs=0.001)
        assert p_off == pytest.approx(0.133, abs=0.001)

    def test_low_channel_at_one_second(self):
        # closed form: U * (1 - exp(-1.21)) with U = 0.21 / 1.21
        p_on, _ = state_probabilities(CH2, 1.0)
        assert p_on == pytest.approx(0.21 / 1.21 * (1.0 - math.exp(-1.21)), rel=1e-12)
        assert p_on == pytest.approx(0.122, abs=0.001)

    def test_against_empirical_renewal_frequency(self):
        # Independent oracle: vectorized renewal sampling of 1e5 processes,
        # state read off at t=1 from cumulative interval sums.
        n, t, depth = 100_000, 1.0, 12
        rng = np.random.default_rng(20240601)
        durations = np.empty((n, depth))
        durations[:, 0::2] = rng.exponential(1.0 / CH2.lambda_y, size=(n, depth // 2))
        durations[:, 1::2] = rng.exponential(1.0 / CH2.lambda_x, size=(n, depth // 2))
        bounds = np.cumsum(durations, axis=1)
        assert (bounds[:, -1] > t).all()
        idx = (bounds <= t).sum(axis=1)
        empirical_on = float((idx % 2 == 1).mean())
        p_on, _ = state_probabilities(CH2, t)
        assert abs(empirical_on - p_on) <= 0.01

    def test_negative_time_rejected(self):
        with pytest.raises(InvalidParameterError):
            state_probabilities(CH4, -0.5)

    @given(rates=rates_strategy(), t=st.floats(min_value=0.0, max_value=1e6))
    def test_pair_sums_to_one_exactly(self, rates, t):
        p_on, p_off = state_probabilities(rates, t)
        assert p_on + p_off == 1.0
        assert 0.0 <= p_on <= 1.0

    @given(rates=rates_strategy(), t=st.floats(min_value=0.0, max_value=100.0))
    def test_monotone_and_bounded_by_utilization(self, rates, t):
        p_before, _ = state_probabilities(rates, t)
        p_after, _ = state_probabilities(rates, t + 1.0)
        assert p_before <= p_after <= utilization(rates) + 1e-15


class TestMakeProfile:
    def test_mix_first_four_channels(self):
        profile = make_profile("mix", 4)
        assert [(r.lambda_x, r.lambda_y) for r in profile] == [
            (1000.0, 0.0), (1.0, 0.21), (0.25, 0.25), (0.22, 1.44),
        ]

    def test_zero_profile(self):
        assert make_profile("zero", 3) == [ActivityRates(1000.0, 0.0)] * 3

    def test_high_profile_cycles_columns(self):
        assert [(r.lambda_x, r.lambda_y) for r in make_profile("high", 2)] == [
            (0.22, 1.44), (0.22, 1.58),
        ]

    def test_mix_repeats_pattern_past_table(self):
        profile = make_profile("mix", 24)
        assert profile[20] == profile[0]
        assert profile[23] == profile[3]

    def test_table_override(self):
        table = ((2.0, 2.0), (1.0, 3.0))
        profile = make_profile("mix", 3, table=table)
        assert (profile[0].lambda_x, profile[2].lambda_x) == (2.0, 2.0)

    def test_bad_inputs(self):
        with pytest.raises(InvalidParameterError):
            make_profile("mix", 0)
        with pytest.raises(InvalidParameterError):
            make_profile("bursty", 4)


class TestChannelProcess:
    def test_zero_class_single_off_interval(self):
        intervals = reference.sample_intervals([], ActivityRates(1000.0, 0.0), np.random.default_rng(0), 100.0)
        assert intervals == [("off", 100.0)]

    def test_same_stream_same_intervals(self):
        a = ChannelProcess(CH4, np.random.default_rng(11))
        b = ChannelProcess(CH4, np.random.default_rng(11))
        assert busy_bits([a], 0, 1000).tolist() == busy_bits([b], 0, 1000).tolist()

    def test_growing_horizon_extends_not_rewrites(self):
        ends, rng = [], np.random.default_rng(3)
        short = reference.sample_intervals(ends, CH4, rng, 50.0)
        long = reference.sample_intervals(ends, CH4, rng, 500.0)
        assert long[: len(short) - 1] == short[:-1]
        state, duration = long[len(short) - 1]
        assert state == short[-1][0] and duration >= short[-1][1]

    def test_alternates_and_positive_durations(self):
        intervals = reference.sample_intervals([], CH4, np.random.default_rng(5), 200.0)
        assert [s for s, _ in intervals[:2]] == ["off", "on"]
        for (s1, d1), (s2, _) in zip(intervals, intervals[1:]):
            assert s1 != s2
            assert d1 > 0

    def test_long_run_on_fraction_matches_utilization(self):
        # Renewal-reward oracle: time-weighted ON fraction converges to U.
        for seed in range(3):
            intervals = reference.sample_intervals([], CH4, np.random.default_rng(100 + seed), 100_000.0)
            frac = sum(d for s, d in intervals if s == ON) / sum(d for _, d in intervals)
            assert abs(frac - utilization(CH4)) <= 0.02

    def test_is_busy_zero_class(self):
        proc = ChannelProcess(ActivityRates(1000.0, 0.0), np.random.default_rng(0))
        assert not busy_bits([proc], 0, 36).any()  # 0.0 to 17.5
        assert not busy_bits([proc], 19_996, 3).any()  # 9998.0 to 9999.0

    def test_is_busy_starts_off(self):
        for rates in (CH4, CH2):
            proc = ChannelProcess(rates, np.random.default_rng(8))
            assert not busy_bits([proc], 0, 1)[0, 0]

    def test_is_busy_frequency_matches_utilization(self):
        # every half-slot instant of 100,000 s, in one pass
        proc = ChannelProcess(CH4, np.random.default_rng(21))
        frac = busy_bits([proc], 0, 200_000).mean()
        assert abs(frac - utilization(CH4)) <= 0.02

    def test_is_busy_boundaries_half_open(self):
        # The first OFF interval ends and ON begins at 1.0; OFF resumes at 2.5.
        proc = ChannelProcess(ActivityRates(0.5, 1.0), VariateStub([1.0, 0.75]))
        assert busy_bits([proc], 0, 7).tolist() == [[False, False, True, True, True, False, False]]

    @pytest.mark.parametrize("nudge, busy_from", [(-(2.0**-40), 2), (0.0, 2), (2.0**-40, 3)])
    def test_an_end_flips_the_first_half_slot_at_or_after_it(self, nudge, busy_from):
        # ceil(2 * end) is the first half-slot whose instant the end has passed
        proc = ChannelProcess(ActivityRates(0.001, 1.0), VariateStub([1.0 + nudge]))
        assert busy_bits([proc], 0, 5)[0].tolist() == [k >= busy_from for k in range(5)]

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_trace_prefix_property(self, seed):
        ends, rng, rates = [], np.random.default_rng(seed), ActivityRates(0.25, 0.25)
        first = reference.sample_intervals(ends, rates, rng, 30.0)
        second = reference.sample_intervals(ends, rates, rng, 90.0)
        assert second[: len(first) - 1] == first[:-1]


class VariateStub:
    """Generator stand-in replaying fixed standard-exponential variates.

    Serves both the scalar `exponential(scale)` and the batched
    `standard_exponential(size)` draws; after the head runs out, every
    variate is 1.0.
    """

    def __init__(self, head):
        self._head = list(head)

    def _next(self):
        return self._head.pop(0) if self._head else 1.0

    def exponential(self, scale):
        return scale * self._next()

    def standard_exponential(self, size):
        return np.array([self._next() for _ in range(size)])


class TestBusyBlocks:
    """busy_bits must equal the scalar is_busy(t) at every instant of every
    process it serves, block after block."""

    RATES = (
        ActivityRates(1000.0, 0.0),  # zero class: never busy
        CH2,
        ActivityRates(0.25, 0.25),
        CH4,  # high
        ActivityRates(0.5, 40.0),  # very high: many short intervals
        ActivityRates(0.0, 0.5),  # absorbing: busy for good once ON
        ActivityRates(0.0, 1e-3),  # absorbing, usually beyond the horizon
    )

    @staticmethod
    def check(rates, make_rng, widths):
        """One pass per width over a process per entry of `rates`, each with
        the stream make_rng(i), against the oracle on a stream of its own."""
        oracles = [([], make_rng(i)) for i in range(len(rates))]
        procs = [ChannelProcess(r, make_rng(i)) for i, r in enumerate(rates)]
        start = 0
        for width in widths:
            got = busy_bits(procs, start, width)
            assert got.dtype == bool and got.shape == (len(procs), width)
            for row, r, (ends, rng) in zip(got.tolist(), rates, oracles):
                assert row == [reference.is_busy(ends, r, rng, (start + k) * 0.5) for k in range(width)]
            start += width
        # the retained ends are the oracle's from index _passed on
        for proc, (ends, _) in zip(procs, oracles):
            shared = min(len(ends) - proc._passed, len(proc._ends))
            assert proc._ends[:shared].tolist() == ends[proc._passed : proc._passed + shared]

    @pytest.mark.parametrize("rates", RATES, ids=repr)
    def test_half_slot_blocks_match_is_busy(self, rates):
        for seed in range(8):
            self.check([rates], lambda i: np.random.default_rng(seed), (128, 256, 512, 512, 3, 1))

    def test_every_class_in_one_pass_matches_is_busy(self):
        # zero (lambda_y = 0), absorbing (lambda_x = 0), low, long and high
        # channels share each pass, so their batches share rows of one array.
        for seed in range(6):
            self.check(self.RATES + tuple(make_profile("mix", 8)), lambda i: np.random.default_rng([seed, i]),
                       (128, 256, 512, 512, 3, 1))

    @settings(max_examples=60, deadline=None)
    @given(
        lx=st.floats(min_value=0.01, max_value=50.0),
        ly=st.floats(min_value=0.01, max_value=50.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        widths=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=4),
    )
    def test_random_rates_match_is_busy(self, lx, ly, seed, widths):
        self.check([ActivityRates(lx, ly)], lambda i: np.random.default_rng(seed), widths)

    @settings(max_examples=40, deadline=None)
    @given(
        rates=st.lists(
            st.one_of(rates_strategy(), st.sampled_from(RATES)), min_size=1, max_size=6
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        widths=st.lists(st.integers(min_value=1, max_value=600), min_size=1, max_size=4),
    )
    def test_random_populations_match_is_busy(self, rates, seed, widths):
        self.check(rates, lambda i: np.random.default_rng([seed, i]), widths)

    def test_zero_draw_is_redrawn_at_the_same_scale(self):
        # The second holding time (ON, scale 1/lambda_x) first draws 0.0;
        # the redraw takes the next variate, 0.5, still at the ON scale, and
        # the third (OFF) interval then takes 0.25 at the OFF scale.
        rates = ActivityRates(2.0, 4.0)
        head = [1.0, 0.0, 0.5, 0.25]
        want = [1.0 / 4.0, 1.0 / 4.0 + 0.5 / 2.0, 1.0 / 4.0 + 0.5 / 2.0 + 0.25 / 4.0]
        ref_ends = []
        reference.is_busy(ref_ends, rates, VariateStub(head), 0.55)
        assert ref_ends[:3] == want
        self.check([rates], lambda i: VariateStub(head), (1, 2, 16))
        blk = ChannelProcess(rates, VariateStub(head))
        busy_bits([blk], 0, 1)
        assert (blk._passed, blk._ends[:3].tolist()) == (0, want)
        busy_bits([blk], 1, 1)  # passes the two intervals ending by 0.5
        assert (blk._passed, blk._ends[0]) == (2, want[2])

    def test_zero_draw_replay_beside_batched_channels(self):
        # The replayed batch sits in one pass with channels whose batches are not.
        head = [1.0, 0.0, 0.5, 0.25, 0.0, 0.0, 2.0]
        rates = (ActivityRates(2.0, 4.0), CH4, ActivityRates(0.0, 0.5), ActivityRates(1000.0, 0.0), CH2)
        self.check(rates, lambda i: VariateStub(head) if i == 0 else np.random.default_rng(i), (1, 2, 16, 300))

    @pytest.mark.parametrize("rates", [CH4, ActivityRates(0.5, 40.0)], ids=repr)
    def test_retained_ends_stay_within_a_block(self, rates):
        # A full history would grow with the block index; the retained ends
        # stay within twice the mean interval count of one block.
        proc = ChannelProcess(rates, np.random.default_rng(7))
        width = 512  # half-slots per block
        bound = 2 * 2 * (width * 0.5) / (1.0 / rates.lambda_x + 1.0 / rates.lambda_y)
        for b in range(200):
            busy_bits([proc], b * width, width)
            assert len(proc._ends) <= bound, b

    def test_times_must_be_nonempty_and_nonnegative(self):
        proc = ChannelProcess(CH4, np.random.default_rng(2))
        with pytest.raises(InvalidParameterError):
            busy_bits([proc], 0, 0)
        with pytest.raises(InvalidParameterError):
            busy_bits([proc], -1, 2)

    @pytest.mark.parametrize("rates", [CH4, ActivityRates(1000.0, 0.0)], ids=repr)
    def test_times_must_not_precede_the_previous_call(self, rates):
        proc, other = ChannelProcess(rates, np.random.default_rng(2)), ChannelProcess(CH2, np.random.default_rng(3))
        busy_bits([proc], 0, 21)  # up to 10.0
        with pytest.raises(InvalidParameterError):
            busy_bits([proc], 19, 2)  # 9.5 and 10.5
        with pytest.raises(InvalidParameterError):
            busy_bits([other, proc], 19, 2)  # any process of the pass counts
        busy_bits([proc], 20, 2)  # may start at the previous call's last instant
