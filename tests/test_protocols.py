"""Channel-selection strategy tests.

The dual-clock strategy is checked for trace equivalence against an
independently written line-by-line transcription of its hop procedure
(`dual_clock_reference_trace`), with clock seeds and rates pinned through a
fake random stream. The full exhaustive sweep lives in the acceptance suite;
here a smaller slice keeps the module test quick.
"""

import functools
import itertools
from unittest import mock

import numpy as np
import pytest
import reference
from hypothesis import given, settings
from hypothesis import strategies as st

from crhop import protocols
from crhop.errors import InvalidParameterError, NoChannelError
from crhop.protocols import (
    MdmcaStrategy,
    MmcaStrategy,
    MrcsStrategy,
    channel_table,
    make_strategy,
    smallest_prime_at_least,
)
from crhop.spectrum import is_prime


@functools.lru_cache(maxsize=None)
def scripted(head: tuple, cycle: tuple, at: int, size: int) -> tuple:
    """(values, lowest, highest) of draws at..at+size-1 of `head` followed by
    `cycle` repeated, as the read-only array integers(size=) returns."""
    skip = max(at - len(head), 0) % max(len(cycle), 1)  # where the cycle starts, past head
    rest = size - len(head[at:at + size])
    values = head[at:at + size] + (cycle * ((skip + rest) // max(len(cycle), 1) + 1))[skip:skip + rest]
    array = np.array(values, dtype=np.int64)
    array.setflags(write=False)
    return array, min(values), max(values)


class FakeRng:
    """integers() stub feeding a fixed draw sequence (cycled at the end): one
    value, or with size= the next `size` values as an array."""

    def __init__(self, head, cycle=()):
        self._head, self._cycle = tuple(head), tuple(cycle)
        self._at = 0  # draws served so far

    def integers(self, upper, size=None):
        n = 1 if size is None else size
        if self._at + n > len(self._head) and not self._cycle:
            raise IndexError("the scripted draws ran out")
        values, low, high = scripted(self._head, self._cycle, self._at, n)
        self._at += n
        assert 0 <= low and high < upper
        return int(values[0]) if size is None else values


def dual_clock_reference_trace(cu, j1, j2, r1, r2, slots):
    """Literal transcription of the dual-clock hop procedure.

    Runs the inner loop over t = 0..m-1 inside an outer loop that re-chooses
    the rates; rates are pinned here so every epoch reuses (r1, r2).
    """
    cu = sorted(cu)
    m = len(cu)
    mp = [c for c in cu if is_prime(c)]
    np_ = [c for c in cu if not is_prime(c)]
    out = []
    while len(out) < slots:
        for _t in range(m):
            j1 = (j1 + r1) % m
            c1 = mp[j1 % len(mp)] if len(mp) > 0 else cu[j1]
            j2 = (j2 + r2) % m
            c2 = np_[j2 % len(np_)] if len(np_) > 0 else cu[j2]
            if c2 == c1:  # only possible if mp or np_ is empty
                j2 = (j2 + 1) % m
                c2 = cu[j2]
            out.append((c1, c2))
            if len(out) == slots:
                break
    return out


def pinned_mdmca(cu, j1, j2, r1, r2):
    return MdmcaStrategy(cu, FakeRng([j1, j2], cycle=[r1, r2]))


class TestMdmca:
    def test_first_half_forced_arithmetic(self):
        # j1=3, r1=4 over {1..10}: j1 -> 7, 7 mod |{2,3,5,7}| = 3 -> channel 7
        strat = pinned_mdmca(range(1, 11), j1=3, j2=0, r1=4, r2=0)
        assert strat.select(1) == 7

    def test_second_half_forced_arithmetic(self):
        # j2=9, r2=3 over {1..10}: j2 -> 2, 2 mod |Np| = 2 -> Np[2] = 6
        strat = pinned_mdmca(range(1, 11), j1=0, j2=9, r1=0, r2=3)
        strat.select(1)
        assert strat.select(2) == 6

    def test_singleton_collision_branch(self):
        strat = pinned_mdmca([4], j1=0, j2=0, r1=0, r2=0)
        assert strat.select(1) == 4
        assert strat.select(2) == 4  # collision nudge wraps back onto {4}

    def test_empty_set_rejected(self):
        with pytest.raises(NoChannelError):
            MdmcaStrategy([], np.random.default_rng(0))

    def test_trace_equivalence_small_slice(self):
        for m in (1, 2, 3):
            for cu in itertools.combinations(range(1, 8), m):
                for j1, j2, r1, r2 in itertools.product(range(m), repeat=4):
                    strat = pinned_mdmca(cu, j1, j2, r1, r2)
                    got = [(strat.select(1), strat.select(2)) for _ in range(3)]
                    assert got == dual_clock_reference_trace(cu, j1, j2, r1, r2, 3)

    def test_rates_redraw_every_m_slots(self):
        # A cycle of distinct rate pairs: the pair in force at each slot names
        # the epoch it was taken for, and a new one arrives every m slots.
        pairs = [(1, 2), (3, 1), (2, 3)]
        for as_block in (False, True):
            strat = MdmcaStrategy(range(1, 5), FakeRng([0, 0], cycle=[r for pair in pairs for r in pair]))  # m = 4
            table = channel_table([strat])
            for slot in range(1, 14):
                if as_block:
                    MdmcaStrategy.block([strat], table, 1)
                else:
                    strat.select(1)
                    strat.select(2)
                assert tuple(strat.r) == pairs[(slot - 1) // 4 % len(pairs)], slot

    def test_halves_use_disjoint_ranges(self):
        strat = MdmcaStrategy(range(1, 11), np.random.default_rng(7))
        for _ in range(400):
            c1, c2 = strat.select(1), strat.select(2)
            assert c1 in (2, 3, 5, 7)
            assert c2 in (1, 4, 6, 8, 9, 10)
            assert c1 != c2

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["mdmca", "mmca"]),
        cu=st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_emits_within_cu_and_counters_in_range(self, kind, cu, seed):
        # select and the shared block both write the clocks, rates and steps.
        strat = make_strategy(kind, cu, np.random.default_rng(seed))
        table, k = channel_table([strat]), len(strat.lists)
        for step in range(3 * len(cu) + 5):
            if step % 2:
                hops = type(strat).block([strat], table, 1 + step % 7)
                assert set(hops.ravel().tolist()) <= set(strat.cu)
            else:
                assert strat.select(1) in strat.cu
                assert strat.select(2) in strat.cu
            assert len(strat.j) == len(strat.r) == k
            assert all(0 <= j < strat.modulus for j in strat.j)
            assert all(0 <= r < strat.modulus for r in strat.r)
            assert 0 <= strat.steps < strat.period


class TestMrcs:
    def test_singleton(self):
        strat = MrcsStrategy({5}, np.random.default_rng(0))
        assert all(strat.select(h) == 5 for h in (1, 2, 1, 2))

    def test_uniform_frequencies(self):
        strat = MrcsStrategy(range(1, 11), np.random.default_rng(123))
        draws = 100_000
        counts = {c: 0 for c in range(1, 11)}
        for i in range(draws):
            counts[strat.select(1 + i % 2)] += 1
        chi2 = sum((n - draws / 10) ** 2 / (draws / 10) for n in counts.values())
        assert chi2 < 27.88  # chi-square 99.9% quantile, 9 degrees of freedom
        for n in counts.values():
            assert abs(n / draws - 0.1) <= 0.01

    def test_deterministic_sequence(self):
        a = MrcsStrategy(range(1, 11), np.random.default_rng(5))
        b = MrcsStrategy(range(1, 11), np.random.default_rng(5))
        assert [a.select(1) for _ in range(50)] == [b.select(1) for _ in range(50)]

    def test_empty_set_rejected(self):
        with pytest.raises(NoChannelError):
            MrcsStrategy([], np.random.default_rng(0))


class TestMmca:
    def test_prime_modulus(self):
        assert smallest_prime_at_least(10) == 11
        strat = MmcaStrategy(range(1, 11), np.random.default_rng(0))
        assert strat.modulus == 11

    def test_overflow_maps_onto_cu(self):
        strat = MmcaStrategy(range(1, 11), FakeRng([10], cycle=[0]))
        assert strat.select(1) == strat.cu[10 % 10]  # j stays 10, wraps to cu[0]

    def test_emits_within_cu(self):
        strat = MmcaStrategy(range(3, 17), np.random.default_rng(3))
        assert all(strat.select(1 + i % 2) in strat.cu for i in range(500))

    def test_rate_redraw_every_two_p_half_slots(self):
        # A cycle of distinct rates: the rate in force at each half-slot names
        # the epoch it was taken for, and a new one arrives every 2p half-slots.
        rates = [2, 4, 1, 3]
        strat = MmcaStrategy(range(1, 6), FakeRng([0], cycle=rates))  # p = 5
        for step in range(1, 41):
            strat.select(1 + (step - 1) % 2)
            assert strat.r[0] == rates[(step - 1) // 10 % len(rates)], step
        strat = MmcaStrategy(range(1, 6), FakeRng([0], cycle=rates))
        table = channel_table([strat])
        for slot in range(1, 21):  # a one-slot block steps both its halves
            MmcaStrategy.block([strat], table, 1)
            assert strat.r[0] == rates[(2 * slot - 1) // 10 % len(rates)], slot

    def test_two_node_overlap_probability(self):
        # Analytic oracle, p = 5, rates uniform on [0, p): within one rate
        # epoch (2p half-slots) the pair meets unless both rates match and
        # the clocks started apart: P = 1 - (1/p)(1 - 1/p) = 0.84. Across
        # three epochs the miss chance shrinks by 1/p per epoch: 0.9936.
        trials, meet_2p, meet_6p = 1000, 0, 0
        master = np.random.SeedSequence(777)
        for trial_seq in master.spawn(trials):
            sa, sb = trial_seq.spawn(2)
            a = MmcaStrategy(range(1, 6), np.random.default_rng(sa))
            b = MmcaStrategy(range(1, 6), np.random.default_rng(sb))
            for step in range(1, 31):
                half = 1 + (step - 1) % 2
                if a.select(half) == b.select(half):
                    if step <= 10:
                        meet_2p += 1
                    meet_6p += 1
                    break
        assert abs(meet_2p / trials - 0.84) <= 0.04
        assert meet_6p / trials >= 0.985

    @settings(max_examples=150, deadline=None)
    @given(channels=st.sets(st.integers(1, 64), min_size=1, max_size=29),
           seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_distinct_rates_meet_within_p_half_slots_of_their_epoch(self, channels, seeds):
        # The modular-clock guarantee (Theis, Thomas and DaSilva, IEEE TMC
        # 2011): on one channel set the clocks' gap moves by the rates'
        # difference each half-slot, which walks every residue mod the prime
        # p in p steps when the rates differ. Epochs with equal rates are exempt.
        nodes = [MmcaStrategy(channels, np.random.default_rng(seed)) for seed in seeds]
        p, epochs = nodes[0].modulus, 3
        rows = MmcaStrategy.block(nodes, channel_table(nodes), epochs * p)  # 2p half-slots an epoch
        rates = []  # each node's stream: its first clock, then one rate per epoch
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rng.integers(p)
            rates.append(rng.integers(p, size=epochs).tolist())
        for e in range(epochs):
            if rates[0][e] != rates[1][e]:
                window = slice(2 * p * e, 2 * p * e + p)
                assert (rows[0, window] == rows[1, window]).any(), (e, rates)


class TestMemca:
    def test_selection_core_matches_mmca(self):
        a = make_strategy("memca", range(1, 11), np.random.default_rng(42))
        b = MmcaStrategy(range(1, 11), np.random.default_rng(42))
        assert [a.select(1 + i % 2) for i in range(100)] == [
            b.select(1 + i % 2) for i in range(100)
        ]


def test_make_strategy_dispatch():
    rng = np.random.default_rng(0)
    assert make_strategy("mdmca", [1, 2], rng).kind == "mdmca"
    assert make_strategy("mrcs", [1, 2], rng).kind == "mrcs"
    assert make_strategy("mmca", [1, 2], rng).kind == "mmca"
    assert make_strategy("memca", [1, 2], rng).kind == "mmca"  # memca differs only in the engine
    with pytest.raises(InvalidParameterError):
        make_strategy("jumpstay", [1, 2], rng)


@pytest.mark.parametrize("kind", ["mdmca", "mmca", "memca"])
def test_bad_half_rejected(kind):
    strat, ref = (make_strategy(kind, range(1, 5), np.random.default_rng(0)) for _ in range(2))
    strat.select(1)
    for half in (0, 3, -1):
        with pytest.raises(InvalidParameterError):
            strat.select(half)
    ref.select(1)
    # A refused call steps nothing: the slot's second half and the slots after it match.
    assert [strat.select(2), *select_reference(strat, 8)] == [ref.select(2), *select_reference(ref, 8)]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["mdmca", "mmca", "memca"]),
    cu=st.sets(st.integers(min_value=1, max_value=40), min_size=1, max_size=12),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    epochs=st.integers(min_value=1, max_value=4),
    extra=st.integers(min_value=0, max_value=2**16),
)
def test_select_matches_the_per_class_trace(kind, cu, seed, epochs, extra):
    # One stepping rule on the base against the two per-class rules it
    # replaced: mdmca's prime / non-prime halves with the collision nudge,
    # and mmca's one clock read at j mod m. Prime-only and non-prime-only
    # sets and m = 1 all occur in 1..40 at these sizes.
    strat = make_strategy(kind, cu, np.random.default_rng(seed))
    epoch = 2 * strat.period // len(strat.lists)  # half-slots per rate epoch
    halves = (epochs - 1) * epoch + 1 + extra % epoch
    got = [strat.select(1 + i % 2) for i in range(halves)]
    assert got == reference.modular_clock_trace(kind, cu, np.random.default_rng(seed), halves)


def select_reference(strat, slots):
    """`slots` rounds of select(1), select(2): the sequential form of a hop block."""
    return [strat.select(half) for _ in range(slots) for half in (1, 2)]


def population_hops(nodes, table, slots):
    """The population form: every node's channels of the next `slots` slots."""
    return type(nodes[0]).block(nodes, table, slots)


class TestHopBlocks:
    """A population's hop block must equal repeated select() on every node and
    consume each node's stream alike, whatever protocols.CHUNK is."""

    CHUNKS = (1, 2, 3, protocols.CHUNK)

    CHANNEL_SETS = (
        (2, 3, 5, 7),  # primes only: mdmca's non-prime list is empty
        (1, 4, 6, 8, 9),  # non-primes only: mdmca's prime list is empty
        (7,),  # m = 1 with an empty non-prime list
        (1,),  # m = 1 with an empty prime list
        (1, 2, 3, 4),  # mmca: p = 5 > m
        tuple(range(1, 9)),  # mmca: p = 11 > m
        tuple(range(1, 12)),  # mmca: p = m = 11
        tuple(range(1, 21)),
    )

    @staticmethod
    def check(kind, sets, seed, steps):
        """Run `steps` of (as_block, slots) on a population of one node per
        channel set, against a copy stepped one select at a time. A modular
        clock's stream must sit at CHUNK * ceil(t / CHUNK) after t values
        taken, holding the rest of that read, and at CHUNK = 1 exactly where
        one read per block leaves it."""
        refs = [make_strategy(kind, cu, np.random.default_rng([seed, i])) for i, cu in enumerate(sets)]
        nodes = [make_strategy(kind, cu, np.random.default_rng([seed, i])) for i, cu in enumerate(sets)]
        table = channel_table(nodes)
        for as_block, slots in steps:
            want = [select_reference(ref, slots) for ref in refs]
            if as_block:
                got = population_hops(nodes, table, slots)
                assert got.shape == (len(nodes), 2 * slots)
                assert got.tolist() == want
            else:
                assert [select_reference(node, slots) for node in nodes] == want
        for i, (node, cu) in enumerate(zip(nodes, sets) if kind != "mrcs" else ()):
            per_block = np.random.default_rng([seed, i])
            taken = reference.clock_reads(kind, cu, per_block, steps)
            chunked = np.random.default_rng([seed, i])
            read = chunked.integers(node.modulus, size=-(-len(taken) // protocols.CHUNK) * protocols.CHUNK).tolist()
            assert (read[:len(taken)], read[len(taken):]) == (taken, node._values)
            assert node._rng.bit_generator.state == chunked.bit_generator.state
            if protocols.CHUNK == 1:
                assert node._rng.bit_generator.state == per_block.bit_generator.state
        # Same stream positions: the next draws agree, and so does the next
        # half-slot pair taken one select at a time.
        for node, ref in zip(nodes, refs):
            assert select_reference(node, 3) == select_reference(ref, 3)
            assert int(node._rng.integers(2**31)) == int(ref._rng.integers(2**31))

    @pytest.mark.parametrize("kind", ["mdmca", "mrcs", "mmca", "memca"])
    @pytest.mark.parametrize("cu", CHANNEL_SETS)
    def test_fixed_sets_match_select(self, kind, cu):
        for seed, chunk in enumerate(self.CHUNKS + (protocols.CHUNK,)):
            with mock.patch.object(protocols, "CHUNK", chunk):
                self.check(kind, [cu], seed, [(True, slots) for slots in (1, 2, 7, 32, 64, 128)])

    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(["mdmca", "mrcs", "mmca", "memca"]),
        cu=st.sets(st.integers(min_value=1, max_value=24), min_size=1, max_size=24),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        blocks=st.lists(st.integers(min_value=1, max_value=80), min_size=1, max_size=4),
        chunk=st.sampled_from(CHUNKS),
    )
    def test_random_sets_match_select(self, kind, cu, seed, blocks, chunk):
        with mock.patch.object(protocols, "CHUNK", chunk):
            self.check(kind, [sorted(cu)], seed, [(True, slots) for slots in blocks])

    def test_blocks_interleave_with_select(self):
        for kind, chunk in itertools.product(("mdmca", "mrcs", "mmca"), self.CHUNKS):
            steps = [(True, 3), (False, 3), (True, 10), (False, 10), (True, 1), (False, 1), (True, 25), (False, 25)]
            with mock.patch.object(protocols, "CHUNK", chunk):
                self.check(kind, [range(1, 11)], 9, steps)

    @pytest.mark.parametrize("kind", ["mdmca", "mrcs", "mmca"])
    def test_every_fixed_set_in_one_population(self, kind):
        # mdmca's select-only rows (one list empty) sit between array rows,
        # and mmca rows of p > m share a table with wider ones.
        for seed, chunk in itertools.product(range(3), self.CHUNKS):
            steps = [(True, 1), (False, 2), (True, 40), (True, 64), (False, 5), (True, 3)]
            with mock.patch.object(protocols, "CHUNK", chunk):
                self.check(kind, self.CHANNEL_SETS, seed, steps)

    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["mdmca", "mrcs", "mmca", "memca"]),
        sets=st.lists(
            st.one_of(
                st.sampled_from(CHANNEL_SETS),
                st.sets(st.integers(min_value=1, max_value=30), min_size=1, max_size=30).map(sorted),
            ),
            min_size=1, max_size=8,
        ),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.lists(st.tuples(st.booleans(), st.integers(min_value=1, max_value=80)), min_size=1, max_size=5),
        chunk=st.sampled_from(CHUNKS),
    )
    def test_random_populations_match_select(self, kind, sets, seed, steps, chunk):
        with mock.patch.object(protocols, "CHUNK", chunk):
            self.check(kind, sets, seed, steps)

    def test_table_cycles_each_list_to_the_widest_modulus(self):
        sets = ((2, 3, 4), (1, 4, 6), tuple(range(1, 8)))
        nodes = [make_strategy("mdmca", cu, np.random.default_rng(0)) for cu in sets]
        table = channel_table(nodes)
        assert table.shape == (3, 2, 7)
        assert table[0].tolist() == [[2, 3, 2, 3, 2, 3, 2], [4, 4, 4, 4, 4, 4, 4]]
        assert table[1].tolist() == [[0] * 7, [1, 4, 6, 1, 4, 6, 1]]  # no primes: select serves it
        assert table[2].tolist() == [[2, 3, 5, 7, 2, 3, 5], [1, 4, 6, 1, 4, 6, 1]]
