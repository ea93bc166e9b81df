"""Channel assignment and prime-partition tests."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crhop.errors import InvalidParameterError
from crhop.spectrum import assign_channels, is_prime, partition_prime


def common_channels(smap):
    """Channels every node of `smap` holds."""
    return set.intersection(*map(set, smap.available))


def sieve(limit):
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            for q in range(p * p, limit + 1, p):
                flags[q] = False
    return {i for i, f in enumerate(flags) if f}


class TestPartitionPrime:
    def test_ten_channel_example(self):
        assert partition_prime(range(1, 11)) == ([2, 3, 5, 7], [1, 4, 6, 8, 9, 10])

    def test_singleton_prime(self):
        assert partition_prime({2}) == ([2], [])

    def test_twenty_channels_against_sieve(self):
        primes = sieve(20)
        mp, np_ = partition_prime(range(1, 21))
        assert mp == sorted(primes & set(range(1, 21)))
        assert mp == [2, 3, 5, 7, 11, 13, 17, 19]
        assert np_ == [1, 4, 6, 8, 9, 10, 12, 14, 15, 16, 18, 20]

    def test_empty_input(self):
        assert partition_prime(set()) == ([], [])

    def test_nonpositive_ids_rejected(self):
        with pytest.raises(InvalidParameterError):
            partition_prime({0, 3})

    @given(st.sets(st.integers(min_value=1, max_value=500), max_size=60))
    def test_is_a_partition(self, channels):
        mp, np_ = partition_prime(channels)
        assert sorted(mp) == mp and sorted(np_) == np_
        assert set(mp) | set(np_) == channels
        assert set(mp) & set(np_) == set()
        assert all(is_prime(c) for c in mp)
        assert not any(is_prime(c) for c in np_)


class TestAssignChannels:
    def test_symmetric_full_pool(self):
        smap = assign_channels(4, 10, "sym", np.random.default_rng(0))
        assert all(cu == tuple(range(1, 11)) for cu in smap.available)

    def test_asym_intersection_exactly_m_nine(self):
        for seed in range(100):
            smap = assign_channels(5, 10, "asym", np.random.default_rng(seed), m=9)
            assert len(common_channels(smap)) == 9

    def test_asym_intersection_exactly_m_two_of_twenty(self):
        for seed in range(100):
            smap = assign_channels(5, 20, "asym", np.random.default_rng(seed), m=2, per_node_size=10)
            assert len(common_channels(smap)) == 2
            assert all(len(cu) == 10 for cu in smap.available)

    def test_asym_set_sizes_bounded(self):
        for seed in range(50):
            smap = assign_channels(6, 10, "asym", np.random.default_rng(seed), m=2)
            for cu in smap.available:
                assert 2 <= len(cu) <= 10
                assert common_channels(smap) <= set(cu)

    def test_parameter_contradictions(self):
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidParameterError):
            assign_channels(3, 10, "asym", rng, m=11)
        with pytest.raises(InvalidParameterError):
            assign_channels(3, 10, "asym", rng, m=5, per_node_size=4)
        with pytest.raises(InvalidParameterError):
            assign_channels(3, 10, "asym", rng, m=None)
        with pytest.raises(InvalidParameterError):
            assign_channels(3, 10, "sym", rng, per_node_size=9)
        with pytest.raises(InvalidParameterError):
            assign_channels(3, 10, "diag", rng)

    def test_deterministic_per_seed(self):
        a = assign_channels(5, 20, "asym", np.random.default_rng(9), m=5, per_node_size=12)
        b = assign_channels(5, 20, "asym", np.random.default_rng(9), m=5, per_node_size=12)
        assert a == b
