"""Election draws against numpy's own bounded integers.

`uniform_index(rng)(k)` reproduces `Generator.integers(k)` from a buffer of
raw words by numpy's algorithm. The golden digests would report a numpy
release that changes that algorithm only as changed records; these tests name
the cause.
"""

import numpy as np
import pytest

from crhop.seeding import uniform_index

SEEDS = [0, 7, 2**64 - 1]
# Bounds where Lemire's method rejects a noticeable share of its draws.
WIDE_BOUNDS = [2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 2, 2**32 - 1]


def paired(seed):
    """uniform_index over one fresh generator and a second fresh generator on the same seed."""
    return uniform_index(np.random.default_rng(seed)), np.random.default_rng(seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_integers_at_small_bounds(seed):
    draw, rng = paired(seed)
    bounds = np.random.default_rng(seed + 1).integers(1, 30, size=100_000).tolist()
    assert set(bounds) == set(range(1, 30))
    assert [draw(k) for k in bounds] == [int(rng.integers(k)) for k in bounds]


@pytest.mark.parametrize("seed", SEEDS)
def test_draws_equal_integers_where_draws_are_rejected(seed):
    draw, rng = paired(seed)
    bounds = [WIDE_BOUNDS[i % len(WIDE_BOUNDS)] for i in range(4_000)]
    assert [draw(k) for k in bounds] == [int(rng.integers(k)) for k in bounds]
    # the stream held halves that these bounds reject
    words = np.random.default_rng(seed).bit_generator.random_raw(1_000).tolist()
    halves = [half for w in words for half in (w & 0xFFFFFFFF, w >> 32)]
    k = 2**31 + 1
    assert any((h * k) & 0xFFFFFFFF < 2**32 % k for h in halves)


@pytest.mark.parametrize("seed", SEEDS)
def test_a_bound_of_one_reads_nothing(seed):
    draw, rng = paired(seed)
    assert [draw(1) for _ in range(5)] == [0] * 5
    assert draw(7) == int(rng.integers(7))
    assert [draw(1), draw(7), draw(1), draw(7)] == [int(rng.integers(k)) for k in (1, 7, 1, 7)]
