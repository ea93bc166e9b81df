"""Stream seeds and election draws against numpy's own algorithms.

`labeled_seeds` reproduces numpy's SeedSequence for every label of a parent
in one array pass, and `uniform_index(rng)(k)` reproduces
`Generator.integers(k)` from a buffer of raw words. The golden digests would
report a numpy release that changes either algorithm only as changed records;
these tests name the cause.
"""

import numpy as np
import pytest

import reference
from crhop.engine import Scenario, build_environment
from crhop.seeding import labeled_seeds, seeded_rng, uniform_index

ROOTS = [
    *(np.random.SeedSequence(s) for s in (0, 1, 2**63, 2**64 - 1, 2**128 - 12_345)),
    np.random.SeedSequence([3, 2**40, 7]),  # list entropy
    np.random.SeedSequence([1, 2, 3, 4, 5, 6]),  # more entropy words than the pool holds
    np.random.SeedSequence(5, spawn_key=(3, 2**40)),
    np.random.SeedSequence(2**64 - 1, spawn_key=(0,)),
]
# Every label an N=20, C=20 environment derives, in build_environment's order.
ENGINE_LABELS = ("topology", "channels", *(f"pr/{ch}" for ch in range(1, 21)),
                 *(f"strategy/{i}" for i in range(20)), "election")


def assert_streams_match(parent, labels):
    rows = labeled_seeds(parent, labels)
    assert rows.shape == (len(labels), 4) and rows.dtype == np.uint64
    for row, label in zip(rows, labels):
        ours, numpy_own = seeded_rng(row).bit_generator, reference.labeled_rng(parent, label).bit_generator
        assert ours.state == numpy_own.state, label
        assert ours.random_raw(8).tolist() == numpy_own.random_raw(8).tolist(), label


@pytest.mark.parametrize("parent", ROOTS, ids=repr)
def test_labeled_seeds_equal_seed_sequence_streams(parent):
    assert_streams_match(parent, ENGINE_LABELS)


def test_labeled_seeds_of_no_labels_and_of_repeated_labels():
    assert labeled_seeds(ROOTS[0], ()).shape == (0, 4)
    labels = ("election", "pr/1", "election", "election")
    assert_streams_match(ROOTS[1], labels)
    rows = labeled_seeds(ROOTS[1], labels)
    assert (rows[0] == rows[2]).all() and (rows[0] != rows[1]).any()


def test_one_label_equals_its_row_of_many():
    for i, label in enumerate(ENGINE_LABELS):
        assert (labeled_seeds(ROOTS[2], (label,))[0] == labeled_seeds(ROOTS[2], ENGINE_LABELS)[i]).all()


def test_environment_streams_start_where_numpy_starts_them():
    scenario = Scenario(nodes=20, channels=20, mode="asym", m=2, activity="high",
                        protocol="mmca", handshake="3wh")
    env = build_environment(scenario, 11)
    parent = np.random.SeedSequence(11)
    assert len(env.seeds) == 21
    for row, label in zip(env.seeds, (*(f"strategy/{i}" for i in range(20)), "election")):
        assert seeded_rng(row).bit_generator.state == reference.labeled_rng(parent, label).bit_generator.state

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
