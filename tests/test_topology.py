"""Topology generation and position import tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from crhop.errors import GenerationFailureError, InvalidParameterError
from crhop.topology import (
    FIRST_BATCH, MAX_BATCH, MAX_CELLS, Topology, connected, from_positions, generate_topology, load_positions,
)


def neighbor_sets(topo):
    """Each node's neighbour ids, decoded from its id mask."""
    return tuple(frozenset(reference.ids(mask)) for mask in topo.neighbor_masks)


def bfs_connected(topo):
    """Independent connectivity oracle over the adjacency relation."""
    n = topo.node_count
    if n <= 1:
        return True
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if v != u and topo.adjacency[u, v] and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return len(seen) == n


def reference_topology(node_count, area, radio_range, rng, max_attempts):
    """The per-attempt sampler: one size=(n, 2) draw per attempt, math.dist
    adjacency, BFS connectivity. Returns (attempt, positions, neighbors) of
    the first connected attempt (counted from 1), or None."""
    for attempt in range(1, max_attempts + 1):
        pts = [tuple(p) for p in rng.uniform((0.0, 0.0), area, size=(node_count, 2))]
        neighbors = [
            frozenset(j for j in range(node_count) if j != i and math.dist(pts[i], pts[j]) <= radio_range)
            for i in range(node_count)
        ]
        seen, stack = {0}, [0]
        while stack:
            for j in neighbors[stack.pop()] - seen:
                seen.add(j)
                stack.append(j)
        if len(seen) == node_count:
            return attempt, tuple(pts), tuple(neighbors)
    return None


def assert_matches_reference(node_count, area, radio_range, seed, max_attempts):
    expected = reference_topology(node_count, area, radio_range, np.random.default_rng(seed), max_attempts)
    rng = np.random.default_rng(seed)
    if expected is None:
        with pytest.raises(GenerationFailureError):
            generate_topology(node_count, area, radio_range, rng, max_attempts=max_attempts)
        return
    topo = generate_topology(node_count, area, radio_range, rng, max_attempts=max_attempts)
    assert topo.positions == expected[1]
    assert neighbor_sets(topo) == expected[2]


@settings(max_examples=80, deadline=None)
@given(
    node_count=st.integers(1, 30),
    width=st.floats(10.0, 1000.0),
    height=st.floats(10.0, 1000.0),
    range_share=st.floats(0.1, 0.8),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_sampler_matches_per_attempt_reference(node_count, width, height, range_share, seed):
    radio_range = range_share * max(width, height)
    assert_matches_reference(node_count, (width, height), radio_range, seed, max_attempts=300)


@settings(max_examples=80, deadline=None)
@given(
    node_count=st.integers(2, 12),
    range_share=st.floats(0.02, 0.3),
    seed=st.integers(0, 2**32 - 1),
)
def test_batched_sampler_matches_reference_where_isolated_nodes_are_common(node_count, range_share, seed):
    # Short ranges: most attempts have an isolated node and skip the connectivity test.
    assert_matches_reference(node_count, (100.0, 100.0), range_share * 100.0, seed, max_attempts=200)


@pytest.mark.parametrize("radio_range", [30.0, 100.0, 160.0])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_nodes_are_accepted_exactly_when_in_range(radio_range, seed):
    # In range on the first attempt, or out of it for some attempts first.
    assert_matches_reference(2, (100.0, 100.0), radio_range, seed, max_attempts=500)
    topo = generate_topology(2, (100.0, 100.0), radio_range, np.random.default_rng(seed))
    assert math.dist(*topo.positions) <= radio_range and topo.neighbor_masks == (2, 1)


def test_two_nodes_out_of_range_everywhere_exhaust_the_budget():
    with pytest.raises(GenerationFailureError):
        generate_topology(2, (100.0, 100.0), 1e-6, np.random.default_rng(0), max_attempts=300)


@pytest.mark.parametrize("node_count", [10, 50, 100])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_sampler_matches_reference_at_default_geometry(node_count, seed):
    assert_matches_reference(node_count, (400.0, 400.0), 100.0, seed, max_attempts=400)


def batch_ends(node_count, max_attempts):
    """Attempts drawn by the end of each of generate_topology's batches."""
    ends = [0]
    while ends[-1] < max_attempts:
        cap = max(MAX_CELLS // (node_count * (node_count - 1) // 2 + 1), 1)
        ends.append(ends[-1] + min(max(ends[-1], FIRST_BATCH), MAX_BATCH, cap, max_attempts - ends[-1]))
    return ends[1:]


def test_attempt_budget_is_exact():
    area, seed = (400.0, 400.0), 0
    j, positions, _ = reference_topology(10, area, 100.0, np.random.default_rng(seed), 1000)
    ends = batch_ends(10, 1000)
    assert j > ends[1] and j not in ends  # inside a batch past the first two, not at its end
    with pytest.raises(GenerationFailureError):
        generate_topology(10, area, 100.0, np.random.default_rng(seed), max_attempts=j - 1)
    topo = generate_topology(10, area, 100.0, np.random.default_rng(seed), max_attempts=j)
    assert topo.positions == positions


class RecordingRng:
    """A Generator that records the shape of every `random` draw."""

    def __init__(self, seed):
        self.rng, self.shapes = np.random.default_rng(seed), []

    def random(self, shape):
        self.shapes.append(shape)
        return self.rng.random(shape)


@pytest.mark.parametrize("node_count", [2, 3, 10, 20, 65, 200])
def test_batches_stay_within_the_cell_cap(node_count):
    # A range no pair reaches: every batch up to the budget is drawn and rejected
    rng, budget = RecordingRng(0), 601
    with pytest.raises(GenerationFailureError):
        generate_topology(node_count, (400.0, 400.0), 1e-9, rng, max_attempts=budget)
    pairs = node_count * (node_count - 1) // 2
    assert all(shape[1:] == (node_count, 2) for shape in rng.shapes)
    assert all(k * pairs <= MAX_CELLS or k == 1 for k, *_ in rng.shapes)
    assert np.cumsum([k for k, *_ in rng.shapes]).tolist() == batch_ends(node_count, budget)


@settings(max_examples=100, deadline=None)
@given(
    node_count=st.integers(1, 70),
    width=st.floats(10.0, 1000.0),
    height=st.floats(10.0, 1000.0),
    range_share=st.floats(0.02, 0.8),
    seed=st.integers(0, 2**32 - 1),
    max_attempts=st.integers(0, 200).map(lambda k: 2 * k + 1),  # a multiple of no batch size
)
def test_sampler_equals_the_full_matrix_sampler(node_count, width, height, range_share, seed, max_attempts):
    # Exact: same float operands and order as the (n, n) distance matrix, so
    # also at boundary cases that the math.dist reference cannot pin
    radio_range = range_share * max(width, height)
    args = node_count, (width, height), radio_range
    try:
        expected = reference.generate_topology(*args, np.random.default_rng(seed), max_attempts)
    except GenerationFailureError:
        with pytest.raises(GenerationFailureError):
            generate_topology(*args, np.random.default_rng(seed), max_attempts=max_attempts)
        return
    topo = generate_topology(*args, np.random.default_rng(seed), max_attempts=max_attempts)
    assert topo.positions == expected.positions
    assert np.array_equal(topo.adjacency, expected.adjacency)
    assert topo.neighbor_masks == expected.neighbor_masks
    assert np.array_equal(topo.peers, expected.peers)


@pytest.mark.parametrize("max_attempts", [0, -1])
def test_attempt_budget_below_one_is_a_bad_argument(max_attempts):
    with pytest.raises(InvalidParameterError, match="max_attempts"):
        generate_topology(3, (100.0, 100.0), 50.0, np.random.default_rng(0), max_attempts=max_attempts)


def test_single_node_trivially_connected():
    topo = generate_topology(1, (100.0, 100.0), 10.0, np.random.default_rng(0))
    assert topo.node_count == 1
    assert neighbor_sets(topo)[0] == frozenset()
    assert connected(topo.adjacency)


def test_unit_disk_boundary():
    inside = from_positions([(0.0, 0.0), (99.0, 0.0)], 100.0)
    assert inside.adjacency[0, 1] and inside.adjacency[1, 0]
    # exactly at range is adjacent, one ulp beyond is not
    for far in [(100.0, 0.0), (60.0, 80.0)]:
        assert from_positions([(0.0, 0.0), far], 100.0).adjacency[0, 1]
    beyond = Topology([(0.0, 0.0), (float(np.nextafter(100.0, 200.0)), 0.0)], 100.0)
    assert not beyond.adjacency[0, 1] and not connected(beyond.adjacency)
    with pytest.raises(InvalidParameterError):
        from_positions([(0.0, 0.0), (101.0, 0.0)], 100.0)


def test_adjacency_is_symmetric_and_irreflexive():
    topo = generate_topology(12, (300.0, 300.0), 100.0, np.random.default_rng(5))
    sets = neighbor_sets(topo)
    for i in range(topo.node_count):
        assert i not in sets[i]
        for j in sets[i]:
            assert i in sets[j]


def assert_neighbour_forms_match_adjacency(topo):
    """Each node's id mask holds its adjacency row's ids; its rank column is
    those ids ascending, padded with n (no node) up to the maximum degree."""
    n = topo.node_count
    assert len(topo.neighbor_masks) == n
    assert topo.peers.shape == (topo.adjacency.sum(axis=1).max(initial=0), n)
    for i in range(n):
        expected = np.flatnonzero(topo.adjacency[i]).tolist()
        assert reference.ids(topo.neighbor_masks[i]) == set(expected)
        assert topo.peers[:, i].tolist() == expected + [n] * (len(topo.peers) - len(expected))


def test_single_node_has_one_zero_mask_and_no_ranks():
    topo = generate_topology(1, (100.0, 100.0), 10.0, np.random.default_rng(0))
    assert topo.neighbor_masks == (0,) and len(topo.peers) == 0
    assert_neighbour_forms_match_adjacency(topo)


def test_isolated_node_ranks_no_node_at_every_rank():
    # Topology itself accepts a disconnected placement: node 2 hears nobody
    topo = Topology([(0.0, 0.0), (50.0, 0.0), (500.0, 0.0), (0.0, 60.0)], 100.0)
    assert topo.neighbor_masks[2] == 0
    assert len(topo.peers) == 2 and topo.peers[:, 2].tolist() == [4, 4]
    assert_neighbour_forms_match_adjacency(topo)


@pytest.mark.parametrize("seed", [0, 1])
def test_neighbour_forms_past_two_machine_words_match_adjacency(seed):
    topo = generate_topology(150, (400.0, 400.0), 100.0, np.random.default_rng(seed))
    assert max(mask.bit_length() for mask in topo.neighbor_masks) > 128
    assert_neighbour_forms_match_adjacency(topo)


@pytest.mark.parametrize("n", [1, 12, 150])
def test_generated_topology_equals_one_built_from_its_positions(n):
    # generate_topology indexes the accepted attempt's adjacency from its batch
    topo = generate_topology(n, (400.0, 400.0), 100.0, np.random.default_rng(3))
    again = Topology(list(topo.positions), 100.0)
    assert np.array_equal(topo.adjacency, again.adjacency)
    assert topo.neighbor_masks == again.neighbor_masks
    assert np.array_equal(topo.peers, again.peers)


def test_emitted_topologies_always_connected():
    # 100 seeds against the BFS oracle at a feasible density.
    for seed in range(100):
        topo = generate_topology(20, (400.0, 400.0), 100.0, np.random.default_rng(seed))
        assert bfs_connected(topo)
        assert all(len(s) >= 1 for s in neighbor_sets(topo))


def test_generation_deterministic_per_seed():
    a = generate_topology(8, (400.0, 400.0), 100.0, np.random.default_rng(77))
    b = generate_topology(8, (400.0, 400.0), 100.0, np.random.default_rng(77))
    assert a.positions == b.positions


def test_infeasible_scenario_exhausts_budget():
    # 10 nodes at 100 m range over a square kilometer essentially never form
    # a connected disk graph; the generator must say so rather than spin.
    with pytest.raises(GenerationFailureError):
        generate_topology(10, (1000.0, 1000.0), 100.0, np.random.default_rng(1), max_attempts=200)


def test_invalid_parameters():
    rng = np.random.default_rng(0)
    with pytest.raises(InvalidParameterError):
        generate_topology(0, (100.0, 100.0), 10.0, rng)
    with pytest.raises(InvalidParameterError):
        generate_topology(3, (100.0, 100.0), 0.0, rng)
    with pytest.raises(InvalidParameterError):
        generate_topology(3, (0.0, 100.0), 10.0, rng)
    for area, radio_range in [((100.0, 100.0), math.nan), ((math.nan, 100.0), 10.0),
                              ((100.0, math.inf), 10.0)]:
        with pytest.raises(InvalidParameterError):
            generate_topology(3, area, radio_range, rng)


def test_position_file_round_trip(tmp_path):
    path = tmp_path / "positions.txt"
    path.write_text("# comment\n1 50.5 60.25\n0 10.0 20.0\n2 90.0 10.0\n")
    positions = load_positions(str(path))
    assert positions == [(10.0, 20.0), (50.5, 60.25), (90.0, 10.0)]
    topo = from_positions(positions, 100.0)
    assert topo.node_count == 3


def test_position_file_validation(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1.0\n")
    with pytest.raises(InvalidParameterError):
        load_positions(str(bad))
    gappy = tmp_path / "gappy.txt"
    gappy.write_text("0 1.0 1.0\n2 2.0 2.0\n")
    with pytest.raises(InvalidParameterError):
        load_positions(str(gappy))


def test_chain_is_multihop_not_clique():
    topo = from_positions([(0.0, 0.0), (90.0, 0.0), (180.0, 0.0)], 100.0)
    assert topo.adjacency[0, 1] and topo.adjacency[1, 2]
    assert not topo.adjacency[0, 2]
    assert connected(topo.adjacency)
