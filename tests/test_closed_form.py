"""The model against closed forms: two nodes, mrcs, symmetric channels, no activity.

Two in-range mrcs nodes on C symmetric channels that are never busy tune
independently and uniformly, so they meet in a half-slot with probability
1/C: the first meeting is geometric with mean C half-slots, and the
handshake completes both nodes in that half-slot. Before it, each node is
alone on its channel and sends one lone D-REQ per half-slot, so every run
has packets = 2 * (TTR - 1) + the handshake's size exactly.

Clusters per half-slot in a clique: every node's channel in a half-slot is
independent of every other node's, as every stream is private, and its
marginal is exact. mrcs is uniform over the node's set; mmca reads cu[j mod m]
with its clock j uniform on [0, p); mdmca reads its prime list in the first
half-slot and its non-prime list in the second, each at j mod the list's
length, with j uniform on [0, m). A clock starts uniform and each step adds a
rate drawn apart from it, so j stays uniform at every step. In a clique each
`Environment.schedule` group is the one cluster of two or more nodes on an
idle channel, so a block's expected group count is the sum over its
half-slots k and channels c of idle_c(k) * P(at least two nodes on c), a
Poisson-binomial tail over the nodes' marginals (Theis, Thomas and DaSilva,
"Rendezvous for Cognitive Radios", IEEE TMC 10(2), 2011, for the clocks).
"""

import itertools
import math

import numpy as np
import pytest

from conftest import PAIR_POSITIONS
from crhop.engine import Scenario, build_environment, run
from crhop.handshake import HANDSHAKE_SIZES
from crhop.spectrum import is_prime

RUNS = 300
HANDSHAKES = ("2wh", "3wh")


@pytest.mark.parametrize("channels", [5, 10, 20])
def test_two_mrcs_nodes_meet_geometrically_and_count_every_packet(channels):
    cells = [Scenario(nodes=2, channels=channels, mode="sym", activity="zero", protocol="mrcs",
                      handshake=handshake, positions=PAIR_POSITIONS) for handshake in HANDSHAKES]
    ttrs = {handshake: [] for handshake in HANDSHAKES}
    for seed in range(RUNS):
        environment = build_environment(cells[0], seed)
        for scenario in cells:
            record = run(scenario, seed, environment=environment)
            ttr = record.ttr_half_slots[0]
            assert record.ttr_half_slots == (ttr, ttr) and record.censored == (False, False)
            assert record.rendezvous == 1
            assert record.packets == 2 * (ttr - 1) + HANDSHAKE_SIZES[scenario.handshake]
            ttrs[scenario.handshake].append(ttr)
    # The handshake does not change when the pair first meets.
    assert ttrs["2wh"] == ttrs["3wh"]
    mean = sum(ttrs["3wh"]) / RUNS
    standard_error = math.sqrt(channels * (channels - 1) / RUNS)  # geometric: variance (1 - p) / p^2
    assert abs(mean - channels) < 4 * standard_error, (mean, standard_error)


def half_slot_marginals(protocol, cu, channels):
    """A node's channel distribution in the first and in the second half of a
    slot, each indexed by channel id (index 0 unused)."""
    m = len(cu)
    halves = []
    for half in (1, 2):
        prob = np.zeros(channels + 1)
        if protocol == "mrcs":
            prob[list(cu)] = 1 / m
        elif protocol == "mmca":
            p = next(q for q in itertools.count(max(m, 2)) if is_prime(q))
            for j in range(p):
                prob[cu[j % m]] += 1 / p
        else:
            read = [c for c in cu if is_prime(c) == (half == 1)]
            # An empty list reads the full set and can collide, and the
            # collision's nudge is not in this marginal.
            assert read, ("an empty prime or non-prime list", cu)
            for j in range(m):
                prob[read[j % len(read)]] += 1 / m
        halves.append(prob)
    return halves


def two_or_more(probs):
    """P(at least two nodes on c) for every channel c, from each node's
    distribution (one row per node): the Poisson-binomial tail."""
    none, one = np.ones(probs.shape[1]), np.zeros(probs.shape[1])
    for p in probs:
        none, one = none * (1 - p), one * (1 - p) + none * p
    return 1 - none - one


# Ten seeds: a modular clock's half-slots are correlated within a rate epoch,
# so the error comes from the spread between seeds, and three seeds leave
# that spread too uncertain for a bound of 4 standard errors (t at 2 degrees
# of freedom passes 4 once in 18).
CAPACITY_SEEDS = range(10)


@pytest.mark.parametrize("activity", ["zero", "high"])
@pytest.mark.parametrize("mode", ["sym", "asym"])
@pytest.mark.parametrize("protocol", ["mdmca", "mmca", "mrcs"])
def test_clique_groups_per_half_slot_match_the_closed_form(protocol, mode, activity):
    channels = 20
    for n in (10, 50):
        positions = tuple((float(i % 8), float(i // 8)) for i in range(n))  # all within 10 m: a clique
        scenario = Scenario(nodes=n, channels=channels, mode=mode, m=2 if mode == "asym" else None,
                            activity=activity, protocol=protocol, handshake="2wh", positions=positions)
        gaps = []  # observed minus expected groups over blocks 0-1, one per seed
        for seed in CAPACITY_SEEDS:
            environment = build_environment(scenario, seed)
            marginals = [half_slot_marginals(protocol, cu, channels) for cu in environment.smap.available]
            tails = [two_or_more(np.array([node[h] for node in marginals]))[:, None] for h in (0, 1)]
            gap = 0.0
            for b in (0, 1):
                busy, _lone, group_at, _channel, _tuned = environment.schedule(protocol, b, False)
                idle = ~busy  # row 0, no channel, has a zero tail
                gap += len(group_at) - (idle[:, 0::2] * tails[0]).sum() - (idle[:, 1::2] * tails[1]).sum()
            gaps.append(gap)
        standard_error = np.std(gaps, ddof=1) / math.sqrt(len(gaps))
        assert abs(np.mean(gaps)) <= 4 * standard_error, (n, np.mean(gaps), standard_error)
