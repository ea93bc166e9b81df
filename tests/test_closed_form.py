"""The model against closed forms: two nodes, mrcs, symmetric channels, no activity.

Two in-range mrcs nodes on C symmetric channels that are never busy tune
independently and uniformly, so they meet in a half-slot with probability
1/C: the first meeting is geometric with mean C half-slots, and the
handshake completes both nodes in that half-slot. Before it, each node is
alone on its channel and sends one lone D-REQ per half-slot, so every run
has packets = 2 * (TTR - 1) + the handshake's size exactly.
"""

import math

import pytest

from conftest import PAIR_POSITIONS
from crhop.engine import Scenario, build_environment, run
from crhop.handshake import HANDSHAKE_SIZES

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
