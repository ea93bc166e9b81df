"""Golden digests of full run records over a fixed (scenario, seed) matrix.

A run is a pure function of (scenario, seed), and that contract must hold
across versions, not only within one process. Each case below hashes the
whole `RunRecord`, trace rows included, and compares it with the digest
recorded in `digests.json`. A refactor that changes any record fails here.

The matrix covers every protocol and handshake, both spectrum modes, every
activity class, every completion mode, a finite memca window, shared
unconfirmed links, traces, explicit positions, a rate table with an
absorbing channel, censored runs and single-node runs.

Re-record (only when a change of results is intended):

    PYTHONPATH=src python tests/golden/test_golden.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from crhop.engine import Scenario, run

DIGESTS = Path(__file__).with_name("digests.json")

SMALL_AREA = (200.0, 200.0)
CHAIN4 = ((0.0, 0.0), (90.0, 0.0), (180.0, 0.0), (270.0, 0.0))
STAR5 = ((100.0, 100.0), (30.0, 100.0), (170.0, 100.0), (100.0, 30.0), (100.0, 170.0))
# Channel 1 turns busy once and never frees up (lambda_x = 0); channel 4 is
# never busy (lambda_y = 0).
ABSORBING_RATES = ((0.0, 0.5), (1.0, 0.2), (0.3, 0.3), (1000.0, 0.0))


def _case(name, seed, trace=False, **kw):
    base = dict(
        nodes=6, channels=8, mode="sym", activity="high", protocol="mdmca",
        handshake="3wh", area=SMALL_AREA, max_slots=5_000,
    )
    base.update(kw)
    return name, Scenario(**base), seed, trace


CASES = [
    *(
        _case(f"sym-high/{p}/{h}", 11, protocol=p, handshake=h)
        for p in ("mdmca", "mrcs", "mmca", "memca")
        for h in ("2wh", "3wh")
    ),
    *(
        _case(f"asym-mix/{p}/{h}", 12, nodes=8, channels=10, mode="asym", m=3,
              activity="mix", protocol=p, handshake=h)
        for p in ("mdmca", "mrcs", "mmca", "memca")
        for h in ("2wh", "3wh")
    ),
    _case("activity-zero", 13, activity="zero"),
    _case("activity-low", 13, activity="low", protocol="mmca"),
    _case("activity-long", 13, activity="long", protocol="mrcs", handshake="2wh"),
    _case("k-below-pool", 14, nodes=6, channels=10, mode="asym", m=2, per_node_size=5),
    _case("asym-m1-k3/mdmca", 15, nodes=6, channels=10, mode="asym", m=1, per_node_size=3),
    _case("asym-m1-k3/mdmca/2wh", 16, nodes=6, channels=10, mode="asym", m=1,
          per_node_size=3, handshake="2wh"),
    _case("sym-c1/mdmca", 17, nodes=3, channels=1, activity="low"),
    _case("sym-c3/mdmca", 17, nodes=4, channels=3, activity="long", handshake="2wh"),
    _case("silent/mdmca/2wh", 18, completion_mode="silent", handshake="2wh"),
    _case("silent/mmca/3wh", 18, completion_mode="silent", protocol="mmca"),
    _case("active/mrcs/2wh", 19, completion_mode="active", protocol="mrcs", handshake="2wh"),
    _case("active/mdmca/3wh", 19, completion_mode="active"),
    _case("memca-window/2wh", 20, protocol="memca", handshake="2wh", emca_window=3.0),
    _case("memca-window/3wh", 20, protocol="memca", emca_window=2.5, activity="mix"),
    _case("share-unconfirmed/2wh", 21, share_unconfirmed_links=True, handshake="2wh"),
    _case("share-unconfirmed/3wh", 21, share_unconfirmed_links=True, protocol="mmca"),
    _case("trace/mdmca/3wh", 22, trace=True, nodes=4, channels=5),
    _case("trace/mrcs/2wh/asym", 22, trace=True, nodes=5, channels=6, mode="asym", m=2,
          protocol="mrcs", handshake="2wh"),
    _case("trace/memca-window/silent", 23, trace=True, nodes=4, protocol="memca",
          emca_window=2.0, completion_mode="silent"),
    _case("trace/mmca/active", 23, trace=True, nodes=4, protocol="mmca", completion_mode="active"),
    _case("positions/chain4", 24, nodes=4, positions=CHAIN4, handshake="2wh"),
    _case("positions/star5/trace", 24, trace=True, nodes=5, positions=STAR5, protocol="mmca"),
    _case("absorbing-rates", 25, nodes=5, channels=4, activity="mix",
          rates_table=ABSORBING_RATES),
    _case("absorbing-rates/trace", 25, trace=True, nodes=4, channels=4, activity="mix",
          rates_table=ABSORBING_RATES, protocol="mrcs", handshake="2wh"),
    _case("censored/high", 26, nodes=8, max_slots=4),
    _case("censored/trace", 26, trace=True, nodes=4, max_slots=1, activity="zero"),
    _case("single-node", 27, nodes=1),
    _case("single-node/trace", 27, trace=True, nodes=1, positions=((5.0, 5.0),)),
]


def record_digest(record) -> str:
    """SHA-256 of every RunRecord field, trace rows included.

    json.dumps accepts only plain Python values here, so a record that
    starts carrying numpy scalars fails loudly instead of hashing alike.
    """
    payload = json.dumps(dataclasses.asdict(record), separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compute(case) -> str:
    _name, scenario, seed, trace = case
    return record_digest(run(scenario, seed, trace=trace))


def test_case_names_are_unique():
    names = [c[0] for c in CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_record_matches_golden_digest(case):
    golden = json.loads(DIGESTS.read_text("utf-8"))
    assert compute(case) == golden[case[0]]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DIGESTS.write_text(
        json.dumps({c[0]: compute(c) for c in CASES}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
