"""Golden digests of full run records over a fixed (scenario, seed) matrix.

A run is a pure function of (scenario, seed), and that contract must hold
across versions, not only within one process. Each case below hashes the
whole `RunRecord`, trace rows included, and compares it with the digest
recorded in `digests.json`. A refactor that changes any record fails here.

The matrix covers every protocol and handshake, both spectrum modes, every
activity class, every completion mode, a finite memca window, shared
unconfirmed links, traces, explicit positions, a rate table with an
absorbing channel, censored runs and single-node runs.

`sweep_digests.json` does the same for the two files a sweep writes,
`data.csv` and `summary.json`, over a few small multi-axis sweeps: both
spectrum modes, several activities, area and range overrides, a finite memca
window, shared unconfirmed links, silent completion and censored cells. The
configuration echo in `summary.json` is part of what they pin.

Re-record (only when a change of results is intended):

    PYTHONPATH=src python tests/golden/test_golden.py --record
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from crhop.engine import Scenario, run
from crhop.experiment import SweepConfig, run_sweep

DIGESTS = Path(__file__).with_name("digests.json")
SWEEP_DIGESTS = Path(__file__).with_name("sweep_digests.json")
SWEEP_FILES = ("data.csv", "summary.json")

SMALL_AREA = (200.0, 200.0)
WIDE_AREA = (400.0, 400.0)
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
    # Past one machine word of node ids; N=200 reaches block 2 (512
    # half-slots), and its untraced runs visit only the nodes that meet.
    _case("wide/N70/mmca/2wh", 5, nodes=70, channels=20, mode="asym", m=2,
          area=WIDE_AREA, max_slots=2_000, protocol="mmca", handshake="2wh"),
    _case("wide/N200/mdmca/3wh", 5, nodes=200, channels=20, mode="asym", m=2,
          area=WIDE_AREA, max_slots=600),
    # Either side of the 64-bit mask width: the last node count whose half-slot
    # groups OR their id bits in uint64, and the first that needs Python ints.
    _case("wide/N64", 7, nodes=64, channels=20, mode="asym", m=2, area=WIDE_AREA, max_slots=1_500),
    _case("wide/N65", 7, nodes=65, channels=20, mode="asym", m=2, area=WIDE_AREA, max_slots=1_500,
          protocol="memca", handshake="2wh", emca_window=20.0),
    # Half of the nodes hold {1, 2} (array rows) and half {1, 4}, whose empty
    # prime list sends them through select, in every block.
    _case("mixed-rows/mdmca/3wh", 28, nodes=8, channels=4, mode="asym", m=1, per_node_size=2),
    # Every activity class in one occupancy pass; the last node completes in block 2.
    _case("mix-pass/N20/mmca/2wh", 31, nodes=20, channels=20, mode="asym", m=2, activity="mix",
          area=WIDE_AREA, max_slots=2_000, protocol="mmca", handshake="2wh"),
]


SWEEPS = {
    "modes-activities": SweepConfig(
        protocols=("mdmca", "memca"), handshakes=("2wh", "3wh"), nodes=(3, 5),
        channels=(6,), modes=("sym", 2), activities=("zero", "high"), runs=2,
        base_seed=31, max_slots=2_000, area=SMALL_AREA,
    ),
    "window-unconfirmed": SweepConfig(
        protocols=("memca", "mmca"), handshakes=("2wh",), nodes=(4,), channels=(5, 8),
        modes=("sym", 3), activities=("mix", "low"), runs=2, base_seed=32,
        max_slots=2_000, radio_range=120.0, per_node_size=4, emca_window=3.0,
        share_unconfirmed_links=True,
    ),
    "silent": SweepConfig(
        protocols=("mdmca", "mrcs"), handshakes=("2wh", "3wh"), nodes=(3, 6),
        channels=(4,), modes=("sym",), activities=("long", "zero"), runs=2,
        base_seed=33, max_slots=2_000, area=(150.0, 150.0), completion_mode="silent",
    ),
    "censored": SweepConfig(
        protocols=("mdmca", "mrcs", "mmca", "memca"), handshakes=("3wh",), nodes=(6,),
        channels=(10,), modes=(1,), activities=("high",), runs=3, base_seed=34,
        max_slots=3, area=SMALL_AREA, per_node_size=2,
    ),
}


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


def sweep_digests(config, out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file a sweep writes, by file name."""
    run_sweep(config, str(out_dir))
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in SWEEP_FILES}


def test_case_names_are_unique():
    names = [c[0] for c in CASES]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_record_matches_golden_digest(case):
    golden = json.loads(DIGESTS.read_text("utf-8"))
    assert compute(case) == golden[case[0]]


@pytest.mark.parametrize("name", SWEEPS)
def test_sweep_files_match_golden_digests(name, tmp_path, monkeypatch):
    monkeypatch.delenv("CRHOP_WORKERS", raising=False)
    golden = json.loads(SWEEP_DIGESTS.read_text("utf-8"))
    assert sweep_digests(SWEEPS[name], tmp_path) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    DIGESTS.write_text(
        json.dumps({c[0]: compute(c) for c in CASES}, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(CASES)} digests to {DIGESTS}")
    with tempfile.TemporaryDirectory() as tmp:
        sweeps = {name: sweep_digests(config, Path(tmp) / name) for name, config in SWEEPS.items()}
    SWEEP_DIGESTS.write_text(json.dumps(sweeps, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(sweeps)} sweep digests to {SWEEP_DIGESTS}")
