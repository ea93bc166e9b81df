"""Sweep orchestration, table check and config parsing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crhop
from crhop.activity import RATE_TABLE
from crhop.errors import InvalidParameterError
from crhop.experiment import (
    SweepConfig,
    cells,
    check_table1,
    config_from_mapping,
    data_csv_text,
    parse_config_file,
    run_group,
    run_sweep,
)
from crhop.handshake import HANDSHAKE_KINDS
from crhop.protocols import STRATEGY_KINDS
from crhop.seeding import derive_run_seed


def tiny_config(**kw):
    base = dict(
        protocols=("mdmca",),
        handshakes=("3wh",),
        nodes=(3,),
        channels=(5,),
        modes=("sym",),
        activities=("zero",),
        runs=2,
        base_seed=11,
        max_slots=500,
    )
    base.update(kw)
    return SweepConfig(**base)


def stub_process_pool(monkeypatch) -> list:
    """Replace concurrent.futures.ProcessPoolExecutor with a stub that maps in
    this process; returns the list of max_workers each built stub was asked for."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers=None):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


class TestSweep:
    def test_single_cell_single_row(self, tmp_path):
        results = run_sweep(tiny_config(runs=1), str(tmp_path))
        text = (tmp_path / "data.csv").read_text()
        assert len(results) == 1
        assert len(text.strip().splitlines()) == 2  # header + one row

    def test_rerun_byte_identical(self, tmp_path):
        config = tiny_config(protocols=("mdmca", "mrcs"), activities=("zero", "mix"))
        run_sweep(config, str(tmp_path / "a"))
        run_sweep(config, str(tmp_path / "b"))
        assert (tmp_path / "a" / "data.csv").read_bytes() == (tmp_path / "b" / "data.csv").read_bytes()
        assert (tmp_path / "a" / "summary.json").read_bytes() == (tmp_path / "b" / "summary.json").read_bytes()

    def test_cell_order_is_deterministic_cross_product(self):
        config = tiny_config(protocols=("mdmca", "mrcs"), handshakes=("2wh", "3wh"))
        grid = cells(config)
        assert len(grid) == 4
        assert [(sc.protocol, sc.handshake) for sc in grid] == [
            ("mdmca", "2wh"), ("mdmca", "3wh"), ("mrcs", "2wh"), ("mrcs", "3wh"),
        ]

    def test_infeasible_cell_reported_not_fatal(self, tmp_path, monkeypatch):
        # 10 nodes at 100 m range over a square km cannot form a connected
        # graph; that cell must land in the summary's infeasible list while
        # the feasible cell still produces its data row
        import crhop.engine as engine_mod
        from crhop.topology import generate_topology as real_generate

        def budgeted(n, area, radio_range, rng, max_attempts=10_000):
            return real_generate(n, area, radio_range, rng, max_attempts=100)

        monkeypatch.setattr(engine_mod, "generate_topology", budgeted)
        cfg = tiny_config(nodes=(2, 10), area=(1000.0, 1000.0), runs=1)
        results = run_sweep(cfg, str(tmp_path))
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert len(results) == 1 and results[0].scenario["N"] == 2
        assert len(summary["infeasible_cells"]) == 1
        assert summary["infeasible_cells"][0]["scenario"]["N"] == 10
        assert "GenerationFailureError" in summary["infeasible_cells"][0]["error"]
        rows = (tmp_path / "data.csv").read_text().strip().splitlines()
        assert len(rows) == 2

    def test_paired_seeds_across_protocol_cells(self):
        config = tiny_config(protocols=("mdmca", "mrcs"), runs=3)
        a, b = (run_group([sc], config.runs, config.base_seed)[0] for sc in cells(config))
        assert a.seeds == b.seeds

    def test_distinct_seeds_across_environment_cells(self):
        config = tiny_config(nodes=(3, 4), runs=2)
        a, b = (run_group([sc], config.runs, config.base_seed)[0] for sc in cells(config))
        assert set(a.seeds).isdisjoint(b.seeds)

    def test_parallel_sweep_writes_serial_bytes(self, tmp_path, monkeypatch):
        config = tiny_config(protocols=("mdmca", "mrcs"), nodes=(3, 4), runs=2)
        monkeypatch.delenv("CRHOP_WORKERS", raising=False)
        run_sweep(config, str(tmp_path / "serial"))
        monkeypatch.setenv("CRHOP_WORKERS", "2")
        run_sweep(config, str(tmp_path / "parallel"))
        for name in ("data.csv", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()

    def test_worker_count_is_capped_at_the_group_count(self, tmp_path, monkeypatch):
        # A pool starts all its workers at the first submit, so the cap must
        # come before it is built. The stub maps serially: no process starts.
        config = tiny_config(protocols=("mdmca", "mrcs"), nodes=(3, 4), runs=2)  # two environment groups
        monkeypatch.delenv("CRHOP_WORKERS", raising=False)
        run_sweep(config, str(tmp_path / "serial"))
        pools = stub_process_pool(monkeypatch)
        monkeypatch.setenv("CRHOP_WORKERS", "1000000")
        run_sweep(config, str(tmp_path / "capped"))
        assert pools == [2]
        for name in ("data.csv", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "capped" / name).read_bytes()

    def test_one_group_run_builds_no_pool(self, tmp_path, monkeypatch, capsys):
        from crhop.cli import main

        pools = stub_process_pool(monkeypatch)
        monkeypatch.setenv("CRHOP_WORKERS", "8")
        assert main(["run", "--nodes", "3", "--runs", "2", "--max-slots", "200", "--out", str(tmp_path)]) == 0
        assert pools == []

    def test_importing_crhop_leaves_the_process_pool_unimported(self):
        # Only a sweep with more than one worker imports concurrent.futures.
        src = str(Path(crhop.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        code = "import sys, crhop; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_grouped_sweep_keeps_cell_order_serially_and_in_parallel(self, tmp_path, monkeypatch):
        # nodes 2 and 3 connect within the attempt budget over a square km at
        # 100 m; 12 never do, so the middle environment group is infeasible
        config = tiny_config(protocols=STRATEGY_KINDS, handshakes=HANDSHAKE_KINDS, nodes=(2, 12, 3),
                             channels=(4,), area=(1000.0, 1000.0), max_slots=200)
        monkeypatch.delenv("CRHOP_WORKERS", raising=False)
        results = run_sweep(config, str(tmp_path / "serial"))
        monkeypatch.setenv("CRHOP_WORKERS", "2")
        run_sweep(config, str(tmp_path / "parallel"))
        for name in ("data.csv", "summary.json"):
            assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()
        feasible = [sc for sc in cells(config) if sc.nodes != 12]
        assert [(r.scenario["protocol"], r.scenario["handshake"], r.scenario["N"]) for r in results] == [
            (sc.protocol, sc.handshake, sc.nodes) for sc in feasible
        ]
        infeasible = json.loads((tmp_path / "serial" / "summary.json").read_text())["infeasible_cells"]
        assert [(c["scenario"]["protocol"], c["scenario"]["handshake"], c["scenario"]["N"]) for c in infeasible] == [
            (p, h, 12) for p in STRATEGY_KINDS for h in HANDSHAKE_KINDS
        ]
        assert all("GenerationFailureError" in c["error"] for c in infeasible)

    def test_empty_group_or_zero_runs_rejected(self):
        (scenario,) = cells(tiny_config(runs=1))
        with pytest.raises(InvalidParameterError, match="at least one cell"):
            run_group([], 1, 1)
        with pytest.raises(InvalidParameterError, match="at least one run record"):
            run_group([scenario], 0, 1)

    def test_run_seeds_reproducible(self):
        assert derive_run_seed(1, "env", 0) == derive_run_seed(1, "env", 0)
        assert derive_run_seed(1, "env", 0) != derive_run_seed(1, "env", 1)
        assert derive_run_seed(1, "env", 0) != derive_run_seed(2, "env", 0)


class TestCheckTable1:
    def test_passes_on_shipped_table(self):
        checks = check_table1()
        assert len(checks) == 20
        assert all(c.ok for c in checks)

    def test_reference_values(self):
        checks = check_table1()
        ch4 = checks[3]
        assert ch4.computed == pytest.approx(0.867, abs=0.001)
        assert ch4.expected == 0.86
        ch1 = checks[0]
        assert ch1.computed == 0.0 and ch1.expected == 0.0

    def test_corrupted_rate_identified(self):
        bad = list(RATE_TABLE)
        bad[6] = (9.0, 0.1)  # corrupt CH-7
        failing = [c.channel for c in check_table1(table=tuple(bad)) if not c.ok]
        assert failing == [7]

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            check_table1(table=((1.0, 1.0),))


class TestConfigParsing:
    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "sweep.cfg"
        path.write_text(
            "# full evaluation grid\n"
            "protocols = mdmca, mrcs\n"
            "handshakes = 2wh, 3wh\n"
            "nodes = 3, 10\n"
            "channels = 10\n"
            "modes = sym, 9, 2\n"
            "activities = zero, high\n"
            "runs = 5\n"
            "base_seed = 99\n"
            "max_slots = 2000\n"
            "area = 500x400\n"
            "radio_range = 120\n"
            "emca_window = inf\n"
        )
        config = config_from_mapping(parse_config_file(str(path)))
        assert config.protocols == ("mdmca", "mrcs")
        assert config.modes == ("sym", 9, 2)
        assert config.nodes == (3, 10)
        assert config.runs == 5
        assert config.base_seed == 99
        assert config.area == (500.0, 400.0)
        assert config.radio_range == 120.0
        assert math.isinf(config.emca_window)

    def test_overrides_stack(self):
        base = config_from_mapping({"runs": "5"})
        final = config_from_mapping({"runs": "9", "nodes": "4"}, base)
        assert final.runs == 9
        assert final.nodes == (4,)

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidParameterError):
            config_from_mapping({"terrain": "hilly"})

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("runs 5\n")
        with pytest.raises(InvalidParameterError):
            parse_config_file(str(path))

    def test_boolean_values_are_strict(self):
        for text, value in [("1", True), ("TRUE", True), ("yes", True), ("On", True),
                            ("0", False), ("false", False), ("No", False), ("OFF", False)]:
            assert config_from_mapping({"share_unconfirmed_links": text}).share_unconfirmed_links is value
        for text in ("maybe", "ture", ""):
            with pytest.raises(InvalidParameterError, match="share_unconfirmed_links"):
                config_from_mapping({"share_unconfirmed_links": text})

    def test_rates_file_loaded(self, tmp_path):
        rates = tmp_path / "rates.json"
        rates.write_text(json.dumps([[1.0, 1.0], [2.0, 0.5]]))
        config = config_from_mapping({"rates_file": str(rates)})
        assert config.rates_table == ((1.0, 1.0), (2.0, 0.5))

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            SweepConfig(runs=0).validate()
        with pytest.raises(InvalidParameterError):
            SweepConfig(protocols=()).validate()


class TestSummaryEcho:
    def test_rates_and_positions_echoed_when_set(self, tmp_path):
        positions = ((0.0, 0.0), (60.0, 0.0), (120.0, 0.0))
        echoes = []
        for rates in (((1.0, 1.0),), ((2.0, 0.5),)):
            out = tmp_path / str(len(echoes))
            run_sweep(tiny_config(rates_table=rates, positions=positions, runs=1), str(out))
            echo = json.loads((out / "summary.json").read_text())["config"]
            assert echo["rates_table"] == [list(row) for row in rates]
            assert echo["positions"] == [list(p) for p in positions]
            echoes.append(echo)
        assert echoes[0] != echoes[1]

    def test_unset_rates_and_positions_not_echoed(self, tmp_path):
        run_sweep(tiny_config(runs=1), str(tmp_path))
        echo = json.loads((tmp_path / "summary.json").read_text())["config"]
        assert "rates_table" not in echo and "positions" not in echo
        assert echo["per_node_size"] is None and echo["emca_window"] == "inf"


def test_data_csv_columns_fixed(tmp_path):
    results = run_sweep(tiny_config(), str(tmp_path))
    header = data_csv_text(results).splitlines()[0]
    assert header == "protocol,handshake,N,C,mode,m,activity,seed,attr_slots,ppr,sd,censored"
