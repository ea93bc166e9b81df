"""Command-line interface smoke tests."""

import csv
import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from crhop import experiment
from crhop.activity import RATE_TABLE
from crhop.cli import _one_cell_config, build_parser, main
from crhop.engine import MAX_CHANNELS, MAX_NODES, Scenario
from crhop.experiment import SweepConfig, cells, run_group, run_sweep


def test_check_table1_exit_code(capsys):
    assert main(["check-table1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert lines[0] == "CH-1: lambda_x=1000.0 lambda_y=0.0 U=0.000 expected=0.00 ok"
    assert lines[-1] == "table check: PASS"


def test_check_table1_detects_corruption(tmp_path, capsys):
    bad = [list(row) for row in RATE_TABLE]
    bad[6] = [9.0, 0.1]  # corrupt CH-7
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps(bad))
    assert main(["check-table1", "--rates", str(rates)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "MISMATCH" in line] == [
        "CH-7: lambda_x=9.0 lambda_y=0.1 U=0.011 expected=0.53 MISMATCH"
    ]
    assert lines[-1] == "table check: FAIL"


def test_run_writes_outputs(tmp_path, capsys):
    code = main([
        "run", "--protocol", "mdmca", "--handshake", "3wh", "--nodes", "3",
        "--channels", "5", "--mode", "sym", "--activity", "zero",
        "--seed", "3", "--runs", "2", "--max-slots", "500",
        "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    assert (tmp_path / "out" / "data.csv").exists()
    assert (tmp_path / "out" / "summary.json").exists()
    assert "attr=" in capsys.readouterr().out


def test_sweep_with_config_file(tmp_path):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(
        "protocols = mdmca\nhandshakes = 3wh\nnodes = 3\nchannels = 5\n"
        "modes = sym\nactivities = zero\nruns = 1\nmax_slots = 400\n"
    )
    code = main(["sweep", "--config", str(cfg), "--seed", "5", "--out", str(tmp_path / "sw")])
    assert code == 0
    rows = (tmp_path / "sw" / "data.csv").read_text().strip().splitlines()
    assert len(rows) == 2


def test_trace_emits_transcript(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main([
        "trace", "--protocol", "mdmca", "--handshake", "3wh", "--nodes", "3",
        "--channels", "4", "--mode", "sym", "--activity", "zero",
        "--seed", "2", "--max-slots", "200", "--out", str(out),
    ])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert rows
    assert set(rows[0]) == {"slot", "half", "channel", "kind", "sender", "receiver", "pr"}
    kinds = {r["kind"] for r in rows}
    assert "TUNE" in kinds and "D-REQ" in kinds


def test_trace_bytes_are_pinned(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    assert main([
        "trace", "--protocol", "mdmca", "--handshake", "2wh", "--nodes", "6", "--channels", "5",
        "--mode", "asym", "--m", "2", "--activity", "mix", "--seed", "4", "--max-slots", "300",
        "--out", str(out),
    ]) == 0
    data = out.read_bytes()
    assert data.count(b"\n") == 1113
    assert hashlib.sha256(data).hexdigest() == (
        "5550e664fec9c4da48248ca19a086c405b2b2038a8a106441941b239846fa39c")


def test_symmetric_trace_ignores_m(tmp_path, capsys):
    # symmetric cells clear m, so --m must not change the traced run
    flags = ["trace", "--mode", "sym", "--nodes", "3", "--channels", "4", "--seed", "2"]
    assert main([*flags, "--out", str(tmp_path / "plain.csv")]) == 0
    assert main([*flags, "--m", "3", "--out", str(tmp_path / "m.csv")]) == 0
    assert (tmp_path / "plain.csv").read_bytes() == (tmp_path / "m.csv").read_bytes()


def test_trace_of_a_run_index_is_that_run_of_the_swept_cell(tmp_path, capsys):
    flags = ["--mode", "asym", "--m", "2", "--nodes", "4", "--channels", "5", "--activity", "mix",
             "--seed", "2", "--max-slots", "300"]
    args = build_parser().parse_args(["run", *flags, "--runs", "2", "--out", str(tmp_path / "run")])
    config = _one_cell_config(args)
    (result,) = run_group(cells(config), config.runs, config.base_seed)
    assert main(["trace", *flags, "--run-index", "1", "--out", str(tmp_path / "trace.csv")]) == 0
    lines = [
        f"# ttr_half_slots=[{', '.join(map(str, r.ttr_half_slots))}] packets={r.packets} rendezvous={r.rendezvous}"
        for r in result.records
    ]
    assert lines[0] != lines[1]
    assert capsys.readouterr().err.splitlines() == [lines[1]]


def test_run_no_longer_takes_trace(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--nodes", "2", "--runs", "1", "--trace", "--out", str(tmp_path / "out")])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_symmetric_run_summary_ignores_cleared_m_and_k(tmp_path, capsys):
    # the symmetric cell runs the full pool, so its summary echoes no k either
    flags = ["run", "--mode", "sym", "--nodes", "3", "--channels", "4", "--seed", "2", "--runs", "1"]
    assert main([*flags, "--out", str(tmp_path / "plain")]) == 0
    assert main([*flags, "--m", "3", "--k", "2", "--out", str(tmp_path / "mk")]) == 0
    for name in ("data.csv", "summary.json"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "mk" / name).read_bytes()


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("mode", [
    pytest.param({"mode": "sym", "m": None, "per_node_size": None}, id="sym"),
    pytest.param({"mode": "asym", "m": 2, "per_node_size": 4}, id="asym"),
])
def test_every_scenario_flag_reaches_its_cell(command, mode, tmp_path):
    rates = tmp_path / "rates.json"
    rates.write_text("[[1.0, 1.0]]")
    positions = tmp_path / "positions.txt"
    positions.write_text("0 0 0\n1 50 0\n2 100 0\n")
    args = build_parser().parse_args([
        command, "--protocol", "memca", "--handshake", "2wh", "--nodes", "3", "--channels", "6",
        "--mode", mode["mode"], "--m", "2", "--k", "4", "--activity", "mix",
        "--max-slots", "700", "--area", "300x200", "--range", "90",
        "--completion-mode", "silent", "--emca-window", "4", "--share-unconfirmed",
        "--rates", str(rates), "--positions", str(positions), "--seed", "9",
        *(["--runs", "2", "--out", str(tmp_path / "out")] if command == "run" else []),
    ])
    config = _one_cell_config(args)
    assert config.base_seed == 9 and (command == "trace" or config.runs == 2)
    assert cells(config) == [Scenario(
        nodes=3, channels=6, activity="mix", protocol="memca", handshake="2wh",
        area=(300.0, 200.0), radio_range=90.0, max_slots=700, completion_mode="silent",
        emca_window=4.0, share_unconfirmed_links=True, rates_table=((1.0, 1.0),),
        positions=((0.0, 0.0), (50.0, 0.0), (100.0, 0.0)), **mode,
    )]


@pytest.mark.parametrize("command", ["run", "trace"])
@pytest.mark.parametrize("flags", [
    ["--nodes", "3,10"], ["--channels", "4,5"], ["--mode", "asym", "--m", "2,3"], ["--nodes", ""],
])
def test_run_and_trace_take_one_value_per_flag(command, flags, tmp_path, capsys):
    assert main([command, *flags, "--max-slots", "50", "--out", str(tmp_path / "x")]) == 2
    assert "one value per flag" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    pytest.param(["run", "--area", "nanx400"], id="area-nan"),
    pytest.param(["run", "--area", "infx400"], id="area-inf"),
    pytest.param(["run", "--range", "nan"], id="range-nan"),
    pytest.param(["run", "--emca-window", "nan"], id="emca-window-nan"),
    pytest.param(["sweep", "--config", "{cfg}"], id="config-radio-range-nan"),
    pytest.param(["trace", "--run-index", "-1"], id="negative-run-index"),
])
def test_out_of_range_value_exits_2(argv, tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("nodes = 3\nruns = 1\nradio_range = nan\n")
    argv = [str(cfg) if a == "{cfg}" else a for a in argv]
    assert main([*argv, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


def test_channel_count_past_the_cap_exits_2(tmp_path, capsys):
    argv = ["run", "--nodes", "2", "--channels", str(MAX_CHANNELS + 1), "--max-slots", "5",
            "--runs", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(MAX_CHANNELS) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("nodes", [MAX_NODES + 1, 100_000])
def test_node_count_past_the_cap_exits_2(nodes, tmp_path, capsys):
    # Refused before any topology is built: past the cap the pair tables
    # alone would take gigabytes.
    argv = ["run", "--nodes", str(nodes), "--max-slots", "1", "--runs", "1", "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nodes") and str(MAX_NODES) in err
    assert not (tmp_path / "out").exists()


def test_infeasible_run_exits_2_and_still_writes_its_files(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--nodes", "3", "--area", "1000x1000", "--range", "1", "--runs", "1",
                 "--out", str(out)]) == 2
    assert "infeasible_cells" in capsys.readouterr().err
    summary = json.loads((out / "summary.json").read_text())
    assert len(summary["infeasible_cells"]) == 1 and summary["cells"] == []
    assert (out / "data.csv").exists()


def test_sweep_line_counts_infeasible_cells(tmp_path, capsys):
    # a lone node is always connected; three nodes 1 m apart at most never are
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("protocols = mdmca\nhandshakes = 3wh\nnodes = 1, 3\nruns = 1\n"
                   "max_slots = 50\narea = 1000x1000\nradio_range = 1\n")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    assert "1 cells, 1 infeasible ->" in capsys.readouterr().out


@pytest.mark.parametrize("argv, content", [
    pytest.param(["run", "--rates", "{path}"], None, id="rates-missing"),
    pytest.param(["run", "--rates", "{path}"], "[[1]]", id="rates-malformed"),
    pytest.param(["run", "--rates", "{path}"], "[[NaN, 1.0]]", id="rates-nan"),
    pytest.param(["run", "--rates", "{path}"], "[[Infinity, 1.0]]", id="rates-infinity"),
    pytest.param(["run", "--rates", "{path}"], "[[-1.0, 1.0]]", id="rates-negative"),
    pytest.param(["run", "--rates", "{path}"], "[[0.0, 0.0]]", id="rates-degenerate"),
    pytest.param(["run", "--positions", "{path}"], None, id="positions-missing"),
    pytest.param(["run", "--positions", "{path}"], "0 a 1\n", id="positions-malformed"),
    pytest.param(["sweep", "--config", "{path}"], None, id="config-missing"),
    pytest.param(["check-table1", "--rates", "{path}"], None, id="table1-rates-missing"),
])
def test_bad_input_file_exits_2(argv, content, tmp_path, capsys):
    path = tmp_path / "input"
    if content is not None:
        path.write_text(content)
    argv = [str(path) if a == "{path}" else a for a in argv]
    if argv[0] != "check-table1":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


@pytest.mark.parametrize("line", ["1 nan 0", "1 inf 0"])
def test_non_finite_position_exits_2_naming_its_line(line, tmp_path, capsys):
    path = tmp_path / "positions.txt"
    path.write_text(f"0 0 0\n{line}\n")
    argv = ["run", "--nodes", "2", "--positions", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}:2: ") and "Warning" not in err


def test_invalid_arguments_return_error(capsys, tmp_path):
    # m out of range, m missing, and an m that is not a similarity ratio
    for m_flags in (["--m", "40"], [], ["--m", "sym"]):
        code = main([
            "run", "--mode", "asym", *m_flags, "--nodes", "3", "--channels", "10",
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--area", "400"], ["--emca-window", "abc"]])
def test_malformed_scenario_flag_exits_2(flags, capsys, tmp_path):
    code = main(["run", "--nodes", "3", "--runs", "1", *flags, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_worker_count_exits_2(monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("CRHOP_WORKERS", "x")
    code = main(["run", "--nodes", "3", "--runs", "1", "--max-slots", "50",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "CRHOP_WORKERS" in capsys.readouterr().err


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_worker_count_below_one_exits_2(workers, monkeypatch, capsys, tmp_path):
    monkeypatch.setenv("CRHOP_WORKERS", workers)
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("protocols = mdmca\nhandshakes = 3wh\nnodes = 3\nruns = 1\nmax_slots = 50\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "CRHOP_WORKERS" in err
    assert not (tmp_path / "sw").exists()


@pytest.mark.parametrize("line", [
    "runs = abc", "nodes = 3, x", "modes = sym, x", "radio_range = far",
])
def test_malformed_config_value_exits_2(line, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n")
    code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "sw")])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and line.split(" =")[0] in err


def test_rates_table_without_a_row_for_the_class_exits_2(tmp_path, capsys):
    # a high profile reads rows 4, 8, ...; two rows hold none of them
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps([[1.0, 1.0], [2.0, 0.5]]))
    code = main(["run", "--nodes", "3", "--runs", "1", "--activity", "high",
                 "--rates", str(rates), "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_short_rates_table_exits_2_before_making_the_output_directory(command, tmp_path, capsys):
    # a high profile reads rows 4, 8, ...; two rows hold none of them
    rates = tmp_path / "rates.json"
    rates.write_text(json.dumps([[1.0, 1.0], [2.0, 0.5]]))
    if command == "run":
        flags = ["--nodes", "3", "--runs", "1", "--activity", "high", "--rates", str(rates)]
    else:
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(f"rates_file = {rates}\nactivities = zero,high\nnodes = 3\nruns = 1\n")
        flags = ["--config", str(cfg)]
    assert main([command, *flags, "--out", str(tmp_path / "out")]) == 2
    assert "needs a rates table of at least 4 rows, got 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_positions_reach_the_sweep_outputs(tmp_path):
    positions = tmp_path / "chain.txt"
    positions.write_text("0 0 0\n1 90 0\n2 180 0\n")
    flags = ["--nodes", "3", "--channels", "4", "--seed", "7", "--runs", "3", "--max-slots", "500"]
    assert main(["run", *flags, "--positions", str(positions), "--out", str(tmp_path / "cli")]) == 0
    config = SweepConfig(
        protocols=("mdmca",), handshakes=("3wh",), nodes=(3,), channels=(4,), modes=("sym",),
        activities=("zero",), runs=3, base_seed=7, max_slots=500,
        positions=((0.0, 0.0), (90.0, 0.0), (180.0, 0.0)),
    )
    run_sweep(config, str(tmp_path / "lib"))
    assert main(["run", *flags, "--out", str(tmp_path / "random")]) == 0
    data = (tmp_path / "cli" / "data.csv").read_bytes()
    assert data == (tmp_path / "lib" / "data.csv").read_bytes()
    assert data != (tmp_path / "random" / "data.csv").read_bytes()


def test_trace_into_a_directory_exits_2(tmp_path, capsys):
    assert main(["trace", "--nodes", "2", "--max-slots", "5", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("command, flags", [
    ("run", ["--runs", "1"]),
    ("sweep", ["--runs", "1", "--protocols", "mdmca", "--handshakes", "3wh"]),
])
def test_output_under_a_file_exits_2_before_any_cell_runs(command, flags, monkeypatch, tmp_path, capsys):
    def no_cell_may_run(*args, **kwargs):
        raise AssertionError("a cell ran before its output directory was made")

    monkeypatch.setattr(experiment, "build_environment", no_cell_may_run)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert main([command, "--nodes", "2", "--max-slots", "5", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def _load_script(name):
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_handshake_study_without_runs_exits_2(capsys):
    assert _load_script("handshake_study").main(["--runs", "0", "--nodes", "2"]) == 2
    assert "error: summarize needs at least one run record" in capsys.readouterr().err


def test_full_grid_without_runs_exits_2(tmp_path, capsys):
    assert _load_script("run_full_grid").main(["--runs", "0", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: runs must be >= 1, got 0\n"


def test_full_grid_under_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub"
    assert _load_script("run_full_grid").main(["--runs", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out / 'sym10'}: ")


def test_trace_of_a_failed_run_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    flags = ["--nodes", "2", "--area", "10000x10000", "--range", "1"]  # no connected placement
    assert main(["trace", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: no connected placement")
    assert list(tmp_path.iterdir()) == []


def test_trace_replaces_an_existing_file_and_leaves_nothing_beside_it(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    out.write_text("old\n")
    assert main(["trace", "--nodes", "2", "--max-slots", "5", "--out", str(out)]) == 0
    assert out.read_text().startswith("slot,half,channel,kind,sender,receiver,pr\n")
    assert list(tmp_path.iterdir()) == [out]
