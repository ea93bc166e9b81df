"""The benchmark's own tests: `python3 -m pytest perfbench`."""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import golden
import run
import tracing
import workloads

TINY = {"grid": 1, "setup-bound": 12, "loop-bound": 1}
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def crhop():
    return workloads.import_crhop()


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_reports_every_named_metric_with_its_unit(crhop, name, trace, section):
    result, lines = run.measure(name, 5, 0.1, trace, size=TINY[name], probes=1)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for metric in want:
        assert any(line.startswith(metric + " ") for line in lines), metric
    assert any(line.startswith("failed_ratio ") for line in lines)
    assert json.loads(lines[-1].split(" ", 1)[1])["serial"] is True


def test_benchmark_json_lists_the_layer_table(crhop):
    assert SPEC["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in tracing.LAYER_METRICS
    ]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_digest_checker_rejects_a_hand_altered_record(crhop):
    wl = workloads.setup_bound(5, 3)
    p = wl.run_pass(0)
    recorded = {"setup-bound": {"5": {"size": 3, "blocks": [golden.block_digest(p)]}}}
    assert golden.check(recorded, "setup-bound", 5, 3, 0, p) == ("checked", set())
    reference = dataclasses.replace(p, digests=dict(p.digests))

    key, scenario, seed = wl.ops(0)[1]
    record = crhop.engine.run(scenario, seed)
    altered = dataclasses.replace(record, packets=record.packets + 1)
    p.digests[key] = workloads.record_digest(altered)
    assert golden.mismatched_ops(reference, p) == {key}
    assert golden.check(recorded, "setup-bound", 5, 3, 0, p) == ("checked", set(p.digests))


def test_digest_checker_fails_a_sub_sweep_whose_file_changed(crhop):
    p = workloads.GridWorkload(5, 1).run_pass(0)
    reference = dataclasses.replace(p, files=dict(p.files))
    p.files["asym10/summary.json"] = "0" * 16
    bad = golden.mismatched_ops(reference, p)
    assert bad and all(k.startswith("asym10/") for k in bad)
    assert len(bad) == sum(k.startswith("asym10/") for k in p.digests)
    assert golden.block_digest(p) != golden.block_digest(reference)


def test_golden_check_is_skipped_only_for_unrecorded_seeds_and_blocks(crhop):
    p = workloads.setup_bound(golden.DEFAULT_SEED, 2).run_pass(0)
    recorded = {"setup-bound": {str(golden.DEFAULT_SEED): {"size": 2, "blocks": [golden.block_digest(p)]}}}
    assert golden.check(recorded, "setup-bound", golden.DEFAULT_SEED, 2, 0, p) == ("checked", set())
    assert golden.check(recorded, "setup-bound", golden.DEFAULT_SEED, 2, 1, p)[0] == "unchecked"
    assert golden.check(recorded, "setup-bound", 99, 2, 0, p)[0] == "unchecked"


def test_blocks_are_fixed_by_seed_and_index_and_never_repeat(crhop):
    wl = workloads.setup_bound(5, 3)
    assert wl.ops(1) == workloads.setup_bound(5, 3).ops(1)
    assert not {seed for _, _, seed in wl.ops(0)} & {seed for _, _, seed in wl.ops(1)}
    grid = workloads.GridWorkload(5, 3)
    assert {c.base_seed for c in grid.sweeps(0).values()} == {5}
    assert {c.base_seed for c in grid.sweeps(1).values()} == {workloads.run_seed("grid", 5, 1)}


def test_tracer_restores_every_attribute_and_keeps_results(crhop):
    wl = workloads.setup_bound(5, 4)
    targets = list(tracing._targets(crhop))
    before = [vars(owner).get(attr) for owner, attr, _ in targets]
    original_run = crhop.engine.run
    untraced = wl.run_pass(0)
    with tracing.Tracer(crhop) as tracer:
        assert crhop.engine.run is not original_run
        traced = wl.run_pass(0)
    assert tracer.restored
    assert [vars(owner).get(attr) for owner, attr, _ in targets] == before
    assert traced.digests == untraced.digests
    runs = [s for s in tracer.spans if s["name"] == "engine.run"]
    assert len(runs) == len(wl.ops(0))
    assert all(s["counts"]["protocols.select"][0] > 0 for s in runs)


def test_exits_nonzero_without_printing_a_result_outside_a_checkout(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out", "work"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
