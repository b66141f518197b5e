"""Smoke tests of the benchmark itself: every workload, traced and untraced.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_end_to_end_metrics(workload, tmp_path):
    result, record = run.run(workload, 3, 0.05, 0, "smoke", tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.import_program().WORKLOADS[workload].prefix["smoke"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["trial_s_p50"] > 0 and record["trial_s_tail"] >= record["trial_s_p50"]
    assert record["degencomm_workers"] == "1" and not record["problems"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer(workload, tmp_path):
    result, record = run.run(workload, 3, 0.05, 1, "smoke", tmp_path)
    assert result["correct"] and record["missing_layers"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert (tmp_path / f"spans-{workload}.jsonl").stat().st_size > 0


def test_traced_counters_see_each_layer(tmp_path):
    seen = {}
    for workload in WORKLOADS:
        result, _ = run.run(workload, 3, 0.05, 1, "smoke", tmp_path)
        seen[workload] = {k: v["value"] for k, v in result["metrics"].items()}
    assert seen["gadget-audit"]["gadget.build_gadget.calls"] == 2
    assert seen["gadget-audit"]["reduction.trace_ok_ratio"] == 1
    assert seen["gadget-audit"]["cli.main.s"] > 0
    assert seen["two-party"]["protocols.probes"] >= 1
    assert seen["two-party"]["comm.ledger.bits"] == (
        seen["two-party"]["protocols.fast.bits"] + seen["two-party"]["protocols.sqrt.bits"])
    pool = run.import_program().SIZES["smoke"]["walk_pool"]
    assert seen["pointer-walk"]["comm.run_four_party.calls"] == 2 * pool
    assert seen["pointer-walk"]["hpc.misaligned.finished_ratio"] == 1
    assert seen["pointer-walk"]["setup.hpc.sample_bmhpc.s"] > 0
    assert seen["amplify"]["sisolver.rounds"] > 0
    assert seen["amplify"]["setup.hpc.sample_setint.calls"] == 10 * seen["amplify"]["sisolver.rounds"]
    assert seen["amplify"]["gadget.build_gadget.calls"] == 0


def test_second_run_agrees_and_a_changed_digest_fails(tmp_path):
    first, rec1 = run.run("pointer-walk", 5, 0.05, 0, "smoke", tmp_path)
    second, rec2 = run.run("pointer-walk", 5, 0.05, 0, "smoke", tmp_path)
    assert first["correct"] and second["correct"]
    assert rec1["digest"] == rec2["digest"] and rec1["counters"] == rec2["counters"]
    store = tmp_path / "determinism.json"
    entries = json.loads(store.read_text())
    for entry in entries.values():
        entry["digest"] = "0" * 64
    store.write_text(json.dumps(entries))
    third, rec3 = run.run("pointer-walk", 5, 0.05, 0, "smoke", tmp_path)
    assert not third["correct"] and "result digest" in rec3["problems"][0]


def test_tail_needs_ten_samples_beyond():
    assert run.tail([float(i) for i in range(100)]) == (89.0, 90.0, 10)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "two-party", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
