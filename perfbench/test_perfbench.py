"""Tests of the benchmark itself, on its toy-size smoke mode.

Run with `python -m pytest perfbench -q` from the repository root.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("prune-2k", "solve-225", "train-small")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# Per workload: per-layer metrics its traced run must move, and ones it must not.
LAYERS = {
    "prune-2k": (("scnet.run_forward_s",), ("nicp.solve_s", "training.backward_s")),
    "solve-225": (("nicp.solve_s", "nicp.accepted_steps"), ("scnet.run_forward_s", "training.backward_s")),
    "train-small": (("training.backward_s", "training.adam_s", "nicp.solve_s"), ()),
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180, check=False)
    return proc


def smoke(workload, seed, trace):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def test_benchmark_json_follows_the_contract():
    spec = load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    names = []
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["workloads"] + spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(m["name"]), m["name"]
        names.append(m["name"])
        if "unit" in m:
            assert UNIT.match(m["unit"]) and m.get("better", "lower") in ("lower", "higher")
    assert len(names) == len(set(names))
    assert len(json.dumps(spec)) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_matches_untraced_and_reaches_its_layers(workload):
    spec = load_spec()
    plain_report, plain = smoke(workload, 1, 0)
    traced_report, traced = smoke(workload, 1, 1)

    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for m in spec["end_to_end"]:
        row = plain["metrics"][m["name"]]
        assert row["unit"] == m["unit"] and row["value"] > 0
    for row in plain_report["table"].values():
        assert row["samples"] >= 1

    assert traced["correct"] and traced["failed"] == 0
    assert {name: row["unit"] for name, row in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec["per_layer"]}
    # instrumentation never changes a deterministic output
    assert traced_report["digest"] == plain_report["digest"]
    assert traced_report["unwrapped"] == []
    self_times = traced_report["self_time_per_cycle_s"]
    op_wall_s = traced["metrics"]["bench.op_wall_s"]["value"]
    assert sum(self_times.values()) == pytest.approx(op_wall_s, rel=1e-9)
    other = sum(t for name, t in self_times.items() if name.startswith("bench."))
    assert traced["metrics"]["bench.other_s"]["value"] == pytest.approx(other, rel=1e-9)
    moved, untouched = LAYERS[workload]
    assert all(traced["metrics"][name]["value"] > 0 for name in moved)
    assert all(traced["metrics"][name]["value"] == 0 for name in untouched)


def test_second_seed_runs_every_workload():
    proc = run_bench("--workload", "all", "--seed", "2", "--seconds", "1", "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in WORKLOADS:
        assert result["metrics"][f"{workload}/op_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("--workload", "prune-2k", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
