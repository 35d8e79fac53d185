"""Smoke test of the benchmark itself: a few frames per workload.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the output gate passes on real output and trips on a mismatched
counter, and that a vanished public name or a missing source tree
fails the run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402

SMOKE = ["--seconds", "0", "--max-frames", "2"]


def _bench_spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    spec = _bench_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in run.PER_LAYER]
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_metric_printed_with_its_unit():
    spec = _bench_spec()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *SMOKE],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}/{m['name']}": m["unit"]
                for w in spec["workloads"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("trace", [0, 1])
def test_single_workload_run_prints_its_metric_set(trace):
    spec = _bench_spec()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "desk-sweep",
         "--seed", "5", "--trace", str(trace), *SMOKE],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    metrics = _last_json(proc.stdout)["metrics"]
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in listed}


def _tamper(monkeypatch, edit):
    real = run.run_child

    def tampered(mode, spec, env):
        out = real(mode, spec, env)
        if mode == "measure":
            edit(out)
        return out

    monkeypatch.setattr(run, "run_child", tampered)


def _bump_repeat(out):
    out["reps"][1]["cells"][0]["bit_errors"] += 1


def _bump_edge_ops(out):
    out["reps"][0]["cells"][0]["edge_ops"] += 1


def _bump_traced(out):
    out["traced"]["cells"][-1]["global_errors"] += 1


@pytest.mark.parametrize("trace,edit,message", [
    (0, _bump_repeat, "repeat 1 vs repeat 0"),
    (0, _bump_edge_ops, "edge_ops"),
    (1, _bump_traced, "traced replay vs untraced sweep"),
])
def test_mismatched_counter_trips_the_gate(monkeypatch, capsys, trace, edit, message):
    _tamper(monkeypatch, edit)
    code = run.main(["--workload", "desk-sweep", "--trace", str(trace), *SMOKE])
    stdout = capsys.readouterr().out
    assert code == 1
    result = _last_json(stdout)
    assert result["correct"] is False and result["failed"] >= 1
    assert message in stdout


def test_pool_and_serial_counters_compared():
    a = [{"ebn0_db": 0.0, "iterations_limit": 10, "frames": 3, "global_errors": 1,
          "composite_errors": 2, "bit_errors": 5, "iter_sum": 30,
          "layer_decodes": 9, "edge_ops": 30, "iter_hist": {"10": 3}}]
    b = [dict(a[0], composite_errors=3)]
    assert run.counter_failures(a, a, "x") == []
    assert "composite_errors" in run.counter_failures(a, b, "x")[0]


def test_vanished_public_name_fails_with_that_name(monkeypatch):
    from gftmux.txrx import Transceiver

    monkeypatch.delattr(Transceiver, "multiplex")
    with pytest.raises(worker.MissingName, match="gftmux.txrx.Transceiver.multiplex"):
        worker.check_public_names()


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
