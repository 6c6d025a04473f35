"""Tiny-size runs of every workload through the command's entry point:
each run passes its correctness check and emits every metric that
BENCHMARK.json names, with its unit."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(run.__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(
        w,
        problems=tuple(dataclasses.replace(p, unknowns=64) for p in w.problems),
        min_jobs=3,
        setup_reps=min(w.setup_reps, 2),
        trace_jobs=2,
    )


def _run(capsys, monkeypatch, tmp_path, name: str, trace: int, seed: int = 3):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(workloads.WORKLOADS[name]))
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0", "--trace", str(trace)])
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    from layers import PER_LAYER

    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(capsys, monkeypatch, tmp_path, name, trace):
    code, out = _run(capsys, monkeypatch, tmp_path, name, trace)
    assert code == 0
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace:
        assert (tmp_path / f"trace-{name}-seed3.npz").is_file()
        assert 0.0 < out["metrics"]["bench.span_coverage"]["value"] <= 1.0
    else:
        assert all(v["value"] > 0 for v in out["metrics"].values())


def test_second_seed_changes_inputs_and_still_passes(capsys, monkeypatch, tmp_path):
    w = workloads.WORKLOADS["serve_replay"]
    a, b = workloads.make_inputs(w, 1, 10), workloads.make_inputs(w, 2, 10)
    assert [k for k, _ in a.jobs] != [k for k, _ in b.jobs] or any(
        (x != y).any() for (_, x), (_, y) in zip(a.jobs, b.jobs)
    )
    same = workloads.make_inputs(w, 1, 10)
    assert all((x == y).all() for (_, x), (_, y) in zip(a.jobs, same.jobs))
    code, out = _run(capsys, monkeypatch, tmp_path, "fresh_gmres", 0, seed=11)
    assert code == 0 and out["correct"]


def test_wrong_solution_fails_the_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(workloads, "RESIDUAL_SLACK", 1e-12)
    code, out = _run(capsys, monkeypatch, tmp_path, "fresh_gmres", 0)
    assert code != 0
    assert out["correct"] is False and out["failed"] == out["attempted"]


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fresh_gmres", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
