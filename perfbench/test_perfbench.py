"""Tests of the benchmark itself, at a few-second scale.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import measure, speed, workloads
from perfbench.spans import Spans

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
CATALOGUE = json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(section: str):
    return {metric["name"]: metric["unit"] for metric in CATALOGUE[section]}


def _printed_units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def _traced(name: str, tmp_path: Path):
    return measure.run(name, seed=3, seconds=0.2, trace=True, import_s=0.5,
                       scale=workloads.TINY, out_dir=str(tmp_path))


def test_catalogue_matches_the_code():
    assert [workload["name"] for workload in CATALOGUE["workloads"]] == \
        list(workloads.WORKLOADS)
    assert _units("end_to_end") == measure.END_TO_END
    assert _units("per_layer") == measure.PER_LAYER


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_untraced_run_prints_every_end_to_end_metric(name):
    completed = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", "3",
         "--seconds", "0.2", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= measure.fewest_samples(90)
    assert _printed_units(result) == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_traced_run_prints_every_per_layer_metric(name, tmp_path):
    from repro.contracts.model import Contract
    from repro.fleet import vehicle

    originals = (Contract.__dict__["requirement"], vehicle.generate_fleet)
    result = _traced(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert _printed_units(result) == _units("per_layer")
    assert (tmp_path / f"{name}-seed3.spans.npz").is_file()
    # The wrappers are gone once the run ends.
    assert (Contract.__dict__["requirement"], vehicle.generate_fleet) == originals


def test_same_seed_gives_identical_inputs_and_counts(tmp_path):
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 5).inputs(3) == \
            workloads.build(name, 5).inputs(3)
        assert workloads.build(name, 5).inputs(3) != \
            workloads.build(name, 6).inputs(3)
    counts = [name for name, unit in measure.PER_LAYER.items()
              if unit in ("count", "ratio") and not name.startswith("runtime.")]
    for name in workloads.WORKLOADS:
        first, second = (_traced(name, tmp_path)["metrics"] for _ in range(2))
        assert {metric: first[metric] for metric in counts} == \
            {metric: second[metric] for metric in counts}


def test_percentile_refuses_without_ten_samples_beyond_it():
    assert measure.percentile(range(1, 101), 90) == pytest.approx(90.1)
    assert measure.percentile(range(21), 50) == 10
    for values, q in ((range(91), 90), (range(19), 50), ((), 50)):
        with pytest.raises(ValueError):
            measure.percentile(values, q)
    # The floor a run sizes itself by is the refusal rule's own edge.
    for q in (50, 90):
        fewest = measure.fewest_samples(q)
        measure.percentile(range(fewest), q)
        with pytest.raises(ValueError):
            measure.percentile(range(fewest - 1), q)


@pytest.mark.parametrize("name", ["clustered_rollout", "tenant_mix"])
def test_each_unit_is_scaled_by_the_loops_around_it(name, monkeypatch):
    loops = iter([0.010, 0.030, 0.005, 0.020])
    monkeypatch.setattr(speed, "loop_seconds", lambda: next(loops))
    batches = workloads.build(name, 3, workloads.TINY).units(3)
    assert [batch.scale for batch in batches] == pytest.approx(
        [speed.REFERENCE_S / 0.020, speed.REFERENCE_S / 0.0175,
         speed.REFERENCE_S / 0.0125])


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    spans = Spans(clock=lambda: next(ticks))
    inner = spans.wrap("inner", lambda depth: inner(depth - 1) if depth else None)
    outer = spans.wrap("outer", lambda: inner(1))
    outer()
    # outer 0..10 holds inner 1..4.5, which holds a recursive inner 3..4.
    assert spans.profile() == {"inner": (2, 3.5, 3.5), "outer": (1, 10.0, 6.5)}
    assert spans.root_seconds() == 10.0
    assert spans.calls_under("inner", "outer") == 2


def test_refuses_to_run_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tenant_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert completed.returncode != 0
    assert "{" not in completed.stdout
