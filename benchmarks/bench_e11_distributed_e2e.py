"""E11: compositional system analysis on distributed update sweeps.

The MCC's distributed admission workload re-runs the system-level fixpoint
on models that differ from the previous candidate in a single task — the
same near-identical-input pattern the incremental CPA engine (E9) and the
fleet batching (E10) exploit on single processors.  This benchmark measures
it end-to-end: a sensor -> CAN -> control -> CAN -> actuator system over two
ECUs is re-analysed across an update sweep, once cold (every step re-derives
every busy window from scratch) and once through one
:class:`~repro.analysis.compositional.SystemAnalysis` backed by a shared
:class:`~repro.analysis.cache.AnalysisCache`, whose misses the analysis's
own incremental engine answers.

The cached/incremental path must produce identical verdicts and clear a
2x speedup; both land in ``BENCH_e11_distributed_e2e.json``.
"""

from __future__ import annotations

import time
from typing import List, Tuple

import pytest

from conftest import print_table, quick_mode, write_bench_record
from repro.analysis.cache import AnalysisCache
from repro.analysis.compositional import (CauseEffectChain, FrameSpec,
                                          SystemAnalysis, SystemModel)
from repro.platform.tasks import Task, TaskSet
from repro.sim.random import SeededRNG

#: Timed samples of each arm of the speedup comparison.
SAMPLES = 5

CHAIN = CauseEffectChain("e2e", hops=(
    ("ecu1", "sensor"), ("can0", "sensor_data"), ("ecu2", "control"),
    ("can0", "actuator_cmd"), ("ecu1", "actuator")), deadline=0.2)


def _background_tasks(prefix: str, seed: int, n: int,
                      utilization: float) -> List[Task]:
    rng = SeededRNG(seed)
    utilizations = rng.uunifast(n, utilization)
    periods = rng.log_uniform_periods(n, 0.005, 0.1)
    return [Task(f"{prefix}{index}", period=period,
                 wcet=max(1e-6, u * period), priority=10 + index)
            for index, (u, period) in enumerate(zip(utilizations, periods))]


def _build_model(ecu1_tasks: List[Task], ecu2_tasks: List[Task],
                 frames: List[FrameSpec]) -> SystemModel:
    model = SystemModel()
    model.add_processor("ecu1", TaskSet(ecu1_tasks))
    model.add_processor("ecu2", TaskSet(ecu2_tasks))
    model.add_bus("can0", frames, bitrate_bps=500_000.0)
    model.connect("ecu1", "sensor", "can0", "sensor_data")
    model.connect("can0", "sensor_data", "ecu2", "control")
    model.connect("ecu2", "control", "can0", "actuator_cmd")
    model.connect("can0", "actuator_cmd", "ecu1", "actuator")
    return model


def _update_sweep(steps: int, n: int) -> List[SystemModel]:
    """One model per update step; step k scales one background task's WCET.

    This is the admission workload shape: every candidate differs from its
    predecessor in a single component of a single ECU.
    """
    chain1 = [Task("sensor", period=0.02, wcet=0.004, priority=0),
              Task("actuator", period=0.02, wcet=0.002, priority=1)]
    chain2 = [Task("control", period=0.02, wcet=0.005, priority=0)]
    base1 = _background_tasks("a", seed=1, n=n, utilization=0.65)
    base2 = _background_tasks("b", seed=2, n=n, utilization=0.65)
    frames = [FrameSpec("sensor_data", can_id=0x100, period=0.02, dlc=8),
              FrameSpec("actuator_cmd", can_id=0x110, period=0.02, dlc=4),
              FrameSpec("bg0", can_id=0x080, period=0.01, dlc=8),
              FrameSpec("bg1", can_id=0x200, period=0.05, dlc=8)]
    rng = SeededRNG(99)
    models = [_build_model(chain1 + base1, chain2 + base2, frames)]
    for step in range(steps - 1):
        if step % 2 == 0:
            victim = step // 2 % n
            base1 = [t.scaled(rng.uniform(1.02, 1.1)) if i == victim else t
                     for i, t in enumerate(base1)]
        else:
            victim = step // 2 % n
            base2 = [t.scaled(rng.uniform(1.02, 1.1)) if i == victim else t
                     for i, t in enumerate(base2)]
        models.append(_build_model(chain1 + base1, chain2 + base2, frames))
    return models


def _verdicts(results) -> List[Tuple]:
    verdicts = []
    for result in results:
        wcrts = tuple(sorted(
            (resource, item, per_item[item].wcrt)
            for resource, per_item in result.results.items()
            for item in per_item))
        verdicts.append((result.converged, result.diverged, result.schedulable,
                         result.chain_latency(CHAIN), wcrts))
    return verdicts


@pytest.mark.benchmark(group="e11-distributed")
def test_e11_incremental_system_analysis_speedup(benchmark):
    """Cached/incremental system re-analysis vs cold, on an update sweep.

    Asserts bit-identical verdicts (fixpoint flags, schedulability, WCRTs,
    chain latencies) and a >= 2x speedup; writes the E11 perf record.
    """
    quick = quick_mode()
    models = _update_sweep(steps=12 if quick else 24, n=12 if quick else 16)

    def cold_sweep():
        return [SystemAnalysis(incremental=False).analyse(model)
                for model in models]

    def warm_sweep():
        analysis = SystemAnalysis(cache=AnalysisCache())
        return analysis, [analysis.analyse(model) for model in models]

    # The arms alternate sample by sample and each takes its minimum, so a
    # slow spell of the host hits both arms rather than whichever ran in it.
    cold_times, warm_times = [], []
    for _ in range(SAMPLES):
        started = time.perf_counter()
        cold_results = cold_sweep()
        cold_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        analysis, warm_results = warm_sweep()
        warm_times.append(time.perf_counter() - started)
    cold_s, warm_s = min(cold_times), min(warm_times)
    benchmark(lambda: warm_sweep()[1][-1].schedulable)

    assert _verdicts(cold_results) == _verdicts(warm_results)
    assert all(result.converged for result in cold_results)

    cache = analysis.cache
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    payload = {
        "update_steps": len(models),
        "cold_s": cold_s,
        "incremental_s": warm_s,
        "speedup": speedup,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
        "cache_hit_rate": cache.hit_rate,
        "engine_reuse_rate": analysis.engine.reuse_rate,
        "fixpoint_iterations_last": warm_results[-1].iterations,
        "chain_latency_last_s": warm_results[-1].chain_latency(CHAIN),
    }
    print_table("E11: incremental vs cold system analysis on an update sweep "
                "(target: >= 2x)", [payload])
    write_bench_record("e11_distributed_e2e", payload)
    assert speedup >= 2.0


@pytest.mark.benchmark(group="e11-distributed")
def test_e11_jitter_aware_vs_naive_chain_bound(benchmark):
    """The jitter-aware chain bound never exceeds the naive WCRT summation;
    report the tightening on the sweep's models."""
    models = _update_sweep(steps=6, n=6)

    def evaluate():
        analysis = SystemAnalysis(cache=AnalysisCache())
        ratios = []
        for model in models:
            result = analysis.analyse(model)
            aware = result.chain_latency(CHAIN)
            if aware is None:
                continue  # unbounded hop: neither side claims a bound
            per_hop = [result.result_of(resource, item).wcrt
                       for resource, item in CHAIN.hops]
            if any(wcrt is None for wcrt in per_hop):
                continue
            ratios.append(aware / sum(per_hop))
        return ratios

    ratios = benchmark(evaluate)
    rows = [{"metric": "jitter-aware / naive summation",
             "min": min(ratios), "mean": sum(ratios) / len(ratios),
             "max": max(ratios)}]
    print_table("E11: end-to-end bound tightening", rows)
    assert max(ratios) <= 1.0 + 1e-9
    assert min(ratios) < 1.0  # propagation pays the burst only once
