"""E10 (parallel): the batched campaign engine at a 500-vehicle fleet.

Three claims of the campaign engine are regenerated and asserted:

* **Speedup with identical verdicts.**  Batched in-process admission
  (equivalence dedupe, shared cache with persistent snapshot) must admit
  a 500-vehicle campaign at least 2x faster than the sequential
  per-vehicle baseline, wave records byte-identical.
* **Persistent warm-start.**  A re-run over the same fleet warm-starts
  from the previous run's on-disk snapshot: fewer busy-window derivations,
  identical records.
* **Checkpoint/resume.**  A campaign halted mid-rollout by its wave policy
  resumes — after the policy is remediated — from the written checkpoint to
  the exact final result of an uninterrupted campaign.

The measured quantities land in ``BENCH_e10_parallel_campaign.json``.
"""

from __future__ import annotations

import os
import time
from typing import Optional, Tuple

import pytest

from conftest import (print_table, provisioned_fleet, quick_mode,
                      write_bench_record)
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import (Campaign, CampaignCheckpoint,
                                  CampaignResult, WavePolicy)
from repro.fleet.vehicle import FleetSpec
from repro.scenarios.fleet_campaign import add_component_update

SEED = 1  # halts at wave >= 1 under the strict policy, at both bench sizes


def _digest(result: CampaignResult) -> Tuple:
    return (result.fleet_size, result.admitted, result.rejected,
            result.deviating, result.refined, result.rolled_back,
            result.halted, result.halted_wave,
            [record.to_dict() for record in result.waves])


def _dimensions() -> Tuple[int, int]:
    quick = quick_mode()
    return (60 if quick else 500), (4 if quick else 8)


def _run(batched: bool, cache_path: Optional[str] = None,
         failure_rate: float = 0.0, policy: Optional[WavePolicy] = None,
         checkpoint_path: Optional[str] = None
         ) -> Tuple[float, CampaignResult]:
    """Fresh fleet, one timed campaign run (admission only)."""
    fleet_size, num_variants = _dimensions()
    spec = FleetSpec(size=fleet_size, seed=SEED, num_variants=num_variants)
    cache = AnalysisCache(max_entries=16384) if batched else None
    fleet = provisioned_fleet(spec, cache)
    campaign = Campaign(fleet, add_component_update(), policy=policy,
                        analysis_cache=cache, batch_admission=batched,
                        cache_path=cache_path,
                        failure_injection_rate=failure_rate,
                        feedback_seed=SEED, checkpoint_path=checkpoint_path)
    started = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - started, result


@pytest.mark.benchmark(group="e10-parallel")
def test_e10_batched_engine_speedup_and_parity(benchmark, tmp_path):
    """Batched admission >= 2x over sequential admission, verdicts
    identical; min-of-2 timing on both sides."""
    fleet_size, num_variants = _dimensions()

    sequential_s = float("inf")
    batched_s = float("inf")
    sequential_result: Optional[CampaignResult] = None
    batched_result: Optional[CampaignResult] = None
    for repeat in range(2):
        elapsed, sequential_result = _run(batched=False)
        sequential_s = min(sequential_s, elapsed)
        cache_path = str(tmp_path / f"timed-{repeat}.pkl")
        elapsed, batched_result = _run(batched=True, cache_path=cache_path)
        batched_s = min(batched_s, elapsed)
    benchmark(lambda: _run(batched=True)[1])

    assert _digest(batched_result) == _digest(sequential_result)
    assert batched_result.admitted == fleet_size  # clean rollout, whole fleet
    speedup = sequential_s / batched_s if batched_s > 0 else float("inf")
    row = {
        "fleet_size": fleet_size,
        "num_variants": num_variants,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "admitted": batched_result.admitted,
        "waves": len(batched_result.waves),
    }
    print_table("E10: batched campaign engine vs sequential admission "
                "(target: >= 2x)", [row])
    write_bench_record("e10_parallel_campaign", row)
    assert speedup >= 2.0


@pytest.mark.benchmark(group="e10-parallel")
def test_e10_persistent_cache_warm_start(benchmark, tmp_path):
    """A re-run over the same fleet warm-starts from the saved snapshot:
    strictly fewer analysis misses, identical campaign records."""
    cache_path = str(tmp_path / "warm.pkl")
    cold_s, cold = _run(batched=True, cache_path=cache_path)
    warm_s, warm = _run(batched=True, cache_path=cache_path)
    benchmark(lambda: _run(batched=True, cache_path=cache_path)[1])

    assert _digest(warm) == _digest(cold)
    assert warm.cache_misses < cold.cache_misses
    assert warm.cache_hits > 0
    rows = [{"run": "cold", "wall_s": cold_s, "cache_hits": cold.cache_hits,
             "cache_misses": cold.cache_misses},
            {"run": "warm", "wall_s": warm_s, "cache_hits": warm.cache_hits,
             "cache_misses": warm.cache_misses}]
    print_table("E10: persistent snapshot warm-start (identical records)",
                rows)


@pytest.mark.benchmark(group="e10-parallel")
def test_e10_checkpoint_resume_roundtrip(benchmark, tmp_path):
    """A halted campaign resumes from its checkpoint — remediated — to the
    same final result as an uninterrupted campaign."""
    fleet_size, num_variants = _dimensions()
    strict = WavePolicy(canary_size=2, wave_fractions=(0.1, 0.3, 1.0),
                        max_failure_rate=0.1)
    tolerant = WavePolicy(canary_size=2, wave_fractions=(0.1, 0.3, 1.0),
                          max_failure_rate=1.0)
    checkpoint_path = str(tmp_path / "halted.ckpt")

    halted_s, halted = _run(batched=True, failure_rate=0.3,
                            policy=strict, checkpoint_path=checkpoint_path)
    assert halted.halted and halted.halted_wave >= 1  # a mid-campaign halt
    assert os.path.exists(checkpoint_path)

    _, reference = _run(batched=True, failure_rate=0.3,
                        policy=tolerant)

    def resume() -> CampaignResult:
        spec = FleetSpec(size=fleet_size, seed=SEED,
                         num_variants=num_variants)
        cache = AnalysisCache(max_entries=16384)
        fleet = provisioned_fleet(spec, cache)
        campaign = Campaign(fleet, add_component_update(), policy=tolerant,
                            analysis_cache=cache, failure_injection_rate=0.3,
                            feedback_seed=SEED)
        return campaign.run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))

    started = time.perf_counter()
    resumed = resume()
    resume_s = time.perf_counter() - started
    benchmark(resume)

    assert _digest(resumed) == _digest(reference)
    rows = [{"fleet_size": fleet_size, "halted_wave": halted.halted_wave,
             "halted_s": halted_s, "resume_s": resume_s,
             "resumed_admitted": resumed.admitted,
             "reference_admitted": reference.admitted,
             "identical": _digest(resumed) == _digest(reference)}]
    print_table("E10: checkpoint/resume after remediation", rows)
