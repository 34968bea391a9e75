"""E14–E16 (adversity campaigns): hostile and degraded-world rollouts.

Three records cover the adversity layer (PR 8):

* **E14 intrusion.**  The defended/undefended pair under forged deviation
  reports: without the IDS countermeasure the over-reporting burst halts the
  rollout at the canary; with ``discount_suspected`` the forged reports are
  discounted and coverage reaches the whole fleet, with zero false suspects.
  The headline ``speedup`` pins the precedent-replay admission path *under
  adversity*: batched admission dedupes the per-variant integrations even
  while an adversity model rewrites feedback, so it must stay well ahead of
  per-vehicle sequential admission (the regression gate tracks this key).
* **E15 lossy OTA.**  Delivery accounting over a dropping network: retries
  and straggler waves recover full coverage within the retry budget.
* **E16 thermal.**  The heat-wave rollout: DVFS throttling inflates WCETs,
  verdicts flip in hot waves only and recover with the temperature.
"""

from __future__ import annotations

import time

import pytest

from conftest import (print_table, provisioned_fleet, quick_mode,
                      write_bench_record)
from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import IntrusionAdversity
from repro.fleet.campaign import Campaign, WavePolicy
from repro.fleet.vehicle import FleetSpec
from repro.scenarios.adversity_campaigns import (
    run_intrusion_campaign_scenario, run_lossy_ota_campaign_scenario,
    run_thermal_campaign_scenario)
from repro.scenarios.fleet_campaign import add_component_update

SEED = 7


def _fleet_size() -> int:
    return 16 if quick_mode() else 36


def _run_intrusion_admission(fleet_size: int, batch: bool):
    """Time one defended intrusion campaign's wave loop (admission only,
    fleet provisioning excluded — the E10 admission benchmark's protocol).

    The sequential baseline runs without the shared analysis cache, the
    same baseline E10 uses, so the two speedup trajectories stay
    comparable.  Returns ``(elapsed_s, result)``.
    """
    spec = FleetSpec(size=fleet_size, seed=SEED, num_variants=6,
                     extra_components=6)
    cache = AnalysisCache() if batch else None
    fleet = provisioned_fleet(spec, cache)
    policy = WavePolicy(canary_size=2, wave_fractions=(0.2, 0.5, 1.0),
                        max_failure_rate=0.2)
    campaign = Campaign(fleet, add_component_update(0.18), policy=policy,
                        analysis_cache=cache, batch_admission=batch,
                        feedback_seed=SEED,
                        adversity=IntrusionAdversity(compromise_rate=0.25,
                                                     seed=SEED))
    started = time.perf_counter()
    result = campaign.run()
    return time.perf_counter() - started, result


@pytest.mark.benchmark(group="e14-adversity")
def test_e14_intrusion_campaign_defense(benchmark):
    """Defended vs undefended forged-report campaigns, plus the batched-
    admission speedup under adversity (the regression-gated headline)."""
    fleet_size = _fleet_size()
    undefended = run_intrusion_campaign_scenario(
        fleet_size=fleet_size, seed=SEED, discount_suspected=False)
    defended = run_intrusion_campaign_scenario(
        fleet_size=fleet_size, seed=SEED, discount_suspected=True)

    assert undefended.halted  # the burst trips the undefended halt policy
    assert defended.completed and not defended.halted
    assert defended.update_coverage == 1.0
    assert defended.false_suspects == 0
    assert defended.true_suspects == defended.compromised > 0

    repeats = 3
    sequential_s = batched_s = float("inf")
    sequential = batched = None
    for _ in range(repeats):  # min-of-N, fresh fleet each run (run mutates)
        elapsed, sequential = _run_intrusion_admission(fleet_size,
                                                       batch=False)
        sequential_s = min(sequential_s, elapsed)
        elapsed, batched = _run_intrusion_admission(fleet_size, batch=True)
        batched_s = min(batched_s, elapsed)
    assert batched.admitted == sequential.admitted
    assert batched.halted == sequential.halted
    speedup = sequential_s / batched_s

    benchmark(lambda: run_intrusion_campaign_scenario(
        fleet_size=8, seed=SEED, num_variants=2, extra_components=2))

    row = {
        "fleet_size": fleet_size,
        "compromised": defended.compromised,
        "suspected": defended.suspected,
        "false_suspects": defended.false_suspects,
        "undefended_halted_wave": undefended.halted_wave,
        "defended_coverage": defended.update_coverage,
        "discounted_reports": defended.discounted,
        "sequential_admission_s": sequential_s,
        "batched_admission_s": batched_s,
        "speedup": speedup,
    }
    print_table("E14: forged deviation reports — IDS discount on vs off, "
                "batched-admission speedup under adversity", [row])
    write_bench_record("e14_intrusion_adversity", row)
    # The quick-mode fleet is less than half the size, so per-variant
    # dedupe has less to amortize — the smoke floor is correspondingly lower.
    assert speedup >= (1.2 if quick_mode() else 1.5)


@pytest.mark.benchmark(group="e14-adversity")
def test_e15_lossy_ota_delivery(benchmark):
    """Retry/straggler recovery over a lossy OTA network."""
    fleet_size = _fleet_size()
    result = run_lossy_ota_campaign_scenario(fleet_size=fleet_size,
                                             seed=SEED, drop_rate=0.3,
                                             max_retries=6)
    assert result.completed
    assert result.abandoned == 0 and result.update_coverage == 1.0
    assert result.drops == result.undelivered_events > 0

    benchmark(lambda: run_lossy_ota_campaign_scenario(
        fleet_size=8, seed=SEED, num_variants=2, extra_components=2))

    row = {
        "fleet_size": fleet_size,
        "drop_rate": result.drop_rate,
        "delivery_attempts": result.delivery_attempts,
        "drops": result.drops,
        "retried": result.retried,
        "abandoned": result.abandoned,
        "straggler_waves": result.straggler_waves,
        "update_coverage": result.update_coverage,
    }
    print_table("E15: lossy OTA rollout — drops recovered by retry and "
                "straggler waves", [row])
    write_bench_record("e15_lossy_ota", row)


@pytest.mark.benchmark(group="e14-adversity")
def test_e16_thermal_campaign(benchmark):
    """Verdict flips are confined to DVFS-throttled waves."""
    fleet_size = _fleet_size()
    result = run_thermal_campaign_scenario(fleet_size=fleet_size, seed=SEED,
                                           peak_ambient_c=90.0,
                                           update_utilization=0.35)
    assert result.verdicts_flipped
    assert result.hot_wave_rejections > 0
    assert result.cool_wave_rejections == 0
    assert result.min_speed_factor < 1.0

    benchmark(lambda: run_thermal_campaign_scenario(
        fleet_size=8, seed=SEED, num_variants=2, extra_components=2))

    row = {
        "fleet_size": fleet_size,
        "peak_ambient_c": result.peak_ambient_c,
        "throttled_waves": result.throttled_waves,
        "min_speed_factor": result.min_speed_factor,
        "hot_wave_rejections": result.hot_wave_rejections,
        "cool_wave_rejections": result.cool_wave_rejections,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "update_coverage": result.update_coverage,
    }
    print_table("E16: heat-wave rollout — DVFS-inflated WCET admission "
                "(hot waves reject, cool waves admit)", [row])
    write_bench_record("e16_thermal_campaign", row)
