"""E10: fleet-scale staged update campaigns through the MCC.

Regenerates the production-scale admission story: one logical update rolled
out across a heterogeneous fleet in staged waves.  The series reports

* batched admission (shared analysis cache + incremental engine + verdict
  dedupe across equivalent vehicles) versus per-vehicle sequential
  admission — verdict parity is asserted and the measured speedup must
  clear 1.5x (the quantity lands in ``BENCH_e10_fleet_campaign.json``,
  next to the batched run's provisioning, campaign and total seconds and
  the exact provisioning work: one admission report per baseline contract
  per variant, one acceptance battery run per variant whose baseline
  passes whole, its ``MappingEngine.map`` calls (one per variant whose
  baseline passes whole, because the later prefixes extend one carried
  mapping state, plus one per contract integrated on its own), and the
  platform models and acceptance batteries it builds: one of each per
  variant, never per vehicle).  Vehicles provision on first touch, so
  every run touches its whole fleet inside the provisioning timer: the
  campaign timer then covers admission alone, on both sides of the
  comparison;
* the staged-rollout safety net: failure injection drives the wave failure
  rate over the policy threshold, the campaign halts at the canary or an
  early wave and rolls the wave back, bounding the blast radius;
* a scale case, 10^5 vehicles in 8 variants (10^4 in quick mode), run in a
  fresh process so its peak RSS is its own
  (``BENCH_e10_fleet_scale.json``); it asserts work counters and coverage,
  never wall time.  Its campaign integrates once per variant and every
  other vehicle replays: ``campaign_integrations`` and
  ``campaign_replays`` count the ``request_change`` and ``replay_change``
  calls inside ``Campaign.run()``, and ``campaign_reports`` the
  ``IntegrationReport`` objects it builds, one per integration, because a
  replayed vehicle shares its precedent's report.

Run as a script (``python benchmarks/bench_e10_fleet_campaign.py --scale
N``) it prints the scale case's payload for an ``N``-vehicle fleet as JSON.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Tuple

import pytest

from conftest import (print_table, provisioned_fleet, quick_mode,
                      write_bench_record)
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, CampaignResult, WavePolicy
from repro.fleet.vehicle import (FleetSpec, generate_fleet, generate_variants,
                                 variant_contracts)
from repro.mcc.acceptance import TimingAcceptanceTest
from repro.mcc.configuration import IntegrationReport
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingEngine
from repro.platform.resources import Platform
from repro.scenarios.fleet_campaign import (add_component_update,
                                            run_fleet_campaign_scenario)

SCALE_VARIANTS = 8

#: Acceptance battery runs provisioning seed 0's variants, by variant
#: count.  None of the 4 quick-mode variants rejects an app, so each runs
#: its battery once.  Of the 8 full-mode and scale variants, variant 5
#: rejects two apps on timing, so its failed one-pass run and one run for
#: each of its 13 contracts replace its one run (7 + 1 + 13).
BATTERY_RUNS = {4: 4, 8: 21}

#: ``MappingEngine.map`` calls provisioning seed 0's variants, by variant
#: count.  A variant's one-pass maps its first prefix and places each later
#: contract in the mapping state it carries; an integration of one contract
#: maps once.  So each of the 4 quick-mode variants maps once, and of the 8
#: full-mode and scale variants, variant 5 adds one map per contract for
#: its 13 per-contract integrations (8 + 13).
MAP_CALLS = {4: 4, 8: 21}


@contextmanager
def _counting_provisioning() -> Iterator[Dict[str, int]]:
    """Provisioning's work inside the block: the admission reports
    ``MultiChangeController.request_changes`` returns (provisioning is its
    only caller), the acceptance battery runs inside it (timing is each
    default battery's first test, so its runs count the batteries), the
    ``MappingEngine.map`` calls, the ``Platform`` models built and the
    default batteries built (one ``TimingAcceptanceTest`` each)."""
    counts = {"reports": 0, "battery_runs": 0, "map_calls": 0,
              "platforms": 0, "batteries": 0}
    inside = [0]
    request_changes = MultiChangeController.request_changes
    timing_run = TimingAcceptanceTest.run
    engine_map = MappingEngine.map
    platform_init = Platform.__init__
    timing_init = TimingAcceptanceTest.__init__

    def counting_requests(self, requests):
        inside[0] += 1
        try:
            reports = request_changes(self, requests)
        finally:
            inside[0] -= 1
        counts["reports"] += len(reports)
        return reports

    def counting_timing(self, *args):
        counts["battery_runs"] += bool(inside[0])
        return timing_run(self, *args)

    def counting_map(self, *args, **kwargs):
        counts["map_calls"] += 1
        return engine_map(self, *args, **kwargs)

    def counting_platform(self, *args, **kwargs):
        counts["platforms"] += 1
        platform_init(self, *args, **kwargs)

    def counting_battery(self, *args, **kwargs):
        counts["batteries"] += 1
        timing_init(self, *args, **kwargs)

    MultiChangeController.request_changes = counting_requests
    TimingAcceptanceTest.run = counting_timing
    MappingEngine.map = counting_map
    Platform.__init__ = counting_platform
    TimingAcceptanceTest.__init__ = counting_battery
    try:
        yield counts
    finally:
        MultiChangeController.request_changes = request_changes
        TimingAcceptanceTest.run = timing_run
        MappingEngine.map = engine_map
        Platform.__init__ = platform_init
        TimingAcceptanceTest.__init__ = timing_init


@contextmanager
def _counting_admissions() -> Iterator[Dict[str, int]]:
    """The ``request_change`` and ``replay_change`` calls and the
    ``IntegrationReport`` constructions inside the block."""
    counts = {"request_change": 0, "replay_change": 0, "reports": 0}
    originals = {name: getattr(MultiChangeController, name)
                 for name in ("request_change", "replay_change")}
    report_init = IntegrationReport.__init__

    def counting(name):
        def wrapper(self, *args):
            counts[name] += 1
            return originals[name](self, *args)
        return wrapper

    def counting_report(self, *args, **kwargs):
        counts["reports"] += 1
        report_init(self, *args, **kwargs)

    for name in originals:
        setattr(MultiChangeController, name, counting(name))
    IntegrationReport.__init__ = counting_report
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(MultiChangeController, name, original)
        IntegrationReport.__init__ = report_init


def _baseline_contracts(spec: FleetSpec) -> int:
    """Baseline contracts summed over the fleet's distinct variants."""
    return sum(len(variant_contracts(variant, spec))
               for variant in generate_variants(spec))


def _campaign_run(batched: bool, fleet_size: int, num_variants: int,
                  failure_injection_rate: float = 0.0
                  ) -> Tuple[float, float, CampaignResult]:
    """Provision a fresh fleet and run one campaign over it.

    Returns (provisioning seconds, campaign seconds, result).
    """
    spec = FleetSpec(size=fleet_size, seed=0, num_variants=num_variants)
    cache = AnalysisCache() if batched else None
    started = time.perf_counter()
    fleet = provisioned_fleet(spec, cache)
    provisioned = time.perf_counter()
    campaign = Campaign(fleet, add_component_update(), analysis_cache=cache,
                        batch_admission=batched,
                        failure_injection_rate=failure_injection_rate)
    result = campaign.run()
    return provisioned - started, time.perf_counter() - provisioned, result


def _digest(result: CampaignResult) -> Tuple:
    return (result.admitted, result.rejected, result.deviating,
            result.rolled_back, result.halted, result.halted_wave,
            [record.to_dict() for record in result.waves])


@pytest.mark.benchmark(group="e10-fleet")
def test_e10_batched_vs_sequential_admission(benchmark):
    """Batched wave admission must beat per-vehicle sequential admission.

    Both sides run the identical staged campaign over the identical fleet;
    min-of-3 timing on each side so one scheduler stall cannot flip the
    assertion.  Verdict parity between the modes is asserted wave by wave.
    """
    quick = quick_mode()
    fleet_size = 16 if quick else 50
    num_variants = 4 if quick else 8

    sequential_s = float("inf")
    batched_s = float("inf")
    generation_s = float("inf")
    sequential_result: Optional[CampaignResult] = None
    batched_result: Optional[CampaignResult] = None
    for _ in range(3):
        _, elapsed, sequential_result = _campaign_run(False, fleet_size,
                                                      num_variants)
        sequential_s = min(sequential_s, elapsed)
        provisioning, elapsed, batched_result = _campaign_run(
            True, fleet_size, num_variants)
        batched_s = min(batched_s, elapsed)
        generation_s = min(generation_s, provisioning)
    benchmark(lambda: _campaign_run(True, fleet_size, num_variants)[2])

    spec = FleetSpec(size=fleet_size, seed=0, num_variants=num_variants)
    with _counting_provisioning() as provisioning:
        provisioned_fleet(spec, AnalysisCache())

    assert _digest(batched_result) == _digest(sequential_result)
    assert batched_result.admitted == fleet_size  # clean rollout covers the fleet
    speedup = sequential_s / batched_s if batched_s > 0 else float("inf")
    row = {
        "fleet_size": fleet_size,
        "num_variants": num_variants,
        "sequential_s": sequential_s,
        "batched_s": batched_s,
        "speedup": speedup,
        "admitted": batched_result.admitted,
        "waves": len(batched_result.waves),
        "cache_hits": batched_result.cache_hits,
        "cache_misses": batched_result.cache_misses,
        "engine_reuse_rate": batched_result.engine_reuse_rate,
        # The batched run end to end: provisioning, then the campaign
        # (each min-of-3; total_s is their sum).
        "generation_s": generation_s,
        "campaign_s": batched_s,
        "total_s": generation_s + batched_s,
        "provision_integrations": provisioning["reports"],
        "provision_battery_runs": provisioning["battery_runs"],
        "provision_map_calls": provisioning["map_calls"],
        "provision_platforms": provisioning["platforms"],
        "provision_batteries": provisioning["batteries"],
        "baseline_contracts": _baseline_contracts(spec),
    }
    print_table("E10: batched vs sequential fleet admission (target: >= 1.5x)",
                [row])
    write_bench_record("e10_fleet_campaign", row)
    assert speedup >= 1.5
    assert row["provision_integrations"] == row["baseline_contracts"]
    assert row["provision_battery_runs"] == BATTERY_RUNS[num_variants]
    assert row["provision_map_calls"] == MAP_CALLS[num_variants]
    assert row["provision_platforms"] == num_variants
    assert row["provision_batteries"] == num_variants


@pytest.mark.benchmark(group="e10-fleet")
def test_e10_failure_injection_bounds_blast_radius(benchmark):
    """Staged waves contain a bad update: coverage falls with the injected
    failure rate, and high rates halt at the canary with full rollback."""
    quick = quick_mode()
    fleet_size = 16 if quick else 50

    def sweep():
        rows = []
        for rate in (0.0, 0.3, 1.0):
            result = run_fleet_campaign_scenario(
                fleet_size=fleet_size, seed=0,
                num_variants=4 if quick else 8,
                failure_injection_rate=rate)
            rows.append({
                "failure_injection_rate": rate,
                "admitted": result.admitted,
                "deviating": result.deviating,
                "rolled_back": result.rolled_back,
                "halted": result.halted,
                "halted_wave": result.halted_wave,
                "update_coverage": result.update_coverage,
            })
        return rows

    rows = benchmark(sweep)
    print_table("E10: staged rollout under failure injection "
                f"({fleet_size} vehicles)", rows)
    coverages = [row["update_coverage"] for row in rows]
    assert coverages == sorted(coverages, reverse=True)
    assert rows[0]["update_coverage"] == 1.0 and not rows[0]["halted"]
    worst = rows[-1]
    assert worst["halted"] and worst["halted_wave"] == 0
    assert worst["update_coverage"] == 0.0  # canary rolled back, fleet untouched


@pytest.mark.benchmark(group="e10-fleet")
def test_e10_wave_policy_shapes_the_rollout(benchmark):
    """Conservative staging discovers a bad update earlier (fewer exposed
    vehicles) than an aggressive single-wave push."""
    quick = quick_mode()
    fleet_size = 16 if quick else 50

    def compare():
        policies = {
            "canary+staged": WavePolicy(canary_size=2,
                                        wave_fractions=(0.1, 0.3, 1.0),
                                        rollback_on_halt=False),
            "big-bang": WavePolicy(canary_size=0, wave_fractions=(1.0,),
                                   rollback_on_halt=False),
        }
        rows = []
        for name, policy in policies.items():
            spec = FleetSpec(size=fleet_size, seed=0,
                             num_variants=4 if quick else 8)
            cache = AnalysisCache()
            fleet = generate_fleet(spec, analysis_cache=cache)
            result = Campaign(fleet, add_component_update(), policy=policy,
                              analysis_cache=cache,
                              failure_injection_rate=1.0).run()
            rows.append({"policy": name, "exposed": result.admitted,
                         "deviating": result.deviating,
                         "halted_wave": result.halted_wave})
        return rows

    rows = benchmark(compare)
    print_table("E10: blast radius by wave policy (100% failure injection)",
                rows)
    staged = next(row for row in rows if row["policy"] == "canary+staged")
    big_bang = next(row for row in rows if row["policy"] == "big-bang")
    assert staged["exposed"] < big_bang["exposed"]


def _scale_payload(fleet_size: int) -> Dict[str, object]:
    """Provision and roll out one ``fleet_size``-vehicle fleet; this
    process's times, peak RSS and work counters."""
    spec = FleetSpec(size=fleet_size, seed=0, num_variants=SCALE_VARIANTS)
    cache = AnalysisCache()
    started = time.perf_counter()
    with _counting_provisioning() as provisioning:
        fleet = provisioned_fleet(spec, cache)
    provisioned = time.perf_counter()
    with _counting_admissions() as admissions:
        result = Campaign(fleet, add_component_update(),
                          analysis_cache=cache).run()
    finished = time.perf_counter()
    return {
        "fleet_size": fleet_size,
        "num_variants": SCALE_VARIANTS,
        "generation_s": provisioned - started,
        "campaign_s": finished - provisioned,
        "total_s": finished - started,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "provision_integrations": provisioning["reports"],
        "provision_battery_runs": provisioning["battery_runs"],
        "provision_map_calls": provisioning["map_calls"],
        "provision_platforms": provisioning["platforms"],
        "provision_batteries": provisioning["batteries"],
        "baseline_contracts": _baseline_contracts(spec),
        "campaign_integrations": admissions["request_change"],
        "campaign_replays": admissions["replay_change"],
        "campaign_reports": admissions["reports"],
        "admitted": result.admitted,
        "waves": len(result.waves),
        "update_coverage": result.update_coverage,
    }


@pytest.mark.benchmark(group="e10-fleet")
def test_e10_fleet_scale(benchmark):
    """Provisioning stays one admission report per baseline contract per
    variant, and its battery runs, mappings, platform models and batteries
    stay per variant, at 10^5 vehicles; the campaign integrates once per
    variant, replays on every other vehicle and builds one report per
    integration; the clean rollout covers the whole fleet."""
    fleet_size = 10_000 if quick_mode() else 100_000

    def measure():
        completed = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--scale",
             str(fleet_size)],
            check=True, capture_output=True, text=True)
        return json.loads(completed.stdout.splitlines()[-1])

    row = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(f"E10: {fleet_size} vehicles in {SCALE_VARIANTS} variants, "
                "end to end", [row])
    write_bench_record("e10_fleet_scale", row)
    assert row["provision_integrations"] == row["baseline_contracts"]
    assert row["provision_battery_runs"] == BATTERY_RUNS[SCALE_VARIANTS]
    assert row["provision_map_calls"] == MAP_CALLS[SCALE_VARIANTS]
    assert row["provision_platforms"] == SCALE_VARIANTS
    assert row["provision_batteries"] == SCALE_VARIANTS
    assert row["campaign_integrations"] == SCALE_VARIANTS
    assert row["campaign_replays"] == fleet_size - SCALE_VARIANTS
    # One report per integration; a replay shares its precedent's.
    assert row["campaign_reports"] == row["campaign_integrations"]
    assert row["admitted"] == fleet_size
    assert row["update_coverage"] == 1.0


if __name__ == "__main__":
    if sys.argv[1:2] != ["--scale"] or len(sys.argv) != 3:
        sys.exit("usage: bench_e10_fleet_campaign.py --scale FLEET_SIZE")
    print(json.dumps(_scale_payload(int(sys.argv[2]))))
