"""E13 (work stealing): cost-model chunk planner vs static round-robin.

The work-stealing engine of the sharded campaign (PR 6) replaces the static
one-shard-per-worker round-robin partition with many cost-balanced chunks
pulled off the pool's shared queue.  Its claims are regenerated here with
*measured* per-representative integration costs:

* **Skewed fleet: >= 1.5x.**  A fleet whose variant catalog cycles
  [premium, basic, basic, basic] — premium builds carry a large installed
  base and hence expensive busy-window analyses — puts every heavy
  representative on a position that is 0 mod 4.  Cyclic round-robin
  dealing aliases with that structure at ``workers=4``: one worker is
  dealt *all* the premium items while three idle on basic ones, whereas
  cost-model chunking plus completion-driven dispatch spreads the premiums
  one per worker.  The deterministic makespan model
  (max shard cost for the static plan, list scheduling over the LPT chunk
  order for the stealing plan, both over the same measured costs) must show
  the stealing plan >= 1.5x faster.
* **Uniform fleet: near-linear.**  On a cost-uniform fleet the chunked
  partition must not *lose* to round-robin: list-scheduled efficiency
  (ideal makespan / modeled makespan) stays >= 0.75 at ``workers=4``.
* **Verdict parity.**  A real pooled campaign with the cost planner and
  stealing enabled produces byte-identical wave records to ``workers=1``
  and to the round-robin/no-steal configuration.

The makespan comparison is a *model* over measured single-item costs rather
than wall-clock pool timing because CI runners routinely expose a single
core, where any process pool measures fork overhead, not scheduling.  The
measured quantities land in ``BENCH_e13_work_stealing.json``.
"""

from __future__ import annotations

import multiprocessing
import time
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from conftest import (print_table, provisioned_fleet, quick_mode,
                      write_bench_record)
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, CampaignResult
from repro.fleet.shard import ShardItem, ShardTask, execute_shard, plan_chunks, plan_shards
from repro.fleet.vehicle import FleetSpec, FleetVehicle, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract

SEED = 7
WORKERS = 4


def _request(vehicle: FleetVehicle) -> ChangeRequest:
    contract = build_update_contract(vehicle.wcet_factor)
    return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                         component=contract.component, contract=contract)


def _representatives(extra_components: int, variants: int,
                     seed: int) -> List[FleetVehicle]:
    """One vehicle per variant — the representative set of one wave."""
    spec = FleetSpec(size=variants, seed=seed, num_variants=variants,
                     extra_components=extra_components)
    return provisioned_fleet(spec)


def _measure_costs(build_vehicles, repeats: int = 3) -> List[float]:
    """Measured cold integration cost (seconds) of each representative.

    Each item runs as its own single-item shard with a task-local cache, so
    every measurement is a genuine cold busy-window derivation over the
    vehicle's full installed base — the quantity the campaign's EWMA cost
    model estimates from prior waves.  ``build_vehicles`` is a zero-argument
    factory returning a *fresh* representative list; min-of-N runs over
    fresh fleets (``request_change`` adopts the update, so a vehicle cannot
    be measured twice) keep one scheduler stall on a loaded runner from
    distorting a single item's cost.
    """
    best: List[float] = []
    for _ in range(repeats):
        vehicles = build_vehicles()
        for position, vehicle in enumerate(vehicles):
            item = ShardItem(position=position, vehicle=vehicle,
                             request=_request(vehicle))
            result = execute_shard(ShardTask(shard_index=0, items=[item]))
            elapsed = max(result.verdicts[0].elapsed_s, 1e-9)
            if position >= len(best):
                best.append(elapsed)
            else:
                best[position] = min(best[position], elapsed)
    return best


def _round_robin_makespan(costs: Sequence[float], workers: int) -> float:
    """Static plan: every worker runs exactly its dealt shard."""
    shards = plan_shards(len(costs), workers)
    return max(sum(costs[i] for i in shard) for shard in shards)


def _stealing_makespan(costs: Sequence[float], workers: int,
                       groups: Optional[Sequence[object]] = None) -> float:
    """List-schedule the LPT chunk order onto earliest-free workers.

    This models exactly what ``imap_unordered`` with ``chunksize=1`` over
    the :func:`plan_chunks` dispatch list does: an idle worker pulls the
    next chunk the moment it finishes its current one.
    """
    chunks = plan_chunks(len(costs), workers, costs=list(costs), groups=groups)
    loads = [0.0] * workers
    for chunk in chunks:
        slot = loads.index(min(loads))
        loads[slot] += sum(costs[i] for i in chunk)
    return max(loads)


def _premium_catalog(heavy: Sequence[FleetVehicle],
                     light: Sequence[FleetVehicle]) -> List[FleetVehicle]:
    """A variant catalog cycling [premium, basic, basic, basic].

    Every fourth representative is a premium build — the position pattern
    that aliases exactly with cyclic round-robin dealing at ``workers=4``:
    one worker is dealt *every* premium representative.
    """
    mixed: List[FleetVehicle] = []
    for index, vehicle in enumerate(heavy):
        mixed.append(vehicle)
        mixed.extend(light[3 * index:3 * index + 3])
    return mixed


def _digest(result: CampaignResult) -> Tuple:
    return (result.fleet_size, result.admitted, result.rejected,
            result.deviating, result.refined, result.rolled_back,
            result.halted, result.halted_wave,
            [record.to_dict() for record in result.waves])


def _run_campaign(fleet_size: int, workers: int, heterogeneity: float = 0.15,
                  **kwargs) -> CampaignResult:
    spec = FleetSpec(size=fleet_size, seed=SEED, num_variants=6,
                     heterogeneity=heterogeneity)
    cache = AnalysisCache(max_entries=16384)
    fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, _request, analysis_cache=cache,
                        batch_admission=True, workers=workers,
                        feedback_seed=SEED, **kwargs)
    return campaign.run()


@pytest.mark.benchmark(group="e13-work-stealing")
def test_e13_skewed_fleet_steal_vs_round_robin(benchmark):
    """Cost-model chunking + stealing >= 1.5x over static round-robin on a
    skewed fleet at workers=4; near-linear on the uniform fleet."""
    heavy_variants, light_variants = 4, 12
    heavy_extras, light_extras = 40, 2

    def build_skewed() -> List[FleetVehicle]:
        return _premium_catalog(
            _representatives(heavy_extras, heavy_variants, seed=SEED),
            _representatives(light_extras, light_variants, seed=SEED + 1))

    skewed_costs = _measure_costs(build_skewed)

    rr_makespan = _round_robin_makespan(skewed_costs, WORKERS)
    steal_makespan = _stealing_makespan(skewed_costs, WORKERS)
    speedup = rr_makespan / steal_makespan

    uniform_costs = _measure_costs(
        lambda: _representatives(light_extras, 16, seed=SEED + 2))
    ideal = sum(uniform_costs) / WORKERS
    uniform_efficiency = ideal / _stealing_makespan(uniform_costs, WORKERS)

    benchmark(lambda: plan_chunks(len(skewed_costs), WORKERS,
                                  costs=skewed_costs))

    heavy_cost = sum(skewed_costs[0::4]) / heavy_variants
    light_cost = (sum(skewed_costs) - sum(skewed_costs[0::4])) / light_variants
    row = {
        "items": len(skewed_costs),
        "workers": WORKERS,
        "cpu_count": multiprocessing.cpu_count(),
        "heavy_extras": heavy_extras,
        "light_extras": light_extras,
        "heavy_cost_s": heavy_cost,
        "light_cost_s": light_cost,
        "skew_ratio": heavy_cost / light_cost if light_cost else float("inf"),
        "round_robin_makespan_s": rr_makespan,
        "stealing_makespan_s": steal_makespan,
        "speedup": speedup,
        "uniform_efficiency": uniform_efficiency,
    }
    print_table("E13: work-stealing chunk plan vs static round-robin "
                "(target: >= 1.5x skewed, >= 0.75 uniform efficiency)", [row])
    write_bench_record("e13_work_stealing", row)
    assert speedup >= 1.5
    assert uniform_efficiency >= 0.75


@pytest.mark.benchmark(group="e13-work-stealing")
def test_e13_stealing_verdict_parity(benchmark):
    """The work-stealing pooled engine is byte-identical to sequential and
    to the round-robin/no-steal configuration on a real pool — on a
    cost-skewed fleet (high heterogeneity) and a uniform one alike."""
    fleet_size = 18 if quick_mode() else 36
    rows = []
    for label, heterogeneity in (("skewed", 0.35), ("uniform", 0.0)):
        sequential = _run_campaign(fleet_size, workers=1,
                                   heterogeneity=heterogeneity)
        stealing = _run_campaign(fleet_size, workers=3,
                                 heterogeneity=heterogeneity,
                                 shard_planner="cost", steal=True)
        static = _run_campaign(fleet_size, workers=3,
                               heterogeneity=heterogeneity,
                               shard_planner="round_robin", steal=False)
        assert _digest(stealing) == _digest(sequential)
        assert _digest(static) == _digest(sequential)
        assert stealing.admitted == fleet_size
        assert stealing.shard_telemetry  # pooled runs record telemetry
        rows.append({"fleet": label, "admitted": stealing.admitted,
                     "steal_shards": len(stealing.shard_telemetry),
                     "static_shards": len(static.shard_telemetry),
                     "identical": True})
    benchmark(lambda: plan_chunks(64, WORKERS))
    print_table("E13: verdict parity across scheduler configurations "
                "(skewed and uniform fleets vs workers=1)", rows)
