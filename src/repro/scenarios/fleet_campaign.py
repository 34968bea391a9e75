"""Scenario: staged update campaign across a heterogeneous fleet (E10).

The in-field integration process of Section II admits one change request on
one vehicle; at production scale the OEM pushes the *same logical update* to
a whole fleet.  This scenario generates a variant-clustered fleet
(:mod:`repro.fleet.vehicle`), rolls one new component out in staged waves
(:mod:`repro.fleet.campaign`) — canary first, then percentage waves, then the
full fleet — and reports admission, deviation-feedback and rollback metrics.

Admission is batched by default: one shared analysis cache plus the
incremental CPA engine serve every vehicle's timing acceptance test, so a
wave of same-variant vehicles is analysed once instead of per vehicle.
Verdicts are independent of the batching mode (the cache is
content-addressed and the engine exact); ``batch_admission=False`` exists as
the measured baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.analysis.cache import AnalysisCache
from repro.contracts.language import ContractParser
from repro.contracts.model import Contract
from repro.fleet.campaign import (Campaign, CampaignResult, UpdateFactory,
                                  WavePolicy)
from repro.fleet.vehicle import FleetSpec, FleetVehicle, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest


@dataclass
class FleetCampaignResult:
    """Metrics of one fleet update campaign."""

    fleet_size: int
    heterogeneity: float
    batched: bool
    admitted: int
    rejected: int
    deviating: int
    refined: int
    rolled_back: int
    halted: bool
    halted_wave: Optional[int]
    vehicles_updated: int
    update_coverage: float
    acceptance_rate: float
    cache_hits: int
    cache_misses: int
    engine_reuse_rate: float
    waves: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        """Mirrors :attr:`repro.fleet.campaign.CampaignResult.completed`:
        a degenerate campaign that executed no wave completed nothing."""
        return bool(self.waves) and not self.halted


def build_update_contract(wcet_factor: float, utilization: float = 0.22,
                          period: float = 0.05,
                          component: str = "nav_assist") -> Contract:
    """The rolled-out component's contract, scaled to one variant's build."""
    parser = ContractParser()
    return parser.parse({
        "component": component,
        "timing": {"period": period,
                   "wcet": min(utilization * period * wcet_factor, 0.9 * period)},
        "safety": {"asil": "B"},
        "security": {"level": "MEDIUM"},
        "provides": [f"service_{component}"],
    })


def add_component_update(utilization: float = 0.22,
                         component: str = "nav_assist") -> UpdateFactory:
    """An update factory that adds ``component`` to each vehicle.

    Each variant's contract is built once, by :func:`build_update_contract`
    for that variant's WCET factor, and handed to all its vehicles: batched
    admission groups vehicles by contract identity.
    """
    contracts: Dict[int, Contract] = {}

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization,
                                             component=component)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def run_fleet_campaign_scenario(fleet_size: int = 50, seed: int = 0,
                                heterogeneity: float = 0.15,
                                num_variants: int = 8,
                                extra_components: int = 10,
                                update_utilization: float = 0.22,
                                canary_size: int = 2,
                                wave_fractions: tuple = (0.1, 0.3, 1.0),
                                max_failure_rate: float = 0.3,
                                rollback_on_halt: bool = True,
                                refine_on_deviation: bool = False,
                                failure_injection_rate: float = 0.0,
                                batch_admission: bool = True,
                                deploy: bool = False,
                                cache_path: Optional[str] = None,
                                trace_path: Optional[str] = None,
                                trace_deterministic: bool = False
                                ) -> FleetCampaignResult:
    """Run one staged fleet campaign end-to-end.

    The fleet, the per-variant update contracts and the simulated monitor
    feedback are all derived from ``seed``, so the result is a pure function
    of the parameters — batched and sequential admission included;
    ``cache_path`` warm-starts the analysis cache from a previous run's
    persisted snapshot without changing any verdict.

    ``trace_path`` attaches a :class:`~repro.observability.CampaignTracer`
    writing a structured JSONL event trace of the whole rollout
    (``trace_deterministic`` suppresses its wall-clock fields).  The tracer
    is strictly read-only: traced and untraced runs return field-for-field
    identical results.
    """
    spec = FleetSpec(size=fleet_size, seed=seed, heterogeneity=heterogeneity,
                     num_variants=num_variants, extra_components=extra_components,
                     deploy=deploy)
    cache = AnalysisCache() if batch_admission else None
    vehicles = generate_fleet(spec, analysis_cache=cache)
    policy = WavePolicy(canary_size=canary_size,
                        wave_fractions=tuple(float(f) for f in wave_fractions),
                        max_failure_rate=max_failure_rate,
                        rollback_on_halt=rollback_on_halt,
                        refine_on_deviation=refine_on_deviation)
    tracer = None
    if trace_path is not None:
        from repro.observability.tracer import CampaignTracer
        tracer = CampaignTracer(path=str(trace_path),
                                deterministic=trace_deterministic)
    campaign = Campaign(vehicles, add_component_update(update_utilization),
                        policy=policy, analysis_cache=cache,
                        batch_admission=batch_admission,
                        failure_injection_rate=failure_injection_rate,
                        feedback_seed=seed, cache_path=cache_path,
                        tracer=tracer)
    outcome: CampaignResult = campaign.run()
    return FleetCampaignResult(
        fleet_size=outcome.fleet_size,
        heterogeneity=heterogeneity,
        batched=outcome.batched,
        admitted=outcome.admitted,
        rejected=outcome.rejected,
        deviating=outcome.deviating,
        refined=outcome.refined,
        rolled_back=outcome.rolled_back,
        halted=outcome.halted,
        halted_wave=outcome.halted_wave,
        vehicles_updated=outcome.vehicles_updated,
        update_coverage=outcome.update_coverage,
        acceptance_rate=outcome.acceptance_rate,
        cache_hits=outcome.cache_hits,
        cache_misses=outcome.cache_misses,
        engine_reuse_rate=outcome.engine_reuse_rate,
        waves=[record.to_dict() for record in outcome.waves])
