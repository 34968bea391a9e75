"""Uniform registry over the paper's worked scenarios.

Every scenario in :mod:`repro.scenarios` is registered here behind one
interface: a name, a set of typed parameters with defaults, a run callable,
and a *metric extractor* that flattens the scenario's result dataclass into
a JSON-serializable record.  The experiment spec/runner, the CLI, the
benchmarks and the examples all go through this registry instead of
hand-rolling per-scenario setup code.

Parameters are accepted in JSON-level form (strings and numbers); enum-valued
knobs such as the arbitration policy are coerced by the adapter, so specs can
be written as plain dictionaries or loaded from JSON files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.core.arbitration import ArbitrationPolicy
from repro.mcc.mapping import MappingStrategy
from repro.scenarios.adversity_campaigns import (
    run_intrusion_campaign_scenario, run_lossy_ota_campaign_scenario,
    run_thermal_campaign_scenario)
from repro.scenarios.distributed_e2e import run_distributed_e2e_scenario
from repro.scenarios.fleet_campaign import run_fleet_campaign_scenario
from repro.scenarios.infield_update import run_infield_update_scenario
from repro.scenarios.intrusion import run_intrusion_scenario
from repro.scenarios.platooning_fog import run_fog_platooning_scenario
from repro.scenarios.thermal import ThermalStrategy, run_thermal_scenario
from repro.scenarios.weather_routing import run_weather_routing_scenario


class ScenarioError(ValueError):
    """Raised for unknown scenarios or invalid scenario parameters."""


@dataclass(frozen=True)
class Parameter:
    """One tunable knob of a scenario."""

    name: str
    default: Any
    description: str = ""
    #: Optional coercion from the JSON-level value to the domain value
    #: (e.g. ``"cross_layer"`` -> :class:`ThermalStrategy`).
    coerce: Optional[Callable[[Any], Any]] = None

    def prepare(self, value: Any) -> Any:
        """Coerce a JSON-level value into the domain value the scenario takes."""
        if self.coerce is None:
            return value
        try:
            return self.coerce(value)
        except (KeyError, ValueError, TypeError) as exc:
            raise ScenarioError(f"parameter {self.name!r}: cannot interpret "
                                f"{value!r} ({exc})") from exc


@dataclass(frozen=True)
class Scenario:
    """A registered scenario: metadata, knobs, run callable, metric extractor."""

    name: str
    summary: str
    run_fn: Callable[..., Any]
    parameters: List[Parameter] = field(default_factory=list)
    #: Name of the parameter that receives the per-run seed (None for
    #: scenarios that are fully deterministic in their inputs).
    seed_param: Optional[str] = None
    #: Flattens the scenario's result object into JSON-serializable metrics.
    extract: Callable[[Any], Dict[str, Any]] = lambda result: {}
    #: Extracts (sim_time_s, event_count) bookkeeping, if meaningful.
    bookkeeping: Callable[[Any, Dict[str, Any]], Dict[str, Any]] = \
        lambda result, params: {}

    def parameter_names(self) -> List[str]:
        """Names of all accepted parameters (including the seed parameter)."""
        return [p.name for p in self.parameters]

    def defaults(self) -> Dict[str, Any]:
        """JSON-level default value of every parameter."""
        return {p.name: p.default for p in self.parameters}

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Reject parameters the scenario does not know."""
        unknown = set(params) - set(self.parameter_names())
        if unknown:
            raise ScenarioError(
                f"scenario {self.name!r} got unknown parameters {sorted(unknown)}; "
                f"accepted: {sorted(self.parameter_names())}")

    def run(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """Run the scenario with JSON-level ``params`` and return the raw
        result object (coercions applied, missing knobs at their defaults)."""
        params = dict(params or {})
        self.validate_params(params)
        kwargs: Dict[str, Any] = {}
        for parameter in self.parameters:
            value = params.get(parameter.name, parameter.default)
            kwargs[parameter.name] = parameter.prepare(value)
        return self.run_fn(**kwargs)

    def run_record(self, params: Optional[Mapping[str, Any]] = None) -> Dict[str, Any]:
        """Run the scenario and return the flattened, JSON-serializable
        metric record (plus sim-time/event-count bookkeeping)."""
        merged = {**self.defaults(), **dict(params or {})}
        result = self.run(params)
        record = dict(self.extract(result))
        record.update(self.bookkeeping(result, merged))
        return record


class ScenarioRegistry:
    """Name -> :class:`Scenario` lookup with registration."""

    def __init__(self) -> None:
        self._scenarios: Dict[str, Scenario] = {}

    def register(self, scenario: Scenario) -> Scenario:
        """Register a scenario; duplicate names are an error."""
        if scenario.name in self._scenarios:
            raise ScenarioError(f"scenario {scenario.name!r} already registered")
        self._scenarios[scenario.name] = scenario
        return scenario

    def get(self, name: str) -> Scenario:
        """Look up a scenario by name."""
        try:
            return self._scenarios[name]
        except KeyError as exc:
            raise ScenarioError(f"unknown scenario {name!r}; "
                                f"available: {self.names()}") from exc

    def names(self) -> List[str]:
        """Sorted names of all registered scenarios."""
        return sorted(self._scenarios)

    def __contains__(self, name: str) -> bool:
        return name in self._scenarios

    def __iter__(self):
        return iter(self._scenarios.values())

    def __len__(self) -> int:
        return len(self._scenarios)


#: The global registry holding the paper's five worked scenarios.
SCENARIOS = ScenarioRegistry()


def run_scenario(name: str, **params: Any) -> Dict[str, Any]:
    """Run a registered scenario and return its flat metric record."""
    return SCENARIOS.get(name).run_record(params)


def run_scenario_raw(name: str, **params: Any) -> Any:
    """Run a registered scenario and return the raw result object."""
    return SCENARIOS.get(name).run(params)


# ---------------------------------------------------------------------------
# Metric extractors: result dataclass -> flat JSON-serializable dict.
# ---------------------------------------------------------------------------

def _extract_intrusion(result: Any) -> Dict[str, Any]:
    return {
        "policy": result.policy.value,
        "fail_operational": result.fail_operational,
        "safe_stop_requested": result.safe_stop_requested,
        "vehicle_stopped": result.vehicle_stopped,
        "detection_delay_s": result.detection_delay_s,
        "time_to_mitigation_s": result.time_to_mitigation_s,
        "final_speed_mps": result.final_speed_mps,
        "average_speed_after_attack_mps": result.average_speed_after_attack_mps,
        "minimum_gap_m": result.minimum_gap_m,
        "braking_capability_after": result.braking_capability_after,
        "root_ability_after": result.root_ability_after,
        "layers_involved": result.cross_layer_layers_involved,
        "resolutions_by_layer": dict(result.resolutions_by_layer),
    }


def _extract_thermal(result: Any) -> Dict[str, Any]:
    return {
        "strategy": result.strategy.value,
        "peak_temperature_c": result.peak_temperature_c,
        "time_over_critical_s": result.time_over_critical_s,
        "deadline_miss_intervals": result.deadline_miss_intervals,
        "control_quality": result.control_quality,
        "final_speed_factor": result.final_speed_factor,
        "hardware_protected": result.hardware_protected,
        "deadlines_kept": result.deadlines_kept,
    }


def _extract_fog_platooning(result: Any) -> Dict[str, Any]:
    return {
        "visibility_m": result.visibility_m,
        "num_members": result.num_members,
        "num_malicious": result.num_malicious,
        "converged": result.converged,
        "rounds": result.rounds,
        "agreed_speed_mps": result.agreed_speed_mps,
        "ego_standalone_speed_mps": result.ego_standalone_speed_mps,
        "ego_platoon_benefit_mps": result.ego_platoon_benefit_mps,
        "agreement_error_mps": result.agreement_error_mps,
        "malicious_excluded": result.malicious_excluded,
        "platoon_worthwhile": result.platoon_worthwhile,
    }


def _extract_weather_routing(result: Any) -> Dict[str, Any]:
    return {
        "severity": result.severity,
        "aware_route": list(result.aware_route.nodes),
        "aware_route_km": result.aware_route.length_km,
        "aware_takes_detour": result.aware_takes_detour,
        "aware_exposure": result.aware_exposure,
        "baseline_route": list(result.baseline_route.nodes),
        "baseline_route_km": result.baseline_route.length_km,
        "baseline_takes_detour": result.baseline_takes_detour,
        "baseline_exposure": result.baseline_exposure,
        "detour_extra_km": result.detour_extra_km,
        "aware_avoids_exposure": result.aware_avoids_exposure,
    }


def _extract_fleet_campaign(result: Any) -> Dict[str, Any]:
    return {
        "fleet_size": result.fleet_size,
        "heterogeneity": result.heterogeneity,
        "batched": result.batched,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "deviating": result.deviating,
        "refined": result.refined,
        "rolled_back": result.rolled_back,
        "halted": result.halted,
        "halted_wave": result.halted_wave,
        "vehicles_updated": result.vehicles_updated,
        "update_coverage": result.update_coverage,
        "acceptance_rate": result.acceptance_rate,
        "waves": [dict(wave) for wave in result.waves],
    }


def _extract_intrusion_campaign(result: Any) -> Dict[str, Any]:
    return {
        "fleet_size": result.fleet_size,
        "mode": result.mode,
        "discount_suspected": result.discount_suspected,
        "compromised": result.compromised,
        "suspected": result.suspected,
        "true_suspects": result.true_suspects,
        "false_suspects": result.false_suspects,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "deviating": result.deviating,
        "discounted": result.discounted,
        "rolled_back": result.rolled_back,
        "halted": result.halted,
        "halted_wave": result.halted_wave,
        "update_coverage": result.update_coverage,
        "acceptance_rate": result.acceptance_rate,
        "waves": [dict(wave) for wave in result.waves],
    }


def _extract_lossy_ota_campaign(result: Any) -> Dict[str, Any]:
    return {
        "fleet_size": result.fleet_size,
        "drop_rate": result.drop_rate,
        "max_retries": result.max_retries,
        "delivery_attempts": result.delivery_attempts,
        "drops": result.drops,
        "undelivered_events": result.undelivered_events,
        "retried": result.retried,
        "abandoned": result.abandoned,
        "straggler_waves": result.straggler_waves,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "deviating": result.deviating,
        "halted": result.halted,
        "halted_wave": result.halted_wave,
        "update_coverage": result.update_coverage,
        "acceptance_rate": result.acceptance_rate,
        "waves": [dict(wave) for wave in result.waves],
    }


def _extract_thermal_campaign(result: Any) -> Dict[str, Any]:
    return {
        "fleet_size": result.fleet_size,
        "peak_ambient_c": result.peak_ambient_c,
        "throttled_waves": result.throttled_waves,
        "min_speed_factor": result.min_speed_factor,
        "hot_wave_rejections": result.hot_wave_rejections,
        "cool_wave_rejections": result.cool_wave_rejections,
        "verdicts_flipped": result.verdicts_flipped,
        "admitted": result.admitted,
        "rejected": result.rejected,
        "deviating": result.deviating,
        "halted": result.halted,
        "halted_wave": result.halted_wave,
        "update_coverage": result.update_coverage,
        "acceptance_rate": result.acceptance_rate,
        "thermal_trace": [list(row) for row in result.thermal_trace],
        "waves": [dict(wave) for wave in result.waves],
    }


def _extract_distributed_e2e(result: Any) -> Dict[str, Any]:
    return {
        "total_requests": result.total_requests,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "acceptance_rate": result.acceptance_rate,
        "rejected_by_viewpoint": dict(result.rejected_by_viewpoint),
        "rejected_distributed_only": result.rejected_distributed_only,
        "baseline_latency_s": result.baseline_latency_s,
        "final_latency_s": result.final_latency_s,
        "worst_accepted_latency_s": result.worst_accepted_latency_s,
        "chain_deadline_s": result.chain_deadline_s,
        "deadline_held": result.deadline_held,
        "fixpoint_iterations": result.fixpoint_iterations,
        "bus_utilization": result.bus_utilization,
        "final_version": result.final_version,
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "baseline_rejected": result.baseline_rejected,
    }


def _extract_infield_update(result: Any) -> Dict[str, Any]:
    return {
        "total_requests": result.total_requests,
        "accepted": result.accepted,
        "rejected": result.rejected,
        "acceptance_rate": result.acceptance_rate,
        "rejected_by_viewpoint": dict(result.rejected_by_viewpoint),
        "final_version": result.final_version,
        "deployed_components": result.deployed_components,
        "unsafe_update_accepted": result.unsafe_update_accepted,
    }


# ---------------------------------------------------------------------------
# Registrations.
# ---------------------------------------------------------------------------

SCENARIOS.register(Scenario(
    name="intrusion",
    summary="Rear-brake security leak handled across layers (E5)",
    run_fn=run_intrusion_scenario,
    parameters=[
        Parameter("policy", "lowest_adequate",
                  "arbitration policy (lowest_adequate | local_only | always_escalate)",
                  coerce=ArbitrationPolicy),
        Parameter("attack_time_s", 5.0, "when the compromise becomes visible"),
        Parameter("duration_s", 40.0, "total simulated driving time"),
        Parameter("seed", 0, "simulation seed", coerce=int),
    ],
    seed_param="seed",
    extract=_extract_intrusion,
    bookkeeping=lambda result, params: {
        "sim_time_s": float(params["duration_s"]),
        "event_count": len(result.events),
    },
))

SCENARIOS.register(Scenario(
    name="thermal",
    summary="Ambient-temperature common-cause fault, four reaction strategies (E6)",
    run_fn=run_thermal_scenario,
    parameters=[
        Parameter("strategy", "cross_layer",
                  "reaction strategy (no_reaction | platform_only | function_only | cross_layer)",
                  coerce=ThermalStrategy),
        Parameter("peak_ambient_c", 80.0, "peak ambient temperature of the ramp"),
        Parameter("duration_s", 600.0, "total simulated time"),
        Parameter("dt_s", 1.0, "thermal simulation step"),
    ],
    extract=_extract_thermal,
    bookkeeping=lambda result, params: {
        "sim_time_s": float(params["duration_s"]),
        "event_count": result.deadline_miss_intervals,
    },
))

SCENARIOS.register(Scenario(
    name="fog_platooning",
    summary="Platoon agreement in dense fog with partially trusted members (E7)",
    run_fn=run_fog_platooning_scenario,
    parameters=[
        Parameter("visibility_m", 60.0, "meteorological visibility of the fog"),
        Parameter("num_members", 4, "total platoon size", coerce=int),
        Parameter("num_malicious", 0, "malicious members during agreement", coerce=int),
        Parameter("ego_fog_capability", 0.1, "ego sensing retained in fog"),
    ],
    extract=_extract_fog_platooning,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.rounds,
    },
))

SCENARIOS.register(Scenario(
    name="weather_routing",
    summary="Alpine pass vs detour under a weather forecast (E8)",
    run_fn=run_weather_routing_scenario,
    parameters=[
        Parameter("severity", 0.5, "forecast severity in [0, 1]"),
        Parameter("risk_aversion", 1.0, "risk weight of the aware planner"),
    ],
    extract=_extract_weather_routing,
    bookkeeping=lambda result, params: {"sim_time_s": None, "event_count": 0},
))

SCENARIOS.register(Scenario(
    name="fleet_update_campaign",
    summary="Staged MCC rollout across a heterogeneous fleet (E10)",
    run_fn=run_fleet_campaign_scenario,
    parameters=[
        Parameter("fleet_size", 50, "number of vehicles in the fleet", coerce=int),
        Parameter("seed", 0, "fleet/feedback generation seed", coerce=int),
        Parameter("heterogeneity", 0.15, "relative spread of the variant perturbations"),
        Parameter("num_variants", 8, "distinct hardware/software builds", coerce=int),
        Parameter("extra_components", 10, "installed apps per variant beyond the core stack",
                  coerce=int),
        Parameter("update_utilization", 0.22, "processor demand of the rolled-out component"),
        Parameter("canary_size", 2, "vehicles in the canary wave (0 disables it)",
                  coerce=int),
        Parameter("wave_fractions", [0.1, 0.3, 1.0],
                  "cumulative release fractions of the post-canary fleet",
                  coerce=lambda value: tuple(float(f) for f in value)),
        Parameter("max_failure_rate", 0.3,
                  "halt threshold on a wave's rejection+deviation rate"),
        Parameter("rollback_on_halt", True, "roll the halting wave back", coerce=bool),
        Parameter("refine_on_deviation", False,
                  "re-integrate observed WCETs of deviating vehicles", coerce=bool),
        Parameter("failure_injection_rate", 0.0,
                  "probability of an injected post-deployment failure per vehicle"),
        Parameter("batch_admission", True,
                  "admit waves through the shared cache + incremental engine",
                  coerce=bool),
        Parameter("deploy", False, "attach an execution-domain RTE per vehicle",
                  coerce=bool),
        Parameter("cache_path", None,
                  "on-disk analysis-cache snapshot for cross-run warm-starts",
                  coerce=lambda value: None if value is None else str(value)),
        Parameter("trace_path", None,
                  "write a structured JSONL event trace of the rollout to "
                  "this path (read-only observation; verdicts unchanged)",
                  coerce=lambda value: None if value is None else str(value)),
        Parameter("trace_deterministic", False,
                  "suppress wall-clock trace fields so equal runs write "
                  "byte-identical traces", coerce=bool),
    ],
    seed_param="seed",
    extract=_extract_fleet_campaign,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.admitted + result.rejected,
    },
))

#: Staging knobs shared by the three adversity campaigns (E14-E16) — the
#: same fleet generation and wave policy surface as E10, minus the engine
#: knobs the adversity scenarios pin (batched admission is always on).
def _adversity_staging_parameters(update_utilization: float,
                                  max_failure_rate: float) -> List[Parameter]:
    return [
        Parameter("fleet_size", 40, "number of vehicles in the fleet", coerce=int),
        Parameter("seed", 0, "fleet/feedback/adversity generation seed", coerce=int),
        Parameter("heterogeneity", 0.1, "relative spread of the variant perturbations"),
        Parameter("num_variants", 6, "distinct hardware/software builds", coerce=int),
        Parameter("extra_components", 6,
                  "installed apps per variant beyond the core stack", coerce=int),
        Parameter("update_utilization", update_utilization,
                  "processor demand of the rolled-out component"),
        Parameter("failure_injection_rate", 0.0,
                  "probability of a genuine post-deployment failure per vehicle"),
        Parameter("canary_size", 2, "vehicles in the canary wave (0 disables it)",
                  coerce=int),
        Parameter("wave_fractions", [0.2, 0.5, 1.0],
                  "cumulative release fractions of the post-canary fleet",
                  coerce=lambda value: tuple(float(f) for f in value)),
        Parameter("max_failure_rate", max_failure_rate,
                  "halt threshold on a wave's effective failure rate"),
    ]


SCENARIOS.register(Scenario(
    name="intrusion_campaign",
    summary="Fleet campaign under compromised-vehicle feedback, IDS-graded (E14)",
    run_fn=run_intrusion_campaign_scenario,
    parameters=_adversity_staging_parameters(0.18, 0.2) + [
        Parameter("compromise_rate", 0.25,
                  "fraction of the fleet forging its monitor reports"),
        Parameter("mode", "over_report",
                  "'over_report' (forge deviations to force a halt) or "
                  "'under_report' (hide failures below the tolerance band)"),
        Parameter("reports_per_wave", 6,
                  "report copies a compromised over-reporter spams per wave",
                  coerce=int),
        Parameter("suspicion_threshold", 3,
                  "IDS violations before a sender is suspected", coerce=int),
        Parameter("discount_suspected", True,
                  "exclude suspected senders' reports from the halt decision",
                  coerce=bool),
    ],
    seed_param="seed",
    extract=_extract_intrusion_campaign,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.admitted + result.rejected,
    },
))

SCENARIOS.register(Scenario(
    name="lossy_ota_campaign",
    summary="Fleet campaign over a lossy OTA network with retry/straggler waves (E15)",
    run_fn=run_lossy_ota_campaign_scenario,
    parameters=_adversity_staging_parameters(0.18, 0.3) + [
        Parameter("drop_rate", 0.3,
                  "per-attempt probability that a delivery is dropped"),
        Parameter("max_retries", 3,
                  "retries per vehicle before it is abandoned", coerce=int),
    ],
    seed_param="seed",
    extract=_extract_lossy_ota_campaign,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.delivery_attempts,
    },
))

SCENARIOS.register(Scenario(
    name="thermal_campaign",
    summary="Fleet campaign through a heat wave: DVFS-inflated WCET admission (E16)",
    run_fn=run_thermal_campaign_scenario,
    parameters=_adversity_staging_parameters(0.3, 1.0) + [
        Parameter("base_ambient_c", 35.0, "ambient temperature outside the heat wave"),
        Parameter("peak_ambient_c", 90.0, "ambient temperature at the heat-wave peak"),
        Parameter("peak_wave", 2, "wave index of the heat-wave peak", coerce=int),
        Parameter("wave_dt_s", 240.0, "thermal-model seconds integrated per wave"),
        Parameter("thermal_utilization", 0.9,
                  "processor load driving the thermal model"),
    ],
    seed_param="seed",
    extract=_extract_thermal_campaign,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.admitted + result.rejected,
    },
))

SCENARIOS.register(Scenario(
    name="distributed_e2e_update",
    summary="Cross-ECU update admission with end-to-end deadlines (E11)",
    run_fn=run_distributed_e2e_scenario,
    parameters=[
        Parameter("num_updates", 12, "length of the update campaign", coerce=int),
        Parameter("seed", 0, "campaign/background-traffic generation seed", coerce=int),
        Parameter("update_utilization", 0.06, "mean processor demand per added app"),
        Parameter("risky_fraction", 0.25,
                  "fraction of updates that inflate the control WCET"),
        Parameter("bitrate_bps", 500_000.0, "CAN segment bitrate"),
        Parameter("num_background_frames", 4,
                  "unmanaged frame streams sharing the bus", coerce=int),
        Parameter("chain_deadline_s", 0.035,
                  "end-to-end deadline of the sensor->control->actuator chain"),
        Parameter("use_cache", True,
                  "share one AnalysisCache across the campaign's analyses",
                  coerce=bool),
    ],
    seed_param="seed",
    extract=_extract_distributed_e2e,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.total_requests,
    },
))

SCENARIOS.register(Scenario(
    name="infield_update",
    summary="MCC in-field update campaign with risky change requests (E1)",
    run_fn=run_infield_update_scenario,
    parameters=[
        Parameter("num_requests", 30, "length of the update campaign", coerce=int),
        Parameter("seed", 0, "campaign generation seed", coerce=int),
        Parameter("risky_fraction", 0.3, "fraction of deliberately problematic updates"),
        Parameter("num_processors", 3, "processors of the target platform", coerce=int),
        Parameter("mapping_strategy", "first_fit",
                  "component placement heuristic (first_fit | worst_fit | best_fit)",
                  coerce=MappingStrategy),
        Parameter("deploy", True, "deploy accepted configurations to the RTE"),
    ],
    seed_param="seed",
    extract=_extract_infield_update,
    bookkeeping=lambda result, params: {
        "sim_time_s": None,
        "event_count": result.total_requests,
    },
))
