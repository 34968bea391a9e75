"""The paper's worked cross-layer scenarios as reusable drivers.

Each scenario is a function that builds the required subsystems, injects the
disturbance the paper describes, runs the closed loop and returns a result
object with the metrics the benchmarks (E1, E5–E8) and examples report.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "intrusion": ["IntrusionScenarioResult", "run_intrusion_scenario"],
    "thermal": ["ThermalScenarioResult", "ThermalStrategy",
                "run_thermal_scenario"],
    "platooning_fog": ["FogPlatooningResult", "run_fog_platooning_scenario"],
    "weather_routing": ["WeatherRoutingResult",
                        "run_weather_routing_scenario"],
    "infield_update": ["InFieldUpdateResult", "run_infield_update_scenario"],
    "fleet_campaign": ["FleetCampaignResult", "run_fleet_campaign_scenario"],
    "distributed_e2e": ["DistributedE2EResult",
                        "run_distributed_e2e_scenario"],
    "adversity_campaigns": ["IntrusionCampaignResult",
                            "LossyOtaCampaignResult", "ThermalCampaignResult",
                            "run_intrusion_campaign_scenario",
                            "run_lossy_ota_campaign_scenario",
                            "run_thermal_campaign_scenario"],
})
