"""Fleet-scale update campaigns (the MCC at production scale).

The paper's Multi-Change Controller admits in-field updates per vehicle; a
production deployment serves *fleets* — the same logical update rolled out to
many vehicles with heterogeneous platform models.  This package provides the
two halves of that workload:

* :mod:`repro.fleet.vehicle` — deterministic generation of a heterogeneous
  fleet (variant-clustered platforms, scaled WCETs, differing CAN topologies
  and baseline component sets), each vehicle with its own MCC.
* :mod:`repro.fleet.campaign` — the staged rollout description: canary and
  percentage waves, batched admission through a shared analysis cache and
  the incremental CPA engine, per-vehicle monitor/deviation feedback between
  waves, and halt/rollback when a wave's failure rate crosses the policy
  threshold.
* :mod:`repro.fleet.engine` — the re-entrant wave stepper executing a
  campaign one wave at a time (``Campaign.run()`` is a thin loop over it;
  the admission service interleaves many engines), with wave-boundary
  checkpointing.
* :mod:`repro.fleet.adversity` — hostile and degraded-world perturbations
  of the campaign loop: lossy OTA delivery with retry/straggler waves,
  compromised vehicles forging deviation reports (graded and discounted
  through the IDS), and thermal throttling inflating admission WCETs.

Scenarios E10 (``repro.scenarios.fleet_campaign``) and E14–E16
(``repro.scenarios.adversity_campaigns``) wire these into the experiment
registry.
"""

from repro.fleet.vehicle import (
    FleetSpec,
    FleetVehicle,
    VehicleState,
    VehicleVariant,
    build_vehicle_platform,
    generate_fleet,
    generate_variants,
    variant_contracts,
)
from repro.fleet.adversity import (
    MONITOR_PEER,
    AdversityModel,
    IntrusionAdversity,
    LossyDeliveryAdversity,
    ThermalAdversity,
)
from repro.fleet.campaign import (
    Campaign,
    CampaignCheckpoint,
    CampaignError,
    CampaignResult,
    WavePolicy,
    WaveRecord,
    plan_waves,
)
from repro.fleet.engine import (
    CampaignEngine,
    CampaignState,
)

__all__ = [
    "MONITOR_PEER",
    "AdversityModel",
    "IntrusionAdversity",
    "LossyDeliveryAdversity",
    "ThermalAdversity",
    "FleetSpec",
    "FleetVehicle",
    "VehicleState",
    "VehicleVariant",
    "build_vehicle_platform",
    "generate_fleet",
    "generate_variants",
    "variant_contracts",
    "Campaign",
    "CampaignCheckpoint",
    "CampaignEngine",
    "CampaignError",
    "CampaignResult",
    "CampaignState",
    "WavePolicy",
    "WaveRecord",
    "plan_waves",
]
