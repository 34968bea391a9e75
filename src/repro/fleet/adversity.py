"""Adversity models: hostile and degraded-world campaign conditions.

The campaign engine of :mod:`repro.fleet.campaign` exercises the paper's
self-aware update loop under *nominal* conditions: every vehicle receives its
update, every monitor report is honest, and the platform the admission
verdict was computed for is the platform the update runs on.  Production
fleets enjoy none of that.  An :class:`AdversityModel` perturbs the wave loop
at its three seams:

* **Update delivery** — a lossy or partitioned OTA network drops the update
  for some vehicles.  :class:`LossyDeliveryAdversity` decides per vehicle and
  per attempt whether delivery succeeds; undelivered vehicles carry into the
  next wave (and into extra *straggler* waves after the planned rollout)
  until delivered or their retry budget is exhausted.
* **Monitor feedback** — compromised vehicles inject false deviation reports
  into the between-wave feedback channel.  :class:`IntrusionAdversity`
  forges the observed execution times of compromised vehicles (over- or
  under-reporting) and grades every deviation report through a
  :class:`~repro.security.ids.IntrusionDetectionSystem`, so the halt policy
  can discount reports from suspected senders instead of halting a healthy
  rollout on fabricated evidence.
* **Admission inputs** — thermal throttling changes the platform between
  waves.  :class:`ThermalAdversity` advances a
  :class:`~repro.platform.thermal.ThermalModel` /
  :class:`~repro.platform.thermal.DvfsGovernor` pair once per wave against a
  deterministic ambient profile and inflates the update contract's WCET by
  the reciprocal of the active speed factor, flipping admission verdicts in
  hot waves.

Determinism contract
--------------------

Every hook executes in wave order, with all randomness drawn from
:class:`~repro.sim.random.SeededRNG` streams keyed on
``(seed, vehicle.index, attempt)`` — never on wall clock or process ids.
Adversity decisions are therefore a pure function of the campaign
parameters, and a perturbed campaign remains byte-identical between
batched and sequential admission (the differential harness in
``tests/test_adversity_campaign.py`` pins this).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.contracts.model import Contract
from repro.fleet.vehicle import FleetVehicle
from repro.mcc.configuration import ChangeRequest
from repro.platform.resources import ProcessingResource
from repro.platform.thermal import DvfsGovernor, OperatingPoint, ThermalModel
from repro.security.ids import IdsRule, IntrusionDetectionSystem
from repro.sim.random import SeededRNG, derive_seed

#: Service peer that campaign monitor reports are addressed to (the OEM's
#: campaign backend) — the one peer every vehicle's IDS rule allows.
MONITOR_PEER = "campaign-monitor"


class AdversityModel:
    """Pluggable perturbation of a campaign's wave loop.

    The base class is the identity adversity: every hook is a no-op and a
    campaign configured with it behaves exactly like one without adversity.
    Subclasses override the seams they perturb; the campaign calls every
    hook in deterministic wave order from the parent process (see the module
    docstring for the determinism contract).
    """

    #: When true, the campaign grades feedback against *two-sided* tolerance
    #: bands (:class:`~repro.monitoring.deviation.ExpectedBehaviour` with
    #: ``two_sided=True``), closing the under-reporting channel.
    two_sided_feedback: bool = False

    #: Optional override of the honest observed-execution-time factor range
    #: drawn for non-injected vehicles (the campaign default spans well
    #: below the lower tolerance bound, which only a one-sided band
    #: ignores).  Models that enable two-sided grading narrow it so honest
    #: vehicles stay in band.
    nominal_factor_range: Optional[Tuple[float, float]] = None

    def begin_wave(self, wave_index: int,
                   vehicles: Sequence[FleetVehicle]) -> None:
        """Called once before each wave executes (including stragglers)."""

    def deliver(self, vehicle: FleetVehicle, wave_index: int,
                attempt: int) -> bool:
        """Whether the update reaches ``vehicle`` in this wave.

        ``attempt`` counts prior failed deliveries (0 on the first try).
        Returning ``False`` defers the vehicle to the next wave unless
        :meth:`abandon` gives up on it.
        """
        return True

    def abandon(self, vehicle: FleetVehicle, attempts: int) -> bool:
        """Whether to give up on an undelivered vehicle after ``attempts``
        failed deliveries (called only when :meth:`deliver` returned
        ``False``)."""
        return False

    def transform_request(self, vehicle: FleetVehicle, request: ChangeRequest,
                          wave_index: int) -> ChangeRequest:
        """Perturb the admission input of one vehicle (e.g. inflate WCETs)."""
        return request

    def observe(self, vehicle: FleetVehicle, wave_index: int, nominal: float,
                honest: float) -> float:
        """The execution time ``vehicle`` *reports* for this wave.

        ``nominal`` is the contracted WCET, ``honest`` the value the
        vehicle's monitor actually measured; a compromised vehicle returns a
        forged value instead.
        """
        return honest

    def grade_feedback(self, vehicle: FleetVehicle, wave_index: int) -> bool:
        """Grade one vehicle's deviation report; ``True`` discounts it.

        Called only for a deviating report.  A discounted report
        still marks the vehicle deviating (the record keeps the evidence)
        but is excluded from the halt-policy failure count.
        """
        return False


class LossyDeliveryAdversity(AdversityModel):
    """Lossy/partitioned OTA delivery with bounded per-vehicle retries.

    Each delivery attempt of each vehicle fails independently with
    probability ``drop_rate`` (seeded per ``(vehicle.index, attempt)``, so
    the decision stream is independent of wave composition and admission
    mode).  An undelivered vehicle is retried in the next wave — riding
    along with that wave's planned members, or in extra ``straggler`` waves
    once the planned rollout is exhausted — until it has failed
    ``1 + max_retries`` times, at which point it is abandoned (counted, not
    updated).
    """

    def __init__(self, drop_rate: float, max_retries: int = 3,
                 seed: int = 0) -> None:
        if not 0.0 <= drop_rate < 1.0:
            raise ValueError("drop_rate must be in [0, 1)")
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.drop_rate = drop_rate
        self.max_retries = int(max_retries)
        self.seed = seed
        #: Delivery accounting (attempts, drops, abandoned vehicles).
        self.attempts = 0
        self.drops = 0
        self.abandoned_ids: List[str] = []

    def deliver(self, vehicle: FleetVehicle, wave_index: int,
                attempt: int) -> bool:
        rng = SeededRNG(derive_seed(self.seed, "ota", vehicle.index, attempt))
        self.attempts += 1
        if rng.uniform() < self.drop_rate:
            self.drops += 1
            return False
        return True

    def abandon(self, vehicle: FleetVehicle, attempts: int) -> bool:
        if attempts > self.max_retries:
            self.abandoned_ids.append(vehicle.vehicle_id)
            return True
        return False


class IntrusionAdversity(AdversityModel):
    """Compromised vehicles injecting false deviation reports.

    A fraction ``compromise_rate`` of the fleet (seeded per vehicle index)
    is compromised.  In ``over_report`` mode a compromised vehicle forges an
    execution time well above the tolerance band and spams
    ``reports_per_wave`` copies of the report — trying to trip the halt
    policy and stall the rollout.  In ``under_report`` mode it forges a
    near-zero execution time to *hide* a genuine failure — the channel the
    one-sided tolerance band left open and the two-sided band closes
    (``two_sided_feedback`` is on for this model).

    Every deviation report is graded through an
    :class:`~repro.security.ids.IntrusionDetectionSystem`: each reporting
    vehicle gets a rate rule, report bursts exceed it within the rate
    window, and once the sender crosses the suspicion threshold its reports
    are discounted from the halt count (``discount_suspected=False``
    disables the countermeasure to measure the undefended baseline).
    """

    #: Honest vehicles stay inside the two-sided band (tolerance 0.1).
    nominal_factor_range = (0.92, 1.08)
    two_sided_feedback = True

    def __init__(self, compromise_rate: float, mode: str = "over_report",
                 reports_per_wave: int = 6, over_factor: float = 1.6,
                 under_factor: float = 0.02, max_report_rate_hz: float = 2.0,
                 suspicion_threshold: int = 3, discount_suspected: bool = True,
                 seed: int = 0) -> None:
        if not 0.0 <= compromise_rate <= 1.0:
            raise ValueError("compromise_rate must be in [0, 1]")
        if mode not in ("over_report", "under_report"):
            raise ValueError(f"unknown intrusion mode {mode!r}")
        if reports_per_wave < 1:
            raise ValueError("reports_per_wave must be at least 1")
        self.compromise_rate = compromise_rate
        self.mode = mode
        self.reports_per_wave = int(reports_per_wave)
        self.over_factor = over_factor
        self.under_factor = under_factor
        self.max_report_rate_hz = max_report_rate_hz
        self.discount_suspected = discount_suspected
        self.seed = seed
        self.ids = IntrusionDetectionSystem(
            suspicion_threshold=suspicion_threshold)
        self.compromised_ids: List[str] = []
        self._compromised_cache: Dict[str, bool] = {}

    def is_compromised(self, vehicle: FleetVehicle) -> bool:
        cached = self._compromised_cache.get(vehicle.vehicle_id)
        if cached is None:
            draw = SeededRNG(derive_seed(self.seed, "compromise",
                                         vehicle.index)).uniform()
            cached = draw < self.compromise_rate
            self._compromised_cache[vehicle.vehicle_id] = cached
            if cached:
                self.compromised_ids.append(vehicle.vehicle_id)
        return cached

    def observe(self, vehicle: FleetVehicle, wave_index: int, nominal: float,
                honest: float) -> float:
        if not self.is_compromised(vehicle):
            return honest
        factor = self.over_factor if self.mode == "over_report" \
            else self.under_factor
        return nominal * factor

    def grade_feedback(self, vehicle: FleetVehicle, wave_index: int) -> bool:
        sender = vehicle.vehicle_id
        if self.ids.rule_for(sender) is None:
            self.ids.add_rule(IdsRule(sender=sender,
                                      allowed_peers={MONITOR_PEER},
                                      max_rate_hz=self.max_report_rate_hz))
        # An honest monitor sends its deviation report once; a compromised
        # over-reporter floods duplicates to force the halt — which is
        # exactly the burst the IDS rate window flags.
        reports = self.reports_per_wave \
            if self.is_compromised(vehicle) and self.mode == "over_report" \
            else 1
        spacing = self.ids.rate_window_s / (4.0 * self.reports_per_wave)
        for copy in range(reports):
            self.ids.observe_service_call(float(wave_index) + copy * spacing,
                                          sender, MONITOR_PEER)
        return self.discount_suspected and self.ids.is_suspected(sender)


class ThermalAdversity(AdversityModel):
    """Thermal throttling inflating admission WCETs mid-campaign.

    One shared thermal proxy (the fleet operates in the same heat wave)
    advances by ``wave_dt_s`` seconds per wave towards the steady state of
    the deterministic triangular ambient profile: ambient ramps from
    ``base_ambient_c`` to ``peak_ambient_c`` at wave ``peak_wave`` and falls
    back symmetrically.  The DVFS governor reacts to the junction
    temperature; whenever it throttles, every update contract admitted that
    wave carries a WCET inflated by ``1 / speed_factor`` (capped just below
    the deadline so the contract stays well-formed and the *acceptance
    test* — not contract validation — flips the verdict).  Inflated
    contracts are cached per (base contract, speed factor), so same-variant
    vehicles of one wave still pose one deduped integration.
    """

    def __init__(self, base_ambient_c: float = 35.0,
                 peak_ambient_c: float = 80.0, peak_wave: int = 2,
                 wave_dt_s: float = 120.0, utilization: float = 0.9,
                 throttle_threshold_c: float = 85.0,
                 recover_threshold_c: float = 70.0,
                 operating_points: Optional[List[OperatingPoint]] = None) -> None:
        if peak_wave < 0:
            raise ValueError("peak_wave must be non-negative")
        if wave_dt_s <= 0:
            raise ValueError("wave_dt_s must be positive")
        self.base_ambient_c = base_ambient_c
        self.peak_ambient_c = peak_ambient_c
        self.peak_wave = int(peak_wave)
        self.wave_dt_s = wave_dt_s
        self.utilization = utilization
        self._proxy = ProcessingResource("thermal-adversity-proxy")
        self.model = ThermalModel(self._proxy, ambient_c=base_ambient_c)
        self.governor = DvfsGovernor(
            self._proxy, operating_points=operating_points,
            throttle_threshold_c=throttle_threshold_c,
            recover_threshold_c=recover_threshold_c)
        #: (wave_index, ambient_c, temperature_c, speed_factor) per wave.
        self.trace: List[Tuple[int, float, float, float]] = []
        #: id(base contract) -> (pinned base, {speed factor: inflated copy}).
        self._inflated: Dict[int, Tuple[Contract, Dict[float, Contract]]] = {}

    def ambient_at(self, wave_index: int) -> float:
        """Triangular ambient profile peaking at ``peak_wave``."""
        span = self.peak_ambient_c - self.base_ambient_c
        rise = max(self.peak_wave, 1)
        distance = abs(wave_index - self.peak_wave)
        return self.base_ambient_c + span * max(0.0, 1.0 - distance / rise)

    def begin_wave(self, wave_index: int,
                   vehicles: Sequence[FleetVehicle]) -> None:
        ambient = self.ambient_at(wave_index)
        temperature = self.model.step(self.wave_dt_s, self.utilization,
                                      self.governor.current.power_factor,
                                      ambient_c=ambient)
        point = self.governor.update(temperature)
        self.trace.append((wave_index, ambient, temperature,
                           point.speed_factor))

    @property
    def speed_factor(self) -> float:
        return self.governor.current.speed_factor

    def _inflate(self, contract: Contract, speed: float) -> Contract:
        base, variants = self._inflated.setdefault(id(contract),
                                                   (contract, {}))
        assert base is contract  # the pin keeps id(contract) unambiguous
        cached = variants.get(speed)
        if cached is not None:
            return cached
        timing = contract.timing
        wcet = min(timing.wcet / speed, 0.99 * timing.deadline)
        inflated_timing = replace(timing, wcet=wcet)
        inflated = replace(contract,
                           requirements=[inflated_timing if req is timing
                                         else req
                                         for req in contract.requirements])
        variants[speed] = inflated
        return inflated

    def transform_request(self, vehicle: FleetVehicle, request: ChangeRequest,
                          wave_index: int) -> ChangeRequest:
        speed = self.speed_factor
        if speed >= 1.0 or request.contract is None \
                or request.contract.timing is None:
            return request
        return replace(request, contract=self._inflate(request.contract,
                                                       speed))
