"""Typed request/response schemas of the fleet admission service.

The service API is a set of frozen dataclasses — the in-process equivalent
of a wire protocol.  Requests (:class:`SubmitCampaign`, :class:`HaltRequest`,
:class:`ResumeRequest`, :class:`RollbackRequest`) validate themselves at
construction, so a malformed call fails at the caller with
:class:`ServiceError` before it ever reaches the scheduler; responses
(:class:`SubmitReceipt`, :class:`WaveProgress`, :class:`CampaignStatus`) are
immutable snapshots the service emits — holding one never aliases live
service state.

Every campaign knob of :class:`SubmitCampaign` mirrors the E10 scenario
(:func:`repro.scenarios.fleet_campaign.run_fleet_campaign_scenario`): a
submitted campaign is a pure function of its parameters, so a tenant's
result is byte-identical to an isolated direct
:meth:`~repro.fleet.campaign.Campaign.run` over the same parameters — no
matter how many other tenants share the service (the E17 benchmark pins
this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Tuple

if TYPE_CHECKING:
    from repro.fleet.campaign import WavePolicy
    from repro.fleet.vehicle import FleetSpec

__all__ = [
    "ServiceError",
    "JobState",
    "SubmitCampaign",
    "SubmitReceipt",
    "WaveProgress",
    "CampaignStatus",
    "HaltRequest",
    "ResumeRequest",
    "RollbackRequest",
]


class ServiceError(ValueError):
    """Raised for malformed service requests or invalid job transitions."""


def _check_integer(name: str, value: object) -> None:
    """Raise :class:`ServiceError` unless ``value`` is an ``int`` (a
    ``bool`` is not)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{name} must be an integer")


def _check_finite(name: str, value: object) -> None:
    """Raise :class:`ServiceError` unless ``value`` is an ``int`` or
    ``float`` (a ``bool`` is not) that is finite as a float."""
    try:
        finite = not isinstance(value, bool) \
            and isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ServiceError(f"{name} must be a finite number")


def _check_job_id(job_id: object) -> None:
    if not isinstance(job_id, str) or not job_id:
        raise ServiceError("job_id must be a non-empty string")


class JobState:
    """The lifecycle states of a submitted campaign job.

    ``QUEUED`` — accepted, not yet provisioned.  ``RUNNING`` — an engine is
    being stepped (or is scheduled to be).  ``HALTED`` — parked at a wave
    boundary with a resumable checkpoint: either the wave policy tripped or
    an operator :class:`HaltRequest` landed.  ``COMPLETED`` /
    ``ROLLED_BACK`` / ``FAILED`` are terminal.
    """

    QUEUED = "queued"
    RUNNING = "running"
    HALTED = "halted"
    COMPLETED = "completed"
    ROLLED_BACK = "rolled_back"
    FAILED = "failed"

    #: States a job can never leave.
    TERMINAL = (COMPLETED, ROLLED_BACK, FAILED)


@dataclass(frozen=True)
class SubmitCampaign:
    """Submit one staged update campaign for a tenant's fleet.

    The fleet and the update are generated service-side from the seeds and
    knobs below (deterministically — resubmitting the identical request
    yields the identical campaign), matching the E10 scenario parameter for
    parameter.
    """

    tenant: str
    fleet_size: int = 24
    seed: int = 0
    heterogeneity: float = 0.15
    num_variants: int = 4
    extra_components: int = 2
    update_utilization: float = 0.22
    component: str = "nav_assist"
    canary_size: int = 2
    wave_fractions: Tuple[float, ...] = (0.1, 0.3, 1.0)
    max_failure_rate: float = 0.3
    rollback_on_halt: bool = True
    failure_injection_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("tenant", "component"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise ServiceError(f"{name} must be a non-empty string")
        for name in ("fleet_size", "seed", "num_variants",
                     "extra_components", "canary_size"):
            _check_integer(name, getattr(self, name))
        for name in ("heterogeneity", "update_utilization",
                     "max_failure_rate", "failure_injection_rate"):
            _check_finite(name, getattr(self, name))
        if not isinstance(self.rollback_on_halt, bool):
            raise ServiceError("rollback_on_halt must be a bool")
        if not isinstance(self.wave_fractions, (list, tuple)):
            raise ServiceError("wave_fractions must be a list or tuple")
        for fraction in self.wave_fractions:
            _check_finite("each of wave_fractions", fraction)
        if self.fleet_size < 1:
            raise ServiceError("fleet_size must be at least 1")
        if self.seed < 0:
            raise ServiceError("seed must be non-negative")
        if self.num_variants < 1:
            raise ServiceError("num_variants must be at least 1")
        if self.update_utilization <= 0.0:
            raise ServiceError("update_utilization must be positive")
        if not 0.0 <= self.failure_injection_rate <= 1.0:
            raise ServiceError("failure_injection_rate must be in [0, 1]")
        # Staging-policy shape errors surface at submit time too, with the
        # campaign layer's own messages (WavePolicy validates in its
        # __post_init__); tuple-ify defensively so callers can pass lists.
        object.__setattr__(self, "wave_fractions",
                           tuple(float(f) for f in self.wave_fractions))
        from repro.fleet.campaign import CampaignError
        try:
            self.policy()
        except CampaignError as error:
            raise ServiceError(f"invalid staging policy: {error}") from error
        # Fleet-shape errors (heterogeneity, extra_components) likewise
        # surface here, with FleetSpec's own messages, instead of failing
        # the job once provisioning runs.
        try:
            self.fleet_spec()
        except ValueError as error:
            raise ServiceError(f"invalid fleet: {error}") from error

    def policy(self) -> "WavePolicy":
        """The :class:`~repro.fleet.campaign.WavePolicy` this submission
        stages and halts by."""
        from repro.fleet.campaign import WavePolicy
        return WavePolicy(canary_size=self.canary_size,
                          wave_fractions=self.wave_fractions,
                          max_failure_rate=self.max_failure_rate,
                          rollback_on_halt=self.rollback_on_halt)

    def fleet_spec(self) -> "FleetSpec":
        """The :class:`~repro.fleet.vehicle.FleetSpec` this submission
        provisions."""
        from repro.fleet.vehicle import FleetSpec
        return FleetSpec(size=self.fleet_size, seed=self.seed,
                         heterogeneity=self.heterogeneity,
                         num_variants=self.num_variants,
                         extra_components=self.extra_components)


@dataclass(frozen=True)
class SubmitReceipt:
    """Acknowledgement of an accepted :class:`SubmitCampaign`."""

    job_id: str
    tenant: str
    state: str
    fleet_size: int
    waves_planned: int


@dataclass(frozen=True)
class WaveProgress:
    """One executed wave of one job — the streaming unit.

    ``final`` marks the last wave the job's current engine will execute
    (completion or policy halt); an operator halt parks the job *between*
    waves, so a halted-then-resumed job streams ``final`` only once, at its
    true end.
    """

    job_id: str
    tenant: str
    index: int
    kind: str
    size: int
    admitted: int
    rejected: int
    deviating: int
    rolled_back: int
    failure_rate: float
    halted: bool
    final: bool


@dataclass(frozen=True)
class CampaignStatus:
    """Point-in-time snapshot of one job's aggregate state."""

    job_id: str
    tenant: str
    state: str
    waves_executed: int
    admitted: int
    rejected: int
    deviating: int
    rolled_back: int
    halted_wave: Optional[int]
    update_coverage: float
    error: Optional[str] = None


@dataclass(frozen=True)
class HaltRequest:
    """Park a job at its next wave boundary with a resumable checkpoint."""

    job_id: str
    reason: str = ""

    def __post_init__(self) -> None:
        _check_job_id(self.job_id)
        if not isinstance(self.reason, str):
            raise ServiceError("reason must be a string")


@dataclass(frozen=True)
class ResumeRequest:
    """Resume a halted job from its checkpoint.

    ``max_failure_rate`` optionally remediates the staging policy's halt
    threshold (the classic operator move after a policy halt); all other
    campaign parameters stay as submitted — resume re-validates that the
    staging of already-executed waves is unchanged.
    """

    job_id: str
    max_failure_rate: Optional[float] = None

    def __post_init__(self) -> None:
        _check_job_id(self.job_id)
        if self.max_failure_rate is not None:
            _check_finite("max_failure_rate", self.max_failure_rate)
            if not 0.0 <= self.max_failure_rate <= 1.0:
                raise ServiceError("max_failure_rate must be in [0, 1]")


@dataclass(frozen=True)
class RollbackRequest:
    """Abandon a halted job and roll its fleet back to the pre-campaign state."""

    job_id: str

    def __post_init__(self) -> None:
        _check_job_id(self.job_id)
