"""Staged update campaigns across a simulated fleet.

The unit of work at production scale is not one change request but a
*campaign*: the same logical update rolled out to N vehicles in staged waves
(canary -> percentage waves -> full), with per-vehicle admission through each
vehicle's own MCC, monitor feedback consumed between waves, and a policy that
halts — and optionally rolls back — a wave whose rejection/deviation rate
exceeds the tolerated threshold.

Batched admission is *verdict dedupe*: vehicles whose model, platform
shape and request are *identical* (same variant, same adopted contract
objects, same mapping state) are one integration, not N.  The first vehicle
of each equivalence group runs the full process, the rest replay its
verdict and mapping decision through
:meth:`~repro.mcc.controller.MultiChangeController.replay_change`.  The
grouping keys on object identity of the adopted contracts, so it is exact:
batched and sequential admission produce identical wave verdicts, and only
the wall time differs (the differential harness, the fleet tests and the
E10 benchmarks all assert this).  Either way a shared
:class:`~repro.analysis.cache.AnalysisCache` lets every integration reuse
the analyses of the ones before it.

Warm starts and checkpoints
---------------------------

``cache_path`` adds a persistent on-disk
:meth:`~repro.analysis.cache.AnalysisCache.save_snapshot` of the shared
cache: loaded at run start and rewritten at run end (halts included).  Wave
N+1 reuses wave N's analyses through the live cache, and an entirely new
campaign run over the same fleet warm-starts from the previous run on disk.
:meth:`CampaignEngine.checkpoint
<repro.fleet.engine.CampaignEngine.checkpoint>` freezes a campaign at a
wave boundary — its wave records plus per-vehicle MCC snapshots — and a
policy halt freezes it at the start of the halting wave (also kept as
:attr:`Campaign.last_checkpoint`), so a remediated campaign can
:meth:`Campaign.run` with ``resume_from=`` and continue where it stopped.
Whoever holds a checkpoint saves it (:meth:`CampaignCheckpoint.save`).

Execution itself lives in :mod:`repro.fleet.engine`: this module holds the
campaign *description* (fleet, policy, knobs, result/checkpoint types and
the wave planner), while :class:`~repro.fleet.engine.CampaignEngine` is the
re-entrant wave stepper that :meth:`Campaign.run` drives to completion —
and that the fleet admission service (:mod:`repro.service`) drives one wave
at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.cache import (AnalysisCache, _atomic_pickle,
                                  _RestrictedUnpickler)
from repro.fleet.adversity import AdversityModel
from repro.fleet.vehicle import FleetVehicle, VehicleState
from repro.mcc.configuration import ChangeRequest, SystemModel
from repro.mcc.controller import MccSnapshot
from repro.monitoring.deviation import ExpectedBehaviour
from repro.observability.tracer import CampaignTracer
from repro.platform.rte import RteConfiguration

#: Builds the per-vehicle change request of the campaign's update.
UpdateFactory = Callable[[FleetVehicle], ChangeRequest]

#: Absolute slack on the halt threshold comparison, in *vehicles*.  The
#: failure count is an integer but the tolerated count is a float product
#: (``max_failure_rate * size``) that can round below the mathematically
#: equal integer (``(1/49) * 49 == 0.9999...``); the slack keeps an
#: exactly-at-threshold wave tolerated for any fleet far below a billion
#: vehicles.
_HALT_SLACK = 1e-9


class CampaignError(ValueError):
    """Raised for invalid campaign or wave-policy configuration."""


@dataclass(frozen=True)
class WavePolicy:
    """Staging and halting policy of a campaign.

    ``canary_size`` vehicles go first (0 disables the canary wave); the
    remainder is released in waves at the cumulative ``wave_fractions`` of
    the post-canary fleet (a final full wave is implied when the last
    fraction is below 1).

    ``max_failure_rate`` is the highest **tolerated** failure rate of one
    wave — failures being rejections plus post-deployment deviations.  The
    halt comparison is strict (*exceeds*, not *reaches*): a wave at exactly
    the threshold passes, ``max_failure_rate=1.0`` never halts.  Two edge
    semantics are pinned explicitly (see :meth:`halts`): a zero threshold is
    zero tolerance — **any** failed vehicle halts, without relying on
    floating-point strictness — and the exactly-at-threshold comparison is
    performed on integer failure counts with an absolute slack, so binary
    rounding of the tolerated count (``(1/49) * 49 < 1``) cannot turn a
    tolerated wave into a halt.
    ``rollback_on_halt`` then rolls the admitted vehicles of the halting
    wave back to their pre-wave state.
    """

    canary_size: int = 2
    wave_fractions: Tuple[float, ...] = (0.1, 0.3, 1.0)
    max_failure_rate: float = 0.3
    rollback_on_halt: bool = True
    refine_on_deviation: bool = False

    def __post_init__(self) -> None:
        if self.canary_size < 0:
            raise CampaignError("canary_size must be non-negative")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise CampaignError("max_failure_rate must be in [0, 1]")
        previous = 0.0
        for fraction in self.wave_fractions:
            if not 0.0 < fraction <= 1.0:
                raise CampaignError(f"wave fraction {fraction} not in (0, 1]")
            if fraction < previous:
                raise CampaignError("wave_fractions must be non-decreasing")
            previous = fraction

    def halts(self, failures: int, size: int) -> bool:
        """Whether a wave with ``failures`` failed vehicles of ``size`` halts.

        A clean wave never halts (even at a zero threshold); a zero
        threshold halts on any failure; otherwise the integer failure count
        must strictly exceed the tolerated count ``max_failure_rate * size``
        beyond float rounding slack.  Empty waves are never planned, but a
        ``size <= 0`` input degrades to "no halt" rather than dividing by
        zero.
        """
        if failures <= 0 or size <= 0:
            return False
        if self.max_failure_rate == 0.0:
            return True
        return failures > self.max_failure_rate * size + _HALT_SLACK


@dataclass
class WaveRecord:
    """Outcome of one executed wave.

    Under an adversity model a wave's staged membership and its executed
    membership can differ: ``undelivered`` vehicles were staged but never
    received the update this wave (they carry into the next wave or are
    ``abandoned`` once their retry budget is spent), ``retried`` counts the
    members that were carried *into* this wave from earlier failed
    deliveries, and ``discounted`` counts deviation reports the feedback
    grader attributed to suspected-compromised senders — still recorded as
    deviating, but excluded from the halt decision.  All four stay zero on
    an unperturbed campaign.
    """

    index: int
    kind: str
    vehicle_ids: List[str]
    admitted: int = 0
    rejected: int = 0
    deviating: int = 0
    refined: int = 0
    rolled_back: int = 0
    undelivered: int = 0
    retried: int = 0
    abandoned: int = 0
    discounted: int = 0

    @property
    def size(self) -> int:
        return len(self.vehicle_ids)

    @property
    def delivered(self) -> int:
        """Members that actually received the update this wave."""
        return self.size - self.undelivered

    @property
    def failures(self) -> int:
        """Failed vehicles of the wave: rejections plus deviations."""
        return self.rejected + self.deviating

    @property
    def effective_failures(self) -> int:
        """Failures that count towards the halt decision (discount applied)."""
        return max(self.failures - self.discounted, 0)

    @property
    def failure_rate(self) -> float:
        """Failures over wave size (0.0 for a degenerate empty wave)."""
        return self.failures / self.size if self.size else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "kind": self.kind, "size": self.size,
                "admitted": self.admitted, "rejected": self.rejected,
                "deviating": self.deviating, "refined": self.refined,
                "rolled_back": self.rolled_back,
                "undelivered": self.undelivered, "retried": self.retried,
                "abandoned": self.abandoned, "discounted": self.discounted,
                "failure_rate": self.failure_rate}


def _summed(name: str, doc: str) -> property:
    """A read-only count: the sum of field ``name`` over the wave records."""
    return property(lambda result: sum(getattr(record, name)
                                       for record in result.waves), doc=doc)


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run, stored in its wave records."""

    fleet_size: int
    batched: bool
    waves: List[WaveRecord] = field(default_factory=list)
    halted: bool = False
    halted_wave: Optional[int] = None
    #: The shared analysis cache's hits and misses during this run: its
    #: admissions plus the provisioning of every vehicle the run touched
    #: first (vehicles provision on first touch, see
    #: :func:`~repro.fleet.vehicle.generate_fleet`).  Like
    #: ``engine_reuse_rate`` (the shared incremental engine's lifetime
    #: reuse rate) they are informational and vary with the order in which
    #: vehicles were touched; verdicts never do.
    cache_hits: int = 0
    cache_misses: int = 0
    engine_reuse_rate: float = 0.0

    admitted = _summed("admitted", "Admissions that accepted the update.")
    rejected = _summed("rejected", "Admissions that rejected the update.")
    deviating = _summed("deviating", "Updated vehicles that deviated.")
    refined = _summed("refined", "WCETs refined from deviating feedback.")
    rolled_back = _summed("rolled_back", "Admissions a halt rolled back.")
    # Adversity accounting (see WaveRecord), zero on unperturbed campaigns:
    undelivered = _summed("undelivered", "Deferred delivery events.")
    retried = _summed("retried", "Wave slots of carried vehicles.")
    abandoned = _summed("abandoned", "Vehicles out of delivery retries.")
    discounted = _summed("discounted", "Deviations of IDS suspects.")

    @property
    def completed(self) -> bool:
        """Whether the campaign ran its staged rollout to the end.

        Requires at least one executed wave and no halt: a degenerate
        campaign over an empty fleet (zero waves planned) reports neither
        ``completed`` nor ``halted`` — it did not successfully roll anything
        out, it had nothing to do.
        """
        return bool(self.waves) and not self.halted

    @property
    def vehicles_updated(self) -> int:
        """Vehicles running the update after the campaign (net of rollback)."""
        return self.admitted - self.rolled_back

    @property
    def update_coverage(self) -> float:
        """Updated fraction of the fleet (0.0, not NaN, for an empty fleet)."""
        return self.vehicles_updated / self.fleet_size if self.fleet_size else 0.0

    @property
    def acceptance_rate(self) -> float:
        """Admitted fraction of attempted admissions (0.0 when none ran)."""
        attempted = self.admitted + self.rejected
        return self.admitted / attempted if attempted else 0.0


@dataclass
class CampaignCheckpoint:
    """A campaign frozen at a wave boundary, ready to resume.

    :meth:`CampaignEngine.checkpoint
    <repro.fleet.engine.CampaignEngine.checkpoint>` is its one producer.
    Between waves every executed wave is committed and nothing is in
    flight; after a policy **halt** the boundary is the start of the
    halting wave, whose members are stored at their pre-wave state
    regardless of the rollback policy, so the remediated wave re-runs from
    scratch.  ``next_wave`` is the wave cursor, ``result`` holds the wave
    records executed before it (its counts are their sums), and
    ``vehicle_states`` every fleet vehicle's portable MCC snapshot
    (``None`` for a vehicle at its variant's baseline, see
    :class:`~repro.fleet.vehicle.VehicleState`) and rollout flags (the
    retry carry is structurally empty wherever checkpoints are legal —
    they require ``adversity=None``).  The checkpoint pickles cleanly —
    :meth:`save`/:meth:`load` move it across processes and runs — and
    :meth:`Campaign.run` with ``resume_from=`` continues where it stopped.
    """

    next_wave: int
    result: CampaignResult
    vehicle_states: List[VehicleState]

    def save(self, path: str) -> None:
        """Pickle this checkpoint to ``path``, atomically: a crash mid-write
        never truncates the recovery artifact of a halted campaign."""
        _atomic_pickle(self, path)

    @staticmethod
    def load(path: str) -> "CampaignCheckpoint":
        """Load a checkpoint previously written by :meth:`save`.

        Unpickling goes through the allowlist of
        :class:`~repro.analysis.cache._RestrictedUnpickler` — a corrupt,
        foreign or malicious pickle raises
        :class:`CampaignError` instead of executing whatever its reduce
        payloads name.  The allowlist admits any class of this package in
        any position, so every field a resume reads is type-checked too; a
        mistyped one raises :class:`CampaignError` naming it.
        """
        with open(path, "rb") as stream:
            try:
                checkpoint = _RestrictedUnpickler(stream).load()
            except Exception as error:
                raise CampaignError(
                    f"{path!r} is not a loadable campaign checkpoint: "
                    f"{error}") from error
        if not isinstance(checkpoint, CampaignCheckpoint):
            raise CampaignError(f"{path!r} is not a campaign checkpoint")
        for name, value, kind in _resumed_fields(checkpoint):
            if not isinstance(value, kind) \
                    or (kind is int and isinstance(value, bool)):
                raise CampaignError(f"{path!r} is not a campaign checkpoint: "
                                    f"malformed {name}")
        return checkpoint


def _resumed_fields(checkpoint: CampaignCheckpoint) -> Iterator[Tuple]:
    """``(name, value, type)`` of every field a resume reads from a loaded
    ``checkpoint``, each object before its fields, so a reader stopping at
    the first mistyped one never reads into it.  A missing field reads as
    ``...``, which no type admits."""
    yield "next_wave", getattr(checkpoint, "next_wave", ...), int
    yield "result", getattr(checkpoint, "result", ...), CampaignResult
    yield "result.waves", getattr(checkpoint.result, "waves", ...), list
    for position, record in enumerate(checkpoint.result.waves):
        name = f"result.waves[{position}]"
        yield name, record, WaveRecord
        for spec in fields(WaveRecord):
            yield (f"{name}.{spec.name}", getattr(record, spec.name, ...),
                   {"kind": str, "vehicle_ids": list}.get(spec.name, int))
    yield "vehicle_states", getattr(checkpoint, "vehicle_states", ...), list
    for position, state in enumerate(checkpoint.vehicle_states):
        name = f"vehicle_states[{position}]"
        yield name, state, VehicleState
        for spec in fields(VehicleState):
            yield (f"{name}.{spec.name}", getattr(state, spec.name, ...),
                   {"vehicle_id": str, "snapshot": (MccSnapshot, type(None))
                    }.get(spec.name, bool))
        for spec in fields(MccSnapshot) if state.snapshot is not None else ():
            yield (f"{name}.snapshot.{spec.name}",
                   getattr(state.snapshot, spec.name, ...),
                   {"model": SystemModel, "expectations": tuple}.get(
                       spec.name, (RteConfiguration, type(None))))
        for expectation in getattr(state.snapshot, "expectations", ()):
            yield f"{name}.snapshot.expectations", expectation, \
                ExpectedBehaviour


def plan_waves(vehicles: Sequence[FleetVehicle],
               policy: WavePolicy) -> List[Tuple[str, List[FleetVehicle]]]:
    """Deterministic wave partition of a fleet: canary, staged, full.

    Every returned wave is non-empty; an empty fleet yields no waves (the
    degenerate campaign executes nothing) and a single-vehicle fleet yields
    exactly one (canary when enabled).  The last wave always covers the
    remaining fleet even when ``wave_fractions`` stops short of 1.0, and a
    canary at least as large as the fleet simply is the whole rollout.
    """
    ordered = list(vehicles)
    if not ordered:
        return []
    waves: List[Tuple[str, List[FleetVehicle]]] = []
    cursor = 0
    if policy.canary_size > 0:
        canary = ordered[:policy.canary_size]
        waves.append(("canary", canary))
        cursor = len(canary)
    remainder = ordered[cursor:]
    released = 0
    fractions = list(policy.wave_fractions)
    if not fractions or fractions[-1] < 1.0:
        fractions.append(1.0)
    for fraction in fractions:
        if released >= len(remainder):
            break
        target = min(len(remainder), max(released + 1,
                                         round(fraction * len(remainder))))
        wave = remainder[released:target]
        kind = "full" if target == len(remainder) else "wave"
        waves.append((kind, wave))
        released = target
    return waves


class Campaign:
    """Rolls one update out across a fleet in staged waves.

    Parameters
    ----------
    vehicles:
        The fleet, in rollout order.
    update_factory:
        Builds the per-vehicle :class:`ChangeRequest` (vehicles of different
        variants typically get variant-scaled contracts of the same logical
        update).
    policy:
        Staging/halting policy.
    analysis_cache:
        The cache the fleet was generated with, if any: the result reports
        its traffic, and ``cache_path`` snapshots it.
    batch_admission:
        Admit only the first vehicle of each group of identical admission
        problems and replay its verdict on the others.
    failure_injection_rate:
        Probability that an updated vehicle's observed execution time exceeds
        its contracted budget (simulated field failure).
    feedback_seed:
        Seed of the simulated monitor feedback stream; per-vehicle draws are
        derived from it and the vehicle index, so feedback is identical for
        batched and sequential admission.
    cache_path:
        Optional on-disk snapshot of the shared analysis cache.  Loaded (if
        present) at run start and rewritten when the run ends — halt
        included — so whole re-runs and resumed campaigns warm-start from
        every previously derived analysis.  (Within a run, wave N+1
        warm-starts from wave N through the live cache.)  Requires an
        ``analysis_cache``.
    adversity:
        Optional :class:`~repro.fleet.adversity.AdversityModel` perturbing
        the wave loop: lossy update delivery (undelivered vehicles carry
        into later waves, extra ``straggler`` waves run after the planned
        rollout until every retry budget is spent), forged monitor feedback
        graded by an IDS (suspected senders' deviations are recorded but
        *discounted* from the halt decision) and perturbed admission inputs
        (e.g. thermally inflated WCETs).  All adversity decisions execute
        in wave order from seeded streams, so perturbed campaigns keep the
        byte-parity guarantee of batched against sequential admission.
        Mutually exclusive with ``resume_from`` — a delivery-perturbed
        staging cannot be validated against the static wave plan.
    tracer:
        Optional :class:`~repro.observability.tracer.CampaignTracer`.  When
        set, the wave loop, the adversity seams and, while this campaign
        runs, the shared analysis cache report structured events into it
        (flushed to its JSONL path at run end); see
        ``docs/OBSERVABILITY.md`` for the event taxonomy.
        Tracing is strictly read-only: traced campaigns produce
        field-for-field identical results to untraced ones, and
        ``tracer=None`` (the default) leaves every
        instrumentation site a single attribute test — the zero-overhead
        path.
    """

    def __init__(self, vehicles: Sequence[FleetVehicle],
                 update_factory: UpdateFactory,
                 policy: Optional[WavePolicy] = None,
                 analysis_cache: Optional[AnalysisCache] = None,
                 batch_admission: bool = True,
                 failure_injection_rate: float = 0.0,
                 feedback_seed: int = 0,
                 cache_path: Optional[str] = None,
                 adversity: Optional[AdversityModel] = None,
                 tracer: Optional[CampaignTracer] = None) -> None:
        if not 0.0 <= failure_injection_rate <= 1.0:
            raise CampaignError("failure_injection_rate must be in [0, 1]")
        if cache_path is not None and analysis_cache is None:
            raise CampaignError("cache_path needs an analysis cache to snapshot")
        self.vehicles = list(vehicles)
        self.update_factory = update_factory
        self.policy = policy if policy is not None else WavePolicy()
        self.analysis_cache = analysis_cache
        self.batch_admission = batch_admission
        self.failure_injection_rate = failure_injection_rate
        self.feedback_seed = feedback_seed
        self.cache_path = cache_path
        self.adversity = adversity
        self.tracer = tracer
        #: The checkpoint of the last policy halt (None before, or under
        #: adversity).
        self.last_checkpoint: Optional[CampaignCheckpoint] = None
        #: One-shot latch of :meth:`run` (see its docstring).
        self._ran = False

    # -- execution ---------------------------------------------------------

    def run(self, resume_from: Optional[CampaignCheckpoint] = None
            ) -> CampaignResult:
        """Execute the campaign and return its aggregate result.

        With ``resume_from`` the fleet is first rewound to the checkpoint
        (halting-wave members to their pre-wave state) and execution
        continues at the checkpointed wave; the returned result aggregates
        the checkpointed waves plus everything executed now.

        ``run()`` is **one-shot**: a finished (or failed) run leaves
        per-run state behind — :attr:`last_checkpoint`, adopted vehicle
        models, cache-counter baselines — so re-entering
        the same instance would silently compute something other than a
        fresh campaign.  A second call raises :class:`CampaignError`;
        construct a new ``Campaign`` (passing ``resume_from=`` to continue
        a checkpointed rollout) instead.  Wave-by-wave execution with
        explicit boundaries is available through
        :class:`~repro.fleet.engine.CampaignEngine` directly.
        """
        if self._ran:
            raise CampaignError(
                "this Campaign instance already ran; run() is one-shot "
                "because a run mutates per-run state (last_checkpoint, "
                "vehicle models) — construct a fresh "
                "Campaign, with resume_from= to continue a checkpoint")
        self._ran = True
        from repro.fleet.engine import CampaignEngine
        engine = CampaignEngine(self, resume_from=resume_from)
        while not engine.done:
            engine.step()
        return engine.finalize()

