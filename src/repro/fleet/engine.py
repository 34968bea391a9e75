"""Re-entrant wave-stepping engine behind :class:`~repro.fleet.campaign.Campaign`.

:class:`~repro.fleet.campaign.Campaign` describes *what* to roll out — the
fleet, the update factory, the staging/halting policy and the execution
knobs; this module owns *how*, one wave at a time.  :class:`CampaignEngine`
is an explicit state machine over :class:`CampaignState`: construct it, call
:meth:`~CampaignEngine.step` once per wave (each call executes exactly one
wave and returns its :class:`~repro.fleet.campaign.WaveRecord`), and call
:meth:`~CampaignEngine.finalize` when :attr:`~CampaignEngine.done` to obtain
the aggregate :class:`~repro.fleet.campaign.CampaignResult`.
:meth:`Campaign.run() <repro.fleet.campaign.Campaign.run>` is nothing but
that loop — stepped and run-to-completion execution are byte-identical by
construction, and the differential tests pin it.

The split buys two things the monolithic ``run()`` could not offer:

* **Interruptibility.**  Between any two :meth:`~CampaignEngine.step` calls
  the campaign sits at a *wave boundary*: every executed wave is fully
  committed (admission, feedback, halt decision, rollback), no wave is in
  flight.  :meth:`~CampaignEngine.checkpoint`, the one producer of
  :class:`~repro.fleet.campaign.CampaignCheckpoint`, logs that boundary
  as the records of the committed waves (after a policy halt, the boundary
  before the halting wave), so a campaign can be parked and resumed at
  *any* boundary, not only where the halt policy tripped, with or without
  an adversity model.
* **Interleavability.**  A driver can hold many engines and advance them
  step by step in any order — the fleet admission service
  (:mod:`repro.service`) runs one wave of one tenant's campaign per
  scheduling claim, streaming each returned wave record to the submitter.

State and resume
----------------

:class:`CampaignState` carries exactly the between-wave execution state: the
wave cursor, the straggler/retry carry, the stall guard and the running
:class:`~repro.fleet.campaign.CampaignResult`.  The per-vehicle rollout
state lives on the :class:`~repro.fleet.vehicle.FleetVehicle` objects (MCC
model, ``updated``/``deviating``/``rolled_back`` flags), the adversity
state on the adversity model, and the verdict table of batched admission
(``precedents``, keyed on each vehicle's adopted model object and its
request, see :meth:`CampaignEngine._equivalence_key`) on the engine.
None of it goes into a checkpoint, because all of it is a deterministic
function of the fleet's baseline and the waves run since: admission
follows from the contracts, platform models and requests, the feedback
draws derive from ``(feedback_seed, vehicle.index)`` and every adversity
decision from its model's seeded streams.

So a checkpoint is the log of the committed waves, and a resume is a
replay: the engine rewinds every vehicle to its baseline
(:meth:`~repro.fleet.vehicle.FleetVehicle.restore_state`), re-runs each
logged wave through the ordinary wave code, without a halt decision and
without trace events, checks that it commits the logged record, and then
continues at the cursor.  The replay rebuilds the carry, the adversity
state (from a fresh model of the same parameters) and the verdict table
exactly, so the resumed run makes the uninterrupted run's admission calls.
One rule keeps the replay exact: it starts from the fleet's baseline, so
:meth:`CampaignEngine.checkpoint` refuses a campaign whose vehicles were
not at their baseline when its engine was built.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  CampaignResult, WaveRecord, plan_waves)
from repro.fleet.vehicle import FleetVehicle, VehicleState
from repro.mcc.configuration import ChangeRequest, IntegrationReport
from repro.mcc.controller import MccSnapshot, derive_expectation
from repro.observability.tracer import CampaignTracer
from repro.sim.random import SeededRNG, derive_seed

__all__ = ["CampaignState", "CampaignEngine"]


def _copy_waves(records: Sequence[WaveRecord]) -> List[WaveRecord]:
    """Independent copies of wave records (fresh vehicle-id lists)."""
    return [replace(record, vehicle_ids=list(record.vehicle_ids))
            for record in records]


@dataclass
class CampaignState:
    """Between-wave execution state of one campaign.

    Everything the wave loop mutates lives here, so an engine holding a
    ``CampaignState`` at a wave boundary is fully described by it (plus the
    fleet vehicles' own rollout state):

    ``wave_index``
        Cursor into the static wave plan; past the plan's end the campaign
        is running adversity ``straggler`` waves (or is done).  A resumed
        campaign reaches the checkpoint's cursor by replaying the
        checkpointed waves.
    ``carry``
        Vehicles whose update delivery failed, carried into the next wave
        as ``(vehicle, failed_attempts)`` pairs.  Structurally empty
        without an adversity model; a resume rebuilds it by replaying the
        waves that deferred them, so no checkpoint stores it.
    ``stalled_waves``
        Consecutive straggler waves without a delivery or an abandonment;
        the stall guard halts a pathological adversity model at 1000.
    ``result``
        The running aggregate; :meth:`CampaignEngine.finalize` stamps the
        cache counters onto it and returns it.
    ``hits_before`` / ``misses_before``
        Shared-cache counter baselines taken when engine construction
        starts, so ``result`` reports this run's cache traffic only: its
        admissions plus the provisioning of the vehicles it touched first.
    """

    wave_index: int = 0
    carry: List[Tuple[FleetVehicle, int]] = field(default_factory=list)
    stalled_waves: int = 0
    result: CampaignResult = field(
        default_factory=lambda: CampaignResult(fleet_size=0, batched=False))
    hits_before: int = 0
    misses_before: int = 0


class CampaignEngine:
    """Executes one campaign wave-by-wave; the stepper behind ``run()``.

    Construction performs the campaign prologue exactly as the monolithic
    ``run()`` did — begin trace, counter baselines — and a resume's silent
    replay of its checkpointed waves, so a constructed engine is positioned
    at a wave boundary.  Then:

    * :meth:`step` executes exactly one wave (staging and provisioning the
      staged vehicles, adversity delivery, dedupe, admission, feedback,
      halt decision, rollback) and returns its :class:`WaveRecord`;
    * :attr:`done` reports whether a next wave exists (the plan is
      exhausted with no carry, or the campaign halted);
    * :meth:`finalize` runs the epilogue (cache counters, end trace) and
      returns the result;
    * :meth:`checkpoint` logs the current wave boundary.

    One engine executes one campaign run; it is not reusable after
    :meth:`finalize`.  The engine holds live references into its
    :class:`Campaign` (vehicles, caches), so at most one engine
    should drive a campaign at a time — :meth:`Campaign.run` enforces this
    with its one-shot guard.
    """

    def __init__(self, campaign: Campaign,
                 resume_from: Optional[CampaignCheckpoint] = None) -> None:
        self.campaign = campaign
        cache = campaign.analysis_cache
        # Counter baseline: the result reports this run's cache traffic
        # only -- its admissions and the provisioning of every vehicle it
        # touches first, a resume's replay included -- not the traffic of
        # whatever used the shared cache before (a halted run, a fleet
        # touched outside the campaign).
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        self.plan = plan_waves(campaign.vehicles, campaign.policy)
        #: request-equivalence key -> (report, ``mcc.snapshot()`` after it)
        #: of the vehicle that ran the full integration; kept across waves,
        #: so later waves of unchanged same-variant vehicles adopt wave 1's
        #: model and its report.
        self.precedents: Dict[Tuple, Tuple[IntegrationReport, MccSnapshot]] = {}
        #: Request contracts whose id() is baked into a stored precedent
        #: key.  Holding them prevents garbage collection from recycling an
        #: id into a new contract mid-campaign, which could falsely match a
        #: stale key.  The key holds the adopted model itself.
        self.pinned: List[object] = []
        self._finalized = False
        self.state = CampaignState(
            result=CampaignResult(fleet_size=len(campaign.vehicles),
                                  batched=campaign.batch_admission),
            hits_before=hits_before, misses_before=misses_before)
        #: Whether the run starts from the fleet's baseline, where the
        #: replay of its checkpoints starts (a resume rewinds it there).
        self._from_baseline = resume_from is not None or all(
            vehicle.at_baseline for vehicle in campaign.vehicles)
        #: Where the wave code reports; replayed waves report nowhere.
        self.tracer: Optional[CampaignTracer] = campaign.tracer
        if cache is not None:
            # The shared cache reports into this campaign's trace, or into
            # none, until finalize() detaches it.
            cache.tracer = campaign.tracer
        if self.tracer is not None:
            self.tracer.emit(
                "campaign.begin", fleet_size=len(campaign.vehicles),
                waves_planned=len(self.plan),
                batched=campaign.batch_admission,
                adversity=type(campaign.adversity).__name__
                if campaign.adversity is not None else None,
                resumed=resume_from is not None)
        if resume_from is not None:
            self._replay(resume_from)

    # -- stepping ----------------------------------------------------------

    @property
    def done(self) -> bool:
        """Whether a next wave exists: halted, or plan and carry exhausted."""
        state = self.state
        return state.result.halted or (state.wave_index >= len(self.plan)
                                       and not state.carry)

    def step(self) -> WaveRecord:
        """Execute exactly one wave and return its record.

        The wave runs to commit — staging (planned members plus delivery
        carry), provisioning every staged vehicle not yet provisioned,
        adversity delivery, request construction, per-vehicle admission or
        adoption of an equivalent vehicle's result, monitor feedback,
        the halt decision and any rollback — so after ``step()`` returns
        the campaign sits at the next wave boundary.  Provisioning
        runs before anything else, so a provisioning error (see
        :func:`~repro.fleet.vehicle.generate_fleet`) propagates with the
        campaign still at the boundary it started from.  On a halt the
        record is still returned (it is part of the result) and
        :attr:`done` turns true.  Stepping a finished engine raises
        :class:`CampaignError`.
        """
        if self._finalized:
            raise CampaignError("campaign engine already finalized")
        if self.done:
            raise CampaignError("campaign has no next wave to step")
        campaign = self.campaign
        state = self.state
        result = state.result
        record, admitted = self._wave()
        # The halt decision judges the vehicles that actually ran the
        # update (delivered, not staged) and ignores failures the feedback
        # grader attributed to suspected-compromised senders; on an
        # unperturbed campaign both terms reduce to the classic
        # failures-over-size comparison.
        halt = campaign.policy.halts(record.effective_failures,
                                     record.delivered)
        if halt and campaign.policy.rollback_on_halt:
            self._rollback_wave([(vehicle, snapshot)
                                 for vehicle, _, snapshot in admitted],
                                record)
        if self.tracer is not None:
            self.tracer.emit("wave.end", wave=record.index, halt=halt,
                             **record.to_dict())
        result.waves.append(record)
        if halt:
            result.halted = True
            result.halted_wave = record.index
            if self.tracer is not None:
                self.tracer.emit(
                    "campaign.halt", wave=record.index,
                    effective_failures=record.effective_failures,
                    delivered=record.delivered)
            if self._from_baseline:
                campaign.last_checkpoint = self.checkpoint()
        else:
            state.wave_index += 1
        return record

    def finalize(self) -> CampaignResult:
        """Run the campaign epilogue and return the aggregate result.

        Stamps the cache counters onto the result, detaches the shared cache
        from the tracer and closes the trace.  One-shot: a second call raises.
        Callable at any wave boundary — :meth:`Campaign.run` calls it when
        :attr:`done`, the admission service also calls it when parking a
        campaign.
        """
        if self._finalized:
            raise CampaignError("campaign engine already finalized")
        campaign = self.campaign
        result = self.state.result
        if campaign.analysis_cache is not None:
            result.cache_hits = campaign.analysis_cache.hits \
                - self.state.hits_before
            result.cache_misses = campaign.analysis_cache.misses \
                - self.state.misses_before
            campaign.analysis_cache.tracer = None
        if self.tracer is not None:
            self.tracer.emit("campaign.end", admitted=result.admitted,
                             rejected=result.rejected,
                             deviating=result.deviating,
                             halted=result.halted,
                             waves=len(result.waves))
            self.tracer.flush()
        self._finalized = True
        return result

    def checkpoint(self) -> CampaignCheckpoint:
        """The current wave boundary as a resumable checkpoint: the log of
        the waves before the cursor.

        A policy halt leaves the cursor on the halting wave, so after one
        this is the boundary before that wave (equal to
        :attr:`Campaign.last_checkpoint`), and the wave re-runs on resume.
        A resume replays the log from the fleet's baseline, so a campaign
        whose vehicles were not at their baseline when this engine was
        built raises :class:`CampaignError`.
        """
        if not self._from_baseline:
            raise CampaignError(
                "checkpoints replay from the fleet's baseline, and this "
                "campaign started with vehicles away from theirs")
        result = self.state.result
        return CampaignCheckpoint(
            fleet_size=result.fleet_size,
            waves=_copy_waves(result.waves[:self.state.wave_index]))

    # -- wave internals ----------------------------------------------------

    def _wave(self) -> Tuple[WaveRecord, List[Tuple[FleetVehicle,
                                                    ChangeRequest,
                                                    MccSnapshot]]]:
        """Run wave ``state.wave_index`` up to its halt decision.

        Stages, provisions, delivers, admits and grades feedback; returns
        the wave's record and its admitted vehicles with their requests and
        pre-wave snapshots.  Leaves the cursor, the result and the halt to
        the caller: :meth:`step`, or the replay of a resume.
        """
        campaign = self.campaign
        state = self.state
        tracer = self.tracer
        wave_index = state.wave_index
        if wave_index < len(self.plan):
            kind, planned = self.plan[wave_index]
        else:
            kind, planned = "straggler", []
        staged = [vehicle for vehicle, _ in state.carry] + list(planned)
        # Provision the staged vehicles before the wave mutates anything, so
        # a provisioning error leaves the campaign at this wave boundary.
        for vehicle in staged:
            vehicle.provision()
        attempts = {vehicle.vehicle_id: tries
                    for vehicle, tries in state.carry}
        record = WaveRecord(index=wave_index, kind=kind,
                            vehicle_ids=[v.vehicle_id for v in staged])
        record.retried = len(state.carry)
        state.carry = []
        if tracer is not None:
            tracer.emit("wave.begin", wave=wave_index, kind=kind,
                        staged=len(staged), retried=record.retried)
        wave: List[FleetVehicle] = staged
        if campaign.adversity is not None:
            if tracer is not None:
                tracer.emit("adversity.begin_wave",
                            wave=wave_index, staged=len(staged))
            campaign.adversity.begin_wave(wave_index, staged)
            wave = []
            for vehicle in staged:
                attempt = attempts.get(vehicle.vehicle_id, 0)
                if campaign.adversity.deliver(vehicle, wave_index, attempt):
                    wave.append(vehicle)
                    delivery = "delivered"
                elif campaign.adversity.abandon(vehicle, attempt + 1):
                    record.abandoned += 1
                    delivery = "abandoned"
                else:
                    state.carry.append((vehicle, attempt + 1))
                    delivery = "deferred"
                if tracer is not None:
                    tracer.emit("adversity.deliver", wave=wave_index,
                                vehicle=vehicle.vehicle_id, attempt=attempt,
                                outcome=delivery)
            record.undelivered = record.size - len(wave)
            # A custom model that neither delivers nor abandons would loop
            # forever on straggler waves; attempts grow strictly each
            # round, so any sane retry budget terminates — guard against
            # the insane ones.
            if kind == "straggler" and not wave and record.abandoned == 0:
                state.stalled_waves += 1
                if state.stalled_waves > 1000:
                    raise CampaignError(
                        "adversity model stalled the campaign: "
                        "1000 consecutive straggler waves without "
                        "a delivery or an abandonment")
            else:
                state.stalled_waves = 0
        requests = []
        for vehicle in wave:
            request = campaign.update_factory(vehicle)
            if campaign.adversity is not None:
                request = campaign.adversity.transform_request(
                    vehicle, request, wave_index)
            requests.append(request)
        admitted: List[Tuple[FleetVehicle, ChangeRequest, MccSnapshot]] = []
        for vehicle, request in zip(wave, requests):
            snapshot = vehicle.mcc.snapshot()
            replayed = False
            if campaign.batch_admission:
                # Read before this vehicle's admission, the only thing
                # that changes its key.
                key = self._equivalence_key(vehicle, request)
                precedent = self.precedents.get(key)
                if precedent is None:
                    self.pinned.append(request.contract)
                    report = vehicle.mcc.request_change(request)
                    self.precedents[key] = (report, vehicle.mcc.snapshot())
                else:
                    replayed = True
                    report = vehicle.mcc.replay_change(*precedent)
            else:
                report = vehicle.mcc.request_change(request)
            if tracer is not None:
                tracer.emit("vehicle.admit", wave=wave_index,
                            vehicle=vehicle.vehicle_id,
                            accepted=report.accepted, replayed=replayed)
            if report.accepted:
                vehicle.updated = True
                record.admitted += 1
                admitted.append((vehicle, request, snapshot))
            else:
                record.rejected += 1
        for vehicle, request, _ in admitted:
            self._feedback(vehicle, request, wave_index, record)
        return record, admitted

    @staticmethod
    def _equivalence_key(vehicle: FleetVehicle, request: ChangeRequest) -> Tuple:
        """Identity of one admission problem, exact within this process.

        Two vehicles of the same variant (same platform model) that hold the
        same adopted :class:`~repro.mcc.configuration.SystemModel` *object*
        and receive the same request contract object pose the identical
        integration problem, so the later one adopts the earlier one's
        decision.  A model is frozen, so one model object fixes the
        contracts, mapping, priorities and version.  Vehicles of one state
        share that object: stamping and replay adopt it by reference, a
        rollback restores a captured one and a resume rewinds to the
        baseline one.  A vehicle that diverged (a refinement, an addition
        and its removal) holds a model of its own and integrates on its
        own, and so does one whose model merely equals another's, as under
        sequential admission.

        The key holds the model itself, which keeps it and its contracts
        alive.  The request contract enters by ``id`` only, and a recycled
        ``id`` could alias a stale key, so the engine pins every request
        contract that enters a stored precedent key for its lifetime (see
        :attr:`pinned`).  For the same reason keys never cross a process
        boundary.
        """
        return (vehicle.variant.index, vehicle.mcc.model,
                request.kind, request.component, id(request.contract))

    def _feedback(self, vehicle: FleetVehicle, request: ChangeRequest,
                  wave_index: int, record: WaveRecord) -> None:
        """Simulate one updated vehicle's monitor feedback and grade it.

        The one observation is graded directly against the updated
        component's expectation, derived from its adopted contract (see
        :func:`~repro.mcc.controller.derive_expectation`), whose nominal is
        the contracted WCET the observation scales.  With an adversity
        model the honest observation passes through
        :meth:`~repro.fleet.adversity.AdversityModel.observe` (compromised
        vehicles forge it), the band may be two-sided, and a deviating
        report is additionally graded by the model — a report attributed
        to a suspected-compromised sender is recorded (``record.deviating``)
        but discounted from the halt decision (``record.discounted``).
        """
        campaign = self.campaign
        adversity = campaign.adversity
        tracer = self.tracer
        expectation = derive_expectation(
            vehicle.mcc.model.contract(request.component))
        if expectation is None:  # pragma: no cover - campaign updates carry timing
            return
        rng = SeededRNG(derive_seed(campaign.feedback_seed, vehicle.index))
        injected = rng.uniform() < campaign.failure_injection_rate
        nominal_range = (0.55, 0.95)
        if adversity is not None:
            if adversity.two_sided_feedback:
                expectation = replace(expectation, two_sided=True)
            if adversity.nominal_factor_range is not None:
                nominal_range = adversity.nominal_factor_range
        factor = rng.uniform(1.25, 1.75) if injected \
            else rng.uniform(*nominal_range)
        wcet = expectation.nominal
        observed = wcet * factor
        if adversity is not None:
            observed = adversity.observe(vehicle, wave_index, wcet, observed)
        deviating = expectation.violated_by(observed)
        if tracer is not None:
            tracer.emit("feedback.observe", wave=wave_index,
                        vehicle=vehicle.vehicle_id, observed=observed,
                        deviating=deviating)
        if not deviating:
            return
        vehicle.deviating = True
        record.deviating += 1
        if adversity is not None and adversity.grade_feedback(
                vehicle, wave_index):
            record.discounted += 1
            if tracer is not None:
                tracer.emit("feedback.discount", wave=wave_index,
                            vehicle=vehicle.vehicle_id)
            return  # a discounted (suspect) report must not refine the model
        if campaign.policy.refine_on_deviation:
            refinements = vehicle.mcc.incorporate_observed_wcets(
                {expectation.source: observed})
            record.refined += len(refinements)

    def _rollback_wave(self, admitted: List[Tuple[FleetVehicle, MccSnapshot]],
                       record: WaveRecord) -> None:
        for vehicle, snapshot in admitted:
            vehicle.mcc.rollback(snapshot)
            vehicle.updated = False
            vehicle.rolled_back = True
            record.rolled_back += 1
            if self.tracer is not None:
                self.tracer.emit("vehicle.rollback", wave=record.index,
                                 vehicle=vehicle.vehicle_id)

    # -- checkpoint/resume -------------------------------------------------

    def _replay(self, checkpoint: CampaignCheckpoint) -> None:
        """Rewind the fleet to its baseline and replay ``checkpoint``'s waves.

        Each logged wave re-runs through the ordinary wave code, silently
        (neither the engine nor the shared cache traces until the replay
        ends) and without a halt decision, and must commit exactly its logged
        record; the first that does not raises :class:`CampaignError`
        naming it.  That covers the fleet, the staging and the log itself:
        another fleet size, a dropped, extra or edited record all diverge.
        """
        campaign = self.campaign
        tracer, cache = self.tracer, campaign.analysis_cache
        self.tracer = None
        if cache is not None:
            cache.tracer = None
        if checkpoint.fleet_size != len(campaign.vehicles):
            raise CampaignError(
                f"checkpoint diverges at wave 0: it logs a fleet of "
                f"{checkpoint.fleet_size} vehicles, the resumed campaign "
                f"stages {len(campaign.vehicles)}")
        for vehicle in campaign.vehicles:
            vehicle.restore_state(VehicleState(vehicle.vehicle_id))
        for logged in checkpoint.waves:
            index = self.state.wave_index
            if self.done:
                raise CampaignError(
                    f"checkpoint diverges at wave {index}: the resumed "
                    "campaign has no such wave")
            record, _ = self._wave()
            differing = [spec.name for spec in fields(WaveRecord)
                         if getattr(record, spec.name)
                         != getattr(logged, spec.name)]
            if differing:
                raise CampaignError(
                    f"checkpoint diverges at wave {index}: its replay "
                    f"differs in {', '.join(differing)}")
            self.state.result.waves.append(record)
            self.state.wave_index += 1
        self.tracer = tracer
        if cache is not None:
            cache.tracer = tracer
