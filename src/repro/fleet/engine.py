"""Re-entrant wave-stepping engine behind :class:`~repro.fleet.campaign.Campaign`.

:class:`~repro.fleet.campaign.Campaign` describes *what* to roll out — the
fleet, the update factory, the staging/halting policy and the execution
knobs; this module owns *how*, one wave at a time.  :class:`CampaignEngine`
is an explicit state machine over :class:`CampaignState`: construct it, call
:meth:`~CampaignEngine.step` once per wave (each call executes exactly one
wave and returns its :class:`~repro.fleet.campaign.WaveRecord`), and call
:meth:`~CampaignEngine.finalize` when :attr:`~CampaignEngine.done` to persist
the cache snapshot and obtain the aggregate
:class:`~repro.fleet.campaign.CampaignResult`.
:meth:`Campaign.run() <repro.fleet.campaign.Campaign.run>` is nothing but
that loop — stepped and run-to-completion execution are byte-identical by
construction, and the differential tests pin it.

The split buys two things the monolithic ``run()`` could not offer:

* **Interruptibility.**  Between any two :meth:`~CampaignEngine.step` calls
  the campaign sits at a *wave boundary*: every executed wave is fully
  committed (admission, feedback, halt decision, rollback), no wave is in
  flight.  :meth:`~CampaignEngine.checkpoint` serializes that boundary as a
  :class:`~repro.fleet.campaign.CampaignCheckpoint` — the same artifact a
  policy halt writes — so a campaign can be parked and resumed at *any*
  boundary, not only where the halt policy tripped.
* **Interleavability.**  A driver can hold many engines and advance them
  step by step in any order — the fleet admission service
  (:mod:`repro.service`) runs one wave of one tenant's campaign per
  scheduling slot, streaming each returned wave record to the submitter.

State taxonomy
--------------

:class:`CampaignState` carries exactly the between-wave execution state: the
wave cursor, the straggler/retry carry, the stall guard and the running
:class:`~repro.fleet.campaign.CampaignResult`.  The per-vehicle rollout
state lives where it always did — on the
:class:`~repro.fleet.vehicle.FleetVehicle` objects (MCC model, ``updated``/
``deviating``/``rolled_back`` flags) — and is captured into checkpoints as
portable :class:`~repro.fleet.vehicle.VehicleState` snapshots; a vehicle at
its variant's baseline (never provisioned, or adopting the baseline model)
is captured without a snapshot and restored to its own fleet's baseline
objects.  The simulated feedback RNG needs no stream state at all: every
draw is derived fresh from ``(feedback_seed, vehicle.index)``, so it is
position- not history-dependent.  Two engine-local caches are deliberately
*not* part of the state: the ``precedents`` verdict table and its ``pinned``
object list key on object identity
(:meth:`CampaignEngine._equivalence_key`), which cannot cross a process
boundary — a resumed engine rebuilds them, trading replays for re-analyses
but never changing a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  CampaignResult, WaveRecord, plan_waves)
from repro.fleet.vehicle import FleetVehicle, VehicleState
from repro.mcc.configuration import ChangeRequest, IntegrationReport
from repro.mcc.controller import MccSnapshot
from repro.monitoring.deviation import DeviationDetector
from repro.monitoring.metrics import MetricRegistry
from repro.sim.random import SeededRNG, derive_seed

__all__ = ["CampaignState", "CampaignEngine"]


def _copy_result(source: CampaignResult) -> CampaignResult:
    """An independent copy of a result (fresh wave records/lists)."""
    return replace(source,
                   waves=[replace(record,
                                  vehicle_ids=list(record.vehicle_ids))
                          for record in source.waves])


@dataclass
class CampaignState:
    """Between-wave execution state of one campaign.

    Everything the wave loop mutates lives here, so an engine holding a
    ``CampaignState`` at a wave boundary is fully described by it (plus the
    fleet vehicles' own rollout state):

    ``wave_index``
        Cursor into the static wave plan; past the plan's end the campaign
        is running adversity ``straggler`` waves (or is done).
    ``start_wave``
        First wave this engine executes (> 0 on a resumed campaign; the
        checkpointed waves are seeded into ``result``, not re-run).
    ``carry``
        Vehicles whose update delivery failed, carried into the next wave
        as ``(vehicle, failed_attempts)`` pairs.  Structurally empty
        without an adversity model — which is exactly why wave-boundary
        checkpoints (which exclude adversity) need not serialize it.
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
    start_wave: int = 0
    carry: List[Tuple[FleetVehicle, int]] = field(default_factory=list)
    stalled_waves: int = 0
    result: CampaignResult = field(
        default_factory=lambda: CampaignResult(fleet_size=0, batched=False))
    hits_before: int = 0
    misses_before: int = 0


class CampaignEngine:
    """Executes one campaign wave-by-wave; the stepper behind ``run()``.

    Construction performs the campaign prologue exactly as the monolithic
    ``run()`` did — begin trace, checkpoint restore, cache warm-start,
    counter baselines — so a constructed engine is positioned at the first
    wave boundary.  Then:

    * :meth:`step` executes exactly one wave (staging and provisioning the
      staged vehicles, adversity delivery, dedupe, admission, feedback,
      halt decision, rollback) and returns its :class:`WaveRecord`;
    * :attr:`done` reports whether a next wave exists (the plan is
      exhausted with no carry, or the campaign halted);
    * :meth:`finalize` runs the epilogue (snapshot persistence, cache
      counters, end trace) and returns the result;
    * :meth:`checkpoint` serializes the current wave boundary.

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
        if cache is not None:
            # The shared cache reports into this campaign's trace, or into
            # none, until finalize() detaches it.
            cache.tracer = campaign.tracer
        # Counter baseline: the result reports this run's cache traffic
        # only -- its admissions and the provisioning of every vehicle it
        # touches first, a resume's restore included -- not the traffic of
        # whatever used the shared cache before (a halted run, a fleet
        # touched outside the campaign).
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        result = CampaignResult(fleet_size=len(campaign.vehicles),
                                batched=campaign.batch_admission)
        self.plan = plan_waves(campaign.vehicles, campaign.policy)
        start_wave = 0
        if campaign.tracer is not None:
            campaign.tracer.emit(
                "campaign.begin", fleet_size=len(campaign.vehicles),
                waves_planned=len(self.plan),
                batched=campaign.batch_admission,
                adversity=type(campaign.adversity).__name__
                if campaign.adversity is not None else None,
                resumed=resume_from is not None)
        if resume_from is not None:
            if campaign.adversity is not None:
                raise CampaignError(
                    "resume_from cannot be combined with an adversity "
                    "model: delivery-perturbed staging (carried and "
                    "straggler waves) cannot be validated against the "
                    "static wave plan a checkpoint records")
            start_wave = self._restore_checkpoint(resume_from, self.plan,
                                                  result)
        if campaign.analysis_cache is not None and campaign.cache_path is not None:
            # Warm-start this run from the previous run's snapshot.
            loaded = campaign.analysis_cache.load_snapshot(campaign.cache_path,
                                                           missing_ok=True)
            if campaign.tracer is not None:
                campaign.tracer.emit("cache.snapshot_load", entries=loaded)
        #: request-equivalence key -> (report, mapping, priorities) of the
        #: vehicle that ran the full integration; kept across waves so later
        #: waves of unchanged same-variant vehicles replay wave 1's verdicts.
        self.precedents: Dict[Tuple, Tuple[IntegrationReport, Dict[str, str],
                                           Dict[str, int]]] = {}
        #: Objects whose id() is baked into a stored precedent key.  Holding
        #: them prevents garbage collection from recycling an id into a new
        #: contract mid-campaign, which could falsely match a stale key.
        self.pinned: List[object] = []
        self._finalized = False
        self.state = CampaignState(
            wave_index=start_wave, start_wave=start_wave, carry=[],
            stalled_waves=0, result=result,
            hits_before=hits_before, misses_before=misses_before)

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
        replay of an equivalent vehicle's verdict, monitor feedback,
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
        if campaign.tracer is not None:
            campaign.tracer.emit("wave.begin", wave=wave_index, kind=kind,
                                 staged=len(staged), retried=record.retried)
        wave: List[FleetVehicle] = staged
        if campaign.adversity is not None:
            if campaign.tracer is not None:
                campaign.tracer.emit("adversity.begin_wave",
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
                if campaign.tracer is not None:
                    campaign.tracer.emit("adversity.deliver",
                                         wave=wave_index,
                                         vehicle=vehicle.vehicle_id,
                                         attempt=attempt,
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
        pre_wave: Dict[str, MccSnapshot] = {}
        for vehicle, request in zip(wave, requests):
            snapshot = vehicle.mcc.snapshot()
            pre_wave[vehicle.vehicle_id] = snapshot
            replayed = False
            if campaign.batch_admission:
                # Read before this vehicle's admission, the only thing
                # that changes its key.
                key = self._equivalence_key(vehicle, request)
                precedent = self.precedents.get(key)
                if precedent is None:
                    self.pinned.append(request.contract)
                    self.pinned.extend(vehicle.mcc.model.contracts())
                    report = vehicle.mcc.request_change(request)
                    self.precedents[key] = (report,
                                            dict(vehicle.mcc.model.mapping),
                                            dict(vehicle.mcc.model.priorities))
                else:
                    replayed = True
                    report = vehicle.mcc.replay_change(request, *precedent)
            else:
                report = vehicle.mcc.request_change(request)
            if campaign.tracer is not None:
                campaign.tracer.emit("vehicle.admit", wave=wave_index,
                                     vehicle=vehicle.vehicle_id,
                                     accepted=report.accepted,
                                     replayed=replayed)
            if report.accepted:
                vehicle.updated = True
                record.admitted += 1
                admitted.append((vehicle, request, snapshot))
            else:
                record.rejected += 1
        for vehicle, request, _ in admitted:
            self._feedback(vehicle, request, wave_index, record)
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
        if campaign.tracer is not None:
            campaign.tracer.emit("wave.end", wave=wave_index, halt=halt,
                                 **record.to_dict())
        result.waves.append(record)
        result.admitted += record.admitted
        result.rejected += record.rejected
        result.deviating += record.deviating
        result.refined += record.refined
        result.rolled_back += record.rolled_back
        result.undelivered += record.undelivered
        result.retried += record.retried
        result.abandoned += record.abandoned
        result.discounted += record.discounted
        if halt:
            result.halted = True
            result.halted_wave = wave_index
            if campaign.tracer is not None:
                campaign.tracer.emit(
                    "campaign.halt", wave=wave_index,
                    effective_failures=record.effective_failures,
                    delivered=record.delivered)
            if campaign.adversity is None:
                campaign.last_checkpoint = self._build_checkpoint(
                    wave_index, result, wave, pre_wave)
                if campaign.checkpoint_path is not None:
                    campaign.last_checkpoint.save(campaign.checkpoint_path)
                    if campaign.tracer is not None:
                        campaign.tracer.emit("checkpoint.save",
                                             wave=wave_index,
                                             path=campaign.checkpoint_path)
        else:
            state.wave_index += 1
        return record

    def finalize(self) -> CampaignResult:
        """Run the campaign epilogue and return the aggregate result.

        Persists the ``cache_path`` snapshot, stamps the cache counters onto
        the result, detaches the shared cache from the tracer and closes the
        trace.  One-shot: a second call raises.
        Callable at any wave boundary — :meth:`Campaign.run` calls it when
        :attr:`done`, the admission service also calls it when parking a
        campaign.
        """
        if self._finalized:
            raise CampaignError("campaign engine already finalized")
        campaign = self.campaign
        result = self.state.result
        if campaign.analysis_cache is not None and campaign.cache_path is not None:
            # Persist everything this run derived so re-runs — and a resume
            # after a halt — warm-start from it.
            campaign.analysis_cache.save_snapshot(campaign.cache_path)
            if campaign.tracer is not None:
                campaign.tracer.emit("cache.snapshot_save",
                                     path=campaign.cache_path,
                                     entries=len(campaign.analysis_cache))
        if campaign.analysis_cache is not None:
            result.cache_hits = campaign.analysis_cache.hits \
                - self.state.hits_before
            result.cache_misses = campaign.analysis_cache.misses \
                - self.state.misses_before
            result.engine_reuse_rate = campaign.analysis_cache.engine.reuse_rate
            campaign.analysis_cache.tracer = None
        if campaign.tracer is not None:
            campaign.tracer.emit("campaign.end", admitted=result.admitted,
                                 rejected=result.rejected,
                                 deviating=result.deviating,
                                 halted=result.halted,
                                 waves=len(result.waves))
            campaign.tracer.flush()
        self._finalized = True
        return result

    def checkpoint(self, path: Optional[str] = None) -> CampaignCheckpoint:
        """Serialize the current wave boundary as a resumable checkpoint.

        Unlike the halt-written checkpoint (which rewinds the halting
        wave's members so that wave re-runs on resume), a boundary
        checkpoint needs no rewind: every executed wave is committed, the
        next wave has not started, so the vehicles' live state *is* the
        checkpoint state and ``next_wave`` is simply the cursor.  Requires
        ``adversity=None`` (a perturbed staging cannot be validated against
        the static plan — same restriction resume itself has) and a
        non-halted campaign (a policy halt already built
        :attr:`Campaign.last_checkpoint`, which rewinds properly).
        """
        campaign = self.campaign
        if campaign.adversity is not None:
            raise CampaignError(
                "wave-boundary checkpoints require adversity=None: carried "
                "and straggler staging cannot be validated on resume")
        if self.state.result.halted:
            raise CampaignError(
                "campaign halted — resume from Campaign.last_checkpoint, "
                "which rewinds the halting wave's members")
        prefix = _copy_result(self.state.result)
        checkpoint = CampaignCheckpoint(
            next_wave=self.state.wave_index, result=prefix,
            vehicle_states=[vehicle.capture_state()
                            for vehicle in campaign.vehicles])
        if path is not None:
            checkpoint.save(path)
            if campaign.tracer is not None:
                campaign.tracer.emit("checkpoint.save",
                                     wave=self.state.wave_index, path=path)
        return checkpoint

    # -- wave internals ----------------------------------------------------

    @staticmethod
    def _equivalence_key(vehicle: FleetVehicle, request: ChangeRequest) -> Tuple:
        """Identity of one admission problem, exact within this process.

        Two vehicles with the same platform shape (same variant), the same
        adopted contract *objects*, the same mapping/priority state and the
        same request contract object pose the identical integration problem.
        Diverged vehicles (refined WCETs build fresh contract objects,
        rollbacks restore the previous model) fall out of the group
        automatically because their object identities differ.

        Identity-based keys are only sound while the referenced objects stay
        alive — a recycled ``id`` could alias a stale key — so the engine
        pins every object that enters a stored precedent key for its
        lifetime (see :attr:`pinned`).  For the same reason keys never cross
        a process boundary.
        """
        model = vehicle.mcc.model
        return (vehicle.variant.index,
                tuple(sorted((contract.component, id(contract))
                             for contract in model.contracts())),
                tuple(sorted(model.mapping.items())),
                tuple(sorted(model.priorities.items())),
                request.kind, request.component, id(request.contract))

    def _feedback(self, vehicle: FleetVehicle, request: ChangeRequest,
                  wave_index: int, record: WaveRecord) -> None:
        """Simulate one updated vehicle's monitor feedback and grade it.

        With an adversity model the honest observation passes through
        :meth:`~repro.fleet.adversity.AdversityModel.observe` (compromised
        vehicles forge it), the detector may grade against two-sided bands,
        and a raised deviation is additionally graded by the model — a
        report attributed to a suspected-compromised sender is recorded
        (``record.deviating``) but discounted from the halt decision
        (``record.discounted``).
        """
        campaign = self.campaign
        contract = vehicle.mcc.model.contract(request.component)
        timing = contract.timing
        if timing is None:  # pragma: no cover - campaign updates carry timing
            return
        rng = SeededRNG(derive_seed(campaign.feedback_seed, vehicle.index))
        injected = rng.uniform() < campaign.failure_injection_rate
        nominal_range = (0.55, 0.95)
        two_sided = False
        if campaign.adversity is not None:
            two_sided = campaign.adversity.two_sided_feedback
            if campaign.adversity.nominal_factor_range is not None:
                nominal_range = campaign.adversity.nominal_factor_range
        factor = rng.uniform(1.25, 1.75) if injected \
            else rng.uniform(*nominal_range)
        observed = timing.wcet * factor
        if campaign.adversity is not None:
            observed = campaign.adversity.observe(vehicle, wave_index,
                                                  timing.wcet, observed)
        registry = MetricRegistry()
        detector: DeviationDetector = vehicle.mcc.configure_deviation_detector(
            registry, two_sided=two_sided)
        source = f"{request.component}.task"
        anomalies = detector.observe(float(wave_index), source,
                                     "execution_time", observed)
        if campaign.tracer is not None:
            campaign.tracer.emit("feedback.observe", wave=wave_index,
                                 vehicle=vehicle.vehicle_id, observed=observed,
                                 deviating=bool(anomalies))
        if not anomalies:
            return
        vehicle.deviating = True
        record.deviating += 1
        if campaign.adversity is not None and campaign.adversity.grade_feedback(
                vehicle, wave_index, len(anomalies)):
            record.discounted += 1
            if campaign.tracer is not None:
                campaign.tracer.emit("feedback.discount", wave=wave_index,
                                     vehicle=vehicle.vehicle_id)
            return  # a discounted (suspect) report must not refine the model
        if campaign.policy.refine_on_deviation:
            refinements = vehicle.mcc.incorporate_observed_wcets(
                {source: observed})
            record.refined += len(refinements)

    def _rollback_wave(self, admitted: List[Tuple[FleetVehicle, MccSnapshot]],
                       record: WaveRecord) -> None:
        for vehicle, snapshot in admitted:
            vehicle.mcc.rollback(snapshot)
            vehicle.updated = False
            vehicle.rolled_back = True
            record.rolled_back += 1
            if self.campaign.tracer is not None:
                self.campaign.tracer.emit("vehicle.rollback",
                                          wave=record.index,
                                          vehicle=vehicle.vehicle_id)

    # -- checkpoint/resume -------------------------------------------------

    def _build_checkpoint(self, halted_wave: int, result: CampaignResult,
                          wave: Sequence[FleetVehicle],
                          pre_wave: Dict[str, MccSnapshot]
                          ) -> CampaignCheckpoint:
        """Freeze the campaign at the start of its halting wave.

        The checkpointed result excludes the halting wave's record (the
        wave re-runs on resume); halting-wave members are stored at their
        pre-wave snapshot with clean flags even when ``rollback_on_halt`` is
        off, so a resume always re-admits the remediated wave from scratch.
        """
        prefix = _copy_result(result)
        prefix.waves = prefix.waves[:-1]
        prefix.halted = False
        prefix.halted_wave = None
        for attribute in ("admitted", "rejected", "deviating", "refined",
                          "rolled_back", "undelivered", "retried",
                          "abandoned", "discounted"):
            setattr(prefix, attribute,
                    sum(getattr(record, attribute) for record in prefix.waves))
        halting = {vehicle.vehicle_id for vehicle in wave}
        states = []
        for vehicle in self.campaign.vehicles:
            if vehicle.vehicle_id in halting:
                snapshot = vehicle.checkpoint_snapshot(
                    pre_wave[vehicle.vehicle_id])
                states.append(VehicleState(vehicle_id=vehicle.vehicle_id,
                                           snapshot=snapshot,
                                           updated=False, deviating=False,
                                           rolled_back=False))
            else:
                states.append(vehicle.capture_state())
        return CampaignCheckpoint(next_wave=halted_wave, result=prefix,
                                  vehicle_states=states)

    def _restore_checkpoint(self, checkpoint: CampaignCheckpoint,
                            plan: Sequence[Tuple[str, List[FleetVehicle]]],
                            result: CampaignResult) -> int:
        """Rewind the fleet and seed ``result`` from ``checkpoint``.

        Validates that the checkpoint is consistent (one state per vehicle,
        one record per executed wave, in order, ending at the cursor) and
        that the resumed campaign stages the same fleet the same way (the
        executed waves' vehicle ids must match the plan — policy
        remediation may change thresholds, not the staging of already
        executed waves).  Returns the wave index to continue from.
        """
        campaign = self.campaign
        checkpointed = sorted(state.vehicle_id
                              for state in checkpoint.vehicle_states)
        current = sorted(vehicle.vehicle_id for vehicle in campaign.vehicles)
        if checkpointed != current:
            raise CampaignError(
                f"checkpoint holds {len(checkpointed)} vehicle states, the "
                f"resumed campaign stages {len(current)} vehicles; resume "
                "needs one state for each vehicle of the exact fleet the "
                "campaign halted on")
        executed = checkpoint.result.waves
        if checkpoint.next_wave != len(executed):
            raise CampaignError(
                f"checkpoint resumes at wave {checkpoint.next_wave} but "
                f"records {len(executed)} executed waves")
        if checkpoint.next_wave > len(plan):
            raise CampaignError(
                f"checkpoint expects wave {checkpoint.next_wave} but the "
                f"resumed campaign plans only {len(plan)} waves")
        for index, record in enumerate(executed):
            if record.index != index:
                raise CampaignError(
                    f"checkpoint records wave {record.index} in position "
                    f"{index}")
            planned = [vehicle.vehicle_id for vehicle in plan[index][1]]
            if planned != list(record.vehicle_ids):
                raise CampaignError(
                    f"resumed staging diverges at wave {index}: checkpoint "
                    f"executed {record.vehicle_ids}, plan stages {planned}")
        states = {state.vehicle_id: state for state in checkpoint.vehicle_states}
        for vehicle in campaign.vehicles:
            vehicle.restore_state(states[vehicle.vehicle_id])
        seeded = _copy_result(checkpoint.result)
        result.waves = seeded.waves
        # Cache counters are deliberately not carried over: they describe
        # one process's cache traffic and the resumed run reports its own.
        for attribute in ("admitted", "rejected", "deviating", "refined",
                          "rolled_back", "undelivered", "retried",
                          "abandoned", "discounted"):
            setattr(result, attribute, getattr(seeded, attribute))
        return checkpoint.next_wave
