"""The asyncio fleet admission service: many campaigns, one wave at a time.

:class:`AdmissionService` turns the re-entrant
:class:`~repro.fleet.engine.CampaignEngine` into a long-running, multi-tenant
admission frontend.  Tenants submit campaigns
(:class:`~repro.service.schemas.SubmitCampaign`); a pool of scheduler slots
drives every live engine **one** :meth:`~repro.fleet.engine.CampaignEngine.step`
per claim, rotating round-robin across tenants (FIFO within a tenant), so a
tenant with a 500-vehicle rollout cannot starve a tenant with a canary
probe.  Each executed wave is published to the job's subscribers as a
:class:`~repro.service.schemas.WaveProgress` through the async-iterator
:meth:`AdmissionService.stream`.

Halt, resume and rollback are API calls over the existing checkpoint
machinery: an operator :class:`~repro.service.schemas.HaltRequest` parks the
job at its **next wave boundary** with a
:meth:`~repro.fleet.engine.CampaignEngine.checkpoint`-serialized state (a
policy halt parks it with the halt-written
:attr:`~repro.fleet.campaign.Campaign.last_checkpoint`);
:class:`~repro.service.schemas.ResumeRequest` builds a fresh engine with
``resume_from=`` (optionally remediating the halt threshold), and
:class:`~repro.service.schemas.RollbackRequest` returns every vehicle of the
fleet to its at-baseline state and retires the job.

Tenancy
-------

Every job owns its fleet and its :class:`~repro.analysis.cache.AnalysisCache`
— verdict isolation is structural, so a tenant's campaign result is
byte-identical to an isolated run of the same submission (the E17
benchmark asserts the identity).

Determinism
-----------

Steps execute inline on the event loop, one at a time — the service
interleaves campaigns at wave granularity rather than running waves of
different tenants in true parallel.  Inline stepping keeps the service loop
deterministic and lock-free; the scheduling order changes *when* a wave
runs, never what it computes.
"""

from __future__ import annotations

import asyncio
from collections import deque
from dataclasses import dataclass, field, replace
from typing import AsyncIterator, Deque, Dict, List, Optional

from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import (Campaign, CampaignCheckpoint,
                                  CampaignResult, UpdateFactory, WavePolicy,
                                  plan_waves)
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetVehicle, VehicleState, generate_fleet
from repro.service.schemas import (CampaignStatus, HaltRequest, JobState,
                                   ResumeRequest, RollbackRequest,
                                   ServiceError, SubmitCampaign,
                                   SubmitReceipt, WaveProgress)

__all__ = ["AdmissionService"]


@dataclass
class _Job:
    """Service-internal mutable state of one submitted campaign."""

    job_id: str
    request: SubmitCampaign
    condition: asyncio.Condition
    state: str = JobState.QUEUED
    fleet: Optional[List[FleetVehicle]] = None
    cache: Optional[AnalysisCache] = None
    campaign: Optional[Campaign] = None
    engine: Optional[CampaignEngine] = None
    #: Resumable boundary state while parked (halt-written or operator-taken).
    checkpoint: Optional[CampaignCheckpoint] = None
    #: The job's update factory.  It builds its contracts once, so they
    #: stay the same objects across halt/resume cycles.
    update_factory: Optional[UpdateFactory] = None
    progress: List[WaveProgress] = field(default_factory=list)
    result: Optional[CampaignResult] = None
    error: Optional[str] = None
    halt_requested: bool = False
    #: Remediated halt threshold applied when the engine is next built.
    max_failure_rate: Optional[float] = None

    async def _notify(self) -> None:
        async with self.condition:
            self.condition.notify_all()


class AdmissionService:
    """Long-running multi-tenant admission frontend over campaign engines.

    Parameters
    ----------
    slots:
        Number of concurrent scheduler tasks claiming (tenant, job) pairs.
        Each claim executes exactly one wave; more slots means more jobs
        advance per scheduling round.

    Use as an async context manager (``async with AdmissionService(...)``)
    or call :meth:`start`/:meth:`stop` explicitly.  :meth:`stop` parks
    every still-running job at its current wave boundary with a resumable
    checkpoint — a stopped service loses no work.
    """

    def __init__(self, slots: int = 2) -> None:
        if slots < 1:
            raise ServiceError("slots must be at least 1")
        self.slots = slots
        self._jobs: Dict[str, _Job] = {}
        self._tenant_queues: Dict[str, Deque[str]] = {}
        self._tenant_order: List[str] = []
        self._rotation = 0
        self._counter = 0
        self._workers: List[asyncio.Task] = []
        self._work = asyncio.Event()
        self._stopping = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn the scheduler slots (idempotent)."""
        if self._workers:
            return
        self._stopping = False
        self._workers = [asyncio.create_task(self._worker(), name=f"slot-{i}")
                         for i in range(self.slots)]

    async def stop(self) -> None:
        """Stop scheduling and park every running job at a wave boundary."""
        self._stopping = True
        self._work.set()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        self._workers = []
        for job in self._jobs.values():
            if job.state == JobState.RUNNING and job.engine is not None:
                self._park(job)
                await job._notify()
            elif job.state == JobState.QUEUED:
                job.state = JobState.HALTED
                await job._notify()

    async def __aenter__(self) -> "AdmissionService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- API ---------------------------------------------------------------

    async def submit(self, request: SubmitCampaign) -> SubmitReceipt:
        """Accept one campaign; returns its receipt with the job id."""
        if self._stopping:
            raise ServiceError("service is stopping; not accepting jobs")
        self._counter += 1
        job_id = f"{request.tenant}/{self._counter}"
        job = _Job(job_id=job_id, request=request,
                   condition=asyncio.Condition())
        self._jobs[job_id] = job
        if request.tenant not in self._tenant_queues:
            self._tenant_queues[request.tenant] = deque()
            self._tenant_order.append(request.tenant)
        self._tenant_queues[request.tenant].append(job_id)
        self._work.set()
        policy = WavePolicy(canary_size=request.canary_size,
                            wave_fractions=request.wave_fractions,
                            max_failure_rate=request.max_failure_rate,
                            rollback_on_halt=request.rollback_on_halt)
        waves_planned = len(plan_waves(list(range(request.fleet_size)), policy))
        return SubmitReceipt(job_id=job_id, tenant=request.tenant,
                             state=job.state, fleet_size=request.fleet_size,
                             waves_planned=waves_planned)

    def status(self, job_id: str) -> CampaignStatus:
        """Point-in-time snapshot of one job."""
        job = self._get(job_id)
        result = self._visible_result(job)
        if result is None:
            return CampaignStatus(job_id=job.job_id, tenant=job.request.tenant,
                                  state=job.state, waves_executed=0,
                                  admitted=0, rejected=0, deviating=0,
                                  rolled_back=0, halted_wave=None,
                                  update_coverage=0.0, error=job.error)
        return CampaignStatus(job_id=job.job_id, tenant=job.request.tenant,
                              state=job.state,
                              waves_executed=len(result.waves),
                              admitted=result.admitted,
                              rejected=result.rejected,
                              deviating=result.deviating,
                              rolled_back=result.rolled_back,
                              halted_wave=result.halted_wave,
                              update_coverage=result.update_coverage,
                              error=job.error)

    def result(self, job_id: str) -> CampaignResult:
        """The finalized :class:`CampaignResult` of a completed/halted job."""
        job = self._get(job_id)
        if job.result is None:
            raise ServiceError(f"job {job_id!r} has no finalized result yet "
                               f"(state: {job.state})")
        return job.result

    async def stream(self, job_id: str) -> AsyncIterator[WaveProgress]:
        """Yield the job's wave progress as it executes.

        Starts from the first wave (late subscribers replay the backlog)
        and ends when the job parks or terminates: completion and policy
        halt are both streamed (the closing record carries ``final`` /
        ``halted``), an operator halt simply ends the iterator — resume and
        stream again to follow the rest of the rollout.
        """
        job = self._get(job_id)
        cursor = 0
        while True:
            async with job.condition:
                await job.condition.wait_for(
                    lambda: len(job.progress) > cursor
                    or job.state not in (JobState.QUEUED, JobState.RUNNING))
                if len(job.progress) <= cursor:
                    return
                item = job.progress[cursor]
                cursor += 1
            yield item

    async def wait(self, job_id: str) -> CampaignStatus:
        """Block until the job parks or terminates; returns its status."""
        job = self._get(job_id)
        async with job.condition:
            await job.condition.wait_for(
                lambda: job.state not in (JobState.QUEUED, JobState.RUNNING))
        return self.status(job_id)

    async def halt(self, request: HaltRequest) -> CampaignStatus:
        """Park the job at its next wave boundary; returns once parked.

        A job that completes (or policy-halts) before the flag is seen
        reports that outcome instead — the call never turns an outcome
        back.
        """
        job = self._get(request.job_id)
        if job.state in JobState.TERMINAL or job.state == JobState.HALTED:
            return self.status(job.job_id)
        job.halt_requested = True
        self._work.set()
        async with job.condition:
            await job.condition.wait_for(
                lambda: job.state not in (JobState.QUEUED, JobState.RUNNING))
        return self.status(job.job_id)

    async def resume(self, request: ResumeRequest) -> CampaignStatus:
        """Re-queue a halted job, optionally remediating the halt threshold."""
        job = self._get(request.job_id)
        if job.state != JobState.HALTED:
            raise ServiceError(f"job {request.job_id!r} is {job.state}, "
                               "only halted jobs resume")
        if request.max_failure_rate is not None:
            job.max_failure_rate = request.max_failure_rate
        job.halt_requested = False
        job.result = None
        job.state = JobState.QUEUED
        self._tenant_queues[job.request.tenant].append(job.job_id)
        self._work.set()
        return self.status(job.job_id)

    async def rollback(self, request: RollbackRequest) -> CampaignStatus:
        """Abandon a halted job; the fleet returns to its pre-campaign state."""
        job = self._get(request.job_id)
        if job.state != JobState.HALTED:
            raise ServiceError(f"job {request.job_id!r} is {job.state}, "
                               "only halted jobs roll back")
        for vehicle in job.fleet or ():
            vehicle.restore_state(VehicleState(
                vehicle_id=vehicle.vehicle_id, snapshot=None, updated=False,
                deviating=False, rolled_back=False))
        job.state = JobState.ROLLED_BACK
        await job._notify()
        return self.status(job.job_id)

    # -- scheduling --------------------------------------------------------

    async def _worker(self) -> None:
        while not self._stopping:
            job = self._claim()
            if job is None:
                self._work.clear()
                await self._work.wait()
                continue
            try:
                self._advance(job)
            except Exception as error:
                job.engine = None
                job.error = str(error)
                job.state = JobState.FAILED
                self._release(job)
            if job.state in (JobState.QUEUED, JobState.RUNNING):
                # Still work to do: back to the *head* of the tenant's
                # queue — jobs of one tenant run FIFO, one at a time.
                self._tenant_queues[job.request.tenant].appendleft(job.job_id)
                self._work.set()
            await job._notify()
            # One wave per claim: yield so peers interleave at wave
            # granularity even when this slot could keep running.
            await asyncio.sleep(0)

    def _claim(self) -> Optional[_Job]:
        """Next runnable job, rotating round-robin across tenants."""
        tenants = self._tenant_order
        for offset in range(len(tenants)):
            tenant = tenants[(self._rotation + offset) % len(tenants)]
            queue = self._tenant_queues[tenant]
            while queue:
                job = self._jobs[queue.popleft()]
                if job.state in (JobState.QUEUED, JobState.RUNNING):
                    self._rotation = (self._rotation + offset + 1) \
                        % len(tenants)
                    return job
                # Halted/rolled-back while queued: drop from the queue.
        return None

    def _advance(self, job: _Job) -> None:
        """Execute one scheduling claim: park, or step one wave.

        A job's first claim, and a resume's, builds the engine first; the
        wave it steps provisions the vehicles it stages.
        """
        if job.halt_requested:
            self._park(job)
            return
        if job.engine is None:
            self._start(job)
            job.state = JobState.RUNNING
        record = job.engine.step()
        done = job.engine.done
        running = job.engine.state.result
        job.progress.append(WaveProgress(
            job_id=job.job_id, tenant=job.request.tenant,
            index=record.index, kind=record.kind, size=record.size,
            admitted=record.admitted, rejected=record.rejected,
            deviating=record.deviating, rolled_back=record.rolled_back,
            failure_rate=record.failure_rate, halted=running.halted,
            final=done))
        if done:
            job.result = job.engine.finalize()
            job.engine = None
            if job.result.halted:
                # Policy halt: the halt-written checkpoint rewinds the
                # halting wave, so a resume re-admits it remediated.
                job.checkpoint = job.campaign.last_checkpoint
                job.state = JobState.HALTED
            else:
                job.state = JobState.COMPLETED
                self._release(job)

    @staticmethod
    def _release(job: _Job) -> None:
        """Drop what only a resume or a rollback reads.

        A COMPLETED or FAILED job can do neither, and the service keeps
        every finished job, so its fleet, cache, campaign and vehicle
        states would otherwise stay in memory for the service's lifetime.
        A job that failed after a resume keeps reporting the aggregate of
        its parked checkpoint in :meth:`status`, so only that survives.
        """
        job.fleet = job.cache = job.campaign = None
        if job.checkpoint is not None:
            job.checkpoint = replace(job.checkpoint, vehicle_states=[])

    def _park(self, job: _Job) -> None:
        """Operator halt: boundary checkpoint, engine teardown, HALTED."""
        job.halt_requested = False
        if job.engine is not None:
            job.checkpoint = job.engine.checkpoint()
            job.engine.finalize()
            job.engine = None
        job.state = JobState.HALTED

    def _start(self, job: _Job) -> None:
        """Build (or rebuild, on resume) the job's campaign and engine.

        The fleet, its analysis cache and the update factory are built once
        per job and survive halts; its vehicles provision as the waves stage
        them.
        Every start builds a fresh ``Campaign`` — ``run()``-state free by
        construction — and a fresh engine, resumed from the parked
        checkpoint when one exists.
        """
        from repro.scenarios.fleet_campaign import add_component_update
        request = job.request
        if job.fleet is None:
            job.cache = AnalysisCache()
            job.fleet = generate_fleet(request.fleet_spec(),
                                       analysis_cache=job.cache)
            job.update_factory = add_component_update(
                request.update_utilization, request.component)
        threshold = job.max_failure_rate \
            if job.max_failure_rate is not None else request.max_failure_rate
        policy = WavePolicy(canary_size=request.canary_size,
                            wave_fractions=request.wave_fractions,
                            max_failure_rate=threshold,
                            rollback_on_halt=request.rollback_on_halt)
        job.campaign = Campaign(
            job.fleet, job.update_factory, policy=policy,
            analysis_cache=job.cache,
            failure_injection_rate=request.failure_injection_rate,
            feedback_seed=request.seed)
        job.engine = CampaignEngine(job.campaign,
                                    resume_from=job.checkpoint)

    # -- plumbing ----------------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise ServiceError(f"unknown job {job_id!r}")
        return job

    def _visible_result(self, job: _Job) -> Optional[CampaignResult]:
        if job.result is not None:
            return job.result
        if job.engine is not None:
            return job.engine.state.result
        if job.checkpoint is not None:
            return job.checkpoint.result
        return None
