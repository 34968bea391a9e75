"""The multi-tenant admission service: lifecycle, streaming, tenancy.

Four guarantees under test:

* **Lifecycle** — submit → queued → running → completed, with per-wave
  :class:`WaveProgress` streaming (late subscribers replay the backlog,
  the closing record carries ``final``) and blocking :meth:`wait`.
* **Tenancy identity** — a tenant's service-run campaign result is
  byte-identical to an isolated direct ``Campaign.run()`` of the same
  submission, however many tenants share the service (the digest
  excludes cache counters).
* **Operator control** — halt parks at the next wave boundary with a
  resumable checkpoint, resume continues to the uninterrupted-run result,
  rollback restores the pre-campaign fleet; a policy halt surfaces as the
  same HALTED state with the halt-written checkpoint and an optionally
  remediated threshold on resume.
* **Validation** — malformed requests and invalid transitions raise
  :class:`ServiceError` at the API surface, never inside the scheduler.

A completed job releases its fleet while the service keeps running; a
halted one keeps it for resume and rollback.

No pytest-asyncio in the toolchain: each test drives the service through
``asyncio.run`` on a self-contained coroutine.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, WavePolicy
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.observability.metrics_bridge import (SERVICE_SOURCE,
                                                service_metric_registry)
from repro.scenarios.fleet_campaign import build_update_contract
from repro.service import admission
from repro.service import (AdmissionService, CampaignStatus, HaltRequest,
                           JobState, ResumeRequest, RollbackRequest,
                           ServiceError, SubmitCampaign, WaveProgress)

from test_parallel_campaign import campaign_digest

SUBMIT = SubmitCampaign(tenant="acme", fleet_size=8, seed=3)


def reference_result(request: SubmitCampaign):
    """Isolated ``Campaign.run()`` of one submission — the tenancy oracle."""
    cache = AnalysisCache()
    fleet = generate_fleet(
        FleetSpec(size=request.fleet_size, seed=request.seed,
                  heterogeneity=request.heterogeneity,
                  num_variants=request.num_variants,
                  extra_components=request.extra_components),
        analysis_cache=cache)
    contracts = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(
                vehicle.wcet_factor, utilization=request.update_utilization,
                component=request.component)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    policy = WavePolicy(canary_size=request.canary_size,
                        wave_fractions=request.wave_fractions,
                        max_failure_rate=request.max_failure_rate,
                        rollback_on_halt=request.rollback_on_halt)
    campaign = Campaign(fleet, factory, policy=policy, analysis_cache=cache,
                        failure_injection_rate=request.failure_injection_rate,
                        feedback_seed=request.seed)
    return campaign.run()


class TestLifecycle:
    def test_submit_stream_wait_complete(self):
        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                assert receipt.tenant == "acme"
                assert receipt.state == JobState.QUEUED
                assert receipt.waves_planned >= 2
                progress = [record async for record
                            in service.stream(receipt.job_id)]
                status = await service.wait(receipt.job_id)
                return receipt, progress, status, \
                    service.result(receipt.job_id)

        receipt, progress, status, result = asyncio.run(drive())
        assert status.state == JobState.COMPLETED
        assert status.waves_executed == len(progress) == len(result.waves)
        assert [record.index for record in progress] == \
            [record.index for record in result.waves]
        assert all(isinstance(record, WaveProgress) for record in progress)
        assert [record.final for record in progress] == \
            [False] * (len(progress) - 1) + [True]
        assert not any(record.halted for record in progress)
        assert status.admitted == result.admitted == SUBMIT.fleet_size
        assert status.update_coverage == 1.0

    def test_late_subscriber_replays_backlog(self):
        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                await service.wait(receipt.job_id)  # job fully done first
                return [record async for record
                        in service.stream(receipt.job_id)]

        progress = asyncio.run(drive())
        assert progress and progress[-1].final

    def test_round_robin_interleaves_tenants(self):
        async def drive():
            async with AdmissionService(slots=1) as service:
                first = await service.submit(
                    SubmitCampaign(tenant="acme", fleet_size=8, seed=1))
                second = await service.submit(
                    SubmitCampaign(tenant="zephyr", fleet_size=8, seed=2))
                for receipt in (first, second):
                    status = await service.wait(receipt.job_id)
                    assert status.state == JobState.COMPLETED
                order = []
                for job_id in (first.job_id, second.job_id):
                    async for record in service.stream(job_id):
                        order.append((record.tenant, record.index))
                return order

        order = asyncio.run(drive())
        assert {tenant for tenant, _ in order} == {"acme", "zephyr"}

    def test_stop_parks_running_jobs_resumably(self):
        # Many shallow waves: stop() lands mid-campaign with certainty
        # (the event loop can only squeeze a couple of extra waves in
        # between our wake-up and the stop flags).
        request = SubmitCampaign(
            tenant="acme", fleet_size=24, seed=3,
            wave_fractions=(0.1, 0.2, 0.3, 0.4, 0.55, 0.7, 0.85, 1.0))

        async def drive():
            service = AdmissionService()
            await service.start()
            receipt = await service.submit(request)
            # Let the scheduler provision and execute at least one wave.
            async for _ in service.stream(receipt.job_id):
                break
            await service.stop()
            parked = service.status(receipt.job_id)
            assert parked.state == JobState.HALTED
            assert 0 < parked.waves_executed < receipt.waves_planned
            await service.start()
            await service.resume(ResumeRequest(job_id=receipt.job_id))
            final = await service.wait(receipt.job_id)
            await service.stop()
            return final, service.result(receipt.job_id)

        final, result = asyncio.run(drive())
        assert final.state == JobState.COMPLETED
        assert campaign_digest(result) == \
            campaign_digest(reference_result(request))


class TestReleasedState:
    @staticmethod
    def tracked_fleets(monkeypatch):
        """Weak references to every vehicle the service provisions."""
        vehicles = []

        def tracking(spec, **kwargs):
            fleet = generate_fleet(spec, **kwargs)
            vehicles.extend(weakref.ref(vehicle) for vehicle in fleet)
            return fleet

        monkeypatch.setattr(admission, "generate_fleet", tracking)
        return vehicles

    def test_a_completed_job_releases_its_fleet(self, monkeypatch):
        vehicles = self.tracked_fleets(monkeypatch)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                status = await service.wait(receipt.job_id)
                gc.collect()
                released = all(vehicle() is None for vehicle in vehicles)
                progress = [record async for record
                            in service.stream(receipt.job_id)]
                return (released, status, service.status(receipt.job_id),
                        service.result(receipt.job_id), progress)

        released, status, later, result, progress = asyncio.run(drive())
        assert len(vehicles) == SUBMIT.fleet_size and released
        assert status.state == JobState.COMPLETED and later == status
        assert campaign_digest(result) == \
            campaign_digest(reference_result(SUBMIT))
        assert len(progress) == len(result.waves) and progress[-1].final

    def test_a_halted_job_keeps_its_fleet(self, monkeypatch):
        vehicles = self.tracked_fleets(monkeypatch)
        request = SubmitCampaign(tenant="acme", fleet_size=8, seed=3,
                                 failure_injection_rate=1.0,
                                 max_failure_rate=0.0)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(request)
                status = await service.wait(receipt.job_id)
                gc.collect()
                return status, all(vehicle() is not None
                                   for vehicle in vehicles)

        status, kept = asyncio.run(drive())
        assert status.state == JobState.HALTED and kept


class TestTenancyIdentity:
    def test_results_match_isolated_runs(self):
        requests = [SubmitCampaign(tenant="acme", fleet_size=8, seed=3),
                    SubmitCampaign(tenant="acme", fleet_size=8, seed=4),
                    SubmitCampaign(tenant="zephyr", fleet_size=8, seed=3)]

        async def drive():
            async with AdmissionService() as service:
                receipts = [await service.submit(request)
                            for request in requests]
                for receipt in receipts:
                    await service.wait(receipt.job_id)
                return [service.result(receipt.job_id)
                        for receipt in receipts]

        results = asyncio.run(drive())
        for request, result in zip(requests, results):
            assert campaign_digest(result) == \
                campaign_digest(reference_result(request))

    def test_progress_folds_into_metric_registry(self):
        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                await service.wait(receipt.job_id)
                return receipt.job_id, \
                    [record async for record in service.stream(receipt.job_id)]

        job_id, progress = asyncio.run(drive())
        registry = service_metric_registry(progress)
        fleet_series = registry.get(SERVICE_SOURCE, "admitted")
        job_series = registry.get(f"service.job/{job_id}", "admitted")
        assert fleet_series is not None and job_series is not None
        assert len(fleet_series) == len(job_series) == len(progress)
        assert sum(job_series.values()) == SUBMIT.fleet_size


class TestOperatorControl:
    def test_halt_resume_reaches_uninterrupted_result(self):
        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                halted = await service.halt(HaltRequest(job_id=receipt.job_id,
                                                        reason="maintenance"))
                if halted.state == JobState.HALTED:
                    resumed = await service.resume(
                        ResumeRequest(job_id=receipt.job_id))
                    assert resumed.state == JobState.QUEUED
                final = await service.wait(receipt.job_id)
                return halted, final, service.result(receipt.job_id)

        halted, final, result = asyncio.run(drive())
        assert halted.state in (JobState.HALTED, JobState.COMPLETED)
        assert final.state == JobState.COMPLETED
        assert campaign_digest(result) == \
            campaign_digest(reference_result(SUBMIT))

    def test_policy_halt_surfaces_and_remediates(self):
        request = SubmitCampaign(tenant="acme", fleet_size=8, seed=3,
                                 failure_injection_rate=1.0,
                                 max_failure_rate=0.0)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(request)
                halted = await service.wait(receipt.job_id)
                assert halted.state == JobState.HALTED
                assert halted.halted_wave == 0
                progress = [record async for record
                            in service.stream(receipt.job_id)]
                assert progress[-1].halted and progress[-1].final
                await service.resume(ResumeRequest(job_id=receipt.job_id,
                                                   max_failure_rate=1.0))
                final = await service.wait(receipt.job_id)
                return final

        final = asyncio.run(drive())
        assert final.state == JobState.COMPLETED
        assert final.update_coverage == 1.0

    def test_rollback_restores_the_fleet_and_retires_the_job(self):
        request = SubmitCampaign(tenant="acme", fleet_size=8, seed=3,
                                 failure_injection_rate=1.0,
                                 max_failure_rate=0.0)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(request)
                await service.wait(receipt.job_id)
                rolled = await service.rollback(
                    RollbackRequest(job_id=receipt.job_id))
                assert rolled.state == JobState.ROLLED_BACK
                job = service._jobs[receipt.job_id]
                assert all(not vehicle.updated and not vehicle.rolled_back
                           for vehicle in job.fleet)
                with pytest.raises(ServiceError, match="only halted"):
                    await service.resume(ResumeRequest(job_id=receipt.job_id))
                return rolled

        rolled = asyncio.run(drive())
        assert rolled.state == JobState.ROLLED_BACK

    def test_rollback_returns_reached_vehicles_to_their_baseline(self):
        """The canary stays updated at the halt (no policy rollback); the
        operator rollback returns it to the fleet's own baseline objects
        and leaves the vehicles the campaign never reached unprovisioned."""
        request = SubmitCampaign(tenant="acme", fleet_size=8, seed=3,
                                 failure_injection_rate=1.0,
                                 max_failure_rate=0.0, rollback_on_halt=False)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(request)
                await service.wait(receipt.job_id)
                fleet = service._jobs[receipt.job_id].fleet
                updated = [vehicle.updated for vehicle in fleet]
                await service.rollback(RollbackRequest(job_id=receipt.job_id))
                return fleet, updated

        fleet, updated = asyncio.run(drive())
        assert updated == [True] * 2 + [False] * 6
        for vehicle in fleet[:2]:
            assert "nav_assist" not in vehicle.mcc.model.components()
            assert vehicle.capture_state().snapshot is None  # at baseline
            assert not (vehicle.updated or vehicle.deviating
                        or vehicle.rolled_back)
        assert not any(vehicle.provisioned for vehicle in fleet[2:])

    def test_the_first_claim_steps_the_canary(self):
        """No separate provisioning claim: a job's first claim builds its
        engine and executes the canary wave, provisioning the canary's
        vehicles only."""
        async def drive():
            service = AdmissionService()
            receipt = await service.submit(SUBMIT)
            service._advance(service._claim())
            return service._jobs[receipt.job_id]

        job = asyncio.run(drive())
        assert job.state == JobState.RUNNING
        assert [(record.index, record.kind) for record in job.progress] == \
            [(0, "canary")]
        assert [vehicle.provisioned for vehicle in job.fleet] == \
            [True] * 2 + [False] * 6


class TestValidation:
    def test_submit_schema_validates_at_construction(self):
        with pytest.raises(ServiceError, match="tenant"):
            SubmitCampaign(tenant="")
        with pytest.raises(ServiceError, match="fleet_size"):
            SubmitCampaign(tenant="acme", fleet_size=0)
        with pytest.raises(ServiceError, match="staging policy"):
            SubmitCampaign(tenant="acme", wave_fractions=(0.5, 0.1))
        with pytest.raises(ServiceError, match="job_id"):
            HaltRequest(job_id="")
        with pytest.raises(ServiceError, match="max_failure_rate"):
            ResumeRequest(job_id="acme/1", max_failure_rate=2.0)

    @pytest.mark.parametrize("knobs, message", [
        ({"heterogeneity": 1.0}, r"heterogeneity must be in \[0, 1\)"),
        ({"heterogeneity": -0.1}, r"heterogeneity must be in \[0, 1\)"),
        ({"extra_components": -1}, "extra_components must be non-negative"),
    ])
    def test_fleet_shape_fails_the_submission(self, knobs, message):
        """Regression: these used to pass the schema and end the job FAILED
        with a plain ValueError raised during provisioning."""
        with pytest.raises(ServiceError, match="invalid fleet: " + message):
            SubmitCampaign(tenant="acme", **knobs)

    def test_a_build_without_headroom_completes(self):
        """Regression: a variant without headroom for its extra apps used to
        end the job FAILED with ContractSyntaxError during provisioning."""
        request = SubmitCampaign(tenant="acme", fleet_size=4, seed=77,
                                 heterogeneity=0.8, num_variants=4,
                                 extra_components=2, max_failure_rate=1.0)

        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(request)
                return await service.wait(receipt.job_id)

        status = asyncio.run(drive())
        assert status.state == JobState.COMPLETED and status.error is None
        assert status.waves_executed > 0

    def test_fleet_spec_mirrors_the_submission(self):
        request = SubmitCampaign(tenant="acme", fleet_size=9, seed=4,
                                 heterogeneity=0.3, num_variants=2,
                                 extra_components=5)
        assert request.fleet_spec() == FleetSpec(
            size=9, seed=4, heterogeneity=0.3, num_variants=2,
            extra_components=5)

    def test_unknown_job_and_invalid_transitions(self):
        async def drive():
            async with AdmissionService() as service:
                with pytest.raises(ServiceError, match="unknown job"):
                    service.status("ghost/1")
                receipt = await service.submit(SUBMIT)
                with pytest.raises(ServiceError, match="only halted"):
                    await service.resume(ResumeRequest(job_id=receipt.job_id))
                with pytest.raises(ServiceError,
                                   match="no finalized result"):
                    service.result(receipt.job_id)
                await service.wait(receipt.job_id)

        asyncio.run(drive())

    def test_slots_must_be_positive(self):
        with pytest.raises(ServiceError, match="slots"):
            AdmissionService(slots=0)

    def test_status_is_immutable_snapshot(self):
        async def drive():
            async with AdmissionService() as service:
                receipt = await service.submit(SUBMIT)
                status = await service.wait(receipt.job_id)
                return status

        status = asyncio.run(drive())
        assert isinstance(status, CampaignStatus)
        with pytest.raises(AttributeError):
            status.admitted = 0


class TestServeCli:
    def test_serve_command_reports_throughput(self, capsys):
        from repro.experiments.cli import main
        code = main(["serve", "--tenants", "2", "--campaigns", "1",
                     "--fleet-size", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "admissions/s" in out
        assert out.count("completed") == 2
