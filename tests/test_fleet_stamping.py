"""Stamped fleet provisioning against the integrate-each reference.

:func:`repro.fleet.vehicle.generate_fleet` integrates each variant's
baseline once, on the variant's first vehicle, and stamps every later
vehicle of the variant from that vehicle's snapshot.  The reference in
``tests/harness.py`` (:func:`generate_fleet_integrating_each`) runs every
vehicle's baseline through its own MCC.  The two must be indistinguishable:

* right after provisioning, vehicle by vehicle: installed components,
  mapping, priorities, model version, expectations, deployed configuration
  and every baseline report's verdict, viewpoint results and findings;
* after any campaign over them: the whole ``CampaignResult`` (the shared
  cache's hit and miss counters and the engine reuse rate included; only
  the wall-clock shard telemetry is left out) and every vehicle's state
  and rollout flags — across ADD and UPDATE updates, halts with and
  without rollback, resumes from every wave boundary, pooled waves and
  the three adversity models.

The provisioning work is pinned exactly (one integration per baseline
contract per variant, whatever the fleet size), and the sharing is pinned
to be invisible: a change adopted, rejected or rolled back on one vehicle
never reaches its siblings.
"""

from __future__ import annotations

import re
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import generate_fleet_integrating_each
from repro.analysis.cache import AnalysisCache
from repro.contracts.language import ContractParser, ContractSerializer
from repro.fleet.adversity import (IntrusionAdversity, LossyDeliveryAdversity,
                                   ThermalAdversity)
from repro.fleet.campaign import Campaign, CampaignCheckpoint, WavePolicy
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import (FleetSpec, generate_fleet, generate_variants,
                                 variant_contracts)
from repro.mcc.acceptance import (AcceptanceResult, DistributedChainSpec,
                                  DistributedTimingAcceptanceTest, MessageSpec)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.integration import IntegrationProcess
from repro.scenarios.fleet_campaign import build_update_contract

PROVISIONERS = (generate_fleet, generate_fleet_integrating_each)


# -- comparable state ---------------------------------------------------------


def report_state(report):
    return (report.accepted, dict(report.acceptance_results),
            list(report.findings), report.configuration_version)


def vehicle_state(vehicle):
    """Everything observable about one vehicle's MCC and rollout flags."""
    mcc = vehicle.mcc
    model = mcc.model
    configuration = mcc.deployed_configuration
    return (vehicle.vehicle_id, vehicle.variant, vehicle.updated,
            vehicle.deviating, vehicle.rolled_back,
            model.components(), sorted(model.mapping.items()),
            sorted(model.priorities.items()), model.version,
            list(mcc.expectations),
            None if configuration is None else (
                configuration.version, configuration.contracts,
                configuration.mapping, configuration.priorities,
                configuration.sessions),
            [report_state(report) for report in mcc.reports])


def fleet_state(fleet):
    return [vehicle_state(vehicle) for vehicle in fleet]


def result_state(result):
    """Every ``CampaignResult`` field except the wall-clock shard telemetry."""
    return [(field.name, getattr(result, field.name))
            for field in fields(result) if field.name != "shard_telemetry"]


def rte_state(vehicle):
    """What a vehicle's execution domain runs, processor by processor."""
    rte = vehicle.mcc.rte
    return (rte.configuration.version, sorted(rte.snapshot().items()),
            [(processor.name,
              [(task.name, task.priority, task.period, task.wcet)
               for task in processor.taskset],
              processor.memory_allocated_kib)
             for processor in vehicle.platform.processors()])


# -- updates ------------------------------------------------------------------


def add_update(utilization=0.22, memory_kib=0.0):
    """ADD of one per-variant ``nav_assist`` contract."""
    contracts = {}
    parser = ContractParser()

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization)
            if memory_kib:
                document = ContractSerializer().to_dict(contract)
                document["resources"] = {"memory_kib": memory_kib}
                contract = parser.parse(document)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def rebudget_update(factor):
    """UPDATE of the planner's WCET by ``factor``, one contract per variant."""
    contracts = {}
    parser, serializer = ContractParser(), ContractSerializer()

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            document = serializer.to_dict(vehicle.mcc.model.contract("planner"))
            document["timing"]["wcet"] *= factor
            contract = parser.parse(document)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                             component="planner", contract=contract)

    return factory


def make_update(kind, level):
    return add_update(level) if kind == "add" else rebudget_update(level)


# -- strategies ---------------------------------------------------------------

specs = st.builds(FleetSpec,
                  size=st.integers(min_value=1, max_value=12),
                  seed=st.integers(min_value=0, max_value=2**20),
                  num_variants=st.integers(min_value=1, max_value=4),
                  extra_components=st.integers(min_value=0, max_value=4))

policies = st.builds(WavePolicy,
                     canary_size=st.integers(min_value=0, max_value=2),
                     wave_fractions=st.sampled_from([(0.1, 0.3, 1.0), (0.5,),
                                                     (1.0,)]),
                     max_failure_rate=st.sampled_from([0.0, 0.3, 1.0]),
                     rollback_on_halt=st.booleans(),
                     refine_on_deviation=st.booleans())

#: (kind, level): ADD at a utilization, or UPDATE by a WCET factor; the
#: levels span all-admitted, mixed and all-rejected waves.
updates = st.sampled_from([("add", 0.1), ("add", 0.45), ("add", 0.9),
                           ("rebudget", 1.05), ("rebudget", 2.5),
                           ("rebudget", 4.0)])

failure_rates = st.sampled_from([0.0, 0.3, 1.0])


def provision_and_run(provisioner, spec, update, policy, failure_rate, *,
                      shared_cache=True, workers=1, adversity=None):
    """Provision with ``provisioner``, run one campaign; return both states."""
    cache = AnalysisCache() if shared_cache else None
    fleet = provisioner(spec, analysis_cache=cache)
    provisioned = fleet_state(fleet)
    campaign = Campaign(fleet, make_update(*update), policy=policy,
                        analysis_cache=cache, batch_admission=shared_cache,
                        failure_injection_rate=failure_rate,
                        feedback_seed=spec.seed, workers=workers,
                        adversity=adversity)
    result = campaign.run()
    return provisioned, result_state(result), fleet_state(fleet)


def slow(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestStampedMatchesReference:
    """Stamped fleets behave exactly like integrate-each fleets."""

    @slow(60)
    @given(spec=specs, update=updates, policy=policies,
           failure_rate=failure_rates, shared_cache=st.booleans())
    def test_provisioning_and_campaign(self, spec, update, policy,
                                       failure_rate, shared_cache):
        stamped, reference = (
            provision_and_run(provisioner, spec, update, policy, failure_rate,
                              shared_cache=shared_cache)
            for provisioner in PROVISIONERS)
        assert stamped == reference

    @slow(5)
    @given(spec=specs, update=updates, policy=policies,
           failure_rate=failure_rates)
    def test_pooled_waves(self, spec, update, policy, failure_rate):
        stamped, reference = (
            provision_and_run(provisioner, spec, update, policy, failure_rate,
                              workers=2)
            for provisioner in PROVISIONERS)
        assert stamped == reference

    @slow(12)
    @given(spec=specs, update=updates, seed=st.integers(0, 2**16),
           model=st.sampled_from(["lossy", "intrusion", "thermal"]))
    def test_adversity(self, spec, update, seed, model):
        def adversity():  # a fresh model per run: models are stateful
            if model == "lossy":
                return LossyDeliveryAdversity(0.4, seed=seed)
            if model == "intrusion":
                return IntrusionAdversity(compromise_rate=0.3, seed=seed)
            return ThermalAdversity(peak_wave=1)

        stamped, reference = (
            provision_and_run(provisioner, spec, update, WavePolicy(), 0.1,
                              adversity=adversity())
            for provisioner in PROVISIONERS)
        assert stamped == reference

    @slow(10)
    @given(spec=specs, update=updates, policy=policies,
           failure_rate=failure_rates)
    def test_resume_from_every_boundary(self, spec, update, policy,
                                        failure_rate, tmp_path_factory):
        directory = tmp_path_factory.mktemp("stamping")

        def fresh(provisioner, run_policy=policy):
            cache = AnalysisCache()
            fleet = provisioner(spec, analysis_cache=cache)
            return fleet, Campaign(fleet, make_update(*update),
                                   policy=run_policy, analysis_cache=cache,
                                   failure_injection_rate=failure_rate,
                                   feedback_seed=spec.seed)

        def resumed_runs(provisioner):
            runs = []
            fleet, campaign = fresh(provisioner)
            engine = CampaignEngine(campaign)
            boundaries = 0
            while True:
                path = str(directory / f"{provisioner.__name__}-{boundaries}.ckpt")
                engine.checkpoint(path)
                fleet_resumed, campaign_resumed = fresh(provisioner)
                result = campaign_resumed.run(
                    resume_from=CampaignCheckpoint.load(path))
                runs.append((result_state(result), fleet_state(fleet_resumed)))
                if engine.done:
                    break
                engine.step()
                boundaries += 1
                if engine.state.result.halted:
                    break
            engine.finalize()
            runs.append((result_state(engine.state.result), fleet_state(fleet)))
            if campaign.last_checkpoint is not None:
                # A policy halt: remediate the threshold and resume the
                # halting wave from the halt-written checkpoint.
                fleet_resumed, campaign_resumed = fresh(
                    provisioner, replace(policy, max_failure_rate=1.0))
                result = campaign_resumed.run(
                    resume_from=campaign.last_checkpoint)
                runs.append((result_state(result), fleet_state(fleet_resumed)))
            return runs

        assert resumed_runs(generate_fleet) == \
            resumed_runs(generate_fleet_integrating_each)


# -- fixed cases ----------------------------------------------------------------


class RejectComponent:
    """Acceptance viewpoint failing every candidate that contains
    ``component``: a variant-only factory attaches it to chosen variants."""

    viewpoint = "policy"

    def __init__(self, component):
        self.component = component

    def run(self, contracts, mapping, priorities, platform):
        present = any(contract.component == self.component
                      for contract in contracts)
        return AcceptanceResult(
            viewpoint=self.viewpoint, passed=not present,
            findings=[f"{self.component} is not allowed"] if present else [])


def rejecting(component, variant_index):
    def factory(variant, platform):
        if variant.index == variant_index:
            return [RejectComponent(component)]
        return []
    return factory


def distributed_chain(deadline):
    def factory(variant, platform):
        return [DistributedTimingAcceptanceTest(
            messages=[MessageSpec("object_list", sender="perception",
                                  receiver="planner", can_id=0x100)],
            chains=[DistributedChainSpec(
                "sense-plan", stages=("perception", "object_list", "planner"),
                deadline=deadline)])]
    return factory


class TestFixedCases:

    def test_core_rejection_names_the_same_vehicle(self):
        spec = FleetSpec(size=9, seed=4, num_variants=3, extra_components=2)
        messages = []
        for provisioner in PROVISIONERS:
            with pytest.raises(RuntimeError, match="rejected its baseline") \
                    as raised:
                provisioner(spec, extra_acceptance_tests=rejecting("planner", 2))
            # Request ids come from a process-wide counter; the rest of the
            # message must match.
            messages.append(re.sub(r"request \d+", "request N",
                                   str(raised.value)))
        assert messages[0] == messages[1]
        assert messages[0].startswith("vehicle 2 rejected its baseline")

    def test_optional_app_rejection_is_inherited(self):
        spec = FleetSpec(size=8, seed=4, num_variants=2, extra_components=3)
        factory = rejecting("app01", 1)
        stamped = generate_fleet(spec, extra_acceptance_tests=factory)
        reference = generate_fleet_integrating_each(
            spec, extra_acceptance_tests=factory)
        assert fleet_state(stamped) == fleet_state(reference)
        for vehicle in stamped:
            installed = vehicle.mcc.model.components()
            assert ("app01" in installed) == (vehicle.variant.index == 0)
            rejected = vehicle.mcc.rejected_reports()
            if vehicle.variant.index == 1:
                assert [report.findings for report in rejected] == \
                    [["[policy] app01 is not allowed"]]
            else:
                assert rejected == []

    def test_deploy_runs_the_configuration_on_each_platform(self):
        spec = FleetSpec(size=7, seed=2, num_variants=3, extra_components=2,
                         deploy=True)
        states = []
        for provisioner in PROVISIONERS:
            fleet = provisioner(spec)
            provisioned = [rte_state(vehicle) for vehicle in fleet]
            Campaign(fleet, add_update(memory_kib=256.0),
                     batch_admission=False, feedback_seed=2).run()
            states.append((provisioned, [rte_state(v) for v in fleet],
                           fleet_state(fleet)))
        assert states[0] == states[1]

    def test_extra_acceptance_tests(self):
        spec = FleetSpec(size=10, seed=7, num_variants=3, extra_components=2)
        stamped, reference = (
            provision_and_run(
                partial(provisioner, extra_acceptance_tests=distributed_chain(0.5)),
                spec, ("add", 0.22), WavePolicy(), 0.3)
            for provisioner in PROVISIONERS)
        assert stamped == reference


class TestProvisioningWork:
    """One integration per baseline contract per variant, never per vehicle."""

    @staticmethod
    def count_integrations(monkeypatch, provisioner, spec):
        calls = []
        integrate = IntegrationProcess.integrate

        def counting(self, candidate, request):
            calls.append(request.component)
            return integrate(self, candidate, request)

        monkeypatch.setattr(IntegrationProcess, "integrate", counting)
        provisioner(spec, analysis_cache=AnalysisCache())
        monkeypatch.undo()
        return len(calls)

    @pytest.mark.parametrize("size", [1, 5, 8, 40, 200])
    def test_integrations_equal_baseline_contracts(self, monkeypatch, size):
        spec = FleetSpec(size=size, seed=11, num_variants=8,
                         extra_components=6)
        baseline_contracts = sum(len(variant_contracts(variant, spec))
                                 for variant in generate_variants(spec))
        assert self.count_integrations(monkeypatch, generate_fleet, spec) \
            == baseline_contracts

    def test_fixpoints_of_a_diverged_fleet(self):
        """Exact work counters of provisioning 16 distinct variants: the
        busy-window fixpoints (cold plus warm) the shared engine iterates,
        the task results it reuses, and the cache traffic in front of it.
        The warm-start base decides the first two; the cache's hits and
        misses depend on the task sets alone."""
        cache = AnalysisCache()
        generate_fleet(FleetSpec(size=16, seed=11, num_variants=16,
                                 extra_components=10), analysis_cache=cache)
        engine = cache.engine
        assert (engine.tasks_cold + engine.tasks_warm_started,
                engine.tasks_reused, engine.tasks_batched) == (532, 360, 0)
        assert (cache.hits, cache.misses) == (116, 218)

    def test_reference_integrates_per_vehicle(self, monkeypatch):
        spec = FleetSpec(size=12, seed=11, num_variants=3,
                         extra_components=2)
        per_vehicle = sum(len(variant_contracts(variant, spec))
                          for variant in generate_variants(spec)) * 12 // 3
        assert self.count_integrations(
            monkeypatch, generate_fleet_integrating_each, spec) == per_vehicle


class TestSiblingIsolation:
    """Stamped siblings share read-only state; no change leaks across."""

    SPEC = FleetSpec(size=6, seed=3, num_variants=2, extra_components=3)

    @staticmethod
    def observed(vehicle):
        """The vehicle's MCC state, by reference and by value (so an
        in-place mutation of a shared object shows too)."""
        mcc = vehicle.mcc
        return {"model": mcc.model,
                "contracts": repr(mcc.model.contracts()),
                "mapping": sorted(mcc.model.mapping.items()),
                "priorities": sorted(mcc.model.priorities.items()),
                "version": mcc.model.version,
                "configuration": mcc.deployed_configuration,
                "configuration_value": repr(mcc.deployed_configuration),
                "reports": [report_state(report) for report in mcc.reports],
                "expectations": repr(mcc.expectations)}

    def test_siblings_share_the_adopted_baseline(self):
        fleet = generate_fleet(self.SPEC)
        first, sibling = fleet[0], fleet[2]
        assert sibling.mcc.model is first.mcc.model
        assert sibling.mcc.deployed_configuration is \
            first.mcc.deployed_configuration
        assert len(sibling.mcc.reports) == len(first.mcc.reports)
        assert all(mine is theirs for mine, theirs
                   in zip(sibling.mcc.reports, first.mcc.reports))
        assert sibling.mcc.reports is not first.mcc.reports
        assert sibling.mcc.expectations is not first.mcc.expectations
        assert sibling.platform is not first.platform
        assert sibling.mcc.process is not first.mcc.process

    @pytest.mark.parametrize("changed", [0, 2])
    def test_adopt_reject_rollback_stay_local(self, changed):
        fleet = generate_fleet(self.SPEC)
        siblings = [v for v in fleet if v.variant.index == 0
                    and v.index != changed]
        before = [self.observed(vehicle) for vehicle in siblings]
        vehicle = fleet[changed]
        snapshot = vehicle.mcc.snapshot()

        adopted = vehicle.mcc.add_component(
            build_update_contract(vehicle.wcet_factor, utilization=0.1))
        assert adopted.accepted
        rejected = vehicle.mcc.add_component(
            build_update_contract(vehicle.wcet_factor, utilization=5.0,
                                  component="hog"))
        assert not rejected.accepted
        updated = vehicle.mcc.update_component(build_update_contract(
            vehicle.wcet_factor, utilization=0.12))
        assert updated.accepted
        assert "nav_assist" in vehicle.mcc.model.components()
        assert [self.observed(v) for v in siblings] == before

        vehicle.mcc.rollback(snapshot)
        assert vehicle.mcc.model is before[0]["model"]
        assert len(vehicle.mcc.reports) == len(before[0]["reports"]) + 3
        assert [self.observed(v) for v in siblings] == before

    def test_deploy_keeps_platforms_apart(self):
        spec = replace(self.SPEC, deploy=True)
        fleet = generate_fleet(spec)
        Campaign([fleet[2]], add_update(memory_kib=256.0),
                 policy=WavePolicy(canary_size=0), batch_admission=False,
                 feedback_seed=3).run()
        for vehicle in fleet:
            rte = vehicle.mcc.rte
            assert rte.platform is vehicle.platform
            assert rte.configuration is vehicle.mcc.deployed_configuration
            configuration = rte.configuration
            for processor in vehicle.platform.processors():
                hosted = sorted(task.name for task in processor.taskset)
                assert hosted == sorted(
                    f"{component}.task"
                    for component, name in configuration.mapping.items()
                    if name == processor.name)
            memory = sum(processor.memory_allocated_kib
                         for processor in vehicle.platform.processors())
            assert memory == (256.0 if vehicle.index == 2 else 0.0)
        assert "nav_assist" in fleet[2].mcc.model.components()
        assert all("nav_assist" not in vehicle.mcc.model.components()
                   for vehicle in fleet if vehicle.index != 2)
