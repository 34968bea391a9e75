"""Tests for the Multi-Change Controller, mapping, acceptance tests, the RTE
deployment path and the hypervisor/VM layer."""

from __future__ import annotations

import pytest

from repro.analysis.cpa import ResponseTimeAnalysis
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.can.controller import AcceptanceFilter
from repro.can.bus import CanBus
from repro.can.virtualization import VirtualizedCanController
from repro.contracts.language import ContractParser
from repro.contracts.model import RealTimeRequirement
from repro.mcc.acceptance import (
    ResourceAcceptanceTest,
    SafetyAcceptanceTest,
    SecurityAcceptanceTest,
    TimingAcceptanceTest,
    default_acceptance_tests,
    tasksets_from_mapping,
)
from repro.mcc.configuration import ChangeKind, ChangeRequest, SystemModel
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingEngine, MappingError, MappingStrategy
from repro.platform.resources import Platform, ProcessingResource, ResourceError
from repro.platform.rte import CapabilityError, RuntimeEnvironment
from repro.sim.kernel import Simulator
from repro.virtualization.hypervisor import Hypervisor, IsolationViolation
from repro.virtualization.vm import VirtualMachine, VmError


class TestSystemModel:
    def test_apply_changes(self, acc_contracts, parser):
        model = SystemModel(contracts=acc_contracts)
        assert len(model) == 3
        new = parser.parse({"component": "logger", "provides": ["log"]})
        model.apply_change(ChangeRequest(ChangeKind.ADD_COMPONENT, "logger", new))
        assert "logger" in model
        model.apply_change(ChangeRequest(ChangeKind.REMOVE_COMPONENT, "logger"))
        assert "logger" not in model

    def test_update_invalidates_mapping(self, acc_contracts, parser):
        model = SystemModel(contracts=acc_contracts, mapping={"tracker": "cpu0"})
        updated = parser.parse({"component": "tracker",
                                "timing": {"period": 0.05, "wcet": 0.02},
                                "provides": ["object_list"]})
        model.apply_change(ChangeRequest(ChangeKind.UPDATE_COMPONENT, "tracker", updated))
        assert "tracker" not in model.mapping

    def test_candidate_is_isolated(self, acc_contracts):
        model = SystemModel(contracts=acc_contracts)
        candidate = model.candidate()
        candidate.mapping["tracker"] = "cpu0"
        assert "tracker" not in model.mapping

    def test_missing_services(self, parser):
        model = SystemModel(contracts=[parser.parse(
            {"component": "client", "requires": ["absent"]})])
        assert model.missing_services() == ["client:absent"]

    def test_request_validation(self, parser):
        with pytest.raises(ValueError):
            ChangeRequest(ChangeKind.ADD_COMPONENT, "x")
        with pytest.raises(ValueError):
            ChangeRequest(ChangeKind.ADD_COMPONENT, "x",
                          parser.parse({"component": "y"}))


class TestMappingEngine:
    def test_respects_capacity(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": f"c{i}", "timing": {"period": 0.01, "wcet": 0.004}}
            for i in range(4)])
        decision = MappingEngine(dual_core_platform).map(contracts)
        assert set(decision.placement.values()) == {"cpu0", "cpu1"}
        for processor, load in decision.utilization.items():
            assert load <= 0.9 + 1e-9

    def test_infeasible_raises(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": f"c{i}", "timing": {"period": 0.01, "wcet": 0.008}}
            for i in range(4)])
        with pytest.raises(MappingError):
            MappingEngine(dual_core_platform).map(contracts)

    def test_worst_fit_balances_load(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": f"c{i}", "timing": {"period": 0.1, "wcet": 0.01}}
            for i in range(4)])
        decision = MappingEngine(dual_core_platform,
                                 strategy=MappingStrategy.WORST_FIT).map(contracts)
        loads = list(decision.utilization.values())
        assert max(loads) - min(loads) <= 0.11

    def test_keep_existing_mapping(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "a", "timing": {"period": 0.1, "wcet": 0.01}},
            {"component": "b", "timing": {"period": 0.1, "wcet": 0.01}}])
        decision = MappingEngine(dual_core_platform).map(contracts, existing={"a": "cpu1"})
        assert decision.placement["a"] == "cpu1"

    def test_redundancy_group_members_separated(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "brake_a", "timing": {"period": 0.01, "wcet": 0.001},
             "safety": {"asil": "D", "redundancy_group": "brake"}},
            {"component": "brake_b", "timing": {"period": 0.01, "wcet": 0.001},
             "safety": {"asil": "D", "redundancy_group": "brake"}}])
        decision = MappingEngine(dual_core_platform).map(contracts)
        assert decision.placement["brake_a"] != decision.placement["brake_b"]

    def test_priorities_deadline_monotonic_per_processor(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "fast", "timing": {"period": 0.005, "wcet": 0.001}},
            {"component": "slow", "timing": {"period": 0.1, "wcet": 0.001}}])
        decision = MappingEngine(dual_core_platform).map(contracts, existing={
            "fast": "cpu0", "slow": "cpu0"})
        assert decision.priorities["fast.task"] < decision.priorities["slow.task"]


class TestAcceptanceTests:
    def test_timing_acceptance(self, dual_core_platform, acc_contracts):
        mapping = {c.component: "cpu0" for c in acc_contracts}
        ordered = sorted(acc_contracts, key=lambda c: c.timing.deadline)
        priorities = {f"{c.component}.task": i for i, c in enumerate(ordered)}
        result = TimingAcceptanceTest().run(acc_contracts, mapping, priorities,
                                            dual_core_platform)
        assert result.passed
        # Throttle the platform in the analysis: the same set fails.
        slow = TimingAcceptanceTest(speed_factor=0.1).run(acc_contracts, mapping, priorities,
                                                          dual_core_platform)
        assert not slow.passed and slow.findings

    def test_safety_acceptance(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "critical", "timing": {"period": 0.01, "wcet": 0.001},
             "safety": {"asil": "D"}, "requires": ["svc"]},
            {"component": "weak", "timing": {"period": 0.01, "wcet": 0.001},
             "safety": {"asil": "A"}, "provides": ["svc"]}])
        result = SafetyAcceptanceTest().run(contracts, {}, {}, dual_core_platform)
        assert not result.passed

    def test_security_acceptance(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "gateway", "safety": {"asil": "QM"},
             "security": {"level": "NONE", "external_interface": True},
             "provides": ["remote"]},
            {"component": "brake", "safety": {"asil": "D"},
             "security": {"level": "LOW"}, "requires": ["remote"]}])
        result = SecurityAcceptanceTest().run(contracts, {}, {}, dual_core_platform)
        assert not result.passed

    def test_resource_acceptance(self, dual_core_platform, parser):
        contracts = parser.parse_many([
            {"component": "memory_hog",
             "resources": {"memory_kib": 10_000_000}}])
        result = ResourceAcceptanceTest().run(contracts, {"memory_hog": "cpu0"}, {},
                                              dual_core_platform)
        assert not result.passed

    def test_timing_without_cache_analyses_cold(self, monkeypatch,
                                                dual_core_platform,
                                                acc_contracts, parser):
        """Every run equals a cold analysis of each processor, whatever ran
        before, and builds no incremental engine."""
        built = []
        init = IncrementalResponseTimeAnalysis.__init__

        def counting(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(IncrementalResponseTimeAnalysis, "__init__",
                            counting)
        test = TimingAcceptanceTest()
        mapping = {"tracker": "cpu0", "actuator": "cpu0", "controller": "cpu1"}
        priorities = {"actuator.task": 0, "tracker.task": 1,
                      "controller.task": 0}
        for wcet in (0.01, 0.03, 0.01, 0.048):
            contracts = [parser.parse({
                "component": "tracker",
                "timing": {"period": 0.05, "wcet": wcet}})] + acc_contracts[1:]
            expected = {}
            for processor, taskset in sorted(tasksets_from_mapping(
                    contracts, mapping, priorities).items()):
                analysis = ResponseTimeAnalysis(taskset)
                expected[f"{processor}.utilization"] = analysis.utilization()
                expected.update((f"{name}.wcrt", response.wcrt)
                                for name, response in analysis.analyse().items()
                                if response.wcrt is not None)
            result = test.run(contracts, mapping, priorities,
                              dual_core_platform)
            assert result.metrics == expected
            assert result.passed == (wcet < 0.04)
        assert built == []

    def test_one_battery_serves_many_controllers(self, dual_core_platform,
                                                 acc_contracts, parser):
        """Two MCCs sharing one default battery, their requests interleaved,
        decide exactly what each decides with a battery of its own."""
        hog = parser.parse({"component": "hog",
                            "timing": {"period": 0.01, "wcet": 0.0095},
                            "provides": ["hog_svc"]})
        requests = [[ChangeRequest(ChangeKind.ADD_COMPONENT, c.component, c)
                     for c in acc_contracts + [hog]],
                    [ChangeRequest(ChangeKind.ADD_COMPONENT, c.component, c)
                     for c in [hog] + acc_contracts]]

        def decisions(batteries):
            controllers = [MultiChangeController(dual_core_platform,
                                                 acceptance_tests=battery)
                           for battery in batteries]
            for pair in zip(*requests):
                for mcc, request in zip(controllers, pair):
                    mcc.request_change(request)
            return [[(report.accepted, report.acceptance_results,
                      report.findings, report.configuration_version)
                     for report in mcc.reports] for mcc in controllers]

        shared = default_acceptance_tests()
        assert decisions([shared, shared]) == \
            decisions([default_acceptance_tests(), default_acceptance_tests()])

    def test_default_battery_covers_mandatory_viewpoints(self):
        viewpoints = {t.viewpoint for t in default_acceptance_tests()}
        assert {"timing", "safety", "security", "resources"} <= viewpoints


class TestMultiChangeController:
    def test_accepts_consistent_baseline_and_deploys(self, dual_core_platform, acc_contracts):
        rte = RuntimeEnvironment(dual_core_platform)
        mcc = MultiChangeController(dual_core_platform, rte=rte)
        for contract in acc_contracts:
            report = mcc.add_component(contract)
            assert report.accepted, report.summary()
        assert mcc.version == len(acc_contracts)
        assert len(rte.components()) == len(acc_contracts)
        assert rte.configuration.version == mcc.version
        assert mcc.acceptance_rate() == 1.0

    def test_rejects_overload_without_deploying(self, dual_core_platform, acc_contracts, parser):
        rte = RuntimeEnvironment(dual_core_platform)
        mcc = MultiChangeController(dual_core_platform, rte=rte)
        for contract in acc_contracts:
            mcc.add_component(contract)
        version_before = mcc.version
        hog = parser.parse({"component": "hog",
                            "timing": {"period": 0.01, "wcet": 0.0095},
                            "provides": ["hog_svc"]})
        hog2 = parser.parse({"component": "hog2",
                             "timing": {"period": 0.01, "wcet": 0.0095},
                             "provides": ["hog2_svc"]})
        mcc.add_component(hog)
        report = mcc.add_component(hog2)
        # The platform has two cores; a third full-core hog cannot fit.
        hog3 = parser.parse({"component": "hog3",
                             "timing": {"period": 0.01, "wcet": 0.0095},
                             "provides": ["hog3_svc"]})
        report = mcc.add_component(hog3)
        assert not report.accepted
        assert mcc.version >= version_before
        assert "hog3" not in [c.name for c in rte.components()]

    def test_rejects_dangling_requirement(self, dual_core_platform, parser):
        mcc = MultiChangeController(dual_core_platform)
        report = mcc.add_component(parser.parse(
            {"component": "orphan", "requires": ["missing_service"]}))
        assert not report.accepted
        assert any("missing provider" in finding for finding in report.findings)

    def test_update_and_remove_component(self, dual_core_platform, acc_contracts, parser):
        mcc = MultiChangeController(dual_core_platform)
        for contract in acc_contracts:
            mcc.add_component(contract)
        updated = parser.parse({"component": "tracker",
                                "timing": {"period": 0.05, "wcet": 0.015},
                                "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
                                "provides": ["object_list"]})
        assert mcc.update_component(updated).accepted
        assert mcc.model.contract("tracker").timing.wcet == pytest.approx(0.015)
        # Removing the provider breaks the controller's requirement.
        report = mcc.remove_component("actuator")
        assert not report.accepted
        assert "actuator" in mcc.model

    def test_unknown_component_update_rejected_gracefully(self, dual_core_platform, parser):
        mcc = MultiChangeController(dual_core_platform)
        report = mcc.update_component(parser.parse({"component": "ghost"}))
        assert not report.accepted and report.findings

    def test_wcet_feedback_triggers_reintegration(self, dual_core_platform, acc_contracts):
        mcc = MultiChangeController(dual_core_platform)
        for contract in acc_contracts:
            mcc.add_component(contract)
        version = mcc.version
        reports = mcc.incorporate_observed_wcets({"tracker.task": 0.012})
        assert len(reports) == 1 and reports[0].accepted
        assert mcc.version == version + 1
        assert mcc.model.contract("tracker").timing.wcet >= 0.012
        # Observations within budget change nothing.
        assert mcc.incorporate_observed_wcets({"tracker.task": 0.001}) == []

    def test_expectations_follow_contracts(self, dual_core_platform, acc_contracts):
        mcc = MultiChangeController(dual_core_platform)
        for contract in acc_contracts:
            mcc.add_component(contract)
        sources = {e.source for e in mcc.expectations}
        assert "tracker.task" in sources


class TestMccCheckpointing:
    """snapshot/rollback and precedent replay (fleet-campaign primitives)."""

    def test_snapshot_and_rollback_restore_state(self, dual_core_platform,
                                                 acc_contracts, parser):
        rte = RuntimeEnvironment(dual_core_platform)
        mcc = MultiChangeController(dual_core_platform, rte=rte)
        for contract in acc_contracts:
            mcc.add_component(contract)
        checkpoint = mcc.snapshot()
        version = mcc.version
        extra = parser.parse({"component": "extra",
                              "timing": {"period": 0.05, "wcet": 0.002},
                              "safety": {"asil": "B"},
                              "security": {"level": "MEDIUM"},
                              "provides": ["extra_svc"]})
        assert mcc.add_component(extra).accepted
        assert mcc.version == version + 1
        mcc.rollback(checkpoint)
        assert mcc.version == version
        assert "extra" not in mcc.model
        assert rte.configuration.version == version
        assert "extra" not in [c.name for c in rte.components()]
        # Reports stay as an append-only audit log.
        assert len(mcc.reports) == len(acc_contracts) + 1

    def test_replay_change_mirrors_a_precedent(self, parser, acc_contracts):
        def fresh_mcc():
            platform = Platform(name="twin")
            platform.add_processor(ProcessingResource("cpu0", capacity=0.9))
            platform.add_processor(ProcessingResource("cpu1", capacity=0.9))
            mcc = MultiChangeController(platform)
            for contract in acc_contracts:
                mcc.add_component(contract)
            return mcc

        leader, follower = fresh_mcc(), fresh_mcc()
        update = parser.parse({"component": "extra",
                               "timing": {"period": 0.05, "wcet": 0.002},
                               "safety": {"asil": "B"},
                               "security": {"level": "MEDIUM"},
                               "provides": ["extra_svc"]})
        request = ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                component="extra", contract=update)
        precedent = leader.request_change(request)
        assert precedent.accepted
        replayed = follower.replay_change(precedent, leader.snapshot())
        assert replayed is precedent and follower.reports[-1] is precedent
        assert follower.version == leader.version
        assert follower.model is leader.model
        assert follower.model.mapping == leader.model.mapping
        assert follower.model.priorities == leader.model.priorities
        assert follower.deployed_configuration.version == \
            leader.deployed_configuration.version

    def test_replay_of_a_rejection_adopts_nothing(self, parser, acc_contracts):
        def fresh_mcc():
            platform = Platform(name="twin")
            platform.add_processor(ProcessingResource("cpu0", capacity=0.9))
            platform.add_processor(ProcessingResource("cpu1", capacity=0.9))
            mcc = MultiChangeController(platform)
            for contract in acc_contracts:
                mcc.add_component(contract)
            return mcc

        leader, follower = fresh_mcc(), fresh_mcc()
        before = follower.snapshot()
        expectations = follower.expectations
        orphan = parser.parse({"component": "orphan",
                               "timing": {"period": 0.05, "wcet": 0.002},
                               "requires": [{"service": "no_such_service"}]})
        precedent = leader.request_change(ChangeRequest(
            kind=ChangeKind.ADD_COMPONENT, component="orphan", contract=orphan))
        assert not precedent.accepted and precedent.findings
        replayed = follower.replay_change(precedent, leader.snapshot())
        assert replayed is precedent
        assert follower.reports[-1] is precedent
        assert follower.model is before.model
        assert follower.deployed_configuration is before.deployed_configuration
        assert follower.expectations == expectations

    def test_expectations_follow_the_adopted_model(self, parser, acc_contracts):
        """Every adoption path moves the expectations with the model: after
        an accepted update, a refinement, a replayed adoption and a
        rollback, each nominal is its contract's current WCET."""
        def fresh_mcc():
            platform = Platform(name="twin")
            platform.add_processor(ProcessingResource("cpu0", capacity=0.9))
            platform.add_processor(ProcessingResource("cpu1", capacity=0.9))
            mcc = MultiChangeController(platform)
            for contract in acc_contracts:
                mcc.add_component(contract)
            return mcc

        def nominals(mcc):
            return {expectation.source: expectation.nominal
                    for expectation in mcc.expectations}

        def follows(mcc):
            return nominals(mcc) == {
                f"{contract.component}.task": contract.timing.wcet
                for contract in mcc.model.contracts()}

        leader, follower = fresh_mcc(), fresh_mcc()
        baseline = follower.snapshot()
        original = nominals(follower)
        assert follows(follower) and original["tracker.task"] == 0.01

        update = parser.parse({"component": "tracker",
                               "timing": {"period": 0.05, "wcet": 0.012},
                               "safety": {"asil": "B"},
                               "security": {"level": "MEDIUM"},
                               "provides": ["object_list"]})
        request = ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                                component="tracker", contract=update)
        precedent = leader.request_change(request)
        assert precedent.accepted
        assert follows(leader) and nominals(leader)["tracker.task"] == 0.012
        updated = leader.snapshot()

        refined = leader.incorporate_observed_wcets({"tracker.task": 0.015})
        assert len(refined) == 1 and refined[0].accepted
        assert follows(leader)
        assert nominals(leader)["tracker.task"] == pytest.approx(0.018)

        replayed = follower.replay_change(precedent, updated)
        assert replayed is precedent and follower.model is updated.model
        assert follows(follower) and nominals(follower)["tracker.task"] == 0.012

        follower.rollback(baseline)
        assert follows(follower) and nominals(follower) == original


class TestPreviewTasksets:
    """preview_tasksets matches what the timing acceptance test analyses."""

    def test_preview_matches_integration_mapping(self, dual_core_platform,
                                                 acc_contracts, parser):
        mcc = MultiChangeController(dual_core_platform)
        for contract in acc_contracts:
            mcc.add_component(contract)
        update = parser.parse({"component": "extra",
                               "timing": {"period": 0.05, "wcet": 0.002},
                               "safety": {"asil": "B"},
                               "security": {"level": "MEDIUM"},
                               "provides": ["extra_svc"]})
        request = ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                component="extra", contract=update)
        preview = mcc.process.preview_tasksets(mcc.model, request)
        assert preview is not None
        assert mcc.request_change(request).accepted
        from repro.mcc.acceptance import tasksets_from_mapping
        actual = tasksets_from_mapping(mcc.model.contracts(), mcc.model.mapping,
                                       mcc.model.priorities)
        assert set(preview) == set(actual)
        for processor, taskset in actual.items():
            previewed = {(t.name, t.period, t.wcet, t.priority)
                         for t in preview[processor]}
            deployed = {(t.name, t.period, t.wcet, t.priority) for t in taskset}
            assert previewed == deployed

    def test_preview_returns_none_for_early_rejections(self, dual_core_platform,
                                                       acc_contracts, parser):
        mcc = MultiChangeController(dual_core_platform)
        for contract in acc_contracts:
            mcc.add_component(contract)
        dangling = parser.parse({"component": "orphan",
                                 "requires": ["missing_service"]})
        request = ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                component="orphan", contract=dangling)
        assert mcc.process.preview_tasksets(mcc.model, request) is None
        duplicate = ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                  component="tracker",
                                  contract=acc_contracts[0])
        assert mcc.process.preview_tasksets(mcc.model, duplicate) is None


class TestRuntimeEnvironment:
    def _deployed(self, dual_core_platform, acc_contracts):
        rte = RuntimeEnvironment(dual_core_platform)
        mcc = MultiChangeController(dual_core_platform, rte=rte)
        for contract in acc_contracts:
            mcc.add_component(contract)
        return rte

    def test_capability_enforcement(self, dual_core_platform, acc_contracts):
        rte = self._deployed(dual_core_platform, acc_contracts)
        session = rte.use_service("controller", "object_list")
        assert session.provider == "tracker"
        with pytest.raises(CapabilityError):
            rte.use_service("tracker", "setpoints")

    def test_quarantine_revokes_sessions_and_blocks_restart(self, dual_core_platform,
                                                            acc_contracts):
        rte = self._deployed(dual_core_platform, acc_contracts)
        revoked = rte.quarantine("tracker")
        assert revoked >= 1
        with pytest.raises(CapabilityError):
            rte.use_service("controller", "object_list")
        from repro.platform.components import ComponentError
        with pytest.raises(ComponentError):
            rte.restart("tracker")

    def test_tasks_hosted_on_mapped_processors(self, dual_core_platform, acc_contracts):
        rte = self._deployed(dual_core_platform, acc_contracts)
        processor = rte.processor_of("controller")
        assert processor is not None
        assert "controller.task" in processor.taskset

    def test_snapshot_reports_states(self, dual_core_platform, acc_contracts):
        rte = self._deployed(dual_core_platform, acc_contracts)
        snapshot = rte.snapshot()
        assert snapshot["tracker"] == "running"


class TestHypervisor:
    def test_vm_admission_and_isolation_check(self):
        platform = Platform.symmetric(1)
        hypervisor = Hypervisor(platform)
        hypervisor.define_vm(VirtualMachine("vm0", cpu_share=0.5, memory_kib=1024))
        hypervisor.define_vm(VirtualMachine("vm1", cpu_share=0.5, memory_kib=1024))
        with pytest.raises(ResourceError):
            hypervisor.define_vm(VirtualMachine("vm2", cpu_share=0.5, memory_kib=1024))
        assert hypervisor.verify_isolation() == []

    def test_vf_assignment_and_revocation(self):
        sim = Simulator()
        platform = Platform.symmetric(1)
        bus = CanBus(sim)
        controller = VirtualizedCanController(sim, "can0", privileged_owner="hypervisor")
        bus.attach(controller)
        hypervisor = Hypervisor(platform, name="hypervisor")
        hypervisor.register_controller(controller)
        hypervisor.define_vm(VirtualMachine("vm0", cpu_share=0.3, memory_kib=512))
        vf = hypervisor.assign_can_vf("vm0", "can0",
                                      filters=[AcceptanceFilter.exact(0x100)])
        assert vf.owner_vm == "vm0"
        assert hypervisor.assignments()[0].vf_name == vf.name
        hypervisor.revoke_can_vf("vm0", "can0")
        assert hypervisor.assignments() == []

    def test_guest_cannot_use_pf(self):
        sim = Simulator()
        platform = Platform.symmetric(1)
        controller = VirtualizedCanController(sim, "can0", privileged_owner="hypervisor")
        CanBus(sim).attach(controller)
        hypervisor = Hypervisor(platform, name="hypervisor")
        hypervisor.register_controller(controller)
        hypervisor.define_vm(VirtualMachine("vm0", cpu_share=0.3, memory_kib=512))
        with pytest.raises(IsolationViolation):
            hypervisor.guest_accesses_pf("vm0", "can0")

    def test_foreign_pf_owner_rejected(self):
        sim = Simulator()
        platform = Platform.symmetric(1)
        controller = VirtualizedCanController(sim, "can0", privileged_owner="someone_else")
        hypervisor = Hypervisor(platform, name="hypervisor")
        with pytest.raises(IsolationViolation):
            hypervisor.register_controller(controller)

    def test_vm_lifecycle(self):
        vm = VirtualMachine("vm0", cpu_share=0.5, memory_kib=256)
        vm.start()
        vm.pause()
        vm.resume()
        vm.stop()
        with pytest.raises(VmError):
            vm.resume()
        with pytest.raises(VmError):
            VirtualMachine("bad", cpu_share=0.0, memory_kib=256)

    def test_destroy_vm_releases_resources(self):
        platform = Platform.symmetric(1)
        hypervisor = Hypervisor(platform)
        hypervisor.define_vm(VirtualMachine("vm0", cpu_share=0.6, memory_kib=1024))
        hypervisor.destroy_vm("vm0")
        hypervisor.define_vm(VirtualMachine("vm1", cpu_share=0.6, memory_kib=1024))
        assert hypervisor.vm("vm1").name == "vm1"
