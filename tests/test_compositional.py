"""Tests for the compositional multi-resource analysis subsystem.

Covers the CAN response-time analysis, the system-level event-model
propagation fixpoint (including the single-resource bit-identity criterion
and divergence detection), jitter-aware chain latency bounds, the
distributed timing acceptance test, and the fleet admission hook.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import AnalysisCache
from repro.analysis.compositional import (CanAnalysisError,
                                          CanResponseTimeAnalysis,
                                          CauseEffectChain, FrameSpec,
                                          SystemAnalysis,
                                          SystemConfigurationError, SystemModel,
                                          distributed_end_to_end_latency)
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis
from repro.contracts.model import (Contract, RealTimeRequirement,
                                   SafetyRequirement, SecurityRequirement,
                                   ServiceProvision, ServiceRequirement)
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.acceptance import (DistributedChainSpec,
                                  DistributedTimingAcceptanceTest, MessageSpec,
                                  default_acceptance_tests)
from repro.mcc.controller import MultiChangeController
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.tasks import Task, TaskSet

BITRATE = 500_000.0


def frame(name, can_id, period=0.01, dlc=8, **kwargs) -> FrameSpec:
    return FrameSpec(name, can_id=can_id, period=period, dlc=dlc, **kwargs)


class TestCanResponseTimeAnalysis:
    def test_single_frame_response_is_transmission_time(self):
        spec = frame("a", 0x100)
        result = CanResponseTimeAnalysis([spec], BITRATE).analyse()["a"]
        assert result.wcrt == pytest.approx(spec.transmission_time(BITRATE))
        assert result.converged and result.schedulable

    def test_highest_priority_frame_suffers_blocking(self):
        high = frame("high", 0x100, dlc=0)
        low = frame("low", 0x200, dlc=8)
        results = CanResponseTimeAnalysis([high, low], BITRATE).analyse()
        blocking = low.transmission_time(BITRATE)
        assert results["high"].wcrt == pytest.approx(
            blocking + high.transmission_time(BITRATE))

    def test_lower_priority_frame_suffers_interference(self):
        high = frame("high", 0x100, period=0.002)
        mid = frame("mid", 0x180, period=0.002)
        low = frame("low", 0x200, period=0.02)
        results = CanResponseTimeAnalysis([high, mid, low], BITRATE).analyse()
        tx = {f.name: f.transmission_time(BITRATE) for f in (high, mid, low)}
        # Lowest priority: no blocking, one instance of each higher stream.
        assert results["low"].wcrt == pytest.approx(tx["high"] + tx["mid"] + tx["low"])
        # Highest priority: blocked once by the longest lower-priority frame.
        assert results["high"].wcrt == pytest.approx(max(tx["mid"], tx["low"]) + tx["high"])
        assert results["low"].wcrt > results["high"].wcrt

    def test_arbitration_by_id_not_by_order(self):
        first = frame("first", 0x300, period=0.005)
        second = frame("second", 0x010, period=0.005)
        third = frame("third", 0x200, period=0.005)
        results = CanResponseTimeAnalysis([first, second, third], BITRATE).analyse()
        # "second" wins arbitration despite being listed later: it only ever
        # waits for one already-started lower-priority frame.
        assert results["second"].wcrt < results["first"].wcrt
        tx = {f.name: f.transmission_time(BITRATE) for f in (first, second, third)}
        assert results["second"].wcrt == pytest.approx(
            max(tx["first"], tx["third"]) + tx["second"])

    def test_overload_is_reported_unschedulable(self):
        frames = [frame(f"f{i}", 0x100 + i, period=0.0005) for i in range(4)]
        analysis = CanResponseTimeAnalysis(frames, BITRATE)
        assert analysis.utilization() > 1.0
        results = analysis.analyse()
        assert not all(r.schedulable for r in results.values())
        assert any(r.wcrt is None for r in results.values())

    def test_event_model_override_increases_interference(self):
        high = frame("high", 0x100, period=0.002)
        low = frame("low", 0x200, period=0.02)
        base = CanResponseTimeAnalysis([high, low], BITRATE).analyse()
        jittery = CanResponseTimeAnalysis(
            [high, low], BITRATE,
            event_models={"high": EventModel(period=0.002, jitter=0.004)}).analyse()
        assert jittery["low"].wcrt >= base["low"].wcrt

    def test_duplicate_ids_rejected(self):
        with pytest.raises(CanAnalysisError):
            CanResponseTimeAnalysis([frame("a", 0x100), frame("b", 0x100)], BITRATE)

    def test_duplicate_names_rejected(self):
        with pytest.raises(CanAnalysisError):
            CanResponseTimeAnalysis([frame("a", 0x100), frame("a", 0x101)], BITRATE)

    def test_iteration_budget_exhaustion_is_not_convergence(self):
        """Regression: running out of fixpoint iterations below the
        divergence bound must not report the (lower-bound) candidate as a
        converged WCRT."""
        high = frame("high", 0x100, period=0.002)
        low = frame("low", 0x200, period=0.02)
        result = CanResponseTimeAnalysis([high, low], BITRATE,
                                         max_iterations=1).analyse()["low"]
        assert result.wcrt is None
        assert not result.converged
        assert not result.schedulable

    def test_memo_round_trip(self):
        memo = {}
        frames = [frame("a", 0x100), frame("b", 0x200)]
        first = CanResponseTimeAnalysis(frames, BITRATE, memo=memo).analyse()
        again = CanResponseTimeAnalysis(frames, BITRATE, memo=memo).analyse()
        assert first == again
        assert len(memo) == 1

    def test_deadline_and_sender_carried_into_result(self):
        spec = frame("a", 0x100, deadline=0.004, sender="sensor")
        result = CanResponseTimeAnalysis([spec], BITRATE).analyse()["a"]
        assert result.task.deadline == 0.004
        assert result.task.component == "sensor"

    def test_parameter_validation(self):
        with pytest.raises(CanAnalysisError):
            CanResponseTimeAnalysis([frame("a", 0x100)], bitrate_bps=0.0)
        with pytest.raises(CanAnalysisError):
            FrameSpec("", can_id=0x100, period=0.01)
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x800, period=0.01)  # beyond standard ids
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x100, period=0.0)
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x100, period=0.01, jitter=-1.0)
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x100, period=0.01, deadline=0.0)
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x100, period=0.01, dlc=12)
        with pytest.raises(CanAnalysisError):
            FrameSpec("a", can_id=0x100, period=0.01, dlc=-1)
        with pytest.raises(CanAnalysisError):
            CanResponseTimeAnalysis([frame("a", 0x100)],
                                    BITRATE).transmission_time("nope")


def two_ecu_model(bus_frames=None, link_chain=True) -> SystemModel:
    model = SystemModel()
    model.add_processor("ecu1", TaskSet([
        Task("sensor", period=0.01, wcet=0.002, priority=0),
        Task("filler1", period=0.02, wcet=0.006, priority=1)]))
    model.add_processor("ecu2", TaskSet([
        Task("control", period=0.01, wcet=0.003, priority=0),
        Task("filler2", period=0.02, wcet=0.008, priority=1)]))
    frames = bus_frames if bus_frames is not None else [
        frame("sensor_data", 0x100, period=0.01),
        frame("bg", 0x080, period=0.005)]
    model.add_bus("can0", frames, BITRATE)
    if link_chain:
        model.connect("ecu1", "sensor", "can0", "sensor_data")
        model.connect("can0", "sensor_data", "ecu2", "control")
    return model


class TestSystemModel:
    def test_duplicate_resource_rejected(self):
        model = SystemModel()
        model.add_processor("ecu1", TaskSet([Task("t", period=1.0, wcet=0.1)]))
        with pytest.raises(SystemConfigurationError):
            model.add_bus("ecu1", [frame("a", 0x100)], BITRATE)

    def test_connect_unknown_item_rejected(self):
        model = two_ecu_model()
        with pytest.raises(SystemConfigurationError):
            model.connect("ecu1", "nope", "can0", "sensor_data")

    def test_second_activation_source_rejected(self):
        model = two_ecu_model()
        with pytest.raises(SystemConfigurationError):
            model.connect("ecu1", "filler1", "ecu2", "control")

    def test_chain_requires_nonempty_hops(self):
        with pytest.raises(SystemConfigurationError):
            CauseEffectChain("empty", hops=())
        with pytest.raises(SystemConfigurationError):
            CauseEffectChain("bad", hops=(("ecu1", "a"),), deadline=0.0)

    def test_model_introspection_errors(self):
        model = two_ecu_model()
        with pytest.raises(SystemConfigurationError):
            model.items("nope")
        with pytest.raises(SystemConfigurationError):
            model.base_event_model("ecu1", "nope")
        with pytest.raises(SystemConfigurationError):
            model.best_case_response("nope", "x")
        with pytest.raises(SystemConfigurationError):
            model.add_processor("", TaskSet([Task("t", period=1.0, wcet=0.1)]))
        with pytest.raises(SystemConfigurationError):
            model.add_processor("ecu3", TaskSet([Task("t", period=1.0, wcet=0.1)]),
                                speed_factor=0.0)
        assert model.resource_names() == ["ecu1", "ecu2", "can0"]
        assert set(model.items("can0")) == {"sensor_data", "bg"}

    def test_analysis_configuration_errors(self):
        with pytest.raises(SystemConfigurationError):
            SystemAnalysis(max_iterations=0)
        with pytest.raises(SystemConfigurationError):
            SystemAnalysis().analyse()  # no model anywhere
        result = SystemAnalysis(model=two_ecu_model()).analyse()
        with pytest.raises(SystemConfigurationError):
            result.result_of("ecu1", "nope")


class TestSystemAnalysisFixpoint:
    def test_no_links_reproduces_single_resource_results_bit_identically(self):
        """Acceptance criterion: an unlinked system degenerates to isolated
        per-resource analyses with identical results."""
        model = two_ecu_model(link_chain=False)
        result = SystemAnalysis().analyse(model)
        assert result.converged and not result.diverged
        assert result.iterations == 1
        for ecu in ("ecu1", "ecu2"):
            reference = ResponseTimeAnalysis(model.processors[ecu].taskset).analyse()
            assert result.results[ecu] == reference
        bus = model.buses["can0"]
        bus_reference = CanResponseTimeAnalysis(list(bus.frames),
                                                bus.bitrate_bps).analyse()
        assert result.results["can0"] == bus_reference

    def test_no_links_bit_identity_through_cache(self):
        model = two_ecu_model(link_chain=False)
        result = SystemAnalysis(cache=AnalysisCache()).analyse(model)
        for ecu in ("ecu1", "ecu2"):
            reference = ResponseTimeAnalysis(model.processors[ecu].taskset).analyse()
            assert result.results[ecu] == reference

    def test_linked_system_converges_and_propagates_jitter(self):
        model = two_ecu_model()
        result = SystemAnalysis().analyse(model)
        assert result.converged and not result.diverged
        assert result.iterations > 1
        # The frame inherits the sensor's response-time variation ...
        frame_model = result.event_models[("can0", "sensor_data")]
        sensor = result.result_of("ecu1", "sensor")
        assert frame_model.jitter == pytest.approx(
            sensor.wcrt - model.best_case_response("ecu1", "sensor"))
        # ... and the control task inherits the frame's on top.
        control_model = result.event_models[("ecu2", "control")]
        assert control_model.jitter >= frame_model.jitter
        assert control_model.period == pytest.approx(0.01)

    @staticmethod
    def _verdicts(result):
        """Engine-independent verdict view: warm-started re-analyses may
        record fewer fixpoint `iterations`, everything else is identical."""
        return {resource: {name: (r.wcrt, r.schedulable, r.converged)
                           for name, r in per_item.items()}
                for resource, per_item in result.results.items()}

    def test_fixpoint_results_independent_of_engine_mode(self):
        model = two_ecu_model()
        cold = SystemAnalysis(incremental=False).analyse(model)
        incremental = SystemAnalysis().analyse(model)
        cached = SystemAnalysis(cache=AnalysisCache()).analyse(model)
        assert self._verdicts(cold) == self._verdicts(incremental) == \
            self._verdicts(cached)
        assert cold.event_models == incremental.event_models == cached.event_models
        assert (cold.converged, cold.iterations) == \
            (incremental.converged, incremental.iterations) == \
            (cached.converged, cached.iterations)

    def test_update_sweep_verdicts_match_cold(self):
        shared = SystemAnalysis(cache=AnalysisCache())
        for step in range(6):
            model = SystemModel()
            model.add_processor("ecu1", TaskSet([
                Task("sensor", period=0.01, wcet=0.002, priority=0),
                Task("app", period=0.02, wcet=0.004 + 0.001 * step, priority=1)]))
            model.add_processor("ecu2", TaskSet([
                Task("control", period=0.01, wcet=0.003, priority=0)]))
            model.add_bus("can0", [frame("sensor_data", 0x100, period=0.01)], BITRATE)
            model.connect("ecu1", "sensor", "can0", "sensor_data")
            model.connect("can0", "sensor_data", "ecu2", "control")
            warm = shared.analyse(model)
            cold = SystemAnalysis(incremental=False).analyse(model)
            assert self._verdicts(warm) == self._verdicts(cold)
            assert warm.event_models == cold.event_models
            assert warm.converged == cold.converged

    def test_divergent_cycle_is_detected(self):
        """A feedback cycle whose jitter grows without bound must be flagged
        as divergent, not iterated forever."""
        model = SystemModel()
        model.add_processor("ecu1", TaskSet([
            Task("a", period=0.01, wcet=0.004, priority=1),
            Task("hog", period=0.01, wcet=0.005, priority=0)]))
        model.add_processor("ecu2", TaskSet([
            Task("b", period=0.01, wcet=0.004, priority=1),
            Task("hog2", period=0.01, wcet=0.005, priority=0)]))
        model.connect("ecu1", "a", "ecu2", "b")
        model.connect("ecu2", "b", "ecu1", "a")
        result = SystemAnalysis(max_iterations=40).analyse(model)
        assert result.diverged
        assert not result.converged
        assert not result.schedulable

    def test_jitter_limit_trips_divergence_early(self):
        model = two_ecu_model()
        result = SystemAnalysis(jitter_limit=1e-9).analyse(model)
        assert result.diverged
        assert not result.schedulable

    def test_schedulable_shorthand(self):
        assert SystemAnalysis().schedulable(two_ecu_model())

    def test_unbounded_source_response_is_divergence(self):
        model = SystemModel()
        model.add_processor("ecu1", TaskSet([
            Task("hp", period=0.001, wcet=0.0009, priority=0),
            Task("src", period=0.01, wcet=0.005, priority=1)]))
        model.add_processor("ecu2", TaskSet([
            Task("dst", period=0.01, wcet=0.001, priority=0)]))
        model.connect("ecu1", "src", "ecu2", "dst")
        result = SystemAnalysis().analyse(model)
        assert result.result_of("ecu1", "src").wcrt is None
        assert result.diverged


class TestChainLatency:
    def test_latency_is_jitter_aware_and_never_exceeds_naive_sum(self):
        model = two_ecu_model()
        result = SystemAnalysis().analyse(model)
        chain = CauseEffectChain("c", hops=(("ecu1", "sensor"),
                                            ("can0", "sensor_data"),
                                            ("ecu2", "control")), deadline=0.05)
        latency = result.chain_latency(chain)
        naive = sum(result.result_of(r, i).wcrt for r, i in chain.hops)
        assert latency is not None
        assert latency <= naive + 1e-12
        expected = (model.best_case_response("ecu1", "sensor")
                    + model.best_case_response("can0", "sensor_data")
                    + result.result_of("ecu2", "control").wcrt)
        assert latency == pytest.approx(expected)
        assert distributed_end_to_end_latency(result, chain) == latency
        assert result.chain_slack(chain) == pytest.approx(0.05 - latency)

    def test_unlinked_chain_is_rejected(self):
        model = two_ecu_model()
        result = SystemAnalysis().analyse(model)
        chain = CauseEffectChain("c", hops=(("ecu1", "filler1"),
                                            ("ecu2", "filler2")))
        with pytest.raises(SystemConfigurationError):
            result.chain_latency(chain)

    def test_single_hop_chain_is_the_wcrt(self):
        model = two_ecu_model()
        result = SystemAnalysis().analyse(model)
        chain = CauseEffectChain("c", hops=(("ecu1", "sensor"),))
        assert result.chain_latency(chain) == result.result_of("ecu1", "sensor").wcrt


def make_contract(name, period, wcet, provides=(), requires=()) -> Contract:
    return Contract(component=name,
                    requirements=[RealTimeRequirement(period=period, wcet=wcet),
                                  SafetyRequirement(asil="B"),
                                  SecurityRequirement(level="MEDIUM")],
                    requires=[ServiceRequirement(service) for service in requires],
                    provides=[ServiceProvision(service) for service in provides])


def chain_battery(deadline, cache=None):
    distributed = DistributedTimingAcceptanceTest(
        messages=[MessageSpec("sensor_data", sender="sensor", receiver="control",
                              can_id=0x100)],
        chains=[DistributedChainSpec("e2e",
                                     stages=("sensor", "sensor_data", "control"),
                                     deadline=deadline)],
        cache=cache)
    return distributed, default_acceptance_tests(cache=cache) + [distributed]


def deploy_chain(mcc):
    reports = [mcc.add_component(make_contract("sensor", 0.01, 0.002,
                                               provides=["samples"])),
               mcc.add_component(make_contract("control", 0.01, 0.003,
                                               requires=["samples"]))]
    return reports


class TestDistributedTimingAcceptanceTest:
    def test_partially_deployed_chain_is_not_checked(self, dual_core_platform):
        distributed, tests = chain_battery(deadline=0.05)
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        report = mcc.add_component(make_contract("sensor", 0.01, 0.002,
                                                 provides=["samples"]))
        assert report.accepted
        assert distributed.last_chain_latencies == {}

    def test_full_chain_is_admitted_and_measured(self, dual_core_platform):
        distributed, tests = chain_battery(deadline=0.05)
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        assert all(report.accepted for report in reports)
        latency = distributed.last_chain_latencies["e2e"]
        assert latency is not None and 0 < latency < 0.05
        assert distributed.last_result is not None
        assert distributed.last_result.converged

    def test_tight_chain_deadline_rejects_while_local_timing_passes(
            self, dual_core_platform):
        distributed, tests = chain_battery(deadline=0.004)
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        final = reports[-1]
        assert not final.accepted
        assert final.acceptance_results["timing"] is True
        assert final.acceptance_results["distributed-timing"] is False
        assert any("exceeds deadline" in finding for finding in final.findings)
        # The rejected candidate was not adopted.
        assert "control" not in mcc.model.components()

    def test_unknown_bus_is_a_finding(self, dual_core_platform):
        distributed = DistributedTimingAcceptanceTest(
            messages=[MessageSpec("m", sender="sensor", receiver="control",
                                  can_id=0x100, bus="ethernet7")],
            chains=[])
        tests = default_acceptance_tests() + [distributed]
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        assert not reports[-1].accepted
        assert any("ethernet7" in finding for finding in reports[-1].findings)
        # A construction failure must not leave a stale fixpoint result from
        # an earlier candidate behind.
        assert distributed.last_result is None

    def test_message_colliding_with_background_traffic_is_a_finding(
            self, dual_core_platform):
        """Regression: a duplicate CAN id used to escape run() as an
        uncaught CanAnalysisError and abort the whole admission."""
        distributed = DistributedTimingAcceptanceTest(
            messages=[MessageSpec("sensor_data", sender="sensor",
                                  receiver="control", can_id=0x100)],
            chains=[],
            background_frames={"can0": [frame("bg", 0x100, period=0.01)]})
        tests = default_acceptance_tests() + [distributed]
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        assert not reports[-1].accepted
        assert any("duplicate arbitration id" in finding
                   for finding in reports[-1].findings)

    def test_two_messages_to_one_receiver_fail_at_construction(self):
        """Regression: CAN fan-in onto one receiver used to become a
        permanent per-candidate rejection with a model-internal error."""
        with pytest.raises(ValueError, match="one activating message"):
            DistributedTimingAcceptanceTest(
                messages=[MessageSpec("m1", sender="sensor", receiver="control",
                                      can_id=0x100),
                          MessageSpec("m2", sender="imu", receiver="control",
                                      can_id=0x110)],
                chains=[])

    def test_typoed_chain_stage_next_to_a_message_is_rejected_at_construction(self):
        """Regression: a stage name that matches neither the message's
        endpoint nor any message used to leave the chain silently dormant."""
        with pytest.raises(ValueError, match="receiver"):
            DistributedTimingAcceptanceTest(
                messages=[MessageSpec("m", sender="sensor", receiver="control",
                                      can_id=0x100)],
                chains=[DistributedChainSpec(
                    "e2e", stages=("sensor", "m", "controll"), deadline=0.05)])
        with pytest.raises(ValueError, match="sender"):
            DistributedTimingAcceptanceTest(
                messages=[MessageSpec("m", sender="sensor", receiver="control",
                                      can_id=0x100)],
                chains=[DistributedChainSpec(
                    "e2e", stages=("sensr", "m", "control"), deadline=0.05)])

    def test_chain_component_without_timing_contract_keeps_chain_dormant(
            self, dual_core_platform):
        """Regression: a timing-less chain component used to surface as an
        internal 'no item logger.task' error rejecting every candidate."""
        distributed = DistributedTimingAcceptanceTest(
            messages=[MessageSpec("m", sender="sensor", receiver="control",
                                  can_id=0x100)],
            chains=[DistributedChainSpec(
                "e2e", stages=("sensor", "m", "control", "logger"),
                deadline=0.05)])
        tests = default_acceptance_tests() + [distributed]
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        logger = Contract(component="logger", requirements=[
            SafetyRequirement(asil="QM"), SecurityRequirement(level="MEDIUM")])
        reports.append(mcc.add_component(logger))
        assert all(report.accepted for report in reports)
        assert distributed.last_metrics["e2e.active"] == 0.0

    def test_dormant_chain_is_observable_in_metrics(self, dual_core_platform):
        distributed, tests = chain_battery(deadline=0.05)
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        mcc.add_component(make_contract("sensor", 0.01, 0.002,
                                        provides=["samples"]))
        assert distributed.last_metrics["e2e.active"] == 0.0
        mcc.add_component(make_contract("control", 0.01, 0.003,
                                        requires=["samples"]))
        assert distributed.last_metrics["e2e.active"] == 1.0

    def test_conflicting_activation_sources_are_a_finding(self, dual_core_platform):
        """A chain hop that would link directly onto a receiver already
        activated by a message is a rejection finding, not a crash."""
        distributed = DistributedTimingAcceptanceTest(
            messages=[MessageSpec("m1", sender="sensor", receiver="control",
                                  can_id=0x100)],
            chains=[DistributedChainSpec("direct", stages=("sensor", "control"),
                                         deadline=0.05)])
        tests = default_acceptance_tests() + [distributed]
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        reports = deploy_chain(mcc)
        assert not reports[-1].accepted
        assert any("activation source" in finding
                   for finding in reports[-1].findings)

    def test_background_traffic_lengthens_the_chain(self, dual_core_platform):
        quiet, quiet_tests = chain_battery(deadline=0.05)
        mcc = MultiChangeController(dual_core_platform,
                                    acceptance_tests=quiet_tests)
        deploy_chain(mcc)
        noisy = DistributedTimingAcceptanceTest(
            messages=[MessageSpec("sensor_data", sender="sensor",
                                  receiver="control", can_id=0x100)],
            chains=[DistributedChainSpec("e2e",
                                         stages=("sensor", "sensor_data", "control"),
                                         deadline=0.05)],
            background_frames={"can0": [frame("bg", 0x050, period=0.001)]})
        mcc2 = MultiChangeController(
            dual_core_platform,
            acceptance_tests=default_acceptance_tests() + [noisy])
        deploy_chain(mcc2)
        assert noisy.last_chain_latencies["e2e"] > quiet.last_chain_latencies["e2e"]

    def test_shared_cache_reuses_analyses_across_requests(self, dual_core_platform):
        cache = AnalysisCache()
        distributed, tests = chain_battery(deadline=0.05, cache=cache)
        mcc = MultiChangeController(dual_core_platform, acceptance_tests=tests)
        deploy_chain(mcc)
        assert cache.hits > 0


class TestFleetDistributedAdmission:
    def _factory(self, deadline):
        def build(variant, platform):
            return [DistributedTimingAcceptanceTest(
                messages=[MessageSpec("object_list", sender="perception",
                                      receiver="planner", can_id=0x100)],
                chains=[DistributedChainSpec(
                    "sense-plan", stages=("perception", "object_list", "planner"),
                    deadline=deadline)])]
        return build

    def test_fleet_admits_with_relaxed_distributed_deadline(self):
        spec = FleetSpec(size=4, num_variants=2, seed=7)
        vehicles = generate_fleet(spec,
                                  extra_acceptance_tests=self._factory(0.5))
        assert len(vehicles) == 4
        for vehicle in vehicles:
            assert "perception" in vehicle.mcc.model.components()
            assert "planner" in vehicle.mcc.model.components()

    def test_fleet_generation_fails_loudly_on_impossible_chain_deadline(self):
        """A distributed deadline no build can meet must reject the core
        baseline — and that is a hard error, not a silently thinner fleet.
        Only the acceptance battery decides it, so it raises when the
        variant's first vehicle is touched; that vehicle stays
        unprovisioned."""
        spec = FleetSpec(size=4, num_variants=2, seed=7)
        fleet = generate_fleet(spec, extra_acceptance_tests=self._factory(1e-4))
        with pytest.raises(RuntimeError, match="vehicle 0 rejected its baseline"):
            fleet[0].provision()
        assert not fleet[0].provisioned
