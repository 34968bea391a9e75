"""Tests for the execution-domain substrate (repro.platform)."""

from __future__ import annotations

import pytest

from repro.contracts.model import RealTimeRequirement
from repro.platform.components import Component, ComponentError, ComponentRegistry, MicroServer
from repro.platform.resources import (
    MemoryPool,
    NetworkResource,
    Platform,
    ProcessingResource,
    ResourceError,
)
from repro.platform.tasks import Task, TaskError, TaskSet
from repro.platform.thermal import DvfsGovernor, OperatingPoint, ThermalModel
from repro.contracts.model import Contract, ServiceProvision, ServiceRequirement


class TestTask:
    def test_deadline_defaults_to_period(self):
        task = Task("t", period=0.01, wcet=0.002)
        assert task.deadline == 0.01
        assert task.utilization == pytest.approx(0.2)

    def test_invalid_parameters(self):
        with pytest.raises(TaskError):
            Task("t", period=0, wcet=0.001)
        with pytest.raises(TaskError):
            Task("t", period=0.01, wcet=0)
        with pytest.raises(TaskError):
            Task("t", period=0.01, wcet=0.001, jitter=-1)

    @pytest.mark.parametrize("field", ["period", "wcet", "deadline", "jitter",
                                       "offset"])
    def test_nan_parameters_rejected(self, field):
        """NaN fails every ``<=``/``<`` test, so each check is negated."""
        parameters = dict(period=0.01, wcet=0.001, deadline=0.01, jitter=0.0,
                          offset=0.0)
        parameters[field] = float("nan")
        with pytest.raises(TaskError):
            Task("t", **parameters)

    def test_from_requirement(self):
        requirement = RealTimeRequirement(period=0.05, wcet=0.01, jitter=0.001)
        task = Task.from_requirement("comp.task", requirement, priority=3, component="comp")
        assert task.period == 0.05 and task.priority == 3 and task.component == "comp"

    def test_scaled_wcet(self):
        task = Task("t", period=0.01, wcet=0.002)
        slowed = task.scaled(2.0)
        assert slowed.wcet == pytest.approx(0.004)
        assert task.wcet == pytest.approx(0.002)
        with pytest.raises(TaskError):
            task.scaled(0.0)


class TestTaskSet:
    def test_add_and_duplicate_rejected(self, simple_taskset):
        assert len(simple_taskset) == 3
        with pytest.raises(TaskError):
            simple_taskset.add(Task("t_high", period=0.1, wcet=0.01))

    def test_utilization_sum(self, simple_taskset):
        assert simple_taskset.utilization == pytest.approx(0.2 + 0.25 + 0.2)

    def test_priority_ordering_helpers(self, simple_taskset):
        ordered = simple_taskset.by_priority()
        assert [t.name for t in ordered] == ["t_high", "t_mid", "t_low"]
        low = simple_taskset.get("t_low")
        assert {t.name for t in simple_taskset.higher_priority_than(low)} == {"t_high", "t_mid"}

    def test_rate_monotonic_assignment(self):
        ts = TaskSet([Task("slow", period=0.1, wcet=0.01, priority=0),
                      Task("fast", period=0.01, wcet=0.001, priority=5)])
        ts.assign_rate_monotonic_priorities()
        assert ts.get("fast").priority < ts.get("slow").priority

    def test_deadline_monotonic_assignment(self):
        ts = TaskSet([Task("a", period=0.1, wcet=0.01, deadline=0.02),
                      Task("b", period=0.05, wcet=0.01, deadline=0.05)])
        ts.assign_deadline_monotonic_priorities()
        assert ts.get("a").priority < ts.get("b").priority

    def test_hyperperiod(self):
        ts = TaskSet([Task("a", period=0.010, wcet=0.001),
                      Task("b", period=0.025, wcet=0.001)])
        assert ts.hyperperiod() == pytest.approx(0.05, rel=1e-3)

    def test_remove_and_unknown(self, simple_taskset):
        simple_taskset.remove("t_mid")
        assert "t_mid" not in simple_taskset
        with pytest.raises(TaskError):
            simple_taskset.remove("t_mid")
        with pytest.raises(TaskError):
            simple_taskset.get("nope")


class TestProcessingResource:
    def test_host_and_utilization(self, simple_taskset):
        cpu = ProcessingResource("cpu0")
        for task in simple_taskset:
            cpu.host(task)
        assert cpu.nominal_utilization == pytest.approx(0.65)
        assert cpu.fits(Task("extra", period=0.1, wcet=0.02))
        assert not cpu.fits(Task("huge", period=0.1, wcet=0.05))

    def test_speed_factor_scales_utilization(self, simple_taskset):
        cpu = ProcessingResource("cpu0")
        for task in simple_taskset:
            cpu.host(task)
        cpu.set_speed_factor(0.5)
        assert cpu.utilization == pytest.approx(1.3)
        assert cpu.effective_taskset().get("t_high").wcet == pytest.approx(0.004)

    def test_invalid_speed_factor(self):
        cpu = ProcessingResource("cpu0")
        with pytest.raises(ResourceError):
            cpu.set_speed_factor(0.0)
        with pytest.raises(ResourceError):
            cpu.set_speed_factor(1.5)

    def test_memory_allocation_bounds(self):
        cpu = ProcessingResource("cpu0", memory_kib=100)
        cpu.allocate_memory("a", 60)
        with pytest.raises(ResourceError):
            cpu.allocate_memory("b", 50)
        assert cpu.release_memory("a") == 60
        cpu.allocate_memory("b", 50)
        assert cpu.memory_allocated_kib == 50

    def test_invalid_capacity(self):
        with pytest.raises(ResourceError):
            ProcessingResource("cpu0", capacity=0.0)
        with pytest.raises(ResourceError):
            ProcessingResource("cpu0", capacity=1.5)


class TestNetworkAndMemory:
    def test_network_allocation(self):
        net = NetworkResource("can0", bandwidth_bps=1000)
        net.allocate("flow1", 600)
        assert net.utilization == pytest.approx(0.6)
        with pytest.raises(ResourceError):
            net.allocate("flow2", 500)
        net.release("flow1")
        net.allocate("flow2", 500)

    def test_memory_pool_partitions(self):
        pool = MemoryPool("ram", size_kib=100)
        pool.carve("a", 40)
        with pytest.raises(ResourceError):
            pool.carve("a", 10)
        with pytest.raises(ResourceError):
            pool.carve("b", 70)
        assert pool.available_kib == 60
        pool.free("a")
        assert pool.available_kib == 100


class TestPlatform:
    def test_symmetric_constructor(self):
        platform = Platform.symmetric(4)
        assert len(platform.processors()) == 4
        with pytest.raises(ResourceError):
            Platform.symmetric(0)

    def test_duplicate_names_rejected(self, dual_core_platform):
        with pytest.raises(ResourceError):
            dual_core_platform.add_processor(ProcessingResource("cpu0"))
        with pytest.raises(ResourceError):
            dual_core_platform.add_network(NetworkResource("can0", 1))

    def test_find_task(self, dual_core_platform, simple_taskset):
        cpu0 = dual_core_platform.processor("cpu0")
        cpu0.host(simple_taskset.get("t_high"))
        assert dual_core_platform.find_task("t_high") is cpu0
        assert dual_core_platform.find_task("missing") is None

    def test_unknown_lookups_raise(self, dual_core_platform):
        with pytest.raises(ResourceError):
            dual_core_platform.processor("cpu9")
        with pytest.raises(ResourceError):
            dual_core_platform.network("eth0")


class TestComponents:
    def _contract(self, name, provides=(), requires=()):
        return Contract(name, requires=[ServiceRequirement(s) for s in requires],
                        provides=[ServiceProvision(s) for s in provides])

    def test_lifecycle(self):
        component = Component(self._contract("c"))
        component.start()
        assert component.running
        component.degrade(0.5)
        assert component.state.value == "degraded"
        component.degrade(1.0)
        assert component.state.value == "running"
        component.stop()
        assert not component.running

    def test_quarantine_blocks_restart(self):
        component = Component(self._contract("c"))
        component.start()
        component.quarantine()
        with pytest.raises(ComponentError):
            component.start()

    def test_invalid_health(self):
        component = Component(self._contract("c"))
        with pytest.raises(ComponentError):
            component.degrade(1.5)

    def test_micro_server_grant(self):
        server = MicroServer(self._contract("srv", provides=["svc"]))
        client = Component(self._contract("cli", requires=["svc"]))
        session = server.grant(client, "svc")
        assert session.active and session in client.sessions
        with pytest.raises(ComponentError):
            server.grant(client, "other")

    def test_registry_connect_and_autowire(self):
        registry = ComponentRegistry()
        registry.add(Component(self._contract("srv", provides=["svc"])))
        registry.add(Component(self._contract("cli", requires=["svc"])))
        sessions = registry.autowire()
        assert len(sessions) == 1
        assert registry.active_sessions()[0].provider == "srv"
        # autowire is idempotent
        assert registry.autowire() == []

    def test_autowire_missing_provider_raises(self):
        registry = ComponentRegistry()
        registry.add(Component(self._contract("cli", requires=["missing"])))
        with pytest.raises(ComponentError):
            registry.autowire()

    def test_autowire_skips_optional_missing(self):
        registry = ComponentRegistry()
        contract = Contract("cli", requires=[
            ServiceRequirement("missing", optional=True)])
        registry.add(Component(contract))
        assert registry.autowire() == []

    def test_ambiguous_provider_raises(self):
        registry = ComponentRegistry()
        registry.add(Component(self._contract("srv1", provides=["svc"])))
        registry.add(Component(self._contract("srv2", provides=["svc"])))
        registry.add(Component(self._contract("cli", requires=["svc"])))
        with pytest.raises(ComponentError):
            registry.autowire()

    def test_revoke_sessions(self):
        registry = ComponentRegistry()
        registry.add(Component(self._contract("srv", provides=["svc"])))
        registry.add(Component(self._contract("cli", requires=["svc"])))
        registry.autowire()
        assert registry.revoke_sessions("srv") == 1
        assert registry.active_sessions() == []

    def test_duplicate_component_rejected(self):
        registry = ComponentRegistry()
        registry.add(Component(self._contract("c")))
        with pytest.raises(ComponentError):
            registry.add(Component(self._contract("c")))


class TestThermal:
    def test_temperature_approaches_steady_state(self):
        cpu = ProcessingResource("cpu0")
        model = ThermalModel(cpu, ambient_c=30.0, delta_t_max=50.0, time_constant_s=10.0)
        for _ in range(200):
            model.step(1.0, utilization=1.0, power_factor=1.0)
        assert model.temperature_c == pytest.approx(80.0, abs=0.5)

    def test_idle_core_stays_at_ambient(self):
        cpu = ProcessingResource("cpu0")
        model = ThermalModel(cpu, ambient_c=30.0)
        for _ in range(50):
            model.step(1.0, utilization=0.0)
        assert model.temperature_c == pytest.approx(30.0, abs=0.1)

    def test_governor_throttles_and_recovers(self):
        cpu = ProcessingResource("cpu0")
        governor = DvfsGovernor(cpu, throttle_threshold_c=85.0, recover_threshold_c=70.0)
        governor.update(90.0)
        assert cpu.condition.speed_factor < 1.0
        # Falling temperatures do not trigger further throttling.
        governor.update(88.0)
        assert governor.current.speed_factor == pytest.approx(0.8)
        governor.update(60.0)
        assert cpu.condition.speed_factor == pytest.approx(1.0)

    def test_governor_does_not_overthrottle_while_falling(self):
        cpu = ProcessingResource("cpu0")
        governor = DvfsGovernor(cpu)
        governor.update(90.0)
        governor.update(89.0)
        governor.update(88.0)
        assert governor.current.speed_factor == pytest.approx(0.8)

    def test_governor_force_and_critical(self):
        cpu = ProcessingResource("cpu0")
        governor = DvfsGovernor(cpu)
        governor.force("throttle-60")
        assert cpu.condition.speed_factor == pytest.approx(0.6)
        with pytest.raises(ValueError):
            governor.force("warp-speed")
        assert governor.is_critical(200.0)

    def test_invalid_thresholds(self):
        cpu = ProcessingResource("cpu0")
        with pytest.raises(ValueError):
            DvfsGovernor(cpu, throttle_threshold_c=70.0, recover_threshold_c=80.0)
        with pytest.raises(ValueError):
            OperatingPoint("bad", 1.5, 0.5)
