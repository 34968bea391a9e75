"""Shared differential-oracle harness for the analysis test suites.

The repository's exactness tests all follow the same pattern: drive a fast
engine (incremental, cached, batched, …) and a cold reference through the
same randomized workload and fail on the first diverging bit.  This module
holds the pieces those suites share:

* UUniFast task-set generators (``make_taskset``, ``rebuild``) and the
  field-by-field verdict comparator ``assert_equivalent`` used by the
  incremental-CPA and batched-analysis suites;
* the from-scratch oracles ``cold_results`` (plain busy-window analysis)
  and :class:`ColdTimingAcceptanceTest` (a stateless MCC timing viewpoint)
  used by the batched-analysis and MCC differential suites;
* randomized change-request chains over UUniFast component pools
  (``random_chain``, ``make_contract``, ``clone_request``,
  ``build_platform``);
* the event-driven CAN bus ground truth ``simulate_latencies`` and the
  ``frame_workloads`` hypothesis strategy used by the CAN RTA suite;
* the fleet provisioning references used by the fleet stamping suite:
  ``generate_fleet_eagerly`` (every vehicle provisioned before the fleet is
  returned) and ``generate_fleet_integrating_each`` (every vehicle
  integrates its own baseline, one contract at a time).

Everything here is deterministic given the caller's seeds — extracting it
changed no seed and no behaviour, only the import site.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis, ResponseTimeResult
from repro.analysis.compositional import FrameSpec
from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.frame import CanFrame
from repro.contracts.model import (Contract, RealTimeRequirement,
                                   SafetyRequirement, SecurityRequirement)
from repro.fleet.vehicle import (_CORE_COMPONENTS, FleetSpec, FleetVehicle,
                                 VehicleVariant, build_vehicle_platform,
                                 generate_fleet, generate_variants,
                                 variant_contracts)
from repro.mcc.acceptance import (AcceptanceResult, AcceptanceTest,
                                  default_acceptance_tests, tasksets_from_mapping)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RuntimeEnvironment
from repro.platform.tasks import Task, TaskSet
from repro.sim.kernel import Simulator
from repro.sim.random import SeededRNG

# ---------------------------------------------------------------------------
# UUniFast task sets + busy-window verdict comparison
# ---------------------------------------------------------------------------


def make_taskset(seed: int, n: int, utilization: float) -> TaskSet:
    """A UUniFast task set with log-uniform periods and deadline-monotonic
    priorities — the standard schedulability workload."""
    rng = SeededRNG(seed)
    utilizations = rng.uunifast(n, utilization)
    periods = rng.log_uniform_periods(n, 0.005, 0.5)
    taskset = TaskSet()
    for index, (u, period) in enumerate(zip(utilizations, periods)):
        taskset.add(Task(f"t{index}", period=period, wcet=max(1e-6, u * period)))
    taskset.assign_deadline_monotonic_priorities()
    return taskset


def rebuild(tasks) -> TaskSet:
    """A fresh TaskSet with fresh Task objects (same insertion order)."""
    return TaskSet([Task(t.name, period=t.period, wcet=t.wcet, deadline=t.deadline,
                         priority=t.priority, jitter=t.jitter) for t in tasks])


def cold_results(taskset: TaskSet, speed_factor: float = 1.0,
                 event_models: Optional[Dict[str, EventModel]] = None,
                 ) -> Dict[str, ResponseTimeResult]:
    """The cold reference: one from-scratch busy-window analysis."""
    return ResponseTimeAnalysis(taskset, speed_factor=speed_factor,
                                event_models=event_models).analyse()


def assert_equivalent(candidate, reference, context: str) -> None:
    """Fail on the first ``wcrt``/``schedulable``/``converged`` deviation."""
    assert set(candidate) == set(reference), context
    for name in reference:
        a, b = candidate[name], reference[name]
        assert a.wcrt == b.wcrt, f"{context}: {name} wcrt {a.wcrt} != {b.wcrt}"
        assert a.schedulable == b.schedulable, f"{context}: {name} schedulable"
        assert a.converged == b.converged, f"{context}: {name} converged"


# ---------------------------------------------------------------------------
# MCC differential oracle: cold timing viewpoint + randomized change chains
# ---------------------------------------------------------------------------


class ColdTimingAcceptanceTest:
    """Reference timing viewpoint: from-scratch busy windows, no state."""

    viewpoint = "timing"

    def run(self, contracts, mapping, priorities, platform) -> AcceptanceResult:
        findings: List[str] = []
        metrics: Dict[str, float] = {}
        tasksets = tasksets_from_mapping(contracts, mapping, priorities)
        for processor_name, taskset in sorted(tasksets.items()):
            analysis = ResponseTimeAnalysis(taskset)
            metrics[f"{processor_name}.utilization"] = analysis.utilization()
            for task_name, result in analysis.analyse().items():
                if result.wcrt is not None:
                    metrics[f"{task_name}.wcrt"] = result.wcrt
                if not result.schedulable:
                    findings.append(f"{task_name} on {processor_name}")
        return AcceptanceResult(viewpoint=self.viewpoint, passed=not findings,
                                findings=findings, metrics=metrics)


def build_platform(num_processors: int) -> Platform:
    platform = Platform(name="diff-platform")
    for index in range(num_processors):
        platform.add_processor(ProcessingResource(f"cpu{index}", capacity=0.9))
    platform.add_network(NetworkResource("can0", bandwidth_bps=500_000.0))
    return platform


def make_contract(name: str, period: float, wcet: float) -> Contract:
    contract = Contract(component=name)
    contract.add_requirement(RealTimeRequirement(
        period=period, wcet=min(wcet, 0.9 * period)))
    contract.add_requirement(SafetyRequirement(asil="B"))
    contract.add_requirement(SecurityRequirement(level="MEDIUM"))
    contract.add_provided_service(f"service_{name}")
    return contract


def random_chain(rng: SeededRNG, pool_size: int,
                 length: int) -> List[ChangeRequest]:
    """A random add/update/remove chain over a component pool.

    Initial parameters come from a UUniFast draw (the standard schedulability
    workload); updates rescale WCETs up and down so chains cross the
    schedulable/unschedulable boundary in both directions.
    """
    utilizations = rng.uunifast(pool_size, rng.uniform(0.8, 1.8))
    periods = rng.log_uniform_periods(pool_size, 0.01, 0.25)
    params = {f"c{index:02d}": [periods[index],
                                max(1e-6, utilizations[index] * periods[index])]
              for index in range(pool_size)}
    deployed: set = set()
    chain: List[ChangeRequest] = []
    for _ in range(length):
        name = rng.choice(sorted(params))
        period, wcet = params[name]
        if name not in deployed:
            chain.append(ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                       component=name,
                                       contract=make_contract(name, period, wcet)))
            deployed.add(name)
        elif rng.uniform() < 0.3:
            chain.append(ChangeRequest(kind=ChangeKind.REMOVE_COMPONENT,
                                       component=name))
            deployed.discard(name)
        else:
            wcet = max(1e-6, wcet * rng.uniform(0.4, 1.8))
            params[name][1] = wcet
            chain.append(ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                                       component=name,
                                       contract=make_contract(name, period, wcet)))
    return chain


def clone_request(request: ChangeRequest) -> ChangeRequest:
    """A fresh request (own id) targeting the same contract object."""
    return ChangeRequest(kind=request.kind, component=request.component,
                         contract=request.contract)


# ---------------------------------------------------------------------------
# Fleet provisioning oracles: eager, and every vehicle integrating its own
# baseline
# ---------------------------------------------------------------------------


def generate_fleet_eagerly(
        spec: FleetSpec, analysis_cache: Optional[AnalysisCache] = None,
        extra_acceptance_tests: Optional[
            Callable[[VehicleVariant, Platform], List[AcceptanceTest]]] = None
) -> List[FleetVehicle]:
    """:func:`repro.fleet.vehicle.generate_fleet`, every vehicle provisioned
    in index order before the fleet is returned."""
    fleet = generate_fleet(spec, analysis_cache=analysis_cache,
                           extra_acceptance_tests=extra_acceptance_tests)
    for vehicle in fleet:
        vehicle.provision()
    return fleet


def generate_fleet_integrating_each(
        spec: FleetSpec, analysis_cache: Optional[AnalysisCache] = None,
        extra_acceptance_tests: Optional[
            Callable[[VehicleVariant, Platform], List[AcceptanceTest]]] = None
) -> List[FleetVehicle]:
    """The stamping reference for :func:`repro.fleet.vehicle.generate_fleet`.

    Same fleet, provisioned eagerly, but every vehicle runs every baseline
    contract through its own :meth:`MultiChangeController.add_component`,
    one full integration (acceptance battery included) per contract,
    instead of adopting the first same-variant vehicle's baseline.  So it
    is also the reference for the one acceptance run with which
    :meth:`MultiChangeController.request_changes` admits that vehicle's
    baseline.  Its vehicles are built with their platform and MCC, so they
    have no provisioner and checkpoint every state with an explicit
    snapshot.
    """
    variants = generate_variants(spec)
    contracts_by_variant = {variant.index: variant_contracts(variant, spec)
                            for variant in variants}
    vehicles: List[FleetVehicle] = []
    for index in range(spec.size):
        variant = variants[index % len(variants)]
        platform = build_vehicle_platform(variant, name=f"veh{index:04d}-platform")
        rte = RuntimeEnvironment(platform) if spec.deploy else None
        acceptance_tests = None
        if extra_acceptance_tests is not None:
            acceptance_tests = (default_acceptance_tests(cache=analysis_cache)
                                + list(extra_acceptance_tests(variant, platform)))
        mcc = MultiChangeController(platform, rte=rte,
                                    acceptance_tests=acceptance_tests,
                                    mapping_strategy=spec.mapping_strategy,
                                    analysis_cache=analysis_cache)
        for contract in contracts_by_variant[variant.index]:
            report = mcc.add_component(contract)
            if not report.accepted and contract.component in _CORE_COMPONENTS:
                raise RuntimeError(
                    f"vehicle {index} rejected its baseline: {report.summary()}")
        vehicles.append(FleetVehicle(index, variant, platform, mcc))
    return vehicles


# ---------------------------------------------------------------------------
# CAN RTA ground truth: event-driven bus simulation + frame-set strategy
# ---------------------------------------------------------------------------

BITRATE = 500_000.0
PERIODS = (0.002, 0.005, 0.01, 0.02)


@st.composite
def frame_workloads(draw) -> List[Tuple[FrameSpec, float]]:
    """Random frame streams with unique identifiers plus release offsets."""
    count = draw(st.integers(min_value=2, max_value=5))
    can_ids = draw(st.lists(st.integers(min_value=0, max_value=0x7FF),
                            min_size=count, max_size=count, unique=True))
    streams: List[Tuple[FrameSpec, float]] = []
    for index, can_id in enumerate(can_ids):
        period = draw(st.sampled_from(PERIODS))
        dlc = draw(st.integers(min_value=0, max_value=8))
        offset = draw(st.floats(min_value=0.0, max_value=period,
                                allow_nan=False, allow_infinity=False))
        spec = FrameSpec(f"s{index:02d}", can_id=can_id, period=period, dlc=dlc)
        streams.append((spec, offset))
    return streams


def simulate_latencies(streams: Iterable[Tuple[FrameSpec, float]],
                       horizon: float) -> dict:
    """Drive periodic senders over one bus; per-stream observed latencies."""
    sim = Simulator()
    bus = CanBus(sim, bitrate_bps=BITRATE)
    controllers = {}
    for spec, offset in streams:
        controller = CanController(sim, name=spec.name, tx_access_latency=0.0,
                                   rx_access_latency=0.0, tx_queue_depth=1024)
        bus.attach(controller)
        controllers[spec.name] = controller
        frame = CanFrame(can_id=spec.can_id, payload=b"\0" * spec.dlc,
                         source=spec.name)

        def send(sim_, controller=controller, frame=frame):
            controller.send(frame)

        release = offset
        while release < horizon:
            sim.schedule(release, send, name=f"{spec.name}.release")
            release += spec.period
    sim.run(until=horizon + 1.0)
    return {name: controller.tx_latencies()
            for name, controller in controllers.items()}
