"""Shared differential-oracle harness for the analysis test suites.

The repository's exactness tests all follow the same pattern: drive a fast
engine (incremental, cached, batched, …) and a cold reference through the
same randomized workload and fail on the first diverging bit.  This module
holds the pieces those suites share:

* UUniFast task-set generators (``make_taskset``, ``rebuild``) and the
  field-by-field verdict comparator ``assert_equivalent`` used by the
  incremental-CPA and batched-analysis suites;
* the reference busy-window fixpoint ``reference_response_time`` (and
  ``reference_analyse`` over a whole task set), a self-contained copy that
  resolves every higher-priority task's event model and WCET per analysed
  task and shares no code with ``ResponseTimeAnalysis``, and the
  ``timing_workloads`` hypothesis strategy the CPA differential suite
  draws from;
* the from-scratch oracles ``cold_results`` (plain busy-window analysis)
  and :class:`ColdTimingAcceptanceTest` (a stateless MCC timing viewpoint)
  used by the batched-analysis and MCC differential suites;
* randomized change-request chains over UUniFast component pools
  (``random_chain``, ``make_contract``, ``clone_request``,
  ``build_platform``);
* the mutating admission reference :class:`ReferenceController`, over a
  model class of its own, :class:`ReferenceModel`: each request edits a
  copy of the adopted model in place, the mapping step writes its decision
  into that copy and adoption assigns its version, with every refinement
  step re-derived per request;
* the event-driven CAN bus ground truth ``simulate_latencies`` and the
  ``frame_workloads`` hypothesis strategy used by the CAN RTA suite;
* the fleet provisioning references used by the fleet stamping suite:
  ``generate_fleet_eagerly`` (every vehicle provisioned before the fleet is
  returned) and ``generate_fleet_integrating_each`` (every vehicle
  integrates its own baseline, one contract at a time);
* the fleet generation references used by the fleet generation suite:
  ``reference_variants``, ``reference_variant_contracts`` and
  ``reference_core_placement``, which draw each variant through a spawned
  child of a seeded parent generator and write every baseline contract as
  a document that :class:`~repro.contracts.language.ContractParser` parses.

Everything here is deterministic given the caller's seeds — extracting it
changed no seed and no behaviour, only the import site.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.analysis.cpa import (_EPS, EventModel, ResponseTimeAnalysis,
                                ResponseTimeResult)
from repro.analysis.compositional import FrameSpec
from repro.can.bus import CanBus
from repro.can.controller import CanController
from repro.can.frame import CanFrame
from repro.contracts.language import ContractParser
from repro.contracts.model import (Contract, RealTimeRequirement,
                                   SafetyRequirement, SecurityRequirement,
                                   ServiceProvision)
from repro.fleet.vehicle import (_CORE_COMPONENTS, FleetSpec, FleetVehicle,
                                 VehicleVariant, build_vehicle_platform,
                                 generate_fleet, generate_variants,
                                 variant_contracts)
from repro.mcc.acceptance import (AcceptanceResult, AcceptanceTest,
                                  default_acceptance_tests, tasksets_from_mapping)
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport
from repro.mcc.controller import MultiChangeController, derive_expectation
from repro.mcc.mapping import (MappingEngine, MappingError, MappingState,
                               MappingStrategy)
from repro.monitoring.deviation import ExpectedBehaviour
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RteConfiguration, RuntimeEnvironment
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


def reference_response_time(taskset: TaskSet, task: Task,
                            speed_factor: float = 1.0,
                            event_models: Optional[Dict[str, EventModel]] = None,
                            warm_start: Optional[Sequence[float]] = None,
                            max_iterations: int = 10_000) -> ResponseTimeResult:
    """The reference multiple-activation busy-window fixpoint of ``task``.

    Resolves each higher-priority task's event-model period and jitter and
    its speed-scaled WCET for this one task, and sums the interference with
    the builtin ``sum`` in task-set order.
    """
    higher = taskset.higher_priority_than(task)
    overrides = event_models or {}
    own_override = overrides.get(task.name)
    own_period = own_override.period if own_override is not None else task.period
    own_jitter = own_override.jitter if own_override is not None else task.jitter
    wcet = task.wcet / speed_factor
    deadline = task.deadline if task.deadline is not None else task.period
    hp_params = []
    for t in higher:
        override = overrides.get(t.name)
        if override is not None:
            hp_params.append((override.period, override.jitter,
                              t.wcet / speed_factor))
        else:
            hp_params.append((t.period, t.jitter, t.wcet / speed_factor))
    busy_window_limit = max(deadline, task.period) * 64
    warm = warm_start or ()

    worst_response: float = 0.0
    iterations_total = 0
    q = 1
    busy_window = 0.0
    completions: List[float] = []
    while True:
        completion = q * wcet
        if q <= len(warm) and warm[q - 1] > completion:
            completion = warm[q - 1]
        for _ in range(max_iterations):
            interference = sum(
                int(math.ceil((completion + jitter) / period - _EPS)) * hp_wcet
                for period, jitter, hp_wcet in hp_params)
            new_completion = q * wcet + interference
            if abs(new_completion - completion) <= _EPS:
                completion = new_completion
                break
            completion = new_completion
            iterations_total += 1
            if completion > busy_window_limit:
                return ResponseTimeResult(task=task, wcrt=None, converged=False,
                                          schedulable=False,
                                          busy_window=completion,
                                          iterations=iterations_total)
        release = max(0.0, (q - 1) * own_period - own_jitter) if q > 1 else 0.0
        response = completion - release + own_jitter
        worst_response = max(worst_response, response)
        busy_window = completion
        completions.append(completion)
        if completion <= max(0.0, q * own_period - own_jitter) + _EPS:
            break
        q += 1
        if q * wcet > busy_window_limit:
            return ResponseTimeResult(task=task, wcrt=None, converged=False,
                                      schedulable=False, busy_window=busy_window,
                                      iterations=iterations_total)

    schedulable = worst_response <= deadline + _EPS
    return ResponseTimeResult(task=task, wcrt=worst_response, converged=True,
                              schedulable=schedulable, busy_window=busy_window,
                              iterations=iterations_total,
                              completions=tuple(completions))


def reference_analyse(taskset: TaskSet, speed_factor: float = 1.0,
                      event_models: Optional[Dict[str, EventModel]] = None
                      ) -> Dict[str, ResponseTimeResult]:
    """:func:`reference_response_time` of every task, in task-set order."""
    return {task.name: reference_response_time(taskset, task, speed_factor,
                                                event_models)
            for task in taskset}


def result_fields(result: ResponseTimeResult) -> Tuple:
    """Every field of a result, ``completions`` (excluded from ``==``)
    included."""
    return (result.task, result.wcrt, result.converged, result.schedulable,
            result.busy_window, result.iterations, result.completions)


@st.composite
def timing_workloads(draw, max_tasks: int = 10):
    """``(taskset, speed_factor, event_models)``: 1..``max_tasks`` tasks
    with priority ties, deadlines unequal to periods, release jitter,
    event-model overrides on some tasks and a speed factor, overload
    included."""
    n = draw(st.integers(1, max_tasks))
    fraction = st.floats(0.0, 1.0)
    tasks = []
    overrides: Dict[str, EventModel] = {}
    for index in range(n):
        period = draw(st.sampled_from((0.005, 0.01, 0.02, 0.05, 0.1))) \
            * draw(st.floats(0.5, 2.0))
        wcet = period * draw(st.floats(0.02, 0.4))
        deadline = draw(st.none() | st.floats(0.3, 2.0).map(
            lambda factor, period=period: period * factor))
        jitter = draw(st.just(0.0) | fraction.map(
            lambda share, period=period: period * share / 2))
        name = f"t{index}"
        tasks.append(Task(name, period=period, wcet=wcet, deadline=deadline,
                          priority=draw(st.integers(0, n)), jitter=jitter))
        if draw(st.booleans()) and draw(st.booleans()):
            overrides[name] = EventModel(period * draw(st.floats(0.8, 1.25)),
                                         period * draw(fraction))
    speed_factor = draw(st.just(1.0) | st.floats(0.4, 2.0))
    return TaskSet(tasks), speed_factor, overrides


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


def build_platform(num_processors: int, capacity: float = 0.9) -> Platform:
    platform = Platform(name="diff-platform")
    for index in range(num_processors):
        platform.add_processor(ProcessingResource(f"cpu{index}",
                                                  capacity=capacity))
    platform.add_network(NetworkResource("can0", bandwidth_bps=500_000.0))
    return platform


def make_contract(name: str, period: float, wcet: float) -> Contract:
    return Contract(component=name,
                    requirements=[RealTimeRequirement(
                        period=period, wcet=min(wcet, 0.9 * period)),
                        SafetyRequirement(asil="B"),
                        SecurityRequirement(level="MEDIUM")],
                    provides=[ServiceProvision(f"service_{name}")])


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


class ReferenceModel:
    """A mutable system model: contracts plus mapping, edited in place.

    The reference for :class:`~repro.mcc.configuration.SystemModel`.  A
    candidate is a :meth:`copy` of the adopted model that
    :meth:`edit` edits; the controller adopts it by reference.
    """

    def __init__(self, contracts: Iterable[Contract] = ()) -> None:
        self._contracts: Dict[str, Contract] = {}
        for contract in contracts:
            self.add(contract)
        self.mapping: Dict[str, str] = {}
        self.priorities: Dict[str, int] = {}
        self.version = 0

    def add(self, contract: Contract) -> None:
        if contract.component in self._contracts:
            raise ValueError(f"duplicate contract for {contract.component!r}")
        self._contracts[contract.component] = contract

    def exchange(self, contract: Contract) -> None:
        if contract.component not in self._contracts:
            raise KeyError(f"no contract for {contract.component!r}")
        self._contracts[contract.component] = contract

    def remove(self, component: str) -> None:
        if component not in self._contracts:
            raise KeyError(f"no contract for {component!r}")
        del self._contracts[component]
        self.mapping.pop(component, None)
        # Priorities are keyed ``<component>.task``, so this pops nothing:
        # the mapping step replaces a candidate's priorities before anything
        # reads them.
        self.priorities.pop(component, None)

    def contracts(self) -> List[Contract]:
        return list(self._contracts.values())

    def copy(self) -> "ReferenceModel":
        """A copy for what-if integration: contracts shared, mapping and
        priorities copied."""
        copy = ReferenceModel(self.contracts())
        copy.mapping, copy.priorities = dict(self.mapping), dict(self.priorities)
        copy.version = self.version
        return copy

    def edit(self, request: ChangeRequest) -> None:
        """Edit this model in place as ``request`` asks."""
        if request.kind is ChangeKind.ADD_COMPONENT:
            self.add(request.contract)
        elif request.kind is ChangeKind.UPDATE_COMPONENT:
            self.exchange(request.contract)
            # A changed contract invalidates the old mapping decision for it.
            self.mapping.pop(request.component, None)
            self.priorities.pop(request.component, None)
        else:
            self.remove(request.component)

    def missing_services(self) -> List[str]:
        providers: Dict[str, List[str]] = {}
        for contract in self._contracts.values():
            for provision in contract.provides:
                providers.setdefault(provision.service, []).append(contract.component)
        missing: List[str] = []
        for contract in self._contracts.values():
            for requirement in contract.requires:
                if not requirement.optional and requirement.service not in providers:
                    missing.append(f"{contract.component}:{requirement.service}")
        return sorted(missing)


class ReferenceController:
    """The mutating admission flow, every request integrated on its own.

    The reference for :class:`~repro.mcc.controller.MultiChangeController`:
    :meth:`request_change` applies the request to a copy of the adopted
    :class:`ReferenceModel`, validates, maps and prioritises it, writing
    the mapping decision into the copy, runs every acceptance test and, on
    acceptance, assigns the copy its version, adopts it and deploys its
    configuration.  :meth:`request_changes` is the per-request loop, and
    :meth:`snapshot`/:meth:`rollback` capture and restore the adopted model
    and configuration by reference.  It shares the mapping engine, the
    acceptance tests and the report and configuration types with the
    controller, none of its control flow.
    """

    def __init__(self, platform: Platform,
                 rte: Optional[RuntimeEnvironment] = None,
                 acceptance_tests: Optional[List[AcceptanceTest]] = None,
                 mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT
                 ) -> None:
        self.platform = platform
        self.rte = rte
        self.model = ReferenceModel()
        self.acceptance_tests = (acceptance_tests if acceptance_tests is not None
                                 else default_acceptance_tests())
        self.mapping_engine = MappingEngine(platform, strategy=mapping_strategy)
        self.reports: List[IntegrationReport] = []
        self.deployed_configuration: Optional[RteConfiguration] = None

    def request_change(self, request: ChangeRequest) -> IntegrationReport:
        candidate = self.model.copy()
        try:
            candidate.edit(request)
        except (ValueError, KeyError) as exc:
            report = IntegrationReport(request_id=request.request_id, accepted=False)
            report.findings.append(str(exc))
        else:
            report = self._integrate(candidate, request)
            if report.accepted:
                candidate.version = self.model.version + 1
                self.model = candidate
                report.configuration_version = self._deploy(RteConfiguration(
                    version=candidate.version, contracts=candidate.contracts(),
                    mapping=dict(candidate.mapping),
                    priorities=dict(candidate.priorities)))
        self.reports.append(report)
        return report

    def request_changes(self, requests: List[ChangeRequest]) -> List[IntegrationReport]:
        return [self.request_change(request) for request in requests]

    def _integrate(self, candidate: ReferenceModel,
                   request: ChangeRequest) -> IntegrationReport:
        report = IntegrationReport(request_id=request.request_id)
        contracts = candidate.contracts()
        problems = [problem for contract in contracts
                    for problem in contract.validate()]
        problems += [f"missing provider for {entry}"
                     for entry in candidate.missing_services()]
        report.add_step("functional-architecture",
                        "validate contracts and service completeness",
                        problems=list(problems))
        if problems:
            report.findings.extend(problems)
            return report
        try:
            decision = self.mapping_engine.map(contracts, existing=candidate.mapping)
        except MappingError as exc:
            report.add_step("technical-architecture", "mapping failed", error=str(exc))
            report.findings.append(str(exc))
            return report
        candidate.mapping = decision.placement
        candidate.priorities = decision.priorities
        report.add_step("technical-architecture",
                        "map components to processing resources",
                        placement=dict(decision.placement),
                        utilization=dict(decision.utilization))
        report.add_step("implementation-model",
                        "assign scheduling priorities (deadline monotonic per resource)",
                        priorities=dict(decision.priorities))
        all_passed = True
        for test in self.acceptance_tests:
            result = test.run(contracts, candidate.mapping, candidate.priorities,
                              self.platform)
            report.acceptance_results[test.viewpoint] = result.passed
            if not result.passed:
                report.findings.extend(f"[{test.viewpoint}] {finding}"
                                       for finding in result.findings)
            all_passed = all_passed and result.passed
        report.add_step("acceptance-tests", "run viewpoint analyses",
                        results=dict(report.acceptance_results))
        report.accepted = all_passed
        return report

    def _deploy(self, configuration: RteConfiguration) -> int:
        self.deployed_configuration = configuration
        if self.rte is not None:
            self.rte.deploy(configuration)
        return configuration.version

    def snapshot(self) -> Tuple[ReferenceModel, Optional[RteConfiguration]]:
        return self.model, self.deployed_configuration

    def rollback(self, snapshot: Tuple[ReferenceModel,
                                       Optional[RteConfiguration]]) -> None:
        self.model, configuration = snapshot
        self.deployed_configuration = configuration
        if self.rte is not None and configuration is not None:
            self.rte.deploy(configuration)

    @property
    def expectations(self) -> Tuple[ExpectedBehaviour, ...]:
        derived = (derive_expectation(c) for c in self.model.contracts())
        return tuple(e for e in derived if e is not None)


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
    baseline.  Every vehicle also builds its own platform model and
    acceptance battery, where :func:`generate_fleet` shares one of each per
    variant, so it is the reference that shows the sharing changes nothing.
    Its vehicles are built with their MCC, so they have no provisioner and
    checkpoint every state with an explicit snapshot.
    """
    variants = generate_variants(spec)
    contracts_by_variant = {variant.index: variant_contracts(variant, spec)
                            for variant in variants}
    vehicles: List[FleetVehicle] = []
    for index in range(spec.size):
        variant = variants[index % len(variants)]
        platform = build_vehicle_platform(variant, name=f"veh{index:04d}-platform")
        rte = RuntimeEnvironment(platform) if spec.deploy else None
        acceptance_tests = default_acceptance_tests(cache=analysis_cache)
        if extra_acceptance_tests is not None:
            acceptance_tests += extra_acceptance_tests(variant, platform)
        mcc = MultiChangeController(platform, rte=rte,
                                    acceptance_tests=acceptance_tests,
                                    mapping_strategy=spec.mapping_strategy)
        for contract in contracts_by_variant[variant.index]:
            report = mcc.add_component(contract)
            if not report.accepted and contract.component in _CORE_COMPONENTS:
                raise RuntimeError(
                    f"vehicle {index} rejected its baseline: {report.summary()}")
        vehicles.append(FleetVehicle(index, variant, mcc))
    return vehicles


# ---------------------------------------------------------------------------
# Fleet generation references: spawned generators, contracts written as
# documents and parsed back
# ---------------------------------------------------------------------------

BASELINE_DOCUMENTS: List[Dict[str, Any]] = [
    {"component": "perception", "timing": {"period": 0.05, "wcet": 0.010},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "provides": ["object_list"]},
    {"component": "planner", "timing": {"period": 0.1, "wcet": 0.020},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "requires": [{"service": "object_list"}], "provides": ["trajectory"]},
    {"component": "actuation", "timing": {"period": 0.01, "wcet": 0.002},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "requires": [{"service": "trajectory"}], "provides": ["actuator_commands"]},
]

TELEMATICS_DOCUMENT: Dict[str, Any] = {
    "component": "telematics", "timing": {"period": 0.2, "wcet": 0.012},
    "safety": {"asil": "A"}, "security": {"level": "MEDIUM"},
    "provides": ["telemetry"],
}


def reference_variants(spec: FleetSpec) -> List[VehicleVariant]:
    """:func:`repro.fleet.vehicle.generate_variants`, each variant drawn
    from ``SeededRNG(spec.seed).spawn(1_000 + index)``."""
    variants: List[VehicleVariant] = []
    for index in range(min(spec.num_variants, max(spec.size, 1))):
        rng = SeededRNG(spec.seed).spawn(1_000 + index)
        spread = spec.heterogeneity
        factor = 1.0 + spread * (2.0 * rng.uniform() - 1.0)
        capacity = min(1.0, max(0.05,
                                spec.base_capacity * (1.0 + 0.5 * spread
                                                      * (2.0 * rng.uniform() - 1.0))))
        variants.append(VehicleVariant(
            index=index,
            wcet_factor=factor,
            num_processors=rng.integer(spec.min_processors, spec.max_processors),
            capacity=capacity,
            can_bandwidth_bps=rng.choice([250_000.0, 500_000.0, 1_000_000.0]),
            has_telematics=rng.bernoulli(0.5)))
    return variants


def reference_variant_contracts(variant: VehicleVariant,
                                spec: FleetSpec) -> List[Contract]:
    """:func:`repro.fleet.vehicle.variant_contracts`, the extras drawn from
    ``SeededRNG(spec.seed).spawn(2_000 + variant.index)`` and every
    contract written as a document and parsed."""
    documents = list(BASELINE_DOCUMENTS)
    if variant.has_telematics:
        documents = documents + [TELEMATICS_DOCUMENT]
    rng = SeededRNG(spec.seed).spawn(2_000 + variant.index)
    extras: List[Dict[str, Any]] = []
    for index in range(spec.extra_components):
        period = rng.uniform(0.02, 0.2)
        extras.append({
            "component": f"app{index:02d}",
            "timing": {"period": period, "wcet": period * rng.uniform(0.05, 0.11)},
            "safety": {"asil": rng.choice(["QM", "A", "B"])},
            "security": {"level": "MEDIUM"},
            "provides": [f"service_app{index:02d}"],
        })

    def util(document: Dict[str, Any]) -> float:
        timing = document["timing"]
        return timing["wcet"] * variant.wcet_factor / timing["period"]

    budget = 0.8 * variant.num_processors * variant.capacity
    core_util = sum(util(document) for document in documents)
    extra_util = sum(util(document) for document in extras)
    headroom = max(0.0, budget - core_util)
    if extra_util > headroom and extra_util > 0.0:
        shrink = headroom / extra_util
        for document in extras:
            document["timing"]["wcet"] *= shrink
        extras = [document for document in extras
                  if document["timing"]["wcet"] > 0.0]
    return ContractParser().parse_many(_scaled_document(document, variant)
                                       for document in documents + extras)


def _scaled_document(document: Dict[str, Any],
                     variant: VehicleVariant) -> Dict[str, Any]:
    """``document`` with its WCET scaled to the variant's build."""
    timing = dict(document["timing"])
    timing["wcet"] = min(timing["wcet"] * variant.wcet_factor,
                         0.9 * timing["period"])
    return {**document, "timing": timing}


def reference_core_placement(variant: VehicleVariant,
                             spec: FleetSpec) -> Optional[str]:
    """The core-stack check of ``repro.fleet.vehicle._variant_platform`` on
    parsed documents: ``None`` when the variant's platform hosts its core
    stack, else the message of the :class:`RuntimeError` it raises."""
    platform = build_vehicle_platform(variant, f"variant{variant.index}-platform")
    documents = [_scaled_document(document, variant)
                 for document in BASELINE_DOCUMENTS]
    if sum(document["timing"]["wcet"] / document["timing"]["period"]
           for document in documents) <= variant.capacity - 1e-9:
        return None
    state = MappingState(MappingEngine(platform,
                                       strategy=spec.mapping_strategy))
    for position, contract in enumerate(ContractParser().parse_many(documents)):
        try:
            state.place(contract, position)
        except MappingError as error:
            return f"vehicle {variant.index} rejected its baseline: {error}"
    return None


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
