"""Viewpoint acceptance tests run by the MCC.

"Viewpoint-specific analyses can be implemented as separate entities in the
MCC ... This process is assisted by formal analyses that a) can guide the
(mapping) decisions and b) work as acceptance tests." (Section II.A)

Each acceptance test wraps one of the analyses from :mod:`repro.analysis`
behind a uniform interface so the integration process can run them all and
collect a per-viewpoint verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.compositional import (CanAnalysisError, CauseEffectChain,
                                          FrameSpec, SystemAnalysis,
                                          SystemAnalysisResult,
                                          SystemConfigurationError)
from repro.analysis.compositional import SystemModel as AnalysisSystemModel
from repro.analysis.cpa import ResponseTimeAnalysis
from repro.analysis.safety import SafetyAnalysis
from repro.analysis.threat import ThreatModel
from repro.contracts.model import Contract
from repro.platform.resources import Platform, ResourceError
from repro.platform.tasks import Task, TaskSet


@dataclass
class AcceptanceResult:
    """The verdict of one acceptance test."""

    viewpoint: str
    passed: bool
    findings: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return self.passed


class AcceptanceTest(Protocol):
    """Interface of an MCC acceptance test.

    A test may also define ``monotone(contracts) -> bool``.  Answering
    ``True`` promises that a pass on ``contracts``, or on any prefix of it,
    implies a pass on every configuration that drops later-added components
    and keeps the remaining placements and relative priorities.
    :meth:`~repro.mcc.controller.MultiChangeController.request_changes`
    relies on that promise to admit a run of additions with one acceptance
    run on the final candidate, and to bisect a failing run for its longest
    passing prefix.  A test without the method, like
    :class:`DistributedTimingAcceptanceTest`, keeps every addition on the
    per-request path.
    """

    viewpoint: str

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate a candidate configuration."""
        ...  # pragma: no cover - protocol


def tasksets_from_mapping(contracts: List[Contract], mapping: Dict[str, str],
                          priorities: Dict[str, int]) -> Dict[str, TaskSet]:
    """Build per-processor task sets from a candidate configuration.

    This is exactly the derivation the timing acceptance test performs, so
    a caller gets the task sets — and therefore the cache keys — that the
    acceptance run analyses (see
    :meth:`~repro.mcc.integration.IntegrationProcess.preview_tasksets`).
    """
    tasksets: Dict[str, TaskSet] = {}
    for contract in contracts:
        timing = contract.timing
        if timing is None:
            continue
        processor = mapping.get(contract.component)
        if processor is None:
            continue
        task_name = f"{contract.component}.task"
        task = Task.from_requirement(task_name, timing,
                                     priority=priorities.get(task_name, 0),
                                     component=contract.component,
                                     criticality=contract.asil.name)
        tasksets.setdefault(processor, TaskSet()).add(task)
    return tasksets


class TimingAcceptanceTest:
    """Worst-case response-time analysis of every processor.

    When given an :class:`~repro.analysis.cache.AnalysisCache`, the per-
    processor busy-window analyses are memoized on the task-set fingerprint:
    in a change campaign only the processor whose task set actually changed
    is re-analysed, the others are answered from the cache.  Without a
    cache, every run analyses every processor cold.  The test holds no
    state apart from the cache, so one instance can serve many MCCs.
    """

    viewpoint = "timing"

    def __init__(self, speed_factor: float = 1.0,
                 cache: Optional[AnalysisCache] = None) -> None:
        if not speed_factor > 0:  # also rejects NaN
            raise ValueError("speed factor must be positive")
        self.speed_factor = speed_factor
        self.cache = cache

    def monotone(self, contracts: List[Contract]) -> bool:
        """Always: deadline-monotonic order is a total order that does not
        depend on which tasks are in the set, and an added task only adds
        interference to lower-priority tasks, so no WCRT falls."""
        return True

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate the timing viewpoint of a candidate configuration."""
        findings: List[str] = []
        metrics: Dict[str, float] = {}
        speed = self.speed_factor
        tasksets = tasksets_from_mapping(contracts, mapping, priorities)
        for processor_name, taskset in sorted(tasksets.items()):
            metrics[f"{processor_name}.utilization"] = sum(
                task.wcet / speed / task.period for task in taskset)
            if self.cache is not None:
                results = self.cache.analyse(taskset, speed_factor=speed)
            else:
                results = ResponseTimeAnalysis(taskset, speed).analyse()
            for task_name, result in results.items():
                if result.wcrt is not None:
                    metrics[f"{task_name}.wcrt"] = result.wcrt
                if not result.schedulable:
                    wcrt = f"{result.wcrt:.4f}s" if result.wcrt is not None else "unbounded"
                    findings.append(
                        f"{task_name} on {processor_name}: WCRT {wcrt} exceeds "
                        f"deadline {result.task.deadline:.4f}s")
        return AcceptanceResult(viewpoint=self.viewpoint, passed=not findings,
                                findings=findings, metrics=metrics)


@dataclass(frozen=True)
class MessageSpec:
    """One CAN message stream of the distributed wiring.

    ``sender``/``receiver`` are component names; the frame's activation rate
    is the sender's contract period, its identifier decides bus arbitration.
    The message is *active* only while both endpoints are deployed and
    mapped — a partially deployed chain simply is not checked yet.
    """

    name: str
    sender: str
    receiver: str
    can_id: int
    dlc: int = 8
    bus: str = "can0"
    extended: bool = False


@dataclass(frozen=True)
class DistributedChainSpec:
    """An end-to-end deadline over a chain of components and messages.

    ``stages`` interleaves component names and :class:`MessageSpec` names
    (e.g. ``("sensor", "sensor_data", "control", "actuator")``); consecutive
    component stages are treated as a direct activation dependency on their
    processors.  ``deadline`` bounds the latency from the first stage's
    activation to the last stage's completion.
    """

    name: str
    stages: Tuple[str, ...]
    deadline: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ValueError(f"chain {self.name!r}: stages must not be empty")
        if self.deadline <= 0:
            raise ValueError(f"chain {self.name!r}: deadline must be positive")


class DistributedTimingAcceptanceTest:
    """System-level timing viewpoint: CPUs, buses and end-to-end deadlines.

    Where :class:`TimingAcceptanceTest` checks every processor in isolation,
    this test builds a compositional system model from the candidate
    configuration — per-processor task sets, CAN segments carrying the
    declared :class:`MessageSpec` streams (plus any background frames), and
    the activation links between them — runs the event-model propagation
    fixpoint of :class:`~repro.analysis.compositional.SystemAnalysis`, and
    verdicts a) per-item schedulability *under propagated jitter* and b) the
    jitter-aware latency of every active :class:`DistributedChainSpec`
    against its end-to-end deadline.  An update that keeps every ECU locally
    schedulable can therefore still be rejected for breaking a distributed
    cause-effect deadline — the case the per-processor test cannot see.

    One :class:`SystemAnalysis` instance (optionally backed by a shared
    :class:`AnalysisCache`) is reused across change requests, so acceptance
    sweeps benefit from memoized/incrementally re-derived busy windows.
    """

    viewpoint = "distributed-timing"

    def __init__(self, messages: Sequence[MessageSpec],
                 chains: Sequence[DistributedChainSpec] = (),
                 background_frames: Optional[Mapping[str, Sequence[FrameSpec]]] = None,
                 speed_factor: float = 1.0,
                 cache: Optional[AnalysisCache] = None,
                 max_iterations: int = 64) -> None:
        self.messages = list(messages)
        self.chains = list(chains)
        self._validate_messages()
        self._validate_chain_stages()
        self.background_frames = {bus: list(frames)
                                  for bus, frames in (background_frames or {}).items()}
        self.speed_factor = speed_factor
        self.analysis = SystemAnalysis(cache=cache, max_iterations=max_iterations)
        #: The most recent fixpoint result, for scenario/report introspection.
        self.last_result: Optional[SystemAnalysisResult] = None
        #: Chain name -> jitter-aware latency of the last evaluated candidate
        #: (``None`` while a chain is partially deployed or unbounded).
        self.last_chain_latencies: Dict[str, Optional[float]] = {}
        #: Metrics of the last evaluated candidate.
        self.last_metrics: Dict[str, float] = {}

    def _validate_messages(self) -> None:
        """Fail loudly at construction on message sets the activation-link
        model cannot express.

        Each receiver task is *activated* by its incoming message stream, so
        it can have at most one activating message; a second message to the
        same receiver would otherwise surface, much later, as a permanent
        per-candidate rejection with a model-internal error.  Additional
        traffic a component merely consumes belongs in ``background_frames``.
        """
        seen: Dict[str, str] = {}
        for message in self.messages:
            previous = seen.get(message.receiver)
            if previous is not None:
                raise ValueError(
                    f"component {message.receiver!r} receives both "
                    f"{previous!r} and {message.name!r}; the activation-link "
                    "model supports one activating message per receiver — "
                    "model additional consumed traffic as background frames")
            seen[message.receiver] = message.name

    def _validate_chain_stages(self) -> None:
        """Reject chains whose stages contradict the declared message wiring.

        A component stage next to a message stage must be that message's
        endpoint — this catches the typo'd stage name that would otherwise
        keep the chain permanently dormant (it would look like a component
        that is simply never deployed, silently disabling the deadline
        check).
        """
        by_name = {message.name: message for message in self.messages}
        for chain in self.chains:
            stages = chain.stages
            for index, stage in enumerate(stages):
                message = by_name.get(stage)
                if message is None:
                    continue
                if index > 0 and stages[index - 1] not in by_name \
                        and stages[index - 1] != message.sender:
                    raise ValueError(
                        f"chain {chain.name!r}: stage {stages[index - 1]!r} "
                        f"precedes message {stage!r} but its sender is "
                        f"{message.sender!r}")
                if index + 1 < len(stages) and stages[index + 1] not in by_name \
                        and stages[index + 1] != message.receiver:
                    raise ValueError(
                        f"chain {chain.name!r}: stage {stages[index + 1]!r} "
                        f"follows message {stage!r} but its receiver is "
                        f"{message.receiver!r}")

    # -- model construction ------------------------------------------------

    def _active_messages(self, components: Dict[str, Contract],
                         mapping: Dict[str, str]) -> List[MessageSpec]:
        active = []
        for message in self.messages:
            sender = components.get(message.sender)
            receiver = components.get(message.receiver)
            if sender is None or receiver is None:
                continue  # endpoint not deployed yet
            if sender.timing is None or receiver.timing is None:
                continue
            if message.sender not in mapping or message.receiver not in mapping:
                continue
            active.append(message)
        return active

    def _chain_hops(self, chain: DistributedChainSpec,
                    components: Dict[str, Contract], mapping: Dict[str, str],
                    active_messages: Dict[str, MessageSpec]
                    ) -> Optional[List[Tuple[str, str]]]:
        """Resource/item hops of a chain, or ``None`` while partially deployed."""
        hops: List[Tuple[str, str]] = []
        for stage in chain.stages:
            if stage in active_messages:
                hops.append((active_messages[stage].bus, stage))
            elif any(message.name == stage for message in self.messages):
                return None  # message exists but is not active yet
            elif (stage in components and stage in mapping
                  and components[stage].timing is not None):
                # Components without a timing contract have no task to
                # analyse; like an undeclared endpoint, they keep the chain
                # dormant rather than rejecting every candidate.
                hops.append((mapping[stage], f"{stage}.task"))
            else:
                return None
        return hops

    def _build_model(self, contracts: List[Contract], mapping: Dict[str, str],
                     priorities: Dict[str, int], platform: Platform,
                     findings: List[str]
                     ) -> Tuple[Optional[AnalysisSystemModel],
                                Dict[str, List[Tuple[str, str]]]]:
        components = {contract.component: contract for contract in contracts}
        tasksets = tasksets_from_mapping(contracts, mapping, priorities)
        model = AnalysisSystemModel()
        for processor_name, taskset in sorted(tasksets.items()):
            model.add_processor(processor_name, taskset,
                                speed_factor=self.speed_factor)

        active = self._active_messages(components, mapping)
        frames_by_bus: Dict[str, List[FrameSpec]] = {
            bus: list(frames) for bus, frames in self.background_frames.items()}
        for message in active:
            sender = components[message.sender]
            try:
                frames_by_bus.setdefault(message.bus, []).append(FrameSpec(
                    name=message.name, can_id=message.can_id,
                    period=sender.timing.period, dlc=message.dlc,
                    extended=message.extended, sender=message.sender))
            except CanAnalysisError as exc:
                findings.append(f"message {message.name}: {exc}")
                return None, {}
        for bus_name, frames in sorted(frames_by_bus.items()):
            try:
                bitrate = platform.network(bus_name).bandwidth_bps
            except ResourceError:
                findings.append(f"bus {bus_name!r} is not a network of the platform")
                return None, {}
            try:
                model.add_bus(bus_name, frames, bitrate)
            except (SystemConfigurationError, CanAnalysisError) as exc:
                # Duplicate stream names/identifiers (e.g. a message colliding
                # with background traffic) reject the candidate, they must
                # not abort the admission process.
                findings.append(str(exc))
                return None, {}

        for message in active:
            sender_task = (mapping[message.sender], f"{message.sender}.task")
            receiver_task = (mapping[message.receiver], f"{message.receiver}.task")
            try:
                if not model.has_link(*sender_task, message.bus, message.name):
                    model.connect(*sender_task, message.bus, message.name)
                if not model.has_link(message.bus, message.name, *receiver_task):
                    model.connect(message.bus, message.name, *receiver_task)
            except SystemConfigurationError as exc:
                findings.append(f"message {message.name}: {exc}")
                return None, {}

        active_by_name = {message.name: message for message in active}
        chain_hops: Dict[str, List[Tuple[str, str]]] = {}
        for chain in self.chains:
            hops = self._chain_hops(chain, components, mapping, active_by_name)
            if hops is None:
                continue  # chain not fully deployed yet
            for (src_res, src), (dst_res, dst) in zip(hops, hops[1:]):
                if model.has_link(src_res, src, dst_res, dst):
                    continue
                try:
                    model.connect(src_res, src, dst_res, dst)
                except SystemConfigurationError as exc:
                    findings.append(f"chain {chain.name}: {exc}")
                    return None, {}
            chain_hops[chain.name] = hops
        return model, chain_hops

    # -- the acceptance run ------------------------------------------------

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate the distributed timing viewpoint of a candidate."""
        findings: List[str] = []
        metrics: Dict[str, float] = {}
        self.last_chain_latencies = {}
        self.last_metrics = metrics
        self.last_result = None
        model, chain_hops = self._build_model(contracts, mapping, priorities,
                                              platform, findings)
        if model is None:
            return AcceptanceResult(viewpoint=self.viewpoint, passed=False,
                                    findings=findings, metrics=metrics)

        result = self.analysis.analyse(model)
        self.last_result = result
        metrics["system.iterations"] = float(result.iterations)
        for bus_name, bus in model.buses.items():
            busy = sum(frame.transmission_time(bus.bitrate_bps) / frame.period
                       for frame in bus.frames)
            metrics[f"{bus_name}.utilization"] = busy
        if result.diverged or not result.converged:
            findings.append("event-model propagation diverged: no bounded "
                            "system-level fixpoint exists for this candidate")
        else:
            for resource_name, per_item in sorted(result.results.items()):
                for item_name, item_result in per_item.items():
                    if item_result.schedulable:
                        continue
                    wcrt = (f"{item_result.wcrt:.4f}s" if item_result.wcrt is not None
                            else "unbounded")
                    findings.append(
                        f"{item_name} on {resource_name}: WCRT {wcrt} exceeds "
                        f"deadline {item_result.task.deadline:.4f}s under "
                        "propagated jitter")
        for chain in self.chains:
            hops = chain_hops.get(chain.name)
            # A dormant chain (some component not deployed yet) is skipped,
            # but observably so.
            metrics[f"{chain.name}.active"] = float(hops is not None)
            if hops is None:
                continue
            latency = result.chain_latency(
                CauseEffectChain(chain.name, hops=tuple(hops),
                                 deadline=chain.deadline))
            self.last_chain_latencies[chain.name] = latency
            if latency is None:
                findings.append(f"chain {chain.name}: end-to-end latency is "
                                "unbounded")
                continue
            metrics[f"{chain.name}.latency_s"] = latency
            if latency > chain.deadline:
                findings.append(
                    f"chain {chain.name}: end-to-end latency {latency:.4f}s "
                    f"exceeds deadline {chain.deadline:.4f}s")
        return AcceptanceResult(viewpoint=self.viewpoint, passed=not findings,
                                findings=findings, metrics=metrics)


class SafetyAcceptanceTest:
    """Safety viewpoint: ASIL consistency, redundancy and mapping independence."""

    viewpoint = "safety"

    def monotone(self, contracts: List[Contract]) -> bool:
        """When no contract declares a redundancy group.

        ``missing-redundancy`` and ``redundancy-colocation`` are the only
        blocking findings an added component can clear, and both need a
        group.  ``missing-provider`` never reaches acceptance: service
        completeness rejects the candidate first.
        """
        return not any(contract.safety is not None
                       and contract.safety.redundancy_group
                       for contract in contracts)

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate the safety viewpoint of a candidate configuration."""
        analysis = SafetyAnalysis(contracts, mapping)
        findings = analysis.analyse()
        blocking = [str(f) for f in findings if f.blocking]
        informational = [str(f) for f in findings if not f.blocking]
        return AcceptanceResult(viewpoint=self.viewpoint, passed=not blocking,
                                findings=blocking + informational,
                                metrics={"blocking_findings": float(len(blocking)),
                                         "informational_findings": float(len(informational))})


class SecurityAcceptanceTest:
    """Security viewpoint: threat-model analysis over the service topology."""

    viewpoint = "security"

    @staticmethod
    def _has_entry_point(contracts: List[Contract]) -> bool:
        return any(contract.security is not None
                   and contract.security.external_interface
                   for contract in contracts)

    def monotone(self, contracts: List[Contract]) -> bool:
        """When no contract declares an external interface: every subset
        then passes with no findings."""
        return not self._has_entry_point(contracts)

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate the security viewpoint of a candidate configuration.

        Attack paths and exposure distances start at the entry points, the
        components with an external interface.  Without one the threat
        analysis finds nothing, so no model is built.
        """
        if not self._has_entry_point(contracts):
            return AcceptanceResult(viewpoint=self.viewpoint, passed=True,
                                    metrics={"attack_paths": 0.0,
                                             "under_protected": 0.0})
        model = ThreatModel()
        model.add_components(contracts)
        providers: Dict[str, List[str]] = {}
        for contract in contracts:
            for provision in contract.provides:
                providers.setdefault(provision.service, []).append(contract.component)
        for contract in contracts:
            for requirement in contract.requires:
                for provider in providers.get(requirement.service, []):
                    model.add_session(contract.component, provider)
        assessment = model.analyse()
        findings = [f"component {name} is under-protected for its exposure"
                    for name in assessment.under_protected]
        for path in assessment.attack_paths[:10]:
            findings.append(
                f"attack path {' -> '.join(path.path)} (exposure {path.exposure:.2f})")
        return AcceptanceResult(viewpoint=self.viewpoint, passed=assessment.acceptable,
                                findings=findings,
                                metrics={"attack_paths": float(len(assessment.attack_paths)),
                                         "under_protected": float(len(assessment.under_protected))})


class ResourceAcceptanceTest:
    """Resource viewpoint: memory and network bandwidth budgets fit."""

    viewpoint = "resources"

    def monotone(self, contracts: List[Contract]) -> bool:
        """Always: memory and CAN demands are sums of budgets that
        :class:`~repro.contracts.model.ResourceRequirement` keeps
        non-negative."""
        return True

    def run(self, contracts: List[Contract], mapping: Dict[str, str],
            priorities: Dict[str, int], platform: Platform) -> AcceptanceResult:
        """Evaluate the resource viewpoint of a candidate configuration."""
        findings: List[str] = []
        metrics: Dict[str, float] = {}
        memory_demand: Dict[str, float] = {}
        can_demand = 0.0
        for contract in contracts:
            resources = contract.resources
            if resources is None:
                continue
            processor = mapping.get(contract.component)
            if processor is not None:
                memory_demand[processor] = memory_demand.get(processor, 0.0) + resources.memory_kib
            can_demand += resources.can_bandwidth_bps
        for processor_name, demand in sorted(memory_demand.items()):
            available = platform.processor(processor_name).memory_kib
            metrics[f"{processor_name}.memory_demand_kib"] = demand
            if demand > available:
                findings.append(f"{processor_name}: memory demand {demand:.0f} KiB exceeds "
                                f"{available:.0f} KiB")
        total_can = sum(n.bandwidth_bps for n in platform.networks() if n.kind == "can")
        metrics["can_demand_bps"] = can_demand
        if total_can and can_demand > 0.7 * total_can:
            findings.append(
                f"CAN bandwidth demand {can_demand:.0f} bps exceeds 70% of capacity "
                f"{total_can:.0f} bps")
        return AcceptanceResult(viewpoint=self.viewpoint, passed=not findings,
                                findings=findings, metrics=metrics)


def default_acceptance_tests(cache: Optional[AnalysisCache] = None) -> List[AcceptanceTest]:
    """The standard battery of acceptance tests the MCC runs per change.

    Pass an :class:`AnalysisCache` to memoize the timing viewpoint across
    change requests — repeated acceptance sweeps (e.g. re-validating the
    same campaigns, or ``python -m repro.experiments cache-bench``) share
    one cache this way.
    """
    return [TimingAcceptanceTest(cache=cache), SafetyAcceptanceTest(),
            SecurityAcceptanceTest(), ResourceAcceptanceTest()]
