"""System-level compositional analysis: multi-resource fixpoint + chains.

One ECU's schedulability says nothing about a distributed function: a sensor
task on ECU1 queues a CAN frame whose arrival activates a control task on
ECU2, and every stage's response-time variation widens the activation jitter
of the next.  Compositional performance analysis (CPA) closes this loop by
iterating *output event model propagation* across resources until a global
fixpoint is reached:

1. analyse every resource in isolation under the current activation event
   models (processors via the busy-window CPU analysis, buses via the
   non-preemptive CAN analysis),
2. derive each link source's output event model — same period, jitter
   widened by ``wcrt - bcrt`` (best-case response: the WCET, respectively
   the frame transmission time) — and install it as the activation model of
   the link target,
3. repeat until no event model changes (convergence) or a divergence
   criterion trips (a busy window exceeds its bound, a propagated jitter
   explodes, or the iteration cap is hit).

The converged models make a *jitter-aware* end-to-end latency bound along a
cause-effect chain available: because each stage's analysed jitter already
contains the upstream response-time variation, the chain latency is the sum
of the best-case responses of all hops but the last plus the worst-case
response of the last hop — strictly tighter than the naive summation of
per-hop WCRTs (which remains available as the documented pessimistic
fallback :func:`repro.analysis.cpa.end_to_end_latency`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.analysis.compositional.can_rta import CanResponseTimeAnalysis, FrameSpec
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis, ResponseTimeResult
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.platform.tasks import TaskSet


class SystemConfigurationError(ValueError):
    """Raised for invalid system models (unknown resources, bad links)."""


@dataclass(frozen=True)
class EventLink:
    """One activation dependency: the output events of ``source`` (a task's
    completions or a frame's deliveries) activate ``target``."""

    source_resource: str
    source: str
    target_resource: str
    target: str


@dataclass(frozen=True)
class CauseEffectChain:
    """A named end-to-end chain of ``(resource, item)`` hops.

    Consecutive hops must be connected by an :class:`EventLink` in the
    analysed model — the jitter-aware latency bound is only sound along
    propagated activation dependencies.
    """

    name: str
    hops: Tuple[Tuple[str, str], ...]
    deadline: Optional[float] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "hops", tuple((str(r), str(i)) for r, i in self.hops))
        if not self.hops:
            raise SystemConfigurationError(
                f"chain {self.name!r}: hop list must not be empty")
        if self.deadline is not None and self.deadline <= 0:
            raise SystemConfigurationError(
                f"chain {self.name!r}: deadline must be positive")


class _Processor:
    __slots__ = ("taskset", "speed_factor")

    def __init__(self, taskset: TaskSet, speed_factor: float) -> None:
        self.taskset = taskset
        self.speed_factor = speed_factor


class _Bus:
    __slots__ = ("frames", "bitrate_bps")

    def __init__(self, frames: Tuple[FrameSpec, ...], bitrate_bps: float) -> None:
        self.frames = frames
        self.bitrate_bps = bitrate_bps


class SystemModel:
    """Named processors and buses plus the event links between their items.

    (This is the *analysis-domain* system model — resources and activation
    dependencies; the MCC-domain :class:`repro.mcc.configuration.SystemModel`
    models contracts and mappings.)
    """

    def __init__(self, name: str = "system") -> None:
        self.name = name
        self._processors: Dict[str, _Processor] = {}
        self._buses: Dict[str, _Bus] = {}
        self._links: List[EventLink] = []
        self._incoming: Dict[Tuple[str, str], EventLink] = {}

    # -- construction ------------------------------------------------------

    def add_processor(self, name: str, taskset: TaskSet,
                      speed_factor: float = 1.0) -> None:
        """Register a processor analysed by the busy-window CPU analysis."""
        self._check_new_resource(name)
        if speed_factor <= 0:
            raise SystemConfigurationError(f"processor {name}: speed factor must be positive")
        self._processors[name] = _Processor(taskset, speed_factor)

    def add_bus(self, name: str, frames: Sequence[FrameSpec],
                bitrate_bps: float) -> None:
        """Register a CAN segment analysed by the non-preemptive CAN RTA."""
        self._check_new_resource(name)
        # Validates ids/uniqueness eagerly so errors surface at model build.
        CanResponseTimeAnalysis(list(frames), bitrate_bps)
        self._buses[name] = _Bus(tuple(frames), bitrate_bps)

    def connect(self, source_resource: str, source: str,
                target_resource: str, target: str) -> EventLink:
        """Link a source item's output events to a target item's activation."""
        for resource, item in ((source_resource, source), (target_resource, target)):
            if item not in self.items(resource):
                raise SystemConfigurationError(
                    f"resource {resource!r} has no item {item!r}")
        link = EventLink(source_resource, source, target_resource, target)
        key = (target_resource, target)
        if key in self._incoming:
            raise SystemConfigurationError(
                f"{target_resource}/{target} already has an activation source "
                f"({self._incoming[key].source_resource}/{self._incoming[key].source})")
        self._links.append(link)
        self._incoming[key] = link
        return link

    def _check_new_resource(self, name: str) -> None:
        if not name:
            raise SystemConfigurationError("resource needs a name")
        if name in self._processors or name in self._buses:
            raise SystemConfigurationError(f"resource {name!r} already registered")

    # -- introspection -----------------------------------------------------

    @property
    def processors(self) -> Dict[str, _Processor]:
        return dict(self._processors)

    @property
    def buses(self) -> Dict[str, _Bus]:
        return dict(self._buses)

    @property
    def links(self) -> List[EventLink]:
        return list(self._links)

    def resource_names(self) -> List[str]:
        return sorted(self._processors) + sorted(self._buses)

    def items(self, resource: str) -> List[str]:
        """Names of the analysable items of one resource."""
        if resource in self._processors:
            return [task.name for task in self._processors[resource].taskset]
        if resource in self._buses:
            return [frame.name for frame in self._buses[resource].frames]
        raise SystemConfigurationError(f"unknown resource {resource!r}")

    def has_link(self, source_resource: str, source: str,
                 target_resource: str, target: str) -> bool:
        link = self._incoming.get((target_resource, target))
        return (link is not None and link.source_resource == source_resource
                and link.source == source)

    def base_event_model(self, resource: str, item: str) -> EventModel:
        """The activation model of an item before any propagation."""
        if resource in self._processors:
            taskset = self._processors[resource].taskset
            if item not in taskset:
                raise SystemConfigurationError(
                    f"resource {resource!r} has no item {item!r}")
            task = taskset.get(item)
            return EventModel(period=task.period, jitter=task.jitter)
        for frame in self._buses[resource].frames:
            if frame.name == item:
                return EventModel(period=frame.period, jitter=frame.jitter)
        raise SystemConfigurationError(f"resource {resource!r} has no item {item!r}")

    def best_case_response(self, resource: str, item: str) -> float:
        """Best-case response used in jitter propagation: the speed-adjusted
        WCET of a task, the transmission time of a frame."""
        if resource in self._processors:
            processor = self._processors[resource]
            if item not in processor.taskset:
                raise SystemConfigurationError(
                    f"resource {resource!r} has no item {item!r}")
            return processor.taskset.get(item).wcet / processor.speed_factor
        bus = self._buses.get(resource)
        if bus is not None:
            for frame in bus.frames:
                if frame.name == item:
                    return frame.transmission_time(bus.bitrate_bps)
        raise SystemConfigurationError(f"resource {resource!r} has no item {item!r}")

    def max_period(self) -> float:
        periods = [task.period for p in self._processors.values() for task in p.taskset]
        periods += [frame.period for b in self._buses.values() for frame in b.frames]
        return max(periods) if periods else 1.0


@dataclass
class SystemAnalysisResult:
    """Outcome of one system-level fixpoint.

    ``results`` maps resource name -> item name -> per-item
    :class:`ResponseTimeResult`; ``event_models`` carries the converged
    activation model of every item (base model where nothing propagated).
    """

    converged: bool
    diverged: bool
    iterations: int
    results: Dict[str, Dict[str, ResponseTimeResult]]
    event_models: Dict[Tuple[str, str], EventModel]
    model: SystemModel = field(repr=False, default=None)  # type: ignore[assignment]

    @property
    def schedulable(self) -> bool:
        """Whether the fixpoint converged and every item meets its deadline."""
        return (self.converged and not self.diverged
                and all(result.schedulable
                        for per_resource in self.results.values()
                        for result in per_resource.values()))

    def result_of(self, resource: str, item: str) -> ResponseTimeResult:
        try:
            return self.results[resource][item]
        except KeyError as exc:
            raise SystemConfigurationError(
                f"no result for {resource!r}/{item!r}") from exc

    def chain_latency(self, chain: CauseEffectChain) -> Optional[float]:
        """Jitter-aware worst-case latency of a cause-effect chain.

        Because every hop's analysed activation jitter already contains the
        upstream response-time variation (that is what the fixpoint
        propagates), the latency from the first hop's activation to the last
        hop's completion is bounded by the sum of the best-case responses of
        all hops but the last plus the worst-case response of the last hop.
        Returns ``None`` when the fixpoint did not converge or the final hop
        has no bounded response.
        """
        self._validate_chain(chain)
        if not self.converged or self.diverged:
            return None
        last_resource, last_item = chain.hops[-1]
        last = self.result_of(last_resource, last_item)
        if last.wcrt is None:
            return None
        total = last.wcrt
        for resource, item in chain.hops[:-1]:
            self.result_of(resource, item)  # surface unknown hops uniformly
            total += self.model.best_case_response(resource, item)
        return total

    def chain_slack(self, chain: CauseEffectChain) -> Optional[float]:
        """Deadline minus jitter-aware latency (``None`` when unbounded or
        the chain carries no deadline)."""
        if chain.deadline is None:
            return None
        latency = self.chain_latency(chain)
        if latency is None:
            return None
        return chain.deadline - latency

    def _validate_chain(self, chain: CauseEffectChain) -> None:
        if self.model is None:
            raise SystemConfigurationError("result carries no model reference")
        for (src_res, src), (dst_res, dst) in zip(chain.hops, chain.hops[1:]):
            if not self.model.has_link(src_res, src, dst_res, dst):
                raise SystemConfigurationError(
                    f"chain {chain.name!r}: {src_res}/{src} -> {dst_res}/{dst} "
                    "is not an event link of the analysed model; the "
                    "jitter-aware bound is only sound along propagated "
                    "activation dependencies")


def distributed_end_to_end_latency(result: SystemAnalysisResult,
                                   chain: CauseEffectChain) -> Optional[float]:
    """Module-level alias of :meth:`SystemAnalysisResult.chain_latency`."""
    return result.chain_latency(chain)


class SystemAnalysis:
    """Iterates per-resource analyses to the global event-model fixpoint.

    Parameters
    ----------
    model:
        Optional default :class:`SystemModel`; :meth:`analyse` accepts a
        model per call so one engine (and its warm state) can serve a whole
        update sweep of mutated models.
    cache:
        Optional shared :class:`AnalysisCache`.  Processor analyses go
        through it (content-addressed on task set + event models), so the
        fixpoint's repeated re-analyses — and re-analyses across the steps
        of an update sweep — are answered from the store; its misses run
        this analysis's incremental engine, if it has one.
    incremental:
        ``True`` (default) analyses processors through a private
        :class:`IncrementalResponseTimeAnalysis` (:attr:`engine`, which
        answers the cache's misses when there is a cache) and memoizes bus
        segments.  ``False`` without a cache re-derives everything from
        scratch on every iteration (the cold reference mode the benchmarks
        compare against); ``False`` with a cache answers its misses cold.
    max_iterations:
        Fixpoint iteration cap; hitting it reports divergence.
    jitter_limit:
        Propagated-jitter bound above which the system is declared divergent
        (default: 1024 x the largest period in the model).
    bus_memo_limit:
        Entry bound of the bus-segment memo (cleared when exceeded), so a
        long-lived analysis stays bounded like the LRU processor cache.
    """

    def __init__(self, model: Optional[SystemModel] = None,
                 cache: Optional[AnalysisCache] = None,
                 incremental: bool = True,
                 max_iterations: int = 64,
                 jitter_tolerance: float = 1e-9,
                 jitter_limit: Optional[float] = None,
                 bus_memo_limit: int = 4096) -> None:
        if max_iterations <= 0:
            raise SystemConfigurationError("max_iterations must be positive")
        if bus_memo_limit <= 0:
            raise SystemConfigurationError("bus_memo_limit must be positive")
        self.bus_memo_limit = bus_memo_limit
        self.model = model
        self.cache = cache
        self.incremental = incremental
        self.max_iterations = max_iterations
        self.jitter_tolerance = jitter_tolerance
        self.jitter_limit = jitter_limit
        self.engine: Optional[IncrementalResponseTimeAnalysis] = (
            IncrementalResponseTimeAnalysis() if incremental else None)
        self._bus_memo: Optional[Dict] = {} if (cache is not None or incremental) else None

    # -- per-resource analysis --------------------------------------------

    def _analyse_processor(self, processor: _Processor,
                           overrides: Optional[Dict[str, EventModel]]
                           ) -> Dict[str, ResponseTimeResult]:
        if self.cache is not None:
            return self.cache.analyse(processor.taskset,
                                      speed_factor=processor.speed_factor,
                                      event_models=overrides,
                                      analyser=self.engine)
        if self.engine is not None:
            return self.engine.analyse(processor.taskset,
                                       speed_factor=processor.speed_factor,
                                       event_models=overrides)
        analysis = ResponseTimeAnalysis(processor.taskset,
                                        speed_factor=processor.speed_factor,
                                        event_models=overrides)
        return analysis.analyse()

    def _analyse_bus(self, bus: _Bus,
                     overrides: Optional[Dict[str, EventModel]]
                     ) -> Dict[str, ResponseTimeResult]:
        if self._bus_memo is not None and len(self._bus_memo) > self.bus_memo_limit:
            self._bus_memo.clear()
        analysis = CanResponseTimeAnalysis(list(bus.frames), bus.bitrate_bps,
                                           event_models=overrides,
                                           memo=self._bus_memo)
        return analysis.analyse()

    # -- the fixpoint ------------------------------------------------------

    def analyse(self, model: Optional[SystemModel] = None) -> SystemAnalysisResult:
        """Run the propagation fixpoint; returns a :class:`SystemAnalysisResult`.

        On a model without cross-resource links this degenerates to one
        round of isolated per-resource analyses whose results are
        bit-identical to :class:`ResponseTimeAnalysis` /
        :class:`CanResponseTimeAnalysis` run directly.
        """
        model = model if model is not None else self.model
        if model is None:
            raise SystemConfigurationError("no system model given")
        jitter_limit = (self.jitter_limit if self.jitter_limit is not None
                        else 1024.0 * model.max_period())
        processors = model.processors
        buses = model.buses
        links = model.links

        overrides: Dict[str, Dict[str, EventModel]] = {}
        results: Dict[str, Dict[str, ResponseTimeResult]] = {}
        diverged = False
        converged = False
        iterations = 0
        for _ in range(self.max_iterations):
            iterations += 1
            results = {}
            for name, processor in processors.items():
                results[name] = self._analyse_processor(processor, overrides.get(name))
            for name, bus in buses.items():
                results[name] = self._analyse_bus(bus, overrides.get(name))

            new_overrides: Dict[str, Dict[str, EventModel]] = {}
            propagation_failed = False
            for link in links:
                source_result = results[link.source_resource][link.source]
                if source_result.wcrt is None:
                    # Unbounded source response: no output event model exists,
                    # the fixpoint cannot close.
                    propagation_failed = True
                    continue
                source_model = self._current_model(model, overrides,
                                                  link.source_resource, link.source)
                out_jitter = max(0.0, source_result.wcrt - model.best_case_response(
                    link.source_resource, link.source))
                if out_jitter > jitter_limit:
                    propagation_failed = True
                    continue
                new_overrides.setdefault(link.target_resource, {})[link.target] = \
                    source_model.with_jitter(out_jitter)
            if propagation_failed:
                diverged = True
                break
            if self._models_stable(overrides, new_overrides):
                converged = True
                break
            overrides = new_overrides
        else:
            diverged = True

        event_models: Dict[Tuple[str, str], EventModel] = {}
        for resource in list(processors) + list(buses):
            for item in model.items(resource):
                event_models[(resource, item)] = self._current_model(
                    model, overrides, resource, item)
        return SystemAnalysisResult(converged=converged, diverged=diverged,
                                    iterations=iterations, results=results,
                                    event_models=event_models, model=model)

    @staticmethod
    def _current_model(model: SystemModel,
                       overrides: Mapping[str, Mapping[str, EventModel]],
                       resource: str, item: str) -> EventModel:
        override = overrides.get(resource, {}).get(item)
        if override is not None:
            return override
        return model.base_event_model(resource, item)

    def _models_stable(self, old: Mapping[str, Mapping[str, EventModel]],
                       new: Mapping[str, Mapping[str, EventModel]]) -> bool:
        if set(old) != set(new):
            return False
        tolerance = self.jitter_tolerance
        for resource, per_item in new.items():
            previous = old[resource]
            if set(previous) != set(per_item):
                return False
            for item, model in per_item.items():
                before = previous[item]
                if model.period != before.period:
                    return False
                if abs(model.jitter - before.jitter) > tolerance:
                    return False
        return True

    def schedulable(self, model: Optional[SystemModel] = None) -> bool:
        """Whole-system verdict: converged fixpoint, every deadline met."""
        return self.analyse(model).schedulable
