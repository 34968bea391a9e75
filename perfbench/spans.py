"""Span tracing around the program's public entry points, for the traced run.

:class:`Spans` wraps the entry points of every layer the benchmark reports on
-- from the benchmark's own files, for one run only; nothing in ``src`` is
changed -- and records one span per call: its name, start, end and the span
that was open when it started.  Spans stay in memory and are written once,
when the run ends.  A span's self time is its duration minus the durations of
its child spans; calls run synchronously, so children never overlap.

A few boundaries also record counts: analysis-cache hits, misses and
``analyse_many`` lanes, the incremental engine's reused and re-analysed
tasks, deviations raised by monitor feedback, and ``Contract.requirement``
calls (counted only, since a span per accessor call would dwarf the work).
"""

from __future__ import annotations

import gc
import os
from array import array
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

Clock = Callable[[], float]


class Spans:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.names: List[str] = []
        self.kinds = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        #: 1 when a span of the same name was already open (recursion), so
        #: inclusive time counts only the outermost call.
        self.nested = array("b")
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._depth: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, function: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``function`` recording a span called ``name`` per call.

        ``before(*args)`` runs just before the call and its return value is
        passed to ``after(token, *args)`` once the call has returned.
        """
        kind = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        kinds, parents, starts, ends, nested = (self.kinds, self.parents,
                                                self.starts, self.ends,
                                                self.nested)
        stack, depth, clock = self._stack, self._depth, self.clock

        def traced(*args, **kwargs):
            index = len(kinds)
            kinds.append(kind)
            parents.append(stack[-1] if stack else -1)
            nested.append(depth[kind] > 0)
            ends.append(0.0)
            token = before(*args) if before is not None else None
            stack.append(index)
            depth[kind] += 1
            starts.append(clock())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = clock()
                depth[kind] -= 1
                stack.pop()
            if after is not None:
                after(token, result, *args)
            return result

        traced.__wrapped__ = function
        return traced

    def counted(self, name: str, function: Callable) -> Callable:
        """``function`` counting its calls under ``name`` (no span)."""
        counts = self.counts

        def counting(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)

        counting.__wrapped__ = function
        return counting

    # -- installation ------------------------------------------------------

    def _patch(self, owner: Any, attribute: str, replacement: Callable) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _method(self, owner: type, attribute: str, name: str,
                before: Optional[Callable] = None,
                after: Optional[Callable] = None) -> None:
        self._patch(owner, attribute, self.wrap(name, owner.__dict__[attribute],
                                                before, after))

    def install(self) -> None:
        """Wrap every traced entry point; :meth:`uninstall` undoes it."""
        import repro.fleet as fleet_package
        import repro.fleet.vehicle as vehicle_module
        import repro.service.admission as admission_module
        from repro.analysis.cache import AnalysisCache
        from repro.analysis.incremental import IncrementalResponseTimeAnalysis
        from repro.analysis.safety import SafetyAnalysis
        from repro.analysis.threat import ThreatModel
        from repro.contracts.language import ContractParser
        from repro.contracts.model import Contract
        from repro.fleet.engine import CampaignEngine
        from repro.fleet.vehicle import FleetVehicle
        from repro.mcc import acceptance
        from repro.mcc.controller import MultiChangeController
        from repro.mcc.integration import IntegrationProcess
        from repro.mcc.mapping import MappingEngine
        from repro.monitoring.deviation import DeviationDetector

        counts = self.counts
        provision = self.wrap("fleet.vehicle.generate_fleet",
                              vehicle_module.generate_fleet)
        # The service imports generate_fleet by name, so patch every alias.
        for module in (vehicle_module, fleet_package, admission_module):
            self._patch(module, "generate_fleet", provision)
        self._method(CampaignEngine, "step", "fleet.engine.step")
        self._method(FleetVehicle, "capture_state", "fleet.vehicle.capture_state")
        self._method(FleetVehicle, "restore_state", "fleet.vehicle.restore_state")
        self._method(MultiChangeController, "request_change",
                     "mcc.controller.request_change")
        self._method(MultiChangeController, "replay_change",
                     "mcc.controller.replay_change")
        self._method(IntegrationProcess, "integrate", "mcc.integration.integrate")
        self._method(IntegrationProcess, "preview_tasksets",
                     "mcc.integration.preview_tasksets")
        self._method(IntegrationProcess, "synthesize_configuration",
                     "mcc.integration.synthesize_configuration")
        self._method(MappingEngine, "map", "mcc.mapping.map")
        for test in (acceptance.TimingAcceptanceTest,
                     acceptance.SafetyAcceptanceTest,
                     acceptance.SecurityAcceptanceTest,
                     acceptance.ResourceAcceptanceTest):
            self._method(test, "run", f"mcc.acceptance.{test.viewpoint}")
        self._method(ContractParser, "parse", "contracts.language.parse")
        self._patch(Contract, "requirement",
                    self.counted("contracts.requirement_calls",
                                 Contract.__dict__["requirement"]))

        def cache_before(cache, *_):
            return cache.hits, cache.misses

        def cache_after(token, _result, cache, *_):
            counts["analysis.cache.hits"] += cache.hits - token[0]
            counts["analysis.cache.misses"] += cache.misses - token[1]

        def lanes_before(cache, tasksets, *_):
            # Every caller in the program passes a list of task sets.
            counts["analysis.cache.analyse_many_lanes"] += len(tasksets)
            return cache.hits, cache.misses

        self._method(AnalysisCache, "analyse", "analysis.cache.analyse",
                     cache_before, cache_after)
        self._method(AnalysisCache, "analyse_many", "analysis.cache.analyse_many",
                     lanes_before, cache_after)

        engine_kinds = set()

        def engine_before(engine, *_):
            stack = self._stack
            if stack and self.kinds[stack[-1]] in engine_kinds:
                return None  # analyze_many calls analyse: count once
            return (engine.tasks_reused + engine.divergences_reused,
                    engine.tasks_analysed)

        def engine_after(token, _result, engine, *_):
            if token is not None:
                counts["analysis.incremental.reused"] += \
                    engine.tasks_reused + engine.divergences_reused - token[0]
                counts["analysis.incremental.analysed"] += \
                    engine.tasks_analysed - token[1]

        for method in ("analyse", "analyze_many"):
            engine_kinds.add(len(self.names))
            self._method(IncrementalResponseTimeAnalysis, method,
                         f"analysis.incremental.{method}",
                         engine_before, engine_after)
        self._method(SafetyAnalysis, "analyse", "analysis.safety.analyse")
        self._method(ThreatModel, "analyse", "analysis.threat.analyse")

        def observed(_token, anomalies, *_):
            counts["monitoring.deviation.deviations"] += bool(anomalies)

        self._method(DeviationDetector, "observe", "monitoring.deviation.observe",
                     after=observed)

    def uninstall(self) -> None:
        """Restore every wrapped entry point."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.kinds)

    def profile(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: (calls, inclusive seconds, self seconds)."""
        kinds, parents, starts, ends = (self.kinds, self.parents, self.starts,
                                        self.ends)
        children = [0.0] * len(kinds)
        for index, parent in enumerate(parents):
            if parent >= 0:
                children[parent] += ends[index] - starts[index]
        calls = [0] * len(self.names)
        inclusive = [0.0] * len(self.names)
        own = [0.0] * len(self.names)
        for index, kind in enumerate(kinds):
            duration = ends[index] - starts[index]
            calls[kind] += 1
            own[kind] += duration - children[index]
            if not self.nested[index]:
                inclusive[kind] += duration
        return {name: (calls[kind], inclusive[kind], own[kind])
                for kind, name in enumerate(self.names)}

    def root_seconds(self) -> float:
        """Summed duration of the spans that have no parent span."""
        return sum(self.ends[index] - self.starts[index]
                   for index, parent in enumerate(self.parents) if parent < 0)

    def calls_under(self, name: str, root: str) -> int:
        """Calls of ``name`` whose outermost ancestor span is ``root``."""
        kinds = self.kinds
        target, top = self.names.index(name), self.names.index(root)
        roots = array("i", kinds)
        count = 0
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                roots[index] = roots[parent]
            if kinds[index] == target and roots[index] == top:
                count += 1
        return count

    def write(self, path: str) -> None:
        """Write every span to ``path`` (NumPy ``.npz``), once, at the end."""
        import numpy

        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        numpy.savez(path, names=numpy.array(self.names),
                    kind=numpy.array(self.kinds, dtype=numpy.int32),
                    parent=numpy.array(self.parents, dtype=numpy.int32),
                    start_s=numpy.array(self.starts, dtype=numpy.float64),
                    end_s=numpy.array(self.ends, dtype=numpy.float64))


class GcMeter:
    """Collector time and full (generation 2) passes while the meter is entered."""

    def __init__(self, clock: Clock) -> None:
        self.clock = clock
        self.seconds = 0.0
        self.full_collections = 0
        self._started = 0.0

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = self.clock()
            return
        self.seconds += self.clock() - self._started
        if info["generation"] == 2:
            self.full_collections += 1

    def __enter__(self) -> "GcMeter":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info) -> None:
        gc.callbacks.remove(self._callback)
