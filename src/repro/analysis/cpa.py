"""Compositional performance analysis (CPA): worst-case response times.

The paper names "a worst-case response time analysis [that] can check
real-time constraints based on a timing model of the system" as the
archetypal acceptance test of the MCC (Section II.A).  This module implements
the classic busy-window analysis for static-priority preemptive scheduling
with release jitter (Lehoczky / Tindell), plus periodic-with-jitter event
models and a simple end-to-end latency composition over task chains — the
building blocks of CPA as used in the automotive timing-analysis literature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.platform.tasks import Task, TaskSet

_EPS = 1e-12


@dataclass(frozen=True)
class EventModel:
    """Periodic-with-jitter event model.

    ``eta_plus(dt)`` bounds the maximum number of activations in any window
    of length ``dt``; ``delta_min(n)`` bounds the minimum distance between
    ``n`` consecutive activations.
    """

    period: float
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise ValueError("event-model period must be positive")
        if self.jitter < 0:
            raise ValueError("event-model jitter must be non-negative")

    def eta_plus(self, dt: float) -> int:
        """Maximum activations in a half-open window of length ``dt``."""
        if dt <= 0:
            return 0
        return int(math.ceil((dt + self.jitter) / self.period - _EPS))

    def delta_min(self, n: int) -> float:
        """Minimum distance between the first and the n-th activation."""
        if n <= 1:
            return 0.0
        return max(0.0, (n - 1) * self.period - self.jitter)

    @classmethod
    def from_task(cls, task: Task) -> "EventModel":
        return cls(period=task.period, jitter=task.jitter)

    def with_jitter(self, jitter: float) -> "EventModel":
        return EventModel(period=self.period, jitter=jitter)


@dataclass
class ResponseTimeResult:
    """Result of the WCRT analysis for one task."""

    task: Task
    wcrt: Optional[float]
    converged: bool
    schedulable: bool
    busy_window: float = 0.0
    iterations: int = 0
    #: Per-activation busy-window completion times (the fixpoints of jobs
    #: q = 1..Q).  Excluded from equality: warm-started re-analyses reproduce
    #: the same fixpoints but may record fewer of them on divergent tasks.
    completions: Tuple[float, ...] = field(default=(), compare=False)

    @property
    def slack(self) -> Optional[float]:
        if self.wcrt is None or self.task.deadline is None:
            return None
        return self.task.deadline - self.wcrt


class ResponseTimeAnalysis:
    """Busy-window WCRT analysis for static-priority preemptive scheduling.

    Parameters
    ----------
    taskset:
        Tasks sharing one processing resource.  Lower priority number means
        higher priority.
    speed_factor:
        Processor speed relative to nominal; WCETs are divided by it, which
        is how the analysis is re-run for throttled operating points.
    max_iterations:
        Safety bound on the fixed-point iteration.
    """

    def __init__(self, taskset: TaskSet, speed_factor: float = 1.0,
                 event_models: Optional[Dict[str, EventModel]] = None,
                 max_iterations: int = 10_000) -> None:
        if speed_factor <= 0:
            raise ValueError("speed factor must be positive")
        self.taskset = taskset
        self.speed_factor = speed_factor
        self.max_iterations = max_iterations
        self._event_models = dict(event_models or {})

    def _wcet(self, task: Task) -> float:
        return task.wcet / self.speed_factor

    def _event_model(self, task: Task) -> EventModel:
        return self._event_models.get(task.name, EventModel.from_task(task))

    # -- single-task analysis --------------------------------------------------

    def response_time(self, task: Task,
                      warm_start: Optional[Sequence[float]] = None) -> ResponseTimeResult:
        """Compute the worst-case response time of ``task``.

        Uses the multiple-activation busy-window formulation so it remains
        correct when the WCRT exceeds the period (needed to detect overload
        created by throttling).

        ``warm_start`` optionally seeds the fixpoint iteration of job ``q``
        with a previously computed completion time (``warm_start[q - 1]``).
        The caller must guarantee every seed is a *lower bound* on the new
        least fixpoint (e.g. the previous fixpoint when interference only
        grew); the monotone iteration then converges to the identical least
        fixpoint in fewer steps, so results are bit-identical to a cold
        start.
        """
        if task.name not in self.taskset:
            raise ValueError(f"task {task.name!r} is not part of the analysed task set")
        higher = self.taskset.higher_priority_than(task)
        overrides = self._event_models
        own_override = overrides.get(task.name)
        own_period = own_override.period if own_override is not None else task.period
        own_jitter = own_override.jitter if own_override is not None else task.jitter
        speed = self.speed_factor
        wcet = task.wcet / speed
        deadline = task.deadline if task.deadline is not None else task.period

        # Hot path: the fixpoint below evaluates the interference sum once
        # per iteration.  Pre-resolve each higher-priority task's event-model
        # period/jitter and speed-scaled WCET so the loop touches plain
        # floats instead of constructing EventModel objects per term (the
        # dominant cost of the original formulation).  Summation order
        # matches ``higher``.
        hp_params = []
        for t in higher:
            override = overrides.get(t.name)
            if override is not None:
                hp_params.append((override.period, override.jitter, t.wcet / speed))
            else:
                hp_params.append((t.period, t.jitter, t.wcet / speed))
        ceil = math.ceil

        busy_window_limit = max(deadline, task.period) * 64
        warm = warm_start or ()

        worst_response: float = 0.0
        iterations_total = 0
        q = 1
        busy_window = 0.0
        completions: List[float] = []
        while True:
            # Fixed-point iteration for the completion time of the q-th job.
            completion = q * wcet
            if q <= len(warm) and warm[q - 1] > completion:
                completion = warm[q - 1]
            for _ in range(self.max_iterations):
                interference = sum(
                    int(ceil((completion + jitter) / period - _EPS)) * hp_wcet
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
            # delta_min(q) of the periodic-with-jitter model, inlined.
            release = max(0.0, (q - 1) * own_period - own_jitter) if q > 1 else 0.0
            response = completion - release + own_jitter
            worst_response = max(worst_response, response)
            busy_window = completion
            completions.append(completion)
            # Stop once the busy window closes before the next activation.
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

    # -- whole task set -----------------------------------------------------------

    def analyse(self) -> Dict[str, ResponseTimeResult]:
        """Analyse every task; returns a mapping task name -> result."""
        return {task.name: self.response_time(task) for task in self.taskset}

    def schedulable(self) -> bool:
        """Whether every task meets its deadline.

        Evaluates tasks lazily and stops at the first deadline violation —
        the verdict is identical to analysing every task, but acceptance
        sweeps over overloaded candidates skip the remaining (typically
        divergent, and therefore most expensive) busy windows.
        """
        return all(self.response_time(task).schedulable for task in self.taskset)

    def utilization(self) -> float:
        return sum(self._wcet(t) / t.period for t in self.taskset)


@dataclass
class EndToEndPath:
    """A cause-effect chain of tasks spanning one or more resources."""

    name: str
    tasks: List[Task] = field(default_factory=list)
    communication_delays: List[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.tasks:
            # An empty chain has no latency to bound; silently reporting 0.0
            # (and therefore "schedulable") hid configuration errors.
            raise ValueError(f"path {self.name!r}: task chain must not be empty")
        if self.communication_delays and len(self.communication_delays) != len(self.tasks) - 1:
            raise ValueError("need exactly one communication delay per hop")


def end_to_end_latency(path: EndToEndPath,
                       results_per_resource: Sequence[Dict[str, ResponseTimeResult]]) -> Optional[float]:
    """Compose a worst-case end-to-end latency along a task chain.

    Uses the simple (pessimistic) summation of per-task WCRTs plus
    caller-supplied communication delays, which corresponds to an
    asynchronous register-sampling chain.  Returns ``None`` if any hop is
    unschedulable.

    This helper is kept as the *pessimistic fallback* for chains whose
    resources were analysed in isolation.  For distributed chains, prefer
    the jitter-aware bound of
    :meth:`repro.analysis.compositional.SystemAnalysisResult.chain_latency`:
    it derives the communication hop from the CAN response-time analysis
    instead of a constant and does not re-pay the upstream jitter at every
    hop, so it is never larger than this summation.
    """
    total = 0.0
    for index, task in enumerate(path.tasks):
        result: Optional[ResponseTimeResult] = None
        for results in results_per_resource:
            if task.name in results:
                result = results[task.name]
                break
        if result is None or result.wcrt is None:
            return None
        total += result.wcrt
        if index < len(path.tasks) - 1 and path.communication_delays:
            total += path.communication_delays[index]
    return total
