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
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

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
        # Negated comparisons, so that NaN is rejected too.
        if not self.period > 0:
            raise ValueError("event-model period must be positive")
        if not self.jitter >= 0:
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


#: One activation source of a busy window: the event-model period and jitter
#: and the speed-scaled WCET of a task.
_Row = Tuple[float, float, float]


def _busy_window(task: Task, own: _Row, interferers: Sequence[_Row],
                 max_iterations: int,
                 warm: Sequence[float] = ()) -> ResponseTimeResult:
    """The multiple-activation busy-window fixpoint of ``task``.

    ``own`` is the task's own row and ``interferers`` the rows of its
    strictly higher-priority tasks, in task-set order: the interference is
    the builtin ``sum`` over them in that order, so every caller derives
    the same bits (Python 3.12's ``sum`` of floats is compensated, a
    running ``+=`` is not).  ``warm[q - 1]``, when larger than the q-th
    job's own demand, seeds that job's iteration (see
    :meth:`ResponseTimeAnalysis.response_time`).
    """
    period, jitter, wcet = own
    deadline = task.deadline if task.deadline is not None else task.period
    busy_window_limit = max(deadline, task.period) * 64
    ceil = math.ceil
    worst_response = 0.0
    iterations = 0
    completions: List[float] = []
    q = 1
    while True:
        # Fixed-point iteration for the completion time of the q-th job.
        demand = q * wcet
        completion = demand
        if q <= len(warm) and warm[q - 1] > completion:
            completion = warm[q - 1]
        for _ in range(max_iterations):
            new_completion = demand + sum([
                ceil((completion + hp_jitter) / hp_period - _EPS) * hp_wcet
                for hp_period, hp_jitter, hp_wcet in interferers])
            if abs(new_completion - completion) <= _EPS:
                completion = new_completion
                break
            completion = new_completion
            iterations += 1
            if completion > busy_window_limit:
                return ResponseTimeResult(task=task, wcrt=None, converged=False,
                                          schedulable=False,
                                          busy_window=completion,
                                          iterations=iterations)
        # delta_min(q) of the periodic-with-jitter model, inlined.
        release = max(0.0, (q - 1) * period - jitter) if q > 1 else 0.0
        worst_response = max(worst_response, completion - release + jitter)
        completions.append(completion)
        # Stop once the busy window closes before the next activation.
        if completion <= max(0.0, q * period - jitter) + _EPS:
            break
        q += 1
        if q * wcet > busy_window_limit:
            return ResponseTimeResult(task=task, wcrt=None, converged=False,
                                      schedulable=False, busy_window=completion,
                                      iterations=iterations)
    return ResponseTimeResult(task=task, wcrt=worst_response, converged=True,
                              schedulable=worst_response <= deadline + _EPS,
                              busy_window=completion, iterations=iterations,
                              completions=tuple(completions))


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
        if not speed_factor > 0:  # also rejects NaN
            raise ValueError("speed factor must be positive")
        self.taskset = taskset
        self.speed_factor = speed_factor
        self.max_iterations = max_iterations
        self._event_models = dict(event_models or {})

    def _row(self, task: Task) -> _Row:
        """``task``'s event-model period and jitter and scaled WCET."""
        override = self._event_models.get(task.name)
        if override is not None:
            return override.period, override.jitter, task.wcet / self.speed_factor
        return task.period, task.jitter, task.wcet / self.speed_factor

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
        interferers = [self._row(other)
                       for other in self.taskset.higher_priority_than(task)]
        return _busy_window(task, self._row(task), interferers,
                            self.max_iterations, warm_start or ())

    # -- whole task set -----------------------------------------------------------

    def _results(self) -> Iterator[ResponseTimeResult]:
        """Each task's result, in task-set order.

        Every task's row is resolved once per task set, and each task's
        interferer rows are taken from that table in task-set order.
        """
        table = [(task, task.priority, self._row(task)) for task in self.taskset]
        max_iterations = self.max_iterations
        for task, priority, own in table:
            interferers = [row for _, other_priority, row in table
                           if other_priority < priority]
            yield _busy_window(task, own, interferers, max_iterations)

    def analyse(self) -> Dict[str, ResponseTimeResult]:
        """Analyse every task; returns a mapping task name -> result."""
        return {result.task.name: result for result in self._results()}

    def schedulable(self) -> bool:
        """Whether every task meets its deadline.

        Evaluates tasks lazily and stops at the first deadline violation —
        the verdict is identical to analysing every task, but acceptance
        sweeps over overloaded candidates skip the remaining (typically
        divergent, and therefore most expensive) busy windows.
        """
        return all(result.schedulable for result in self._results())

    def utilization(self) -> float:
        return sum(t.wcet / self.speed_factor / t.period for t in self.taskset)


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
