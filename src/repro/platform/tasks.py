"""Task model for the execution domain.

Tasks carry the real-time parameters that the contracting language declares
(period, WCET, deadline, jitter) plus a scheduling priority.  ``Job`` objects
are single activations of a task produced by the scheduling simulator; the
``TaskSet`` container offers the utilization/priority helpers used both by
the scheduler and the model-domain WCRT analysis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.contracts.model import RealTimeRequirement


class TaskState(enum.Enum):
    """Lifecycle of a job inside the scheduling simulator."""

    IDLE = "idle"
    READY = "ready"
    RUNNING = "running"
    COMPLETED = "completed"


class TaskError(ValueError):
    """Raised for invalid task parameters or task-set operations."""


@dataclass
class Task:
    """A periodic (or sporadic) real-time task.

    Attributes
    ----------
    name:
        Unique task identifier.
    period:
        Activation period (sporadic: minimum inter-arrival time) in seconds.
    wcet:
        Worst-case execution time in seconds at the nominal operating point.
    deadline:
        Relative deadline; defaults to the period.
    priority:
        Fixed scheduling priority; *lower numbers mean higher priority*.
    jitter:
        Release jitter bound in seconds.
    component:
        Name of the software component this task belongs to (for mapping and
        monitoring purposes).
    criticality:
        Free-form criticality tag (e.g. the ASIL of the owning component).
    """

    name: str
    period: float
    wcet: float
    deadline: Optional[float] = None
    priority: int = 0
    jitter: float = 0.0
    component: Optional[str] = None
    criticality: str = "QM"
    offset: float = 0.0

    def __post_init__(self) -> None:
        # Negated comparisons, so that NaN is rejected too.
        if not self.period > 0:
            raise TaskError(f"task {self.name}: period must be positive")
        if not self.wcet > 0:
            raise TaskError(f"task {self.name}: wcet must be positive")
        if self.deadline is None:
            self.deadline = self.period
        if not self.deadline > 0:
            raise TaskError(f"task {self.name}: deadline must be positive")
        if not (self.jitter >= 0 and self.offset >= 0):
            raise TaskError(f"task {self.name}: jitter and offset must be non-negative")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    @classmethod
    def from_requirement(cls, name: str, requirement: RealTimeRequirement,
                         priority: int = 0, component: Optional[str] = None,
                         criticality: str = "QM") -> "Task":
        """Build a task from a contract's real-time requirement."""
        return cls(name=name, period=requirement.period, wcet=requirement.wcet,
                   deadline=requirement.deadline, jitter=requirement.jitter,
                   priority=priority, component=component, criticality=criticality)

    def scaled(self, wcet_factor: float) -> "Task":
        """Return a copy with the WCET scaled (used for DVFS / degraded
        operating points where execution slows down)."""
        if wcet_factor <= 0:
            raise TaskError("wcet_factor must be positive")
        return Task(name=self.name, period=self.period, wcet=self.wcet * wcet_factor,
                    deadline=self.deadline, priority=self.priority, jitter=self.jitter,
                    component=self.component, criticality=self.criticality, offset=self.offset)


@dataclass
class Job:
    """One activation of a task inside the scheduling simulator."""

    task: Task
    release_time: float
    absolute_deadline: float
    remaining: float
    state: TaskState = TaskState.READY
    start_time: Optional[float] = None
    completion_time: Optional[float] = None
    preemptions: int = 0

    @property
    def response_time(self) -> Optional[float]:
        if self.completion_time is None:
            return None
        return self.completion_time - self.release_time

    @property
    def deadline_missed(self) -> bool:
        if self.completion_time is None:
            return False
        return self.completion_time > self.absolute_deadline + 1e-12


class TaskSet:
    """An ordered collection of tasks bound to one processing resource."""

    def __init__(self, tasks: Optional[List[Task]] = None) -> None:
        self._tasks: Dict[str, Task] = {}
        for task in tasks or []:
            self.add(task)

    def add(self, task: Task) -> None:
        if task.name in self._tasks:
            raise TaskError(f"duplicate task name {task.name!r}")
        self._tasks[task.name] = task

    def remove(self, name: str) -> Task:
        try:
            return self._tasks.pop(name)
        except KeyError as exc:
            raise TaskError(f"unknown task {name!r}") from exc

    def get(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError as exc:
            raise TaskError(f"unknown task {name!r}") from exc

    def __contains__(self, name: str) -> bool:
        return name in self._tasks

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks.values())

    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    @property
    def utilization(self) -> float:
        return sum(task.utilization for task in self._tasks.values())

    def by_priority(self) -> List[Task]:
        """Tasks sorted by priority (highest priority, i.e. lowest number, first)."""
        return sorted(self._tasks.values(), key=lambda t: (t.priority, t.name))

    def higher_priority_than(self, task: Task) -> List[Task]:
        """Strictly higher-priority tasks (tie on priority: not included)."""
        return [t for t in self._tasks.values()
                if t.priority < task.priority and t.name != task.name]

    def assign_rate_monotonic_priorities(self) -> None:
        """Assign priorities in rate-monotonic order (shorter period => higher
        priority); deterministic tie-break by name."""
        ordered = sorted(self._tasks.values(), key=lambda t: (t.period, t.name))
        for index, task in enumerate(ordered):
            task.priority = index

    def assign_deadline_monotonic_priorities(self) -> None:
        """Assign priorities in deadline-monotonic order."""
        ordered = sorted(self._tasks.values(), key=lambda t: (t.deadline, t.name))
        for index, task in enumerate(ordered):
            task.priority = index

    def hyperperiod(self, resolution: float = 1e-6, cap: float = 1e9) -> float:
        """Least common multiple of the task periods on a discrete grid.

        Periods are snapped to ``resolution`` before computing the LCM; the
        result is capped to avoid pathological explosion with co-prime
        periods.
        """
        if not self._tasks:
            return 0.0
        ticks = 1
        for task in self._tasks.values():
            period_ticks = max(1, round(task.period / resolution))
            ticks = ticks * period_ticks // math.gcd(ticks, period_ticks)
            if ticks * resolution > cap:
                return cap
        return ticks * resolution
