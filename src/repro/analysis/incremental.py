"""Incremental busy-window WCRT analysis for high-throughput acceptance sweeps.

The MCC's dominant analysis workload is *not* a stream of unrelated task
sets: every in-field change request re-analyses per-processor task sets that
differ from the previously analysed ones in a single task (one component was
added, removed, or had its WCET refined), and acceptance sweeps walk grids
of single-parameter mutations.  The plain
:class:`~repro.analysis.cpa.ResponseTimeAnalysis` re-derives every busy
window from scratch on each of these near-identical inputs; the
:class:`AnalysisCache` added in PR 1 only helps when a task set is *exactly*
identical to a previously analysed one.

:class:`IncrementalResponseTimeAnalysis` closes that gap with three exact
(bit-identical) optimisations:

1. **Priority-delta pruning.**  The busy window of a task depends only on
   the task itself and its strictly higher-priority interferers.  When a
   task set differs from a previously analysed one, every unchanged task
   whose priority is at or above all changed/added/removed tasks is provably
   unaffected, and its previous :class:`ResponseTimeResult` is reused as-is.

2. **Warm-started fixpoints.**  Re-analysed tasks seed each job's fixpoint
   iteration with the previous completion time instead of the WCET — but
   only when the previous fixpoint is a guaranteed *lower bound* on the new
   one (own WCET did not shrink and no interferer got lighter).  The
   monotone iteration then converges to the identical least fixpoint in a
   fraction of the steps; when the bound cannot be established the engine
   falls back to a cold start, so results never deviate.

3. **Shared interference memoization.**  The interference term
   ``sum(eta_plus(w) * wcet)`` is a pure function of the higher-priority
   signature and the candidate window.  One :class:`InterferenceMemo` is
   shared across all analyses of the engine (and across a whole
   :meth:`analyze_many` batch), so tasks that share a priority-level prefix
   — within one task set and across the task sets of a sweep grid — skip
   re-deriving identical sums.

The engine is stateful: each :meth:`analyse` call diffs the task set against
a bounded history of recent snapshots (the base sharing the most identical
tasks wins, see :meth:`IncrementalResponseTimeAnalysis._find_base`), so one
engine instance transparently accelerates interleaved sweeps over several
processors.  All reuse decisions are conservative; the produced ``wcrt``/
``schedulable`` verdicts are bit-identical to a full analysis, which the
property tests in ``tests/test_incremental_cpa.py`` enforce over randomized
UUniFast workloads and mutation chains.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.cpa import EventModel, ResponseTimeAnalysis, ResponseTimeResult
from repro.platform.tasks import Task, TaskSet

#: (period, wcet, deadline, priority, jitter, model_period, model_jitter) —
#: everything the busy-window analysis of/around one task depends on.
_TaskParams = Tuple[float, float, Optional[float], int, float, float, float]

_PRIORITY = 3
_WCET = 1
_MODEL_PERIOD = 5
_MODEL_JITTER = 6

#: Most recent snapshots :meth:`IncrementalResponseTimeAnalysis._find_base`
#: scores besides the one over the same task names.
_RECENT_CANDIDATES = 8


class InterferenceMemo(dict):
    """Memo of exact interference sums, keyed ``(signature_id, window)``.

    The higher-priority signature (a tuple of ``(period, jitter, wcet)``
    triples) is interned to a small integer so the hot-loop lookups hash an
    ``(int, float)`` pair instead of a nested float tuple.
    """

    def __init__(self) -> None:
        super().__init__()
        self._signatures: Dict[tuple, int] = {}

    def intern(self, signature: tuple) -> int:
        """Map a higher-priority signature to a stable small integer."""
        key = self._signatures.get(signature)
        if key is None:
            key = len(self._signatures)
            self._signatures[signature] = key
        return key

    def clear(self) -> None:  # noqa: D102 - dict override
        super().clear()
        self._signatures.clear()


class _Snapshot:
    """Per-task parameters and results of one previously analysed task set."""

    __slots__ = ("params", "results")

    def __init__(self, params: Dict[str, _TaskParams],
                 results: Dict[str, ResponseTimeResult]) -> None:
        self.params = params
        self.results = results


class IncrementalResponseTimeAnalysis:
    """Stateful, delta-aware drop-in for whole-task-set WCRT analysis.

    Parameters
    ----------
    max_iterations:
        Safety bound forwarded to the underlying fixpoint iteration.
    history_limit:
        Number of recent task-set snapshots kept for delta matching.
    memo_limit:
        Entry bound of the shared interference memo (cleared when exceeded).
    """

    def __init__(self, max_iterations: int = 10_000, history_limit: int = 32,
                 memo_limit: int = 1 << 16) -> None:
        if history_limit <= 0:
            raise ValueError("history_limit must be positive")
        self.max_iterations = max_iterations
        self.history_limit = history_limit
        self.memo_limit = memo_limit
        self._history: "OrderedDict[Tuple[float, frozenset], _Snapshot]" = OrderedDict()
        self._memo = InterferenceMemo()
        #: Observability counters for tests and benchmark tables.
        self.tasks_reused = 0
        self.tasks_warm_started = 0
        self.tasks_cold = 0
        self.divergences_reused = 0
        self.full_analyses = 0
        self.delta_analyses = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def tasks_analysed(self) -> int:
        """Tasks whose busy window was actually (re-)iterated."""
        return self.tasks_warm_started + self.tasks_cold

    @property
    def reuse_rate(self) -> float:
        """Fraction of task results answered without any fixpoint iteration."""
        reused = self.tasks_reused + self.divergences_reused
        total = reused + self.tasks_analysed
        return reused / total if total else 0.0

    def clear(self) -> None:
        """Drop all snapshots/memo entries and reset the counters."""
        self._history.clear()
        self._memo.clear()
        self.tasks_reused = 0
        self.tasks_warm_started = 0
        self.tasks_cold = 0
        self.divergences_reused = 0
        self.full_analyses = 0
        self.delta_analyses = 0

    # -- delta machinery ---------------------------------------------------

    @staticmethod
    def _params_of(taskset: TaskSet,
                   event_models: Optional[Dict[str, EventModel]]) -> Dict[str, _TaskParams]:
        params: Dict[str, _TaskParams] = {}
        overrides = event_models or {}
        for task in taskset:
            model = overrides.get(task.name)
            model_period = model.period if model is not None else task.period
            model_jitter = model.jitter if model is not None else task.jitter
            params[task.name] = (task.period, task.wcet, task.deadline,
                                 task.priority, task.jitter,
                                 model_period, model_jitter)
        return params

    def _find_base(self, speed_factor: float,
                   params: Dict[str, _TaskParams]) -> Optional[_Snapshot]:
        """The snapshot (same speed factor) to delta ``params`` against.

        Candidates are the snapshot over exactly these task names and the
        ``_RECENT_CANDIDATES`` most recent snapshots; the one sharing the
        most identically parameterised tasks wins, earlier candidates on a
        tie.  A snapshot over the same names can belong to an unrelated set
        (another vehicle's build of the same components), while the set this
        one grew from shares all but its delta.  Without any identical task,
        the exact-name snapshot wins, else the most recent snapshot with
        maximal name overlap.
        """
        exact = self._history.get((speed_factor, frozenset(params)))
        candidates = [exact] if exact is not None else []
        for (snap_speed, _), snapshot in islice(reversed(self._history.items()),
                                                _RECENT_CANDIDATES):
            if snap_speed == speed_factor and snapshot is not exact:
                candidates.append(snapshot)
        best, best_shared = exact, 0
        items = params.items()
        for snapshot in candidates:
            shared = len(items & snapshot.params.items())
            if shared > best_shared:
                best, best_shared = snapshot, shared
        if best is not None:
            return best
        names = params.keys()
        best_overlap = 0
        for (snap_speed, _), snapshot in reversed(self._history.items()):
            if snap_speed != speed_factor:
                continue
            overlap = sum(1 for name in snapshot.params if name in names)
            if overlap > best_overlap:
                best = snapshot
                best_overlap = overlap
        return best

    def _remember(self, speed_factor: float, params: Dict[str, _TaskParams],
                  results: Dict[str, ResponseTimeResult]) -> None:
        key = (speed_factor, frozenset(params))
        self._history.pop(key, None)
        self._history[key] = _Snapshot(dict(params), dict(results))
        while len(self._history) > self.history_limit:
            self._history.popitem(last=False)
        if len(self._memo) > self.memo_limit:
            self._memo.clear()

    @staticmethod
    def _demand_not_decreased(name: str, params: Dict[str, _TaskParams],
                              base_params: Dict[str, _TaskParams]) -> bool:
        """Whether the busy-window demand of ``name`` is pointwise >= the base.

        Sufficient condition: the task's own WCET did not shrink, and every
        previous interferer is still an interferer with a period no longer,
        a jitter no smaller and a WCET no smaller — then the completion
        function only grew pointwise.  Consequences the engine exploits:
        every previous least fixpoint is a valid warm-start seed from below,
        and a previously diverged busy window (same own period/deadline, so
        the same divergence bound) provably diverges again.
        """
        old = base_params.get(name)
        if old is None:
            return False
        new = params[name]
        if new[_WCET] < old[_WCET]:
            return False
        own_priority_old = old[_PRIORITY]
        own_priority_new = new[_PRIORITY]
        for other, other_old in base_params.items():
            if other == name or other_old[_PRIORITY] >= own_priority_old:
                continue
            other_new = params.get(other)
            if other_new is None or other_new[_PRIORITY] >= own_priority_new:
                return False  # a previous interferer disappeared
            if (other_new[_MODEL_PERIOD] > other_old[_MODEL_PERIOD]
                    or other_new[_MODEL_JITTER] < other_old[_MODEL_JITTER]
                    or other_new[_WCET] < other_old[_WCET]):
                return False  # a previous interferer got lighter
        return True

    # -- analysis entry points ---------------------------------------------

    def analyse(self, taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None
                ) -> Dict[str, ResponseTimeResult]:
        """Analyse ``taskset``, reusing/warm-starting against recent history.

        Returns the same mapping task name -> :class:`ResponseTimeResult`
        that :meth:`ResponseTimeAnalysis.analyse` produces, with bit-identical
        ``wcrt``/``schedulable``/``converged`` fields.
        """
        params = self._params_of(taskset, event_models)
        base = self._find_base(speed_factor, params)
        results: Dict[str, ResponseTimeResult] = {}
        if base is None:
            self.full_analyses += 1
            analysis = ResponseTimeAnalysis(taskset, speed_factor=speed_factor,
                                            event_models=event_models,
                                            max_iterations=self.max_iterations,
                                            interference_memo=self._memo)
            for task in taskset:
                results[task.name] = analysis.response_time(task)
                self.tasks_cold += 1
            self._remember(speed_factor, params, results)
            return results

        self.delta_analyses += 1
        base_params = base.params
        base_results = base.results

        # Every priority level that gained, lost or modified a task.  An
        # unchanged task is unaffected iff no changed element has a strictly
        # higher priority (lower number) than it.
        changed_priorities: List[int] = []
        for name, new in params.items():
            old = base_params.get(name)
            if old is None:
                changed_priorities.append(new[_PRIORITY])
            elif old != new:
                changed_priorities.append(new[_PRIORITY])
                changed_priorities.append(old[_PRIORITY])
        for name, old in base_params.items():
            if name not in params:
                changed_priorities.append(old[_PRIORITY])
        threshold = min(changed_priorities) if changed_priorities else None

        analysis: Optional[ResponseTimeAnalysis] = None
        for task in taskset:
            name = task.name
            unchanged = base_params.get(name) == params[name]
            if unchanged and (threshold is None or task.priority <= threshold):
                results[name] = base_results[name]
                self.tasks_reused += 1
                continue
            base_result = base_results.get(name)
            warm: Optional[Tuple[float, ...]] = None
            if base_result is not None and self._demand_not_decreased(
                    name, params, base_params):
                old, new = base_params[name], params[name]
                own_frame_unchanged = (new[0] == old[0] and new[2] == old[2]
                                       and new[4] == old[4] and new[5] == old[5]
                                       and new[6] == old[6])
                if not base_result.converged and own_frame_unchanged:
                    # The base busy window already exceeded the divergence
                    # bound; the bound and the window-closing condition (own
                    # period/deadline/jitter) are unchanged and demand only
                    # grew, so every new completion dominates the old one and
                    # the window diverges again.  Carry the verdict over.
                    results[name] = base_result
                    self.divergences_reused += 1
                    continue
                if base_result.converged and base_result.completions:
                    warm = base_result.completions
            if analysis is None:
                analysis = ResponseTimeAnalysis(taskset, speed_factor=speed_factor,
                                                event_models=event_models,
                                                max_iterations=self.max_iterations,
                                                interference_memo=self._memo)
            results[name] = analysis.response_time(task, warm_start=warm)
            if warm is not None:
                self.tasks_warm_started += 1
            else:
                self.tasks_cold += 1
        self._remember(speed_factor, params, results)
        return results

    def analyze_many(self, tasksets: Iterable[TaskSet], speed_factor: float = 1.0,
                     event_models: Optional[Dict[str, EventModel]] = None
                     ) -> List[Dict[str, ResponseTimeResult]]:
        """Batched analysis of a sweep grid.

        The task sets share the engine's snapshot history and interference
        memo, so grids of single-task mutations (the E9/in-field acceptance
        sweeps) are answered mostly from reused results and warm-started
        fixpoints.  Results are bit-identical to per-set :meth:`analyse`
        calls and are returned in input order.
        """
        return [self.analyse(taskset, speed_factor=speed_factor,
                             event_models=event_models) for taskset in tasksets]

    #: British-spelling alias, matching the rest of the code base.
    analyse_many = analyze_many

    def schedulable(self, taskset: TaskSet, speed_factor: float = 1.0,
                    event_models: Optional[Dict[str, EventModel]] = None) -> bool:
        """Whole-task-set schedulability verdict (incremental)."""
        return all(result.schedulable
                   for result in self.analyse(taskset, speed_factor,
                                              event_models).values())

    def response_time(self, taskset: TaskSet, task: Task,
                      speed_factor: float = 1.0) -> ResponseTimeResult:
        """Single-task query; the whole set is analysed so the snapshot stays
        complete for later deltas."""
        return self.analyse(taskset, speed_factor=speed_factor)[task.name]
