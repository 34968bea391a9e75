"""Memoization of busy-window WCRT analyses.

Acceptance-test sweeps (E9, the in-field update campaigns, the experiment
runner's grids) re-analyse the same per-processor task sets over and over:
every MCC change request re-runs the timing viewpoint on *all* processors,
but typically only one processor's task set actually changed.  The busy-window
fixpoint iteration is the dominant cost, and its result depends only on the
task-set parameters, the processor speed factor and the event models — so it
can be memoized on a *fingerprint* of exactly those inputs.

:class:`AnalysisCache` stores whole task-set analyses keyed on
:func:`taskset_key` (the exact parameter tuple — collision-free and cheap to
build on the hot admission path) with true LRU eviction.
``TimingAcceptanceTest`` accepts an optional cache so MCC sweeps
transparently benefit.

A miss runs a cold :class:`~repro.analysis.cpa.ResponseTimeAnalysis`, unless
the caller hands :meth:`AnalysisCache.analyse` an analyser of its own:
:class:`~repro.analysis.compositional.SystemAnalysis` hands it the
:class:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis` it owns,
because its event-model fixpoint re-analyses near-identical task sets many
times over.

Entries never leave the process that derived them.  Reuse across runs is
sharing: one process-local default cache (:func:`default_cache`) serves the
in-field scenario and the experiment runner, so every run of a sweep
executed in the same worker process benefits from previously derived
analyses, and a campaign re-run warm-starts when it is handed the cache
of the run before.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.analysis.cpa import EventModel, ResponseTimeAnalysis, ResponseTimeResult
from repro.platform.tasks import TaskSet


def taskset_key(taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None) -> Tuple:
    """Exact, hashable identity of everything the WCRT analysis depends on.

    Two task sets with identical (name, period, wcet, deadline, priority,
    jitter) tuples, the same speed factor (compared exactly, not rounded)
    and the same event-model overrides produce the same key regardless of
    insertion order.  The key is the
    parameter tuple itself — dictionary lookups compare it by value, so
    collisions are impossible and no serialization/digest cost is paid on
    the hot admission path.
    """
    overrides = event_models or {}
    parts = tuple(sorted(
        (task.name, task.period, task.wcet, task.deadline,
         task.priority, task.jitter,
         ((override.period, override.jitter) if override is not None
          else (task.period, task.jitter)))
        for task in taskset
        for override in (overrides.get(task.name),)))
    return (speed_factor, parts)


class AnalysisCache:
    """Content-addressed store of task-set WCRT analyses.

    The cache is an LRU mapping fingerprint -> per-task results; it never
    invalidates (fingerprints are content hashes, so a changed task set is a
    different key).  A hit moves the entry to the most-recently-used
    position; when ``max_entries`` is reached the least-recently-used entry
    is evicted, so long sweeps that keep cycling over a working set larger
    than a FIFO window no longer thrash.  ``hits``/``misses``/``evictions``
    counters make cache behaviour observable for tests and benchmark tables.

    A miss runs a cold analysis, or the analyser its caller hands
    :meth:`analyse`; the cache itself keeps no analysis state besides its
    entries.

    Entries live in this process only.  A re-run warm-starts by being
    handed the same cache: content addressing makes the reuse exact.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self._store: "OrderedDict[Tuple, Dict[str, ResponseTimeResult]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional :class:`~repro.observability.tracer.CampaignTracer` this
        #: cache reports lookup events into (set by a campaign engine
        #: to its campaign's tracer while it runs).  Pure observation —
        #: never consulted for any decision.
        self.tracer = None

    def __len__(self) -> int:
        return len(self._store)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups answered from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        self._store.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def analyse(self, taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None,
                analyser: Any = None
                ) -> Dict[str, ResponseTimeResult]:
        """Analyse ``taskset``, reusing a memoized result when available.

        Returns the same mapping task name -> :class:`ResponseTimeResult`
        that :meth:`ResponseTimeAnalysis.analyse` produces.  Callers get a
        fresh dict per call (so adding/removing entries cannot poison later
        hits); the :class:`ResponseTimeResult` values themselves are shared
        and must be treated as read-only.  A miss runs
        ``analyser.analyse(taskset, speed_factor=..., event_models=...)``
        when the caller hands one (an exact analyser, such as an
        :class:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis`,
        so the entry is the same either way), else a cold
        :class:`~repro.analysis.cpa.ResponseTimeAnalysis`.
        """
        key = taskset_key(taskset, speed_factor, event_models)
        cached = self._store.get(key)
        if cached is not None:
            self.hits += 1
            self._store.move_to_end(key)
            if self.tracer is not None:
                self.tracer.emit("cache.analyse", hit=True, tasks=len(taskset))
            return dict(cached)
        self.misses += 1
        if self.tracer is not None:
            self.tracer.emit("cache.analyse", hit=False, tasks=len(taskset))
        if analyser is not None:
            results = analyser.analyse(taskset, speed_factor=speed_factor,
                                       event_models=event_models)
        else:
            results = ResponseTimeAnalysis(taskset, speed_factor,
                                           event_models).analyse()
        if len(self._store) >= self.max_entries:
            self._store.popitem(last=False)
            self.evictions += 1
        self._store[key] = results
        return dict(results)

    def analyse_many(self, tasksets: Iterable[TaskSet], speed_factor: float = 1.0,
                     event_models: Optional[Dict[str, EventModel]] = None
                     ) -> List[Dict[str, ResponseTimeResult]]:
        """Per-task-set :meth:`analyse` calls, results in input order."""
        return [self.analyse(taskset, speed_factor, event_models)
                for taskset in tasksets]

    def schedulable(self, taskset: TaskSet, speed_factor: float = 1.0,
                    event_models: Optional[Dict[str, EventModel]] = None) -> bool:
        """Cached schedulability verdict for the whole task set."""
        return all(result.schedulable
                   for result in self.analyse(taskset, speed_factor, event_models).values())


#: Lazily created process-local cache shared by sweeps that do not manage
#: their own (the in-field scenario, the experiment runner's workers).
_DEFAULT_CACHE: Optional[AnalysisCache] = None


def default_cache() -> AnalysisCache:
    """The process-local default :class:`AnalysisCache`.

    Results are content-addressed, so sharing one cache across independent
    campaigns/runs cannot change any verdict — it only removes repeated
    busy-window derivations.  Each worker of a multiprocessing sweep gets its
    own instance (module state is per process), keeping the serial/parallel
    byte-identical-records guarantee intact.
    """
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = AnalysisCache()
    return _DEFAULT_CACHE

