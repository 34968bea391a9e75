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
build on the hot admission path; :func:`fingerprint_taskset` offers a hex
digest of the same identity for logs and records) with true LRU eviction;
:class:`CachedResponseTimeAnalysis` is a drop-in façade over
:class:`~repro.analysis.cpa.ResponseTimeAnalysis` that consults a cache
before iterating.  ``TimingAcceptanceTest`` accepts an optional cache so MCC
sweeps transparently benefit.

Cache misses are computed by an
:class:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis` engine:
a miss on a task set that *almost* matches a recently analysed one (the
dominant change-campaign workload) is answered by delta re-analysis —
unchanged higher-priority tasks are reused and re-analysed fixpoints are
warm-started — instead of a from-scratch busy-window derivation.

One process-local default cache (:func:`default_cache`) is shared by the
in-field scenario and the experiment runner, so every run of a sweep
executed in the same worker process benefits from previously derived
analyses.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.cpa import EventModel, ResponseTimeAnalysis, ResponseTimeResult
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.platform.tasks import TaskSet

logger = logging.getLogger(__name__)


class SnapshotError(ValueError):
    """A cache snapshot exists but cannot be read (corrupt or foreign).

    Deliberately distinct from a *missing* snapshot: a missing file is the
    normal cold-start case (``missing_ok=True`` covers it), while a corrupt
    one means previously persisted analyses are being silently lost — that
    must surface loudly unless the caller explicitly opts into
    ``repair=True``.
    """


def taskset_key(taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None) -> Tuple:
    """Exact, hashable identity of everything the WCRT analysis depends on.

    Two task sets with identical (name, period, wcet, deadline, priority,
    jitter) tuples, the same speed factor and the same event-model overrides
    produce the same key regardless of insertion order.  The key is the
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
    return (round(speed_factor, 12), parts)


def fingerprint_taskset(taskset: TaskSet, speed_factor: float = 1.0,
                        event_models: Optional[Dict[str, EventModel]] = None) -> str:
    """Stable hex fingerprint of a task-set analysis input (see
    :func:`taskset_key`); useful for logs, records and cross-process
    comparison, where a compact string beats a nested tuple."""
    text = repr(taskset_key(taskset, speed_factor, event_models)).encode("utf-8")
    return hashlib.sha256(text).hexdigest()


class AnalysisCache:
    """Content-addressed store of task-set WCRT analyses.

    The cache is an LRU mapping fingerprint -> per-task results; it never
    invalidates (fingerprints are content hashes, so a changed task set is a
    different key).  A hit moves the entry to the most-recently-used
    position; when ``max_entries`` is reached the least-recently-used entry
    is evicted, so long sweeps that keep cycling over a working set larger
    than a FIFO window no longer thrash.  ``hits``/``misses``/``evictions``
    counters make cache behaviour observable for tests and benchmark tables.

    Misses are delegated to an incremental engine (shared across all
    entries), so even the *first* analysis of a mutated task set reuses the
    unchanged part of its predecessor.

    Because entries are content-addressed they are also *portable*:
    :meth:`save_snapshot` / :meth:`load_snapshot` persist them across
    processes and runs (a campaign's ``cache_path`` warm-starts its re-runs
    this way), and :meth:`export_entries` / :meth:`merge_entries` move them
    between live caches.
    """

    def __init__(self, max_entries: int = 4096,
                 engine: Optional[IncrementalResponseTimeAnalysis] = None) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.engine = engine if engine is not None else IncrementalResponseTimeAnalysis()
        self._store: "OrderedDict[Tuple, Dict[str, ResponseTimeResult]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional :class:`~repro.observability.tracer.CampaignTracer` this
        #: cache reports lookup/merge events into (set by a campaign engine
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
        """Drop all entries (including the engine's delta history) and reset
        the counters."""
        self._store.clear()
        self.engine.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def analyse(self, taskset: TaskSet, speed_factor: float = 1.0,
                event_models: Optional[Dict[str, EventModel]] = None
                ) -> Dict[str, ResponseTimeResult]:
        """Analyse ``taskset``, reusing a memoized result when available.

        Returns the same mapping task name -> :class:`ResponseTimeResult`
        that :meth:`ResponseTimeAnalysis.analyse` produces.  Callers get a
        fresh dict per call (so adding/removing entries cannot poison later
        hits); the :class:`ResponseTimeResult` values themselves are shared
        and must be treated as read-only.
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
        results = self.engine.analyse(taskset, speed_factor=speed_factor,
                                      event_models=event_models)
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

    # -- cross-process / cross-run persistence -----------------------------
    #
    # Entries are content-addressed on :func:`taskset_key`, so a snapshot is
    # valid in any process and at any later time: a key either describes the
    # exact same analysis input (same memoized result) or it will simply
    # never be looked up.  Snapshots carry *entries only* — counters and the
    # incremental engine's delta history are execution state, not content.

    _SNAPSHOT_FORMAT = 1

    def export_entries(self) -> List[Tuple[Tuple, Dict[str, ResponseTimeResult]]]:
        """The stored entries as ``(taskset_key, results)`` pairs in LRU
        order (least recently used first)."""
        return [(key, dict(results)) for key, results in self._store.items()]

    def merge_entries(self, entries: Iterable[Tuple[Tuple, Dict[str, ResponseTimeResult]]]
                      ) -> int:
        """Absorb externally computed entries (e.g. a loaded snapshot's).

        Already-present keys keep their stored results (content-addressing
        makes both sides identical anyway) but are refreshed to
        most-recently-used; new keys are inserted subject to the LRU bound.
        Merging is not a lookup: ``hits``/``misses`` are untouched, only
        ``evictions`` can grow.  Returns the number of *new* keys inserted.
        """
        inserted = 0
        for key, results in entries:
            if key in self._store:
                self._store.move_to_end(key)
                continue
            if len(self._store) >= self.max_entries:
                self._store.popitem(last=False)
                self.evictions += 1
            self._store[key] = dict(results)
            inserted += 1
        if self.tracer is not None:
            self.tracer.emit("cache.merge", absorbed=inserted)
        return inserted

    def save_snapshot(self, path: str) -> int:
        """Persist the current entries to ``path`` (atomic replace).

        The snapshot is a pickle of the content-addressed entries; loading
        it can never change a verdict, only skip busy-window derivations.
        Returns the number of entries written.
        """
        entries = self.export_entries()
        payload = {"format": self._SNAPSHOT_FORMAT, "entries": entries}
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(payload, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_path, path)
        except BaseException:
            if os.path.exists(temp_path):
                os.unlink(temp_path)
            raise
        return len(entries)

    def load_snapshot(self, path: str, missing_ok: bool = False,
                      repair: bool = False) -> int:
        """Merge a persisted :meth:`save_snapshot` file into this cache.

        Loaded entries warm-start later lookups exactly like
        :meth:`merge_entries` (no hit/miss accounting, LRU bound respected).
        Returns the number of new entries absorbed.

        *Missing* and *corrupt* are different situations and are treated
        differently: with ``missing_ok`` a missing path is the normal
        cold-start (0 entries, no error), but a snapshot that exists and
        fails to parse raises :class:`SnapshotError` — silently treating it
        as empty would throw persisted analyses away without a trace.
        ``repair=True`` is the explicit escape hatch: a damaged snapshot is
        skipped with a logged warning and the cache starts empty.
        """
        if not os.path.exists(path):
            if missing_ok:
                return 0
            raise FileNotFoundError(f"no cache snapshot at {path!r}")
        try:
            with open(path, "rb") as stream:
                payload = pickle.load(stream)
        except Exception as exc:
            if repair:
                logger.warning("cache snapshot %r is corrupt (%s: %s) — "
                               "repair skipped 1 snapshot, warm-starting "
                               "empty", path, type(exc).__name__, exc)
                return 0
            raise SnapshotError(
                f"cache snapshot {path!r} exists but cannot be unpickled "
                f"({type(exc).__name__}: {exc}); a missing snapshot would "
                "be fine, a corrupt one is not — pass repair=True to "
                "discard it deliberately") from exc
        if not isinstance(payload, dict) \
                or payload.get("format") != self._SNAPSHOT_FORMAT:
            if repair:
                logger.warning("cache snapshot %r has a foreign format — "
                               "repair skipped 1 snapshot, warm-starting "
                               "empty", path)
                return 0
            raise SnapshotError(f"{path!r} is not an AnalysisCache snapshot")
        return self.merge_entries(payload["entries"])


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


class CachedResponseTimeAnalysis:
    """Drop-in replacement for :class:`ResponseTimeAnalysis` backed by a cache.

    Only the whole-task-set entry points (:meth:`analyse`,
    :meth:`schedulable`, :meth:`utilization`) are offered — single-task
    queries go through :meth:`analyse` so one fixpoint computation serves
    every task of the set.
    """

    def __init__(self, taskset: TaskSet, cache: AnalysisCache,
                 speed_factor: float = 1.0,
                 event_models: Optional[Dict[str, EventModel]] = None) -> None:
        self.taskset = taskset
        self.cache = cache
        self.speed_factor = speed_factor
        self._event_models = dict(event_models or {})

    def analyse(self) -> Dict[str, ResponseTimeResult]:
        """Per-task WCRT results (memoized)."""
        return self.cache.analyse(self.taskset, self.speed_factor, self._event_models)

    def response_time(self, task_name: str) -> ResponseTimeResult:
        """Memoized WCRT result of one task of the set."""
        return self.analyse()[task_name]

    def schedulable(self) -> bool:
        """Whether every task meets its deadline (memoized)."""
        return all(result.schedulable for result in self.analyse().values())

    def utilization(self) -> float:
        """Speed-adjusted utilization (cheap; computed directly)."""
        return ResponseTimeAnalysis(self.taskset,
                                    speed_factor=self.speed_factor).utilization()
