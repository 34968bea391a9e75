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

import logging
import os
import pickle
import sys
import tempfile
from collections import OrderedDict
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.cpa import EventModel, ResponseTimeResult
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


#: Builtins a pickle of this package may reference by name.  Most builtin
#: containers (dict, list, tuple, str, numbers) are encoded as dedicated
#: opcodes and never go through ``find_class``; these are the few that do
#: and are harmless to construct.
_SAFE_BUILTINS = frozenset({"bytearray", "complex", "frozenset", "range",
                            "set", "slice"})


class _RestrictedUnpickler(pickle.Unpickler):
    """Allowlist unpickler behind :meth:`AnalysisCache.load_snapshot`.

    The snapshot is read from a caller-supplied path (a JSON experiment
    spec can set a campaign's ``cache_path``).  ``pickle.load`` on an
    untrusted file is arbitrary code execution — a crafted ``__reduce__``
    payload runs *during* load, long before any ``isinstance`` check can
    reject it.  A snapshot this package writes only ever references classes
    the package defines (analysis results and their tasks) plus a handful
    of safe builtins, so everything else is refused at the ``find_class``
    seam — the only place a pickle can name a callable.

    A name is admitted only when it is a plain attribute (no ``.``: a
    protocol-4 pickle resolves dotted names, so ``os.mkdir`` would reach
    ``os`` through any module that imports it) of an already imported
    ``repro`` module and is a class defined in that very module.  Functions
    and re-exported classes are refused, and nothing is imported.
    """

    def find_class(self, module: str, name: str):
        if module == "builtins" and name in _SAFE_BUILTINS:
            return super().find_class(module, name)
        if "." not in name and (module == "repro"
                                or module.startswith("repro.")):
            candidate = getattr(sys.modules.get(module), name, None)
            if isinstance(candidate, type) \
                    and candidate.__module__ == module:
                return candidate
        raise pickle.UnpicklingError(
            f"pickle references forbidden global {module}.{name}")


def _atomic_write(data: bytes, path: str) -> None:
    """Write ``data`` to ``path``, replacing it only once fully written.

    The bytes land in a temp file next to ``path`` that replaces it
    atomically, so a crash mid-write never leaves a truncated file where a
    valid earlier one used to be.  Writes the cache snapshot and every
    campaign checkpoint.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


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
        _atomic_write(pickle.dumps({"format": self._SNAPSHOT_FORMAT,
                                    "entries": entries},
                                   protocol=pickle.HIGHEST_PROTOCOL), path)
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

        The file is unpickled through :class:`_RestrictedUnpickler`, so a
        pickle naming anything but this package's classes and a few safe
        builtins counts as corrupt, and nothing it names runs.  A payload
        that is not the format :meth:`save_snapshot` writes, a list of
        ``(key, results)`` entries, counts as foreign.
        """
        if not os.path.exists(path):
            if missing_ok:
                return 0
            raise FileNotFoundError(f"no cache snapshot at {path!r}")
        try:
            with open(path, "rb") as stream:
                payload = _RestrictedUnpickler(stream).load()
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
        if not self._is_snapshot(payload):
            if repair:
                logger.warning("cache snapshot %r has a foreign format or "
                               "malformed entries — repair skipped 1 "
                               "snapshot, warm-starting empty", path)
                return 0
            raise SnapshotError(
                f"{path!r} is not an AnalysisCache snapshot (format "
                f"{self._SNAPSHOT_FORMAT}, a list of (key, results) entries)")
        return self.merge_entries(payload["entries"])

    @classmethod
    def _is_snapshot(cls, payload: object) -> bool:
        """Whether ``payload`` has the shape :meth:`save_snapshot` writes."""
        if not isinstance(payload, dict) \
                or payload.get("format") != cls._SNAPSHOT_FORMAT:
            return False
        entries = payload.get("entries")
        return isinstance(entries, list) and all(
            isinstance(entry, tuple) and len(entry) == 2
            and isinstance(entry[0], tuple) and isinstance(entry[1], dict)
            and all(isinstance(result, ResponseTimeResult)
                    for result in entry[1].values())
            for entry in entries)


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

