"""Structured event tracing for fleet update campaigns.

:class:`CampaignTracer` is a structured event sink: every call to
:meth:`~CampaignTracer.emit` appends one flat JSON-serializable event with a
process-wide monotonic sequence number, an optional monotonic wall-clock
offset, and whatever wave/vehicle context the call site carries.  The
campaign engine (:class:`~repro.fleet.campaign.Campaign`), the adversity
seams and the analysis cache all report into one tracer, so a single JSONL
file tells the whole story of a rollout — which wave staged whom, which
deliveries dropped, which admissions replayed a precedent and which ran a
full integration, and where the cache hit.

Design constraints, in order:

* **Zero overhead when disabled.**  Tracing is off by default
  (``Campaign(tracer=None)``); every instrumentation site is a plain
  ``if tracer is not None`` guard around an attribute access, so an
  untraced campaign executes exactly the pre-tracing code path.
* **Read-only.**  The tracer observes; it never feeds back into any
  decision.  Traced and untraced campaigns produce field-for-field
  identical :class:`~repro.fleet.campaign.CampaignResult` records (pinned
  by ``tests/test_observability.py``).
* **Deterministic mode.**  ``deterministic=True`` suppresses every
  wall-clock-derived field (:data:`WALL_CLOCK_FIELDS`: the timestamp), so
  a trace becomes a pure function of the campaign parameters — two runs of
  the same campaign write byte-identical trace files.

Events are buffered in memory and written on :meth:`flush`/:meth:`close`
(the campaign flushes once per run); an enabled tracer therefore costs one
dict per event plus a single file write, which the E10 overhead benchmark
pins below 5% of campaign wall time.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

#: Event fields derived from wall clocks — everything a deterministic trace
#: must not contain.  ``emit`` omits these in deterministic mode; the
#: metrics bridge treats them as optional.
WALL_CLOCK_FIELDS = frozenset({"t_s"})


class TraceError(ValueError):
    """Raised for invalid tracer configuration or unreadable trace files."""


class CampaignTracer:
    """A buffered, single-writer structured event sink.

    Parameters
    ----------
    path:
        Optional JSONL destination.  Events are buffered in memory and
        written by :meth:`flush` (and :meth:`close`, which the campaign
        calls at run end); ``None`` keeps the trace purely in memory.
    deterministic:
        Suppress the wall-clock fields (:data:`WALL_CLOCK_FIELDS`) so the
        trace is a pure function of the traced computation.
    keep_events:
        Retain emitted events on :attr:`events` after a flush.  Defaults to
        ``True`` so in-process consumers (the metrics bridge, tests) can
        read the trace without re-parsing the file; long-running services
        streaming to disk can turn it off to bound memory.
    """

    def __init__(self, path: Optional[str] = None, deterministic: bool = False,
                 keep_events: bool = True) -> None:
        self.path = path
        self.deterministic = deterministic
        self.keep_events = keep_events
        #: Every event emitted so far (when ``keep_events``), oldest first.
        self.events: List[Dict[str, Any]] = []
        self._pending: List[Dict[str, Any]] = []
        self._seq = 0
        self._origin = time.perf_counter()
        self._started_stream = False

    # -- emission ----------------------------------------------------------

    def emit(self, event: str, wave: Optional[int] = None,
             vehicle: Optional[str] = None,
             **fields: Any) -> Dict[str, Any]:
        """Record one event and return the stored record.

        ``event`` names the span (dotted taxonomy, e.g. ``"wave.end"`` —
        see ``docs/OBSERVABILITY.md``); ``wave``/``vehicle`` are the
        standard context keys and further keyword fields travel
        verbatim.  Outside deterministic mode every event also carries
        ``t_s`` (monotonic seconds since the tracer was created).
        """
        record: Dict[str, Any] = {"seq": self._seq, "event": event}
        self._seq += 1
        if not self.deterministic:
            record["t_s"] = time.perf_counter() - self._origin
        if wave is not None:
            record["wave"] = wave
        if vehicle is not None:
            record["vehicle"] = vehicle
        record.update(fields)
        self._store(record)
        return record

    def _store(self, record: Dict[str, Any]) -> None:
        if self.keep_events:
            self.events.append(record)
        if self.path is not None:
            self._pending.append(record)

    # -- persistence -------------------------------------------------------

    def flush(self) -> int:
        """Append all buffered events to :attr:`path`; returns the count.

        The first flush truncates a pre-existing file (one trace per tracer
        lifetime); later flushes append, so periodic flushing streams.  A
        pathless tracer flushes to nowhere and returns 0.
        """
        if self.path is None or not self._pending:
            return 0
        mode = "a" if self._started_stream else "w"
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, mode, encoding="utf-8") as handle:
            for record in self._pending:
                handle.write(json.dumps(record, sort_keys=True))
                handle.write("\n")
        self._started_stream = True
        flushed = len(self._pending)
        self._pending = []
        return flushed

    def close(self) -> None:
        """Flush any buffered events (idempotent)."""
        self.flush()

    def __enter__(self) -> "CampaignTracer":
        return self

    def __exit__(self, *_exc: Any) -> None:
        self.close()

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return self._seq

    def select(self, event: str) -> List[Dict[str, Any]]:
        """Retained events with exactly this event name (emission order)."""
        return [record for record in self.events if record["event"] == event]


def load_trace(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace written by :class:`CampaignTracer`.

    Raises :class:`TraceError` on unparseable lines or non-object records —
    a trace is written by exactly one process in one format, so damage
    means the file is not a trace (unlike the accumulate-forever benchmark
    records directory, where foreign files are expected and skipped).
    """
    events: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise TraceError(
                        f"{path}:{number}: unparseable trace line ({exc})"
                    ) from exc
                if not isinstance(record, dict) or "event" not in record:
                    raise TraceError(
                        f"{path}:{number}: not a trace event record")
                events.append(record)
    except OSError as exc:
        raise TraceError(f"cannot read trace {path!r}: {exc}") from exc
    return events


__all__ = ["CampaignTracer", "TraceError", "WALL_CLOCK_FIELDS", "load_trace"]
