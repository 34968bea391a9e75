"""Campaign observability: structured tracing and dashboards.

The paper's self-aware architecture rests on aggregating "metrics from
different layers ... to a consistent self-representation of the system"
(Section V).  The campaign engine spans many layers by now — the staged
wave loop, the adversity seams and the shared analysis cache — and each
emits its own flat counters.  This package is the read side that folds
them back together:

* :mod:`repro.observability.tracer` — :class:`CampaignTracer`, a
  zero-overhead-when-disabled structured event sink (JSONL spans with
  monotonic timestamps and wave/vehicle context) that the campaign
  engine, the adversity seams and the analysis cache all report into.
* :mod:`repro.observability.dashboard` — a dependency-free static HTML
  fleet dashboard (``python -m repro.experiments report``) rendered from
  campaign records, tracer files and the committed ``BENCH_*.json`` perf
  records.
"""

from repro.observability.tracer import (WALL_CLOCK_FIELDS, CampaignTracer,
                                        TraceError, load_trace)
from repro.observability.dashboard import (flatten_result_documents,
                                           render_dashboard, wave_latencies)

__all__ = [
    "CampaignTracer",
    "TraceError",
    "WALL_CLOCK_FIELDS",
    "flatten_result_documents",
    "load_trace",
    "render_dashboard",
    "wave_latencies",
]
