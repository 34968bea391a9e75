"""Fold campaign results and traces into the metric substrate.

The seed's :class:`~repro.monitoring.metrics.MetricRegistry` is the paper's
aggregation point: "metrics from different layers can be aggregated to a
consistent self-representation of the system" (Section V).  This module is
the campaign-side feeder — it turns the raw observability outputs
(wave records and :class:`~repro.observability.tracer.CampaignTracer`
events) into registry samples, so fleet-level
rollout health reads through the exact same substrate as the in-vehicle
monitors.

The registry's sample *time* axis is the wave index: it is monotonic,
survives deterministic traces (which carry no wall
clock), and makes per-wave trends directly comparable across runs.

This module never imports the campaign engine — it consumes plain dicts
and duck-typed result objects, which keeps it import-safe from within the
``repro.observability`` package that the engine itself loads.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Optional

from repro.monitoring.metrics import MetricRegistry

#: Registry sources fed by :func:`campaign_metric_registry`.
WAVE_SOURCE = "campaign.waves"
ADMISSION_SOURCE = "campaign.admission"

#: Registry source fed by :func:`service_metric_registry` — the admission
#: service's global step axis (per-job series use ``service.job/<id>``).
SERVICE_SOURCE = "service.steps"

#: Per-wave counters folded from the service's streamed progress records.
SERVICE_METRICS = ("size", "admitted", "rejected", "deviating",
                   "rolled_back", "failure_rate")

#: Per-wave counters folded from wave records into :data:`WAVE_SOURCE`.
WAVE_METRICS = ("size", "admitted", "rejected", "deviating", "refined",
                "rolled_back", "undelivered", "retried", "abandoned",
                "discounted", "failure_rate")


def _wave_of(event: Dict[str, Any]) -> Optional[int]:
    wave = event.get("wave")
    return int(wave) if isinstance(wave, (int, float)) else None


def wave_latencies(events: Iterable[Dict[str, Any]]) -> Dict[int, float]:
    """Per-wave admission latency (seconds) from tracer events.

    Primary source is the parent-side wall clock: ``t_s`` of each wave's
    ``wave.begin``/``wave.end`` pair.  A deterministic trace carries no
    wall clock at all, so such traces yield an empty mapping — latency is
    exactly the kind of field determinism trades away.
    """
    begins: Dict[int, float] = {}
    latencies: Dict[int, float] = {}
    for event in events:
        wave = _wave_of(event)
        if wave is None or "t_s" not in event:
            continue
        if event.get("event") == "wave.begin":
            begins[wave] = float(event["t_s"])
        elif event.get("event") == "wave.end" and wave in begins:
            latencies[wave] = float(event["t_s"]) - begins[wave]
    return latencies


def campaign_metric_registry(
        result: Any, events: Optional[Iterable[Dict[str, Any]]] = None,
        registry: Optional[MetricRegistry] = None) -> MetricRegistry:
    """Fold one campaign outcome into a :class:`MetricRegistry`.

    Parameters
    ----------
    result:
        A :class:`~repro.fleet.campaign.CampaignResult` (or any object
        with ``waves`` records; wave records may be objects with
        ``to_dict`` or plain dicts, so round-tripped canonical records
        fold identically).
    events:
        Optional tracer events (``tracer.events`` or
        :func:`~repro.observability.tracer.load_trace` output) — adds the
        per-wave admission latency series when the trace carries a wall
        clock.
    registry:
        Fold into an existing registry instead of a fresh one, aggregating
        several campaigns (sample times must stay monotonic, so fold runs
        of equal wave counts or accept the later run's tail only).
    """
    registry = registry if registry is not None else MetricRegistry()
    waves = list(getattr(result, "waves", None) or [])
    for record in waves:
        row = record.to_dict() if hasattr(record, "to_dict") else dict(record)
        wave = float(row.get("index", 0))
        for metric in WAVE_METRICS:
            if metric in row:
                registry.sample(wave, WAVE_SOURCE, metric, float(row[metric]))
    if events is not None:
        for wave, latency in sorted(wave_latencies(events).items()):
            registry.sample(float(wave), ADMISSION_SOURCE, "latency_s",
                            latency, unit="s")
    return registry


def service_metric_registry(
        progress: Iterable[Any],
        registry: Optional[MetricRegistry] = None) -> MetricRegistry:
    """Fold an admission service's streamed wave progress into a registry.

    ``progress`` is a sequence of
    :class:`~repro.service.schemas.WaveProgress` records (or equivalent
    dicts) in the order the service executed them.  The campaign-level
    folder (:func:`campaign_metric_registry`) anchors its time axis on the
    *wave index* of one campaign; a service interleaves many campaigns one
    engine step at a time, so this folder re-anchors on the **step
    ordinal** — the global scheduling order across all tenants — under
    :data:`SERVICE_SOURCE`.  Each job additionally gets its own
    ``service.job/<job_id>`` series on its campaign-local wave-index axis,
    so per-tenant rollout health stays readable next to the fleet-wide
    interleaving.

    Like the rest of this module the function is duck-typed — it never
    imports the service package.
    """
    registry = registry if registry is not None else MetricRegistry()

    def field_of(record: Any, name: str) -> Any:
        if isinstance(record, dict):
            return record.get(name)
        return getattr(record, name, None)

    for step, record in enumerate(progress):
        for metric in SERVICE_METRICS:
            value = field_of(record, metric)
            if isinstance(value, (int, float)):
                registry.sample(float(step), SERVICE_SOURCE, metric,
                                float(value))
        job_id = field_of(record, "job_id")
        index = field_of(record, "index")
        if job_id is None or not isinstance(index, (int, float)):
            continue
        source = f"service.job/{job_id}"
        for metric in SERVICE_METRICS:
            value = field_of(record, metric)
            if isinstance(value, (int, float)):
                registry.sample(float(index), source, metric, float(value))
    return registry


__all__ = [
    "ADMISSION_SOURCE",
    "SERVICE_METRICS",
    "SERVICE_SOURCE",
    "WAVE_METRICS",
    "WAVE_SOURCE",
    "campaign_metric_registry",
    "service_metric_registry",
    "wave_latencies",
]
