"""Measured runs of one workload: end-to-end metrics, or the traced breakdown.

Every run takes a fixed number of the workload's units, set by ``--seconds``
alone, so a run's work and its counts depend on its arguments only.  An
untraced run (``trace=False``) times set-up in fresh processes, takes
:func:`unit_count` units, checks the verdicts and returns the end-to-end
metrics.  A traced run takes a smaller fixed number of units: first untraced
(the baseline for the tracing overhead, plus the loop-lag, heavy-tenant and
GC figures), then the same units again with spans.  It returns the per-layer
metrics and prints the per-layer table on the way.

Every time is CPU time at the reference speed of :mod:`perfbench.speed`:
each unit's CPU times are scaled by the reference loop timed next to it.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench import workloads
from perfbench.spans import GcMeter, Spans
from perfbench.workloads import CLOCK, Batch, Op, Scale

#: Units a run takes per second of ``--seconds``.  A campaign or a round
#: takes about 0.15 CPU seconds on the 2-core machine the benchmark was
#: written on, so a run measures for about ``--seconds`` there.
UNITS_PER_SECOND = 6

#: End-to-end metrics (untraced runs) and their units.
END_TO_END = {
    "setup_s": "s",
    "first_wave_p50_ms": "ms",
    "first_wave_p90_ms": "ms",
    "completion_p50_ms": "ms",
    "completion_p90_ms": "ms",
    "vehicles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced runs) and their units.  Times are per
#: operation and, except the two inclusive ones marked in README.md, self
#: times; counts are per operation unless their name says otherwise.
PER_LAYER = {
    "fleet.vehicle.provision_ms": "ms",
    "fleet.vehicle.integrations_per_vehicle": "count",
    "fleet.engine.step_ms": "ms",
    "fleet.engine.waves": "count",
    "fleet.engine.halts": "count",
    "fleet.engine.replay_ratio": "ratio",
    "fleet.engine.state_io_ms": "ms",
    "mcc.controller.request_change_calls": "count",
    "mcc.controller.replay_change_calls": "count",
    "mcc.integration.integrate_ms": "ms",
    "mcc.integration.preview_ms": "ms",
    "mcc.integration.synthesize_ms": "ms",
    "mcc.mapping.map_ms": "ms",
    "mcc.mapping.map_calls": "count",
    "mcc.acceptance.timing_ms": "ms",
    "mcc.acceptance.safety_ms": "ms",
    "mcc.acceptance.security_ms": "ms",
    "mcc.acceptance.resources_ms": "ms",
    "contracts.parse_ms": "ms",
    "contracts.requirement_calls": "count",
    "analysis.cache.hit_ratio": "ratio",
    "analysis.cache.misses": "count",
    "analysis.cache.analyse_many_lanes": "count",
    "analysis.incremental.engine_ms": "ms",
    "analysis.incremental.reuse_rate": "ratio",
    "analysis.safety.analyse_ms": "ms",
    "analysis.threat.analyse_ms": "ms",
    "monitoring.deviation.observe_ms": "ms",
    "monitoring.deviation.deviations": "count",
    "service.admission.loop_lag_p50_ms": "ms",
    "service.admission.loop_lag_max_ms": "ms",
    "service.admission.resumes": "count",
    "service.admission.heavy_completion_p50_ms": "ms",
    "runtime.import_ms": "ms",
    "runtime.gc_ms": "ms",
    "runtime.gc_gen2": "count",
    "runtime.unspanned_ms": "ms",
    "runtime.trace_overhead_pct": "%",
}

#: Fewest samples a reported percentile must have beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile of ``values``, linearly interpolated.

    Refuses (``ValueError``) when fewer than :data:`MIN_BEYOND` samples lie
    beyond it, so no tail figure ever rests on a handful of operations.
    """
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    below = math.floor(position)
    beyond = len(ordered) - below - 1
    if not ordered or beyond < MIN_BEYOND:
        raise ValueError(f"p{q:g} of {len(ordered)} samples has {max(beyond, 0)} "
                         f"beyond it; at least {MIN_BEYOND} are needed")
    upper = ordered[min(below + 1, len(ordered) - 1)]
    return ordered[below] + (upper - ordered[below]) * (position - below)


def fewest_samples(q: float) -> int:
    """The fewest samples of which :func:`percentile` reports the ``q``-th."""
    count = MIN_BEYOND + 1
    while count - 1 - math.floor(q / 100.0 * (count - 1)) < MIN_BEYOND:
        count += 1
    return count


def unit_count(workload, seconds: float) -> int:
    """Units an untraced run takes: :data:`UNITS_PER_SECOND` per second,
    and enough for a p90 of the latency samples."""
    return max(math.ceil(UNITS_PER_SECOND * seconds),
               math.ceil(fewest_samples(90) / workload.samples_per_unit))


def latency_ops(ops: Sequence[Op]) -> List[Op]:
    """The completed operations whose latencies the percentiles cover.

    Campaign workloads report every campaign; ``tenant_mix`` reports its
    light tenants' jobs.
    """
    return [op for op in ops if op.error is None and op.role != "heavy"]


def _ops(batches: Sequence[Batch]) -> List[Op]:
    return [op for batch in batches for op in batch.ops]


def _time_setups(name: str, seed: int, tiny: bool, probes: int) -> List[float]:
    """Seconds from starting a fresh benchmark process to it being ready,
    at the reference speed.

    Each probe process reports its own :data:`CLOCK` reading when ready,
    which counts from the moment the process started, and the scale of
    :func:`perfbench.speed.setup_scale` it measured right after.
    """
    command = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
               "--setup-probe", "--workload", name, "--seed", str(seed)]
    if tiny:
        command.append("--tiny")
    times = []
    for _ in range(probes):
        probe = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                               check=True, timeout=120)
        word, seconds, scale = probe.stdout.split()
        if word != "ready":
            raise RuntimeError(f"set-up probe printed {probe.stdout!r}")
        times.append(float(seconds) * float(scale))
    return times


def run(name: str, seed: int, seconds: float, trace: bool, import_s: float,
        scale: Scale = workloads.FULL,
        out_dir: Optional[str] = None) -> Dict[str, object]:
    """Run workload ``name`` once and return the result object to print."""
    workload = workloads.build(name, seed, scale)
    workload.warm_up()
    if trace:
        metrics, ops = _traced(workload, seed, seconds, import_s, out_dir)
        catalogue = PER_LAYER
    else:
        metrics, ops = _untraced(workload, seed, seconds, scale)
        catalogue = END_TO_END
    failures = workloads.verify(workload, ops, seed, scale.verified)
    for failure in failures[:5]:
        print(f"verdict check: {failure}", file=sys.stderr)
    return {"correct": not failures, "attempted": len(ops),
            "failed": len(failures),
            "metrics": {name: {"value": metrics[name], "unit": symbol}
                        for name, symbol in catalogue.items()}}


def _untraced(workload, seed: int, seconds: float,
              scale: Scale) -> Tuple[Dict[str, float], List[Op]]:
    setups = _time_setups(workload.name, seed, scale is workloads.TINY,
                          scale.setup_probes)
    batches = workload.units(unit_count(workload, seconds))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = _ops(batches)
    timed = [(op, batch.scale) for batch in batches
             for op in latency_ops(batch.ops)]
    first = [op.first_wave_s * factor * 1e3 for op, factor in timed]
    done = [op.completion_s * factor * 1e3 for op, factor in timed]
    metrics = {
        "setup_s": statistics.median(setups),
        "first_wave_p50_ms": percentile(first, 50),
        "first_wave_p90_ms": percentile(first, 90),
        "completion_p50_ms": percentile(done, 50),
        "completion_p90_ms": percentile(done, 90),
        "vehicles_per_s": sum(op.vehicles for op in ops if op.error is None)
                          / _scaled_busy(batches),
        "peak_rss_mb": peak_rss_mb,
    }
    factors = [batch.scale for batch in batches]
    unscaled = percentile([op.completion_s * 1e3 for op, _ in timed], 50)
    print(f"{workload.name}, seed {seed}: {len(batches)} units, {len(timed)} "
          f"latency samples; host speed scale median "
          f"{statistics.median(factors):.3f} (range {min(factors):.3f}-"
          f"{max(factors):.3f}); unscaled CPU completion p50 {unscaled:.1f} ms")
    return metrics, ops


def _traced(workload, seed: int, seconds: float, import_s: float,
            out_dir: Optional[str]) -> Tuple[Dict[str, float], List[Op]]:
    tenant = workload.name == "tenant_mix"
    # A third as many units as an untraced run, so both passes together
    # take about as long as one untraced run.
    units = math.ceil(UNITS_PER_SECOND * seconds / 3.0)
    gc_meter = GcMeter(CLOCK)
    if tenant:  # one heavy job per round; its p50 needs ten samples beyond
        units = max(units, fewest_samples(50))
        baseline = workload.units(units, gc_meter, ticker=True)
    else:
        baseline = workload.units(units, gc_meter)
    spans = Spans(CLOCK)
    spans.install()
    try:
        started = time.perf_counter()
        traced = workload.units(units)
        traced_wall = time.perf_counter() - started
    finally:
        spans.uninstall()
    metrics = _layer_metrics(spans, traced, baseline, gc_meter, import_s)
    _print_table(workload.name, seed, spans, traced, baseline, traced_wall,
                 metrics)
    if out_dir is not None:
        spans.write(os.path.join(out_dir,
                                 f"{workload.name}-seed{seed}.spans.npz"))
    return metrics, _ops(baseline) + _ops(traced)


def _scaled_busy(batches: Sequence[Batch]) -> float:
    """Busy seconds of ``batches`` at the reference speed."""
    return sum(batch.busy_s * batch.scale for batch in batches)


def _busy_per_op(batches: Sequence[Batch]) -> float:
    return _scaled_busy(batches) / len(_ops(batches))


def _pass_scale(batches: Sequence[Batch]) -> float:
    """The busy-weighted scale of a pass, for times summed over all of it."""
    return _scaled_busy(batches) / sum(batch.busy_s for batch in batches)


def _layer_metrics(spans: Spans, traced: Sequence[Batch],
                   baseline: Sequence[Batch], gc_meter: GcMeter,
                   import_s: float) -> Dict[str, float]:
    profile = spans.profile()
    ops = _ops(traced)
    per_op = 1.0 / len(ops)
    # Span times add up over the whole traced pass, so they take its scale.
    ms_per_op = 1e3 * per_op * _pass_scale(traced)

    def calls(name: str) -> int:
        return profile[name][0]

    def inclusive_ms(name: str) -> float:
        return profile[name][1] * ms_per_op

    def self_ms(*names: str) -> float:
        return sum(profile[name][2] for name in names) * ms_per_op

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    counts = spans.counts
    requests_in_steps = spans.calls_under("mcc.controller.request_change",
                                          "fleet.engine.step")
    replays_in_steps = spans.calls_under("mcc.controller.replay_change",
                                         "fleet.engine.step")
    heavy = [op.completion_s * batch.scale * 1e3 for batch in baseline
             for op in batch.ops if op.role == "heavy" and op.error is None]
    lags = [lag * 1e3 for batch in baseline for lag in batch.loop_lags_s]
    base_ops = _ops(baseline)
    return {
        "fleet.vehicle.provision_ms": inclusive_ms("fleet.vehicle.generate_fleet"),
        "fleet.vehicle.integrations_per_vehicle": ratio(
            spans.calls_under("mcc.controller.request_change",
                              "fleet.vehicle.generate_fleet"),
            sum(op.vehicles for op in ops)),
        "fleet.engine.step_ms": inclusive_ms("fleet.engine.step"),
        "fleet.engine.waves": calls("fleet.engine.step") * per_op,
        "fleet.engine.halts": sum(op.halts for op in ops) * per_op,
        "fleet.engine.replay_ratio": ratio(replays_in_steps,
                                           replays_in_steps + requests_in_steps),
        "fleet.engine.state_io_ms": self_ms("fleet.vehicle.capture_state",
                                            "fleet.vehicle.restore_state"),
        "mcc.controller.request_change_calls":
            calls("mcc.controller.request_change") * per_op,
        "mcc.controller.replay_change_calls":
            calls("mcc.controller.replay_change") * per_op,
        "mcc.integration.integrate_ms": self_ms("mcc.integration.integrate"),
        "mcc.integration.preview_ms": self_ms("mcc.integration.preview_tasksets"),
        "mcc.integration.synthesize_ms":
            self_ms("mcc.integration.synthesize_configuration"),
        "mcc.mapping.map_ms": self_ms("mcc.mapping.map"),
        "mcc.mapping.map_calls": calls("mcc.mapping.map") * per_op,
        "mcc.acceptance.timing_ms": self_ms("mcc.acceptance.timing"),
        "mcc.acceptance.safety_ms": self_ms("mcc.acceptance.safety"),
        "mcc.acceptance.security_ms": self_ms("mcc.acceptance.security"),
        "mcc.acceptance.resources_ms": self_ms("mcc.acceptance.resources"),
        "contracts.parse_ms": self_ms("contracts.language.parse"),
        "contracts.requirement_calls":
            counts["contracts.requirement_calls"] * per_op,
        "analysis.cache.hit_ratio": ratio(
            counts["analysis.cache.hits"],
            counts["analysis.cache.hits"] + counts["analysis.cache.misses"]),
        "analysis.cache.misses": counts["analysis.cache.misses"] * per_op,
        "analysis.cache.analyse_many_lanes":
            counts["analysis.cache.analyse_many_lanes"] * per_op,
        "analysis.incremental.engine_ms": self_ms(
            "analysis.incremental.analyse", "analysis.incremental.analyze_many"),
        "analysis.incremental.reuse_rate": ratio(
            counts["analysis.incremental.reused"],
            counts["analysis.incremental.reused"]
            + counts["analysis.incremental.analysed"]),
        "analysis.safety.analyse_ms": self_ms("analysis.safety.analyse"),
        "analysis.threat.analyse_ms": self_ms("analysis.threat.analyse"),
        "monitoring.deviation.observe_ms": self_ms("monitoring.deviation.observe"),
        "monitoring.deviation.deviations":
            counts["monitoring.deviation.deviations"] * per_op,
        "service.admission.loop_lag_p50_ms":
            statistics.median(lags) if lags else 0.0,
        "service.admission.loop_lag_max_ms": max(lags) if lags else 0.0,
        # The tenant clients resume every policy halt.
        "service.admission.resumes": sum(op.halts for op in ops
                                         if op.role != "campaign") * per_op,
        "service.admission.heavy_completion_p50_ms":
            percentile(heavy, 50) if heavy else 0.0,
        "runtime.import_ms": import_s * 1e3,
        "runtime.gc_ms": gc_meter.seconds * _pass_scale(baseline) * 1e3
                         / len(base_ops),
        "runtime.gc_gen2": gc_meter.full_collections / len(base_ops),
        "runtime.unspanned_ms": (sum(batch.busy_s for batch in traced)
                                 - spans.root_seconds()) * ms_per_op,
        "runtime.trace_overhead_pct":
            (_busy_per_op(traced) / _busy_per_op(baseline) - 1.0) * 100.0,
    }


def _print_table(name: str, seed: int, spans: Spans, traced: Sequence[Batch],
                 baseline: Sequence[Batch], traced_wall: float,
                 metrics: Dict[str, float]) -> None:
    ops = _ops(traced)
    per_op = 1.0 / len(ops)
    scale = _pass_scale(traced)
    ms_per_op = 1e3 * per_op * scale
    busy = _scaled_busy(traced)
    print(f"== per-layer breakdown: {name}, seed {seed} ==")
    print(f"traced: {len(traced)} units, {len(ops)} operations, "
          f"{len(spans)} spans, {traced_wall:.2f} s; untraced baseline: "
          f"the same units, {_scaled_busy(baseline):.2f} s busy at the reference "
          f"speed")
    print(f"times are CPU times at the reference speed: the traced pass ran "
          f"at scale {scale:.3f}, the untraced one at {_pass_scale(baseline):.3f}")
    print(f"tracing overhead: {_busy_per_op(traced) * 1e3:.2f} ms/op traced vs "
          f"{_busy_per_op(baseline) * 1e3:.2f} ms/op untraced "
          f"({metrics['runtime.trace_overhead_pct']:+.1f}%)")
    print(f"{'span':44} {'calls/op':>10} {'incl ms/op':>11} {'self ms/op':>11}")
    for span, (count, inclusive, own) in sorted(spans.profile().items()):
        print(f"{span:44} {count * per_op:10.2f} {inclusive * ms_per_op:11.3f} "
              f"{own * ms_per_op:11.3f}")
    unspanned = metrics["runtime.unspanned_ms"]
    print(f"{'(unspanned remainder)':44} {'':10} {'':11} {unspanned:11.3f}"
          f"  ({unspanned / (busy * 1e3 * per_op) * 100.0:.1f}% of busy time)")
    print(f"{'metric':44} {'value':>14}  unit")
    for metric, unit in PER_LAYER.items():
        print(f"{metric:44} {metrics[metric]:14.4f}  {unit}")
