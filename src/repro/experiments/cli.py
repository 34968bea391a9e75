"""Command-line interface: ``python -m repro.experiments <command>``.

Commands
--------
``list``
    Show the registered scenarios (with their knobs and defaults) and the
    built-in sweep suite.
``run``
    Execute the built-in suite or a JSON spec file, serially or in a
    process pool; print per-experiment summary tables and optionally write
    the structured results to a JSON file.
``compare``
    Diff two result files produced by ``run --output`` and report every
    metric that changed.
``cache-bench``
    Measure the speedup of the CPA memoization cache on a repeated
    acceptance sweep (the same update campaigns with and without a shared
    :class:`~repro.analysis.cache.AnalysisCache`).
``bench-history``
    Tabulate the machine-readable ``BENCH_*.json`` records the benchmark
    suite writes (speedups, wall times, counters) across runs; ``--json``
    additionally writes the headline trajectory as a JSON document.
``report``
    Render the static HTML fleet dashboard from campaign result files
    (``run --output``), tracer JSONL files and the benchmark records —
    self-contained, offline, zero third-party dependencies.
``serve``
    Drive the multi-tenant fleet admission service
    (:class:`~repro.service.admission.AdmissionService`) through a
    synthetic workload: N tenants submit M campaigns each, wave progress
    streams to the console, and a throughput summary (admissions/sec)
    closes the run.  The service is in-process — the typed
    request/response schemas of :mod:`repro.service.schemas` *are* the
    API; see ``docs/SERVICE.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.experiments.aggregate import diff_records, format_table, summarize_result
from repro.experiments.registry import SCENARIOS
from repro.experiments.runner import ExperimentResult, Runner, RunRecord
from repro.experiments.spec import ExperimentSpec, SpecError, builtin_specs


def _cmd_list(args: argparse.Namespace) -> int:
    print("Registered scenarios:")
    for scenario in sorted(SCENARIOS, key=lambda s: s.name):
        print(f"\n  {scenario.name} — {scenario.summary}")
        for parameter in scenario.parameters:
            print(f"    {parameter.name:<18} default={parameter.default!r:<16} "
                  f"{parameter.description}")
    print("\nBuilt-in sweep suite (run with `python -m repro.experiments run`):")
    for spec in builtin_specs():
        print(f"  {spec.name:<20} scenario={spec.scenario:<16} "
              f"runs={spec.num_runs():<3} {spec.description}")
    return 0


def _load_specs(path: Optional[str]) -> List[ExperimentSpec]:
    """Load specs from a JSON file (one spec object or a list of them), or
    fall back to the built-in suite."""
    if path is None:
        return builtin_specs()
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    documents = document if isinstance(document, list) else [document]
    return [ExperimentSpec.from_dict(entry) for entry in documents]


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        specs = _load_specs(args.spec)
        for spec in specs:
            spec.validate()
        runner = Runner(parallel=args.parallel, workers=args.workers)
    except (SpecError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results: List[ExperimentResult] = []
    total_runs = 0
    for spec in specs:
        result = runner.run(spec)
        results.append(result)
        total_runs += len(result.records)
        mode = f"parallel x{result.workers}" if result.parallel else "serial"
        print(f"\n[{spec.name}] scenario={spec.scenario} runs={len(result.records)} "
              f"({mode}, {result.wall_time_s:.2f} s wall)")
        failed = [record for record in result.records if not record.ok]
        for record in failed:
            print(f"  FAILED {record.run_id}: {record.error}")
        print(format_table(f"{spec.name}: metric summary", summarize_result(result)))
    scenarios = sorted({result.spec.scenario for result in results})
    print(f"\ntotal: {total_runs} runs over {len(scenarios)} scenarios "
          f"({', '.join(scenarios)})")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump([result.to_dict() for result in results], handle,
                      sort_keys=True, indent=2)
        print(f"results written to {args.output}")
    return 0 if all(result.ok() for result in results) else 1


def _records_from_result_file(path: str) -> List[Dict[str, Any]]:
    """Flatten a ``run --output`` file into a list of record dictionaries."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    records: List[Dict[str, Any]] = []
    for result in document:
        records.extend(result.get("records", []))
    return records


def _cmd_compare(args: argparse.Namespace) -> int:
    try:
        baseline = _records_from_result_file(args.baseline)
        current_dicts = _records_from_result_file(args.current)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    current = [RunRecord(run_id=entry["run_id"], experiment=entry["experiment"],
                         scenario=entry["scenario"], index=entry["index"],
                         params=entry.get("params", {}),
                         metrics=entry.get("metrics", {}),
                         error=entry.get("error"))
               for entry in current_dicts]
    rows = diff_records(baseline, current, tolerance=args.tolerance)
    if not rows:
        print(f"no metric differences between {args.baseline} and {args.current} "
              f"({len(current)} runs compared)")
        return 0
    print(format_table(f"differences: {args.baseline} vs {args.current}", rows))
    return 1


def _cmd_cache_bench(args: argparse.Namespace) -> int:
    from repro.analysis.cache import AnalysisCache
    from repro.analysis.cpa import ResponseTimeAnalysis
    from repro.platform.tasks import Task, TaskSet
    from repro.scenarios.infield_update import run_infield_update_scenario
    from repro.sim.random import SeededRNG

    rows = []

    # Part 1: the timing acceptance test itself (the paper's archetypal MCC
    # acceptance test, E9).  An acceptance sweep re-validates the same
    # candidate task sets over and over (grid repetitions, regression
    # re-runs, per-change re-analysis of unchanged processors); without a
    # cache every re-validation re-derives an identical busy-window fixpoint.
    def make_taskset(seed: int, n: int, utilization: float) -> TaskSet:
        rng = SeededRNG(seed)
        utilizations = rng.uunifast(n, utilization)
        periods = rng.log_uniform_periods(n, 0.005, 0.5)
        taskset = TaskSet()
        for index, (u, period) in enumerate(zip(utilizations, periods)):
            taskset.add(Task(f"t{index}", period=period, wcet=max(1e-6, u * period)))
        taskset.assign_deadline_monotonic_priorities()
        return taskset

    tasksets = [make_taskset(seed, args.tasks, utilization)
                for seed in range(args.distinct)
                for utilization in (0.6, 0.75, 0.9)]

    def wcrt_sweep(cache: Optional[AnalysisCache]) -> float:
        started = time.perf_counter()
        for _ in range(args.repeats):
            for taskset in tasksets:
                if cache is not None:
                    cache.schedulable(taskset)
                else:
                    ResponseTimeAnalysis(taskset).schedulable()
        return time.perf_counter() - started

    wcrt_sweep(None)  # warm-up
    cold = min(wcrt_sweep(None) for _ in range(3))
    cache = AnalysisCache()
    warm_times = []
    for _ in range(3):
        cache.clear()
        warm_times.append(wcrt_sweep(cache))
    warm = min(warm_times)
    rows.append({
        "sweep": f"WCRT acceptance ({len(tasksets)} task sets x {args.repeats})",
        "uncached_s": cold,
        "cached_s": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
    })

    # Part 2: full MCC update campaigns sharing one cache — end-to-end
    # effect when timing is only one of four viewpoints.
    def campaign_sweep(cache: Optional[AnalysisCache]) -> float:
        started = time.perf_counter()
        for index in range(args.campaigns):
            run_infield_update_scenario(num_requests=args.requests,
                                        seed=index % args.distinct,
                                        risky_fraction=0.3, deploy=False,
                                        analysis_cache=cache,
                                        use_analysis_cache=cache is not None)
        return time.perf_counter() - started

    campaign_sweep(None)  # warm-up
    cold = min(campaign_sweep(None) for _ in range(3))
    cache = AnalysisCache()
    warm_times = []
    for _ in range(3):
        cache.clear()
        warm_times.append(campaign_sweep(cache))
    warm = min(warm_times)
    rows.append({
        "sweep": f"MCC campaigns ({args.campaigns} x {args.requests} requests)",
        "uncached_s": cold,
        "cached_s": warm,
        "speedup": cold / warm if warm > 0 else float("inf"),
        "hits": cache.hits,
        "misses": cache.misses,
        "hit_rate": cache.hit_rate,
    })

    print(format_table("CPA memoization on repeated acceptance sweeps", rows))
    return 0


def _cmd_bench_history(args: argparse.Namespace) -> int:
    from repro.experiments.bench_history import (bench_history_rows,
                                                 bench_trajectory,
                                                 compare_bench_records,
                                                 load_bench_records)

    directory = Path(args.dir)
    if not directory.is_dir():
        print(f"error: {directory} is not a directory", file=sys.stderr)
        return 2
    records, skipped = load_bench_records(str(directory))
    for name in skipped:
        print(f"warning: skipping unparseable record {name}", file=sys.stderr)
    if args.json is not None:
        # Written even when empty: a trajectory consumer prefers an explicit
        # zero-series document over a missing file.
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(bench_trajectory(records), handle, sort_keys=True,
                      indent=2)
        print(f"trajectory written to {args.json}")
    if not records:
        print(f"no BENCH_*.json records under {directory}")
        return 0
    print(format_table(f"benchmark history ({directory})",
                       bench_history_rows(records)))
    if args.baseline is not None:
        baseline_dir = Path(args.baseline)
        if not baseline_dir.is_dir():
            print(f"error: baseline {baseline_dir} is not a directory",
                  file=sys.stderr)
            return 2
        baseline, baseline_skipped = load_bench_records(str(baseline_dir))
        for name in baseline_skipped:
            print(f"warning: skipping unparseable baseline record {name}",
                  file=sys.stderr)
        regressions = compare_bench_records(records, baseline,
                                            tolerance=args.tolerance)
        if regressions:
            print(format_table(
                f"headline regressions vs {baseline_dir} "
                f"(tolerance {args.tolerance:.0%})", regressions))
            if args.fail_on_regression:
                print(f"error: {len(regressions)} headline metric(s) "
                      f"regressed more than {args.tolerance:.0%} below the "
                      "baseline", file=sys.stderr)
                return 1
        else:
            print(f"no headline regressions vs {baseline_dir} "
                  f"(tolerance {args.tolerance:.0%})")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.bench_history import load_bench_records
    from repro.observability.dashboard import (flatten_result_documents,
                                               render_dashboard)
    from repro.observability.tracer import TraceError, load_trace

    run_records: List[Dict[str, Any]] = []
    for path in args.results or []:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read results {path}: {exc}", file=sys.stderr)
            return 2
        run_records.extend(flatten_result_documents([document]))
    trace: List[Dict[str, Any]] = []
    for path in args.trace or []:
        try:
            trace.extend(load_trace(path))
        except TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    bench_records: List[Dict[str, Any]] = []
    bench_dir = Path(args.bench_dir)
    if bench_dir.is_dir():
        bench_records, skipped = load_bench_records(str(bench_dir))
        for name in skipped:
            print(f"warning: skipping unparseable record {name}",
                  file=sys.stderr)
    page = render_dashboard(run_records=run_records, trace=trace,
                            bench_records=bench_records, title=args.title)
    output = Path(args.output)
    if output.parent != Path(""):
        output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(page, encoding="utf-8")
    print(f"dashboard written to {output} ({len(run_records)} run records, "
          f"{len(trace)} trace events, {len(bench_records)} bench records)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AdmissionService, SubmitCampaign

    async def drive() -> Dict[str, Any]:
        started = time.perf_counter()
        async with AdmissionService(slots=args.slots) as service:
            receipts = []
            for tenant_index in range(args.tenants):
                tenant = f"tenant-{tenant_index}"
                for campaign_index in range(args.campaigns):
                    receipts.append(await service.submit(SubmitCampaign(
                        tenant=tenant, fleet_size=args.fleet_size,
                        seed=campaign_index,
                        num_variants=args.variants)))
            statuses = [await service.wait(receipt.job_id)
                        for receipt in receipts]
        wall = time.perf_counter() - started
        admitted = sum(status.admitted for status in statuses)
        waves = sum(status.waves_executed for status in statuses)
        for status in statuses:
            print(f"  {status.job_id:<14} {status.state:<10} "
                  f"waves={status.waves_executed:<3} "
                  f"admitted={status.admitted:<4} "
                  f"coverage={status.update_coverage:.0%}")
        return {"jobs": len(statuses), "waves": waves, "admitted": admitted,
                "wall_s": wall,
                "admissions_per_s": admitted / wall if wall > 0 else 0.0}

    print(f"admission service: {args.tenants} tenant(s) x {args.campaigns} "
          f"campaign(s), fleets of {args.fleet_size}, {args.slots} slot(s)")
    summary = asyncio.run(drive())
    print(f"\n{summary['jobs']} campaigns, {summary['waves']} waves, "
          f"{summary['admitted']} admissions in {summary['wall_s']:.2f} s "
          f"-> {summary['admissions_per_s']:.1f} admissions/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run, sweep and compare the reproduction's scenarios.")
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list scenarios and built-in sweeps")

    run_parser = commands.add_parser("run", help="execute a sweep")
    run_parser.add_argument("--spec", help="JSON spec file (one spec or a list); "
                                           "defaults to the built-in suite")
    run_parser.add_argument("--parallel", action="store_true",
                            help="execute runs on a process pool")
    run_parser.add_argument("--workers", type=int, default=None,
                            help="pool size (default: cpu count)")
    run_parser.add_argument("--output", help="write structured results to this JSON file")

    compare_parser = commands.add_parser("compare",
                                         help="diff two result files from `run --output`")
    compare_parser.add_argument("baseline")
    compare_parser.add_argument("current")
    compare_parser.add_argument("--tolerance", type=float, default=1e-9,
                                help="numeric tolerance for metric equality")

    cache_parser = commands.add_parser("cache-bench",
                                       help="measure the CPA memoization speedup")
    cache_parser.add_argument("--campaigns", type=int, default=8,
                              help="number of update campaigns in the MCC sweep")
    cache_parser.add_argument("--distinct", type=int, default=2,
                              help="distinct configurations the sweeps cycle over")
    cache_parser.add_argument("--requests", type=int, default=15,
                              help="change requests per campaign")
    cache_parser.add_argument("--tasks", type=int, default=20,
                              help="tasks per synthetic task set in the WCRT sweep")
    cache_parser.add_argument("--repeats", type=int, default=25,
                              help="re-validations of every task set in the WCRT sweep")

    history_parser = commands.add_parser(
        "bench-history", help="tabulate the benchmark perf records")
    history_parser.add_argument("--dir", default="benchmarks/records",
                                help="directory holding BENCH_*.json records")
    history_parser.add_argument("--baseline", default=None,
                                help="baseline records directory to compare "
                                     "headline speedups against")
    history_parser.add_argument("--fail-on-regression", action="store_true",
                                help="exit non-zero when a headline metric "
                                     "drops more than --tolerance below its "
                                     "baseline (same benchmark, same mode)")
    history_parser.add_argument("--tolerance", type=float, default=0.3,
                                help="relative headline drop tolerated by "
                                     "--fail-on-regression (default 0.3)")
    history_parser.add_argument("--json", default=None, metavar="PATH",
                                help="write the machine-readable headline "
                                     "trajectory (grouped by benchmark and "
                                     "fidelity mode) to this JSON file")

    report_parser = commands.add_parser(
        "report", help="render the static HTML fleet dashboard")
    report_parser.add_argument("--results", action="append", default=None,
                               metavar="FILE",
                               help="campaign result file from `run --output` "
                                    "(repeatable)")
    report_parser.add_argument("--trace", action="append", default=None,
                               metavar="FILE",
                               help="tracer JSONL file from a traced "
                                    "campaign (repeatable)")
    report_parser.add_argument("--bench-dir", default="benchmarks/records",
                               help="directory holding BENCH_*.json records")
    report_parser.add_argument("--output", default="fleet_dashboard.html",
                               help="HTML file to write "
                                    "(default fleet_dashboard.html)")
    report_parser.add_argument("--title",
                               default="Fleet campaign observability",
                               help="page title of the dashboard")

    serve_parser = commands.add_parser(
        "serve", help="run the multi-tenant admission service on a "
                      "synthetic workload")
    serve_parser.add_argument("--tenants", type=int, default=2,
                              help="number of concurrent tenants")
    serve_parser.add_argument("--campaigns", type=int, default=2,
                              help="campaigns submitted per tenant")
    serve_parser.add_argument("--fleet-size", type=int, default=16,
                              help="vehicles per submitted fleet")
    serve_parser.add_argument("--variants", type=int, default=4,
                              help="platform variants per fleet")
    serve_parser.add_argument("--slots", type=int, default=2,
                              help="scheduler slots (jobs advanced per round)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {"list": _cmd_list, "run": _cmd_run,
                "compare": _cmd_compare, "cache-bench": _cmd_cache_bench,
                "bench-history": _cmd_bench_history, "report": _cmd_report,
                "serve": _cmd_serve}
    return handlers[args.command](args)
