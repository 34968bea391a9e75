"""Experiment orchestration over the paper's worked scenarios.

The scenarios in :mod:`repro.scenarios` are one-shot drivers; this package
adds the evaluation workflow the paper's Section V implies but every
hand-rolled script re-invents:

* :mod:`repro.experiments.registry` — the five scenarios behind one uniform
  interface (typed knobs, JSON-level parameter coercion, flat metric
  records).
* :mod:`repro.experiments.spec` — declarative parameter sweeps
  (:class:`ExperimentSpec`: grid x seeds -> concrete runs) that round-trip
  through JSON.
* :mod:`repro.experiments.runner` — serial or process-parallel execution
  with deterministic per-run seeding; parallel runs produce byte-identical
  metric records to serial runs.
* :mod:`repro.experiments.aggregate` — mean/p95 summaries, text tables and
  baseline diffing.
* :mod:`repro.experiments.bench_history` — tabulation of the benchmark
  suite's machine-readable ``BENCH_*.json`` perf records.
* :mod:`repro.experiments.cli` — ``python -m repro.experiments
  run | list | compare | cache-bench | bench-history``.

Repeated CPA invocations inside acceptance sweeps are memoized by
:class:`repro.analysis.cache.AnalysisCache` (see ``cache-bench``).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "registry": ["Parameter", "Scenario", "ScenarioError", "ScenarioRegistry",
                 "SCENARIOS", "run_scenario", "run_scenario_raw"],
    "spec": ["ExperimentSpec", "RunSpec", "SpecError", "builtin_specs"],
    "runner": ["ExperimentResult", "Runner", "RunRecord", "execute_run"],
    "aggregate": ["diff_records", "format_table", "percentile", "summarize",
                  "summarize_result"],
})
