"""Model-domain formal analyses (Section II.A and V of the paper).

These are the viewpoint-specific analyses the Multi-Change Controller runs
as acceptance tests during the in-field integration process:

* :mod:`repro.analysis.cpa` — compositional performance analysis: busy-window
  worst-case response times, end-to-end latencies, schedulability verdicts.
* :mod:`repro.analysis.dependency` — automated cross-layer dependency
  analysis (the FMEA-like analysis of [23]/[24] cited in Section V).
* :mod:`repro.analysis.threat` — security threat modelling for vehicular
  systems (exposure/reachability of components from external interfaces).
* :mod:`repro.analysis.safety` — safety viewpoint: ASIL consistency,
  redundancy and fail-operational coverage.
* :mod:`repro.analysis.cache` — fingerprint-keyed memoization of WCRT
  analyses, so acceptance-test sweeps stop re-deriving identical busy-window
  fixpoints; a miss runs a cold analysis unless the caller hands it an
  analyser.
* :mod:`repro.analysis.incremental` — delta-aware incremental WCRT engine:
  priority-pruned reuse and warm-started fixpoints for sweeps that
  re-analyse near-identical task sets many times over, such as the
  system-level event-model fixpoint, whose cache misses it answers.
* :mod:`repro.analysis.compositional` — multi-resource CPA: CAN
  response-time analysis, the system-level event-model propagation fixpoint
  and jitter-aware distributed cause-effect-chain latency bounds.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "cpa": ["EventModel", "ResponseTimeResult", "ResponseTimeAnalysis",
            "EndToEndPath", "end_to_end_latency"],
    "dependency": ["DependencyKind", "Dependency", "DependencyGraph",
                   "DependencyAnalysis", "FailureEffect"],
    "threat": ["ThreatModel", "ThreatAssessment", "AttackPath"],
    "safety": ["SafetyAnalysis", "SafetyFinding"],
    "cache": ["AnalysisCache", "taskset_key"],
    "incremental": ["IncrementalResponseTimeAnalysis"],
    "compositional": ["CanResponseTimeAnalysis", "CauseEffectChain",
                      "EventLink", "FrameSpec", "SystemAnalysis",
                      "SystemAnalysisResult",
                      "distributed_end_to_end_latency"],
})
