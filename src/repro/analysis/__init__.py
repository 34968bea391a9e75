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
  fixpoints.
* :mod:`repro.analysis.incremental` — delta-aware incremental WCRT engine:
  priority-pruned reuse, warm-started fixpoints and shared interference
  memoization for near-identical task sets (the dominant acceptance-sweep
  workload).
* :mod:`repro.analysis.compositional` — multi-resource CPA: CAN
  response-time analysis, the system-level event-model propagation fixpoint
  and jitter-aware distributed cause-effect-chain latency bounds.
"""

from repro.analysis.cpa import (
    EventModel,
    ResponseTimeResult,
    ResponseTimeAnalysis,
    EndToEndPath,
    end_to_end_latency,
)
from repro.analysis.dependency import (
    DependencyKind,
    Dependency,
    DependencyGraph,
    DependencyAnalysis,
    FailureEffect,
)
from repro.analysis.threat import ThreatModel, ThreatAssessment, AttackPath
from repro.analysis.safety import SafetyAnalysis, SafetyFinding
from repro.analysis.cache import (
    AnalysisCache,
    CachedResponseTimeAnalysis,
    SnapshotError,
    fingerprint_taskset,
    taskset_key,
)
from repro.analysis.incremental import (
    IncrementalResponseTimeAnalysis,
    InterferenceMemo,
)
from repro.analysis.compositional import (
    CanResponseTimeAnalysis,
    CauseEffectChain,
    EventLink,
    FrameSpec,
    SystemAnalysis,
    SystemAnalysisResult,
    distributed_end_to_end_latency,
)

__all__ = [
    "EventModel",
    "ResponseTimeResult",
    "ResponseTimeAnalysis",
    "EndToEndPath",
    "end_to_end_latency",
    "DependencyKind",
    "Dependency",
    "DependencyGraph",
    "DependencyAnalysis",
    "FailureEffect",
    "ThreatModel",
    "ThreatAssessment",
    "AttackPath",
    "SafetyAnalysis",
    "SafetyFinding",
    "AnalysisCache",
    "CachedResponseTimeAnalysis",
    "SnapshotError",
    "fingerprint_taskset",
    "taskset_key",
    "IncrementalResponseTimeAnalysis",
    "InterferenceMemo",
    "CanResponseTimeAnalysis",
    "CauseEffectChain",
    "EventLink",
    "FrameSpec",
    "SystemAnalysis",
    "SystemAnalysisResult",
    "distributed_end_to_end_latency",
]
