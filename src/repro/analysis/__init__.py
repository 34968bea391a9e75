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
from repro.analysis.cache import AnalysisCache, taskset_key
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
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
    "taskset_key",
    "IncrementalResponseTimeAnalysis",
    "CanResponseTimeAnalysis",
    "CauseEffectChain",
    "EventLink",
    "FrameSpec",
    "SystemAnalysis",
    "SystemAnalysisResult",
    "distributed_end_to_end_latency",
]
