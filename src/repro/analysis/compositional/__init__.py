"""Compositional multi-resource timing analysis (CPA across CPUs and buses).

The single-resource busy-window analysis of :mod:`repro.analysis.cpa` bounds
one processor; this subpackage composes many resources into one system-level
verdict, which is what admitting a change to a *distributed* automotive
system requires:

* :mod:`repro.analysis.compositional.can_rta` — non-preemptive fixed-priority
  response-time analysis of CAN segments (frame streams, bit-accurate
  transmission times, blocking), producing the same result shape as the CPU
  analysis.
* :mod:`repro.analysis.compositional.system` — a system model of named
  processors/buses with activation event links, the output-event-model
  propagation fixpoint (:class:`SystemAnalysis`), and jitter-aware
  cause-effect-chain latency bounds.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "can_rta": ["CanAnalysisError", "CanResponseTimeAnalysis", "FrameSpec"],
    "system": ["CauseEffectChain", "EventLink", "SystemAnalysis",
               "SystemAnalysisResult", "SystemConfigurationError",
               "SystemModel", "distributed_end_to_end_latency"],
})
