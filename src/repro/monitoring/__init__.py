"""Run-time monitoring (Section II.B and V).

The execution domain is augmented with application and platform monitors
that (a) enforce model assumptions (budgets, access policies) and (b)
extract run-time metrics fed back into the model domain.  Deviations from
nominal behaviour surface as :class:`~repro.monitoring.anomaly.Anomaly`
objects, the common currency consumed by the cross-layer self-awareness
coordinator in :mod:`repro.core`.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "anomaly": ["Anomaly", "AnomalySeverity", "AnomalyType"],
    "metrics": ["MetricSeries", "MetricRegistry", "MetricSummary"],
    "monitors": ["Monitor", "HeartbeatMonitor", "ValueRangeMonitor",
                 "ExecutionTimeMonitor", "DeadlineMonitor",
                 "TemperatureMonitor", "SensorQualityMonitor", "MonitorSuite"],
    "deviation": ["DeviationDetector", "ExpectedBehaviour"],
    "enforcement": ["BudgetEnforcer", "AccessPolicyEnforcer",
                    "EnforcementAction"],
})
