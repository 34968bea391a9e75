"""Deviation detection between model assumptions and observed behaviour.

"This enables the model domain to detect deviations from the nominal
behavior, refine its models, anticipate changes, and adapt the system
configuration accordingly" (Section II.B).  :class:`ExpectedBehaviour`
captures the model-domain assumption for one metric (nominal value and
tolerance band); :class:`DeviationDetector` compares the metric registry
against these expectations and produces anomalies plus model-refinement
suggestions (updated nominal values learned from observations).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.monitoring.anomaly import Anomaly, AnomalySeverity, AnomalyType
from repro.monitoring.metrics import MetricRegistry


@dataclass(frozen=True)
class ExpectedBehaviour:
    """Model assumption for one (source, metric) pair.

    ``nominal`` is the value the model domain assumed (e.g. the contracted
    WCET, the calibrated sensor quality); ``tolerance`` is the accepted
    relative deviation before the detector raises an anomaly.  Frozen, so
    a detector's refinement replaces its own entry and never rewrites an
    expectation another holder reads.
    """

    source: str
    metric: str
    nominal: float
    tolerance: float = 0.1
    anomaly_type: AnomalyType = AnomalyType.VALUE_OUT_OF_RANGE
    layer: str = "platform"
    higher_is_worse: bool = True
    two_sided: bool = False

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise ValueError("tolerance must be non-negative")

    def margin(self) -> float:
        """Half-width of the tolerance band.

        For ``nominal == 0`` the relative margin degenerates to zero, so the
        tolerance is interpreted as an absolute band half-width instead —
        zero-nominal expectations (idle queues, error counters) keep a
        meaningful band rather than alarming on any non-zero sample.
        """
        if self.nominal:
            return abs(self.nominal) * self.tolerance
        return self.tolerance

    def bounds(self) -> Tuple[float, float]:
        margin = self.margin()
        return (self.nominal - margin, self.nominal + margin)

    def violated_by(self, value: float) -> bool:
        low, high = self.bounds()
        if self.two_sided:
            return value > high or value < low
        if self.higher_is_worse:
            return value > high
        return value < low


class DeviationDetector:
    """Compares observed metrics against expected behaviour.

    The detector also implements the "refine its models" part of the loop:
    :meth:`refinement_suggestions` proposes updated nominal values when the
    observed mean drifted but stayed within safe bounds.
    """

    def __init__(self, registry: MetricRegistry) -> None:
        self.registry = registry
        self._expectations: Dict[Tuple[str, str], ExpectedBehaviour] = {}

    def expect(self, expectation: ExpectedBehaviour) -> None:
        self._expectations[(expectation.source, expectation.metric)] = expectation

    def expectation(self, source: str, metric: str) -> Optional[ExpectedBehaviour]:
        return self._expectations.get((source, metric))

    def expectations(self) -> List[ExpectedBehaviour]:
        return list(self._expectations.values())

    # -- detection -----------------------------------------------------------------

    def _anomaly_for(self, expectation: ExpectedBehaviour, metric: str,
                     value: float, time: float) -> Anomaly:
        distance = abs(value - expectation.nominal)
        severity = (AnomalySeverity.CRITICAL if distance > 2 * expectation.margin()
                    else AnomalySeverity.WARNING)
        return Anomaly(
            anomaly_type=expectation.anomaly_type, subject=expectation.source,
            layer=expectation.layer, severity=severity, time=time,
            observed=value, expected=expectation.nominal,
            details={"metric": metric, "tolerance": expectation.tolerance})

    def check(self, time: float) -> List[Anomaly]:
        """Compare the latest observation of every expected metric against its
        tolerance band."""
        anomalies: List[Anomaly] = []
        for (source, metric), expectation in self._expectations.items():
            series = self.registry.get(source, metric)
            if series is None or series.last is None:
                continue
            value = series.last
            if expectation.violated_by(value):
                anomalies.append(self._anomaly_for(expectation, metric, value, time))
        anomalies.sort(key=lambda a: (-int(a.severity), a.subject))
        return anomalies

    def observe(self, time: float, source: str, metric: str,
                value: float) -> List[Anomaly]:
        """Record one observation and evaluate only its expectation.

        One-shot feedback ingestion: the sample lands in the registry (so
        windowed statistics and refinement suggestions keep working) and the
        matching expectation — if any — is checked immediately.  Returns the
        raised anomalies (empty when the value is in band or no expectation
        covers the pair).
        """
        self.registry.sample(time, source, metric, value)
        expectation = self._expectations.get((source, metric))
        if expectation is None or not expectation.violated_by(value):
            return []
        return [self._anomaly_for(expectation, metric, value, time)]

    # -- model refinement ------------------------------------------------------------

    def refinement_suggestions(self, min_samples: int = 20,
                               drift_threshold: float = 0.05) -> Dict[Tuple[str, str], float]:
        """Suggest updated nominal values for metrics whose observed mean
        drifted by more than ``drift_threshold`` (relative) but did not
        violate the tolerance band — the benign drift the model domain should
        learn from rather than alarm on."""
        suggestions: Dict[Tuple[str, str], float] = {}
        for key, expectation in self._expectations.items():
            series = self.registry.get(*key)
            if series is None or len(series) < min_samples:
                continue
            summary = series.summary()
            scale = abs(expectation.nominal) or expectation.margin()
            delta = abs(summary.mean - expectation.nominal)
            drift = delta / scale if scale else (float("inf") if delta else 0.0)
            if expectation.two_sided:
                extreme = max(abs(summary.maximum - expectation.nominal),
                              abs(summary.minimum - expectation.nominal))
                violated = extreme > expectation.margin()
            else:
                violated = expectation.violated_by(
                    summary.maximum if expectation.higher_is_worse
                    else summary.minimum)
            if drift > drift_threshold and not violated:
                suggestions[key] = summary.mean
        return suggestions

    def apply_refinements(self, suggestions: Dict[Tuple[str, str], float]) -> int:
        """Adopt suggested nominal values into this detector's own table;
        returns how many expectations changed."""
        changed = 0
        for key, nominal in suggestions.items():
            expectation = self._expectations.get(key)
            if expectation is not None and expectation.nominal != nominal:
                self._expectations[key] = replace(expectation, nominal=nominal)
                changed += 1
        return changed
