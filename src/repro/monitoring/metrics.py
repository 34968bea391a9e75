"""Metric collection and aggregation.

"Monitoring is also performed based on models and metrics extracted from
individual layers.  Yet in order to achieve a meaningful self-awareness, the
overall monitoring concept must ensure that metrics from different layers
can be aggregated to a consistent self-representation of the system"
(Section V).  :class:`MetricSeries` stores time-stamped samples with sliding
window statistics; :class:`MetricRegistry` is the aggregation point that the
self-model reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class MetricSummary:
    """Summary statistics over a metric window."""

    count: int
    mean: float
    minimum: float
    maximum: float
    std: float
    last: float

    @classmethod
    def empty(cls) -> "MetricSummary":
        return cls(count=0, mean=math.nan, minimum=math.nan, maximum=math.nan,
                   std=math.nan, last=math.nan)


class MetricSeries:
    """A time series of scalar samples for one metric of one source.

    Parameters
    ----------
    name:
        Metric name, conventionally ``"<layer>.<source>.<quantity>"``.
    window:
        Maximum number of samples retained for windowed statistics; older
        samples are discarded (monitors run for the entire mission, so
        unbounded growth is not acceptable on an ECU).
    """

    def __init__(self, name: str, window: int = 1024, unit: str = "") -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.name = name
        self.window = window
        self.unit = unit
        self._times: List[float] = []
        self._values: List[float] = []
        self.total_samples = 0

    def sample(self, time: float, value: float) -> None:
        """Record one sample; evicts the oldest sample beyond the window."""
        if self._times and time < self._times[-1]:
            raise ValueError(
                f"metric {self.name}: non-monotonic sample time {time} < {self._times[-1]}")
        self._times.append(time)
        self._values.append(float(value))
        self.total_samples += 1
        if len(self._values) > self.window:
            self._times.pop(0)
            self._values.pop(0)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def last(self) -> Optional[float]:
        return self._values[-1] if self._values else None

    @property
    def last_time(self) -> Optional[float]:
        return self._times[-1] if self._times else None

    def values(self) -> List[float]:
        return list(self._values)

    def times(self) -> List[float]:
        return list(self._times)

    def summary(self, since: Optional[float] = None) -> MetricSummary:
        """Summary statistics over the retained window (optionally only
        samples at or after ``since``)."""
        if since is None:
            values = self._values
        else:
            values = [v for t, v in zip(self._times, self._values) if t >= since]
        if not values:
            return MetricSummary.empty()
        array = np.asarray(values, dtype=float)
        return MetricSummary(count=len(values), mean=float(array.mean()),
                             minimum=float(array.min()),
                             maximum=float(array.max()),
                             std=float(array.std()), last=float(values[-1]))

    def rate(self, window_s: float) -> float:
        """Samples per second over the trailing ``window_s`` seconds."""
        if window_s <= 0:
            raise ValueError("window must be positive")
        if not self._times:
            return 0.0
        cutoff = self._times[-1] - window_s
        count = sum(1 for t in self._times if t >= cutoff)
        return count / window_s

    def exceeded(self, threshold: float, since: Optional[float] = None) -> bool:
        summary = self.summary(since=since)
        return summary.count > 0 and summary.maximum > threshold


class MetricRegistry:
    """Aggregation point for all metric series of a system.

    Keys are ``(source, metric)`` pairs; the registry lazily creates series
    on first use so monitors do not need central registration code.
    """

    def __init__(self, default_window: int = 1024) -> None:
        self.default_window = default_window
        self._series: Dict[Tuple[str, str], MetricSeries] = {}

    def series(self, source: str, metric: str, unit: str = "") -> MetricSeries:
        key = (source, metric)
        if key not in self._series:
            self._series[key] = MetricSeries(f"{source}.{metric}",
                                             window=self.default_window, unit=unit)
        return self._series[key]

    def sample(self, time: float, source: str, metric: str, value: float,
               unit: str = "") -> None:
        self.series(source, metric, unit=unit).sample(time, value)

    def get(self, source: str, metric: str) -> Optional[MetricSeries]:
        return self._series.get((source, metric))

    def last(self, source: str, metric: str) -> Optional[float]:
        series = self.get(source, metric)
        return series.last if series else None

    def sources(self) -> List[str]:
        seen: List[str] = []
        for source, _ in self._series:
            if source not in seen:
                seen.append(source)
        return seen

    def metrics_of(self, source: str) -> List[str]:
        return [metric for src, metric in self._series if src == source]

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Latest value of every metric, grouped by source — the raw material
        of the self-representation."""
        result: Dict[str, Dict[str, float]] = {}
        for (source, metric), series in self._series.items():
            if series.last is not None:
                result.setdefault(source, {})[metric] = series.last
        return result

    def __len__(self) -> int:
        return len(self._series)

    def __iter__(self) -> Iterable[MetricSeries]:
        return iter(self._series.values())
