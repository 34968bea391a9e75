"""Weather-aware route planning under uncertainty (Section V).

"If the system was aware that its systems may degrade on a certain route due
to possible weather influences, it could plan alternative routes which avoid
weather-related degradation. ... a self-aware vehicle could determine whether
it plans a (possibly shorter) route across an alpine pass in winter or
whether it is advantageous to take a longer detour without risking degraded
performance."
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "road_network": ["RoadNetwork", "RoadSegment", "RouteError"],
    "weather_forecast": ["WeatherForecast", "SegmentForecast"],
    "planner": ["RiskAwarePlanner", "Route", "PlannerConfig",
                "build_alpine_network"],
})
