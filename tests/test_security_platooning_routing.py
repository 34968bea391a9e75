"""Tests for the security layer, platooning/consensus and weather-aware routing."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.platooning.consensus import ConsensusProtocol, median_consensus
from repro.platooning.platoon import Platoon, PlatoonError, PlatoonMember
from repro.platooning.trust import TrustLevel, TrustModel
from repro.routing.planner import PlannerConfig, RiskAwarePlanner, build_alpine_network
from repro.routing.road_network import RoadNetwork, RoadSegment, RouteError
from repro.routing.weather_forecast import SegmentForecast, WeatherForecast
from repro.security.access_control import build_policy_from_registry
from repro.security.attacks import (
    AttackInjector,
    ComponentCompromiseAttack,
    FloodingAttack,
    MessageInjectionAttack,
)
from repro.security.ids import IdsRule, IntrusionDetectionSystem
from repro.contracts.model import Contract, ServiceProvision, ServiceRequirement
from repro.platform.components import Component, ComponentRegistry
from repro.vehicle.environment import Weather, WeatherCondition


class TestIds:
    def _ids(self):
        ids = IntrusionDetectionSystem(suspicion_threshold=3)
        ids.add_rule(IdsRule("brake", allowed_ids={0x0A0}, allowed_peers={"pedal"},
                             max_rate_hz=100.0))
        return ids

    def test_authorized_traffic_silent(self):
        ids = self._ids()
        assert ids.observe_can_frame(0.0, "brake", 0x0A0) == []
        assert ids.observe_service_call(0.1, "brake", "pedal") == []
        assert ids.suspected_compromised() == []

    def test_unauthorized_id_detected(self):
        ids = self._ids()
        alerts = ids.observe_can_frame(0.0, "brake", 0x140)
        assert alerts and "unauthorized CAN id" in alerts[0].reason

    def test_unauthorized_peer_detected(self):
        ids = self._ids()
        alerts = ids.observe_service_call(0.0, "brake", "steering")
        assert alerts and "unauthorized peer" in alerts[0].reason

    def test_unknown_sender_detected(self):
        ids = self._ids()
        assert ids.observe_can_frame(0.0, "ghost", 0x1)[0].reason == "unknown sender"

    def test_rate_limit(self):
        ids = IntrusionDetectionSystem()
        ids.add_rule(IdsRule("chatty", max_rate_hz=10.0))
        alerts = []
        for i in range(30):
            alerts += ids.observe_can_frame(i * 0.01, "chatty", 0x1)
        assert any("rate limit" in a.reason for a in alerts)

    def test_suspicion_threshold_and_detection_time(self):
        ids = self._ids()
        for i in range(3):
            ids.observe_can_frame(float(i), "brake", 0x140)
        assert ids.is_suspected("brake")
        assert ids.detection_time("brake") == 2.0
        assert ids.first_alert_time("brake") == 0.0

    def test_anomaly_conversion_and_reset(self):
        ids = self._ids()
        ids.observe_can_frame(0.0, "brake", 0x140)
        anomalies = ids.drain_anomalies()
        assert len(anomalies) == 1 and anomalies[0].layer == "communication"
        assert ids.drain_anomalies() == []
        ids.reset()
        assert ids.violations_of("brake") == 0


class TestAccessControlDerivation:
    def test_policy_from_registry(self):
        registry = ComponentRegistry()
        provider = Contract("srv", provides=[ServiceProvision("svc")])
        client = Contract("cli", requires=[ServiceRequirement("svc")])
        registry.add(Component(provider))
        registry.add(Component(client))
        registry.autowire()
        config = build_policy_from_registry(registry, can_id_assignments={"srv": {0x10}},
                                            default_rate_hz=50.0)
        assert ("cli", "srv", "svc") in config.allowed_calls
        assert config.allowed_peers_of("cli") == {"srv"}
        ids = config.configure_ids(IntrusionDetectionSystem())
        assert ids.rule_for("srv").allowed_ids == {0x10}
        assert ids.rule_for("cli").max_rate_hz == 50.0
        from repro.monitoring.enforcement import AccessPolicyEnforcer, EnforcementAction
        enforcer = config.configure_enforcer(AccessPolicyEnforcer())
        assert enforcer.check(0.0, "cli", "srv", "svc") == EnforcementAction.ALLOWED
        assert enforcer.check(0.0, "srv", "cli", "svc") == EnforcementAction.BLOCKED


class TestAttacks:
    def test_message_injection_window(self):
        attack = MessageInjectionAttack("spoof", "brake", start_time=5.0, duration=2.0,
                                        spoofed_ids=(0x140,), frames_per_cycle=2)
        assert attack.malicious_frames(4.0) == []
        frames = attack.malicious_frames(5.5)
        assert len(frames) == 2 and frames[0].can_id == 0x140
        assert frames[0].source == "brake"
        assert attack.malicious_frames(8.0) == []

    def test_flooding_attack_volume(self):
        attack = FloodingAttack("flood", "infotainment", start_time=0.0, frames_per_cycle=20)
        assert len(attack.malicious_frames(1.0)) == 20

    def test_compromise_attack_calls(self):
        attack = ComponentCompromiseAttack("lateral", "gateway", start_time=0.0,
                                           target_peers=("brake", "steering"),
                                           calls_per_cycle=2)
        calls = attack.malicious_calls(0.0)
        assert ("gateway", "brake") in calls

    def test_injector_aggregates(self):
        injector = AttackInjector()
        injector.add(MessageInjectionAttack("a", "brake", start_time=0.0))
        injector.add(FloodingAttack("b", "telematics", start_time=10.0))
        assert injector.compromised_components() == ["brake", "telematics"]
        assert injector.compromised_components(time=0.0) == ["brake"]
        assert len(injector.frames_at(0.0)) == 1
        assert injector.injected_frames == 1


class TestTrustModel:
    def test_reputation_evolves_with_evidence(self):
        trust = TrustModel()
        assert trust.level("peer") == TrustLevel.SUSPECT
        for _ in range(5):
            trust.record_consistent("peer")
        assert trust.is_trusted("peer")
        for _ in range(10):
            trust.record_deviation("peer")
        assert trust.is_untrusted("peer")
        assert trust.weight("peer") == 0.0

    def test_reset(self):
        trust = TrustModel()
        trust.record_deviation("peer")
        trust.reset("peer")
        assert trust.reputation("peer") == trust.initial_trust

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            TrustModel(trusted_threshold=0.2, untrusted_threshold=0.5)


class TestConsensus:
    def test_median_consensus_weighted(self):
        assert median_consensus([1.0, 2.0, 100.0]) == 2.0
        assert median_consensus([1.0, 10.0], weights=[10.0, 1.0]) == 1.0
        with pytest.raises(ValueError):
            median_consensus([])

    def test_honest_members_converge(self):
        protocol = ConsensusProtocol(tolerance=0.1)
        result = protocol.agree({"a": 20.0, "b": 24.0, "c": 22.0})
        assert result.converged
        assert 20.0 <= result.value <= 24.0
        assert result.agreement_error(["a", "b", "c"]) <= 0.1

    def test_malicious_member_does_not_drag_agreement(self):
        protocol = ConsensusProtocol(tolerance=0.1)
        honest = {"a": 20.0, "b": 21.0, "c": 22.0}
        result = protocol.agree({**honest, "evil": 20.0},
                                faulty_behaviour={"evil": lambda r: 200.0 + 10 * r})
        assert result.converged
        assert result.value <= 25.0  # stays near the honest values

    def test_all_faulty_fails_gracefully(self):
        protocol = ConsensusProtocol()
        result = protocol.agree({"evil": 10.0}, faulty_behaviour={"evil": lambda r: 1e9})
        assert not result.converged and result.value is None

    @given(values=st.lists(st.floats(min_value=5.0, max_value=35.0), min_size=3, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_agreement_within_honest_range(self, values):
        """Property: with only honest members, the agreed value lies within
        the range of the initial proposals."""
        proposals = {f"m{i}": v for i, v in enumerate(values)}
        result = ConsensusProtocol(tolerance=0.05).agree(proposals)
        assert result.converged
        assert min(values) - 1e-6 <= result.value <= max(values) + 1e-6


class TestPlatoon:
    def test_fog_limits_standalone_speed(self):
        member = PlatoonMember("ego", sensor_fog_capability=0.1, preferred_speed_mps=30.0)
        clear_speed = member.safe_standalone_speed(Weather.clear())
        fog_speed = member.safe_standalone_speed(Weather.dense_fog(visibility_m=50.0))
        assert fog_speed < clear_speed

    def test_platoon_agreement_benefits_impaired_member(self):
        platoon = Platoon(leader="leader")
        platoon.add_member(PlatoonMember("leader", sensor_visibility_m=220.0,
                                         sensor_fog_capability=0.9, preferred_speed_mps=24.0))
        platoon.add_member(PlatoonMember("ego", sensor_fog_capability=0.1,
                                         preferred_speed_mps=25.0))
        fog = Weather.dense_fog(visibility_m=60.0)
        result = platoon.agree_on_speed_and_gap(fog)
        assert result.converged
        assert platoon.agreed_speed_mps is not None
        assert platoon.speed_benefit("ego", fog) > 0.0
        # The agreed speed never exceeds what the slowest honest member supports.
        bounds = [platoon.platoon_speed_bound(m, fog, platoon.agreed_gap_m or 10.0)
                  for m in platoon.honest_members()]
        assert platoon.agreed_speed_mps <= max(min(bounds), min(bounds)) + 1e-6

    def test_malicious_member_cannot_inflate_speed(self):
        platoon = Platoon(leader="leader")
        platoon.add_member(PlatoonMember("leader", sensor_fog_capability=0.9,
                                         preferred_speed_mps=24.0))
        platoon.add_member(PlatoonMember("ego", sensor_fog_capability=0.1,
                                         preferred_speed_mps=25.0))
        platoon.add_member(PlatoonMember("liar", sensor_fog_capability=0.5,
                                         preferred_speed_mps=26.0, malicious=True))
        fog = Weather.dense_fog(visibility_m=60.0)
        result = platoon.agree_on_speed_and_gap(fog)
        assert result.converged
        honest_bounds = [platoon.platoon_speed_bound(m, fog, 10.0)
                         for m in platoon.honest_members()]
        assert platoon.agreed_speed_mps <= min(honest_bounds) + 1e-6

    def test_platoon_errors(self):
        platoon = Platoon(leader="leader")
        platoon.add_member(PlatoonMember("leader"))
        with pytest.raises(PlatoonError):
            platoon.agree_on_speed_and_gap(Weather.clear())
        with pytest.raises(PlatoonError):
            platoon.remove_member("leader")
        with pytest.raises(PlatoonError):
            platoon.add_member(PlatoonMember("leader"))


class TestRoadNetworkAndForecast:
    def test_alpine_network_routes(self):
        network = build_alpine_network()
        routes = network.all_simple_routes("south", "north")
        assert len(routes) >= 3
        pass_route = ["south", "pass_foot", "pass_summit", "north"]
        assert pass_route in routes
        assert network.path_length_km(pass_route) == pytest.approx(120.0)

    def test_segment_validation(self):
        with pytest.raises(RouteError):
            RoadSegment("a", "b", length_km=0.0, nominal_speed_kmh=100.0)
        with pytest.raises(RouteError):
            RoadSegment("a", "b", length_km=1.0, nominal_speed_kmh=100.0, elevation="space")
        network = RoadNetwork()
        network.add_segment(RoadSegment("a", "b", 10.0, 100.0))
        with pytest.raises(RouteError):
            network.add_segment(RoadSegment("a", "b", 10.0, 100.0))
        with pytest.raises(RouteError):
            network.segment("a", "z")

    def test_forecast_probabilities_normalized(self):
        forecast = SegmentForecast({WeatherCondition.CLEAR: 2.0, WeatherCondition.SNOW: 2.0})
        assert forecast.probability(WeatherCondition.CLEAR) == pytest.approx(0.5)
        assert forecast.adverse_probability() == pytest.approx(0.5)

    def test_exposure_grows_with_elevation_and_severity(self):
        network = build_alpine_network()
        pass_segment = network.segment("pass_foot", "pass_summit")
        valley_segment = network.segment("south", "valley_junction")
        forecast = WeatherForecast(severity=0.4)
        assert (forecast.adverse_probability(pass_segment)
                > forecast.adverse_probability(valley_segment))
        assert (WeatherForecast(severity=0.8).adverse_probability(pass_segment)
                > forecast.adverse_probability(pass_segment))

    def test_expected_speed_factor_below_one_in_bad_weather(self):
        network = build_alpine_network()
        pass_segment = network.segment("pass_foot", "pass_summit")
        assert WeatherForecast(severity=0.9).expected_speed_factor(pass_segment) < 0.8


class TestRiskAwarePlanner:
    def test_clear_forecast_prefers_short_pass(self):
        planner = RiskAwarePlanner(build_alpine_network())
        route = planner.plan("south", "north", WeatherForecast(severity=0.0))
        assert "pass_summit" in route.nodes

    def test_degraded_vehicle_takes_detour_in_severe_weather(self):
        from repro.scenarios.weather_routing import DEGRADED_VEHICLE_CAPABILITIES
        planner = RiskAwarePlanner(build_alpine_network(),
                                   capabilities=DEGRADED_VEHICLE_CAPABILITIES)
        route = planner.plan("south", "north", WeatherForecast(severity=0.7))
        assert "pass_summit" not in route.nodes
        assert route.length_km > 120.0

    def test_risk_neutral_baseline_sticks_to_pass(self):
        planner = RiskAwarePlanner(build_alpine_network(),
                                   capabilities={c: 1.0 for c in WeatherCondition},
                                   config=PlannerConfig(risk_aversion=0.0))
        route = planner.plan("south", "north", WeatherForecast(severity=0.9))
        assert "pass_summit" in route.nodes

    def test_alternatives_sorted_by_cost(self):
        planner = RiskAwarePlanner(build_alpine_network())
        alternatives = planner.alternatives("south", "north", WeatherForecast(severity=0.5))
        costs = [route.cost for route in alternatives]
        assert costs == sorted(costs)

    def test_unknown_route_raises(self):
        planner = RiskAwarePlanner(build_alpine_network())
        with pytest.raises(RouteError):
            planner.plan("south", "nowhere", WeatherForecast(severity=0.1))

    def test_invalid_capabilities(self):
        with pytest.raises(ValueError):
            RiskAwarePlanner(build_alpine_network(),
                             capabilities={WeatherCondition.SNOW: 1.5})
