"""Tests for the model-domain analyses (dependency, threat, safety)."""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.dependency import Dependency, DependencyAnalysis, DependencyGraph, DependencyKind
from repro.analysis.safety import SafetyAnalysis, SafetyFinding
from repro.analysis.threat import ThreatModel
from repro.contracts.model import (
    AsilLevel,
    Contract,
    SafetyRequirement,
    SecurityRequirement,
    ServiceProvision,
    ServiceRequirement,
)
from repro.mcc import acceptance
from repro.mcc.acceptance import AcceptanceResult, SecurityAcceptanceTest


def _vehicle_dependency_graph() -> DependencyGraph:
    """A small cross-layer graph: ability -> components -> platform -> environment."""
    graph = DependencyGraph()
    graph.add_element("acc_driving", "ability")
    graph.add_element("decelerate", "ability")
    graph.add_element("brake_controller", "software")
    graph.add_element("acc_controller", "software")
    graph.add_element("cpu0", "platform")
    graph.add_element("cpu1", "platform")
    graph.add_element("ambient-temperature", "environment")
    graph.depends_on("acc_driving", "decelerate", DependencyKind.DATA)
    graph.depends_on("decelerate", "brake_controller", DependencyKind.MAPPING)
    graph.depends_on("acc_driving", "acc_controller", DependencyKind.MAPPING)
    graph.depends_on("brake_controller", "cpu0", DependencyKind.MAPPING)
    graph.depends_on("acc_controller", "cpu0", DependencyKind.MAPPING, strength=0.8)
    graph.depends_on("cpu0", "ambient-temperature", DependencyKind.ENVIRONMENT, strength=0.5)
    graph.depends_on("cpu1", "ambient-temperature", DependencyKind.ENVIRONMENT, strength=0.5)
    return graph


class TestDependencyGraph:
    def test_layers_and_elements(self):
        graph = _vehicle_dependency_graph()
        assert set(graph.layers()) == {"ability", "software", "platform", "environment"}
        assert "brake_controller" in graph.elements_on("software")
        assert graph.layer_of("cpu0") == "platform"

    def test_unknown_element_rejected(self):
        graph = DependencyGraph()
        graph.add_element("a", "x")
        with pytest.raises(KeyError):
            graph.depends_on("a", "missing", DependencyKind.DATA)
        with pytest.raises(KeyError):
            graph.layer_of("missing")

    def test_conflicting_layer_rejected(self):
        graph = DependencyGraph()
        graph.add_element("a", "x")
        with pytest.raises(ValueError):
            graph.add_element("a", "y")

    def test_invalid_strength(self):
        with pytest.raises(ValueError):
            Dependency("a", "b", DependencyKind.DATA, strength=0.0)

    def test_closures(self):
        graph = _vehicle_dependency_graph()
        assert "acc_driving" in graph.dependents_closure("cpu0")
        assert "ambient-temperature" in graph.dependencies_closure("acc_driving")

    def test_cross_layer_edges(self):
        graph = _vehicle_dependency_graph()
        cross = graph.cross_layer_edges()
        assert ("decelerate", "brake_controller") in cross
        assert ("acc_driving", "decelerate") not in cross

    def test_no_cycle(self):
        assert not _vehicle_dependency_graph().has_cycle()


class TestDependencyAnalysis:
    def test_failure_effects_reach_ability_layer(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        effects = analysis.failure_effects("cpu0")
        affected = {e.affected_element for e in effects}
        assert {"brake_controller", "acc_controller", "decelerate", "acc_driving"} <= affected
        assert "ability" in analysis.affected_layers("cpu0")

    def test_severity_attenuates_along_path(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        effects = {e.affected_element: e for e in analysis.failure_effects("ambient-temperature")}
        assert effects["cpu0"].severity == pytest.approx(0.5)
        assert effects["acc_controller"].severity == pytest.approx(0.4)

    def test_min_severity_filters(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        effects = analysis.failure_effects("ambient-temperature", min_severity=0.45)
        assert all(e.severity >= 0.45 for e in effects)

    def test_common_cause_elements(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        assert "cpu0" in analysis.common_cause_elements("ambient-temperature")
        assert "cpu1" in analysis.common_cause_elements("ambient-temperature")

    def test_change_impact_maps_layers(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        impact = analysis.change_impact(["brake_controller"])
        assert "ability" in impact and "software" in impact
        assert "decelerate" in impact["ability"]

    def test_single_points_of_failure(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        spofs = analysis.single_points_of_failure(["acc_driving", "decelerate"])
        assert "brake_controller" in spofs
        assert "cpu1" not in spofs

    def test_unknown_element_raises(self):
        analysis = DependencyAnalysis(_vehicle_dependency_graph())
        with pytest.raises(KeyError):
            analysis.failure_effects("missing")


def _threat_contracts():
    gateway = Contract("gateway", requirements=[
        SecurityRequirement(level="HIGH", external_interface=True)],
        provides=[ServiceProvision("remote")])
    planner = Contract("planner", requirements=[
        SecurityRequirement(level="MEDIUM"), SafetyRequirement(asil="C")],
        requires=[ServiceRequirement("remote")],
        provides=[ServiceProvision("trajectory")])
    brake = Contract("brake", requirements=[
        SecurityRequirement(level="LOW"), SafetyRequirement(asil="D")],
        requires=[ServiceRequirement("trajectory")])
    return gateway, planner, brake


class TestThreatModel:
    def _model(self):
        gateway, planner, brake = _threat_contracts()
        model = ThreatModel()
        model.add_components([gateway, planner, brake])
        model.add_session("planner", "gateway")
        model.add_session("brake", "planner")
        return model

    def test_entry_points(self):
        assert self._model().entry_points() == ["gateway"]

    def test_attack_paths_reach_critical_assets(self):
        assessment = self._model().analyse()
        targets = {p.target for p in assessment.attack_paths}
        assert {"planner", "brake"} <= targets
        brake_paths = assessment.paths_to("brake")
        assert brake_paths and brake_paths[0].hops == 2

    def test_exposure_decays_with_hops(self):
        assessment = self._model().analyse()
        planner_exposure = max(p.exposure for p in assessment.paths_to("planner"))
        brake_exposure = max(p.exposure for p in assessment.paths_to("brake"))
        assert planner_exposure > brake_exposure

    def test_under_protected_detection(self):
        assessment = self._model().analyse()
        # brake declares LOW but sits two hops from the surface, which requires LOW;
        # planner declares MEDIUM one hop away (requires MEDIUM) - both fine.
        assert "planner" not in assessment.under_protected
        # Now weaken the planner.
        gateway, planner, brake = _threat_contracts()
        planner = replace(planner, requirements=[
            *(r for r in planner.requirements if r.viewpoint != "security"),
            SecurityRequirement(level="NONE")])
        model = ThreatModel()
        model.add_components([gateway, planner, brake])
        model.add_session("planner", "gateway")
        assessment = model.analyse()
        assert "planner" in assessment.under_protected
        assert not assessment.acceptable

    def test_unreachable_assets_reported(self):
        gateway, planner, brake = _threat_contracts()
        model = ThreatModel()
        model.add_components([gateway, planner, brake])
        assessment = model.analyse()
        assert set(assessment.unreachable_assets) == {"planner", "brake"}

    def test_blast_radius_and_containment(self):
        model = self._model()
        radius = model.blast_radius("gateway")
        assert {"planner", "brake"} <= radius
        candidates = model.containment_candidates("gateway")
        assert candidates[0][0] == "planner"
        assert candidates[0][1] >= 1

    def test_unknown_component_raises(self):
        with pytest.raises(KeyError):
            self._model().blast_radius("nope")
        with pytest.raises(KeyError):
            self._model().add_channel("gateway", "nope")


class TestSafetyAnalysis:
    def _contracts(self):
        high = Contract("braking", requirements=[SafetyRequirement(
            asil="D", fail_operational=True, redundancy_group="brake")],
            requires=[ServiceRequirement("wheel_speed")])
        backup = Contract("braking_backup", requirements=[
            SafetyRequirement(asil="D", redundancy_group="brake")])
        low = Contract("wheel_sensor", requirements=[SafetyRequirement(asil="A")],
                       provides=[ServiceProvision("wheel_speed")])
        return [high, backup, low]

    def test_asil_inheritance_violation_detected(self):
        findings = SafetyAnalysis(self._contracts()).check_asil_decomposition()
        assert any(f.kind == "asil-inheritance" for f in findings)

    def test_missing_provider_detected(self):
        contracts = self._contracts()
        contracts.pop()  # remove the wheel sensor
        findings = SafetyAnalysis(contracts).check_asil_decomposition()
        assert any(f.kind == "missing-provider" for f in findings)

    def test_fail_operational_needs_redundancy(self):
        lonely = Contract("steering", requirements=[
            SafetyRequirement(asil="D", fail_operational=True)])
        findings = SafetyAnalysis([lonely]).check_fail_operational_redundancy()
        assert any(f.kind == "missing-redundancy" for f in findings)
        # With a redundancy peer the finding disappears.
        findings = SafetyAnalysis(self._contracts()).check_fail_operational_redundancy()
        assert findings == []

    def test_mixed_criticality_colocation_is_informational(self):
        contracts = self._contracts()
        mapping = {"braking": "cpu0", "wheel_sensor": "cpu0", "braking_backup": "cpu1"}
        findings = SafetyAnalysis(contracts, mapping).check_mixed_criticality_colocation()
        assert findings and not findings[0].blocking

    def test_redundancy_colocation_is_blocking(self):
        contracts = self._contracts()
        mapping = {"braking": "cpu0", "braking_backup": "cpu0"}
        findings = SafetyAnalysis(contracts, mapping).check_redundancy_mapping_independence()
        assert findings and findings[0].blocking

    def test_acceptable_configuration(self):
        safe = Contract("comp", requirements=[SafetyRequirement(asil="B")])
        analysis = SafetyAnalysis([safe], {"comp": "cpu0"})
        assert analysis.acceptable()
        assert analysis.analyse() == []


def asil_decomposition_by_scan(analysis):
    """Reference for :meth:`SafetyAnalysis.check_asil_decomposition`: the
    providers of each required service found by scanning every contract."""
    findings = []
    for contract in analysis.contracts.values():
        client_asil = contract.asil
        if client_asil == AsilLevel.QM:
            continue
        for requirement in contract.requires:
            providers = [c for c in analysis.contracts.values()
                         if requirement.service in c.provided_services()]
            if not providers:
                if not requirement.optional:
                    findings.append(SafetyFinding(
                        kind="missing-provider", component=contract.component,
                        detail=f"requires {requirement.service!r} but no provider exists"))
                continue
            for provider in providers:
                if provider.asil < client_asil and not analysis._redundant(provider):
                    findings.append(SafetyFinding(
                        kind="asil-inheritance", component=contract.component,
                        detail=(f"ASIL {client_asil.name} component depends on "
                                f"{provider.component} (ASIL {provider.asil.name}) "
                                f"for service {requirement.service!r}")))
    return findings


_SERVICES = ["s0", "s1", "s2", "s3"]


@st.composite
def service_contracts(draw, exposed=st.just(False)):
    """Up to eight contracts wired by services from a small pool; a
    contract may provide a service more than once."""
    contracts = []
    for index in range(draw(st.integers(1, 8))):
        requirements = []
        if draw(st.booleans()):
            requirements.append(SafetyRequirement(
                asil=draw(st.sampled_from(list(AsilLevel))),
                redundancy_group=draw(st.sampled_from([None, "g"]))))
        if draw(st.booleans()):
            requirements.append(SecurityRequirement(
                level=draw(st.sampled_from(["NONE", "LOW", "MEDIUM", "HIGH"])),
                external_interface=draw(exposed)))
        provides = [ServiceProvision(service) for service in
                    draw(st.lists(st.sampled_from(_SERVICES), max_size=3))]
        requires = [ServiceRequirement(service, optional=draw(st.booleans()))
                    for service in draw(st.lists(st.sampled_from(_SERVICES),
                                                 max_size=2, unique=True))]
        contracts.append(Contract(f"c{index}", requirements=requirements,
                                  requires=requires, provides=provides))
    return contracts


class TestSafetyProviderIndex:
    @settings(max_examples=80, deadline=None)
    @given(contracts=service_contracts())
    def test_index_matches_the_scan(self, contracts):
        analysis = SafetyAnalysis(contracts)
        assert analysis.check_asil_decomposition() == \
            asil_decomposition_by_scan(analysis)

    def test_a_service_provided_twice_is_one_provider(self):
        client = Contract("client", requirements=[SafetyRequirement(asil="C")],
                          requires=[ServiceRequirement("svc")])
        provider = Contract("provider", requirements=[SafetyRequirement(asil="A")],
                            provides=[ServiceProvision("svc")] * 2)
        analysis = SafetyAnalysis([client, provider])
        findings = analysis.check_asil_decomposition()
        assert findings == asil_decomposition_by_scan(analysis)
        assert [f.kind for f in findings] == ["asil-inheritance"]


def security_by_threat_model(contracts):
    """Reference for :class:`SecurityAcceptanceTest`: always build and
    analyse the full threat model."""
    model = ThreatModel()
    model.add_components(contracts)
    providers = {}
    for contract in contracts:
        for provision in contract.provides:
            providers.setdefault(provision.service, []).append(contract.component)
    for contract in contracts:
        for requirement in contract.requires:
            for provider in providers.get(requirement.service, []):
                model.add_session(contract.component, provider)
    assessment = model.analyse()
    findings = [f"component {name} is under-protected for its exposure"
                for name in assessment.under_protected]
    for path in assessment.attack_paths[:10]:
        findings.append(
            f"attack path {' -> '.join(path.path)} (exposure {path.exposure:.2f})")
    return AcceptanceResult(viewpoint="security", passed=assessment.acceptable,
                            findings=findings,
                            metrics={"attack_paths": float(len(assessment.attack_paths)),
                                     "under_protected": float(len(assessment.under_protected))})


class TestSecurityWithoutEntryPoints:
    """Without an external interface the threat model has no entry point,
    so the acceptance test skips building it; the verdict is unchanged."""

    @staticmethod
    def counting_models(monkeypatch):
        built = []

        class CountingThreatModel(ThreatModel):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(acceptance, "ThreatModel", CountingThreatModel)
        return built

    @settings(max_examples=60, deadline=None)
    @given(contracts=service_contracts())
    def test_unexposed_sets_match_the_threat_model(self, contracts):
        result = SecurityAcceptanceTest().run(contracts, {}, {}, None)
        assert result == security_by_threat_model(contracts)
        assert result.passed and not result.findings

    @settings(max_examples=60, deadline=None)
    @given(contracts=service_contracts(exposed=st.booleans()))
    def test_exposed_sets_build_the_threat_model(self, contracts):
        with pytest.MonkeyPatch.context() as monkeypatch:
            built = self.counting_models(monkeypatch)
            result = SecurityAcceptanceTest().run(contracts, {}, {}, None)
        assert result == security_by_threat_model(contracts)
        exposed = any(c.security is not None and c.security.external_interface
                      for c in contracts)
        assert len(built) == int(exposed)
