"""Tests for the contracting language (repro.contracts)."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.contracts.language import ContractParser, ContractSerializer, ContractSyntaxError
from repro.contracts.model import (
    AsilLevel,
    Contract,
    ContractViolation,
    RealTimeRequirement,
    Requirement,
    ResourceRequirement,
    SafetyRequirement,
    SecurityLevel,
    SecurityRequirement,
)
from repro.contracts.viewpoints import STANDARD_VIEWPOINTS, Viewpoint, ViewpointRegistry


class TestAsilLevel:
    def test_ordering(self):
        assert AsilLevel.QM < AsilLevel.A < AsilLevel.B < AsilLevel.C < AsilLevel.D

    @pytest.mark.parametrize("value,expected", [
        ("D", AsilLevel.D), ("asil-b", AsilLevel.B), ("ASIL_C", AsilLevel.C),
        ("qm", AsilLevel.QM), (2, AsilLevel.B), (AsilLevel.A, AsilLevel.A),
    ])
    def test_parse_accepts_common_spellings(self, value, expected):
        assert AsilLevel.parse(value) == expected

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            AsilLevel.parse("E")
        with pytest.raises(ValueError):
            AsilLevel.parse("")


class TestSecurityLevel:
    def test_parse(self):
        assert SecurityLevel.parse("high") == SecurityLevel.HIGH
        assert SecurityLevel.parse(0) == SecurityLevel.NONE
        with pytest.raises(ValueError):
            SecurityLevel.parse("extreme")


class TestRealTimeRequirement:
    def test_deadline_defaults_to_period(self):
        req = RealTimeRequirement(period=0.01, wcet=0.002)
        assert req.deadline == 0.01
        assert req.utilization == pytest.approx(0.2)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ContractViolation):
            RealTimeRequirement(period=0.0, wcet=0.001)
        with pytest.raises(ContractViolation):
            RealTimeRequirement(period=0.01, wcet=0.0)
        with pytest.raises(ContractViolation):
            RealTimeRequirement(period=0.01, wcet=0.002, deadline=-1.0)
        with pytest.raises(ContractViolation):
            RealTimeRequirement(period=0.01, wcet=0.002, jitter=-0.1)

    @pytest.mark.parametrize("field", ["period", "wcet", "deadline", "jitter"])
    def test_nan_parameters_rejected(self, field):
        """NaN fails every ``<=``/``<`` test, so each check is negated."""
        parameters = dict(period=0.01, wcet=0.002, deadline=0.01, jitter=0.0)
        parameters[field] = float("nan")
        with pytest.raises(ContractViolation):
            RealTimeRequirement(**parameters)

    def test_wcet_beyond_deadline_rejected(self):
        with pytest.raises(ContractViolation):
            RealTimeRequirement(period=0.01, wcet=0.008, deadline=0.005)


class TestContract:
    def test_viewpoint_accessors(self):
        contract = Contract("comp")
        contract.add_requirement(RealTimeRequirement(period=0.01, wcet=0.001))
        contract.add_requirement(SafetyRequirement(asil="C", fail_operational=True))
        contract.add_requirement(SecurityRequirement(level="HIGH"))
        contract.add_requirement(ResourceRequirement(memory_kib=128))
        assert contract.timing.period == 0.01
        assert contract.safety.asil == AsilLevel.C
        assert contract.security.level == SecurityLevel.HIGH
        assert contract.resources.memory_kib == 128
        assert contract.asil == AsilLevel.C

    def test_asil_defaults_to_qm(self):
        assert Contract("comp").asil == AsilLevel.QM

    def test_empty_name_rejected(self):
        with pytest.raises(ContractViolation):
            Contract("")

    def test_service_helpers(self):
        contract = Contract("comp")
        contract.add_provided_service("svc_a").add_required_service("svc_b", max_latency=0.01)
        assert contract.provided_services() == ["svc_a"]
        assert contract.required_services() == ["svc_b"]
        assert contract.requires[0].max_latency == 0.01

    def test_validate_flags_provide_and_require_overlap(self):
        contract = Contract("comp")
        contract.add_provided_service("svc").add_required_service("svc")
        assert any("provides and requires" in problem for problem in contract.validate())

    def test_validate_flags_duplicate_provision(self):
        contract = Contract("comp")
        contract.add_provided_service("svc").add_provided_service("svc")
        assert contract.validate()

    def test_validate_flags_duplicate_viewpoint(self):
        contract = Contract("comp")
        contract.add_requirement(SafetyRequirement(asil="A"))
        contract.add_requirement(SafetyRequirement(asil="B"))
        assert any("multiple safety" in problem for problem in contract.validate())

    def test_validate_reports_duplicates_in_first_appearance_order(self):
        """The order does not depend on the hash seed: two processes with
        different seeds report the same problems in the same order."""
        script = (
            "from repro.contracts.model import (Contract, RealTimeRequirement,"
            " ResourceRequirement, SafetyRequirement, SecurityRequirement)\n"
            "contract = Contract('comp')\n"
            "for _ in range(2):\n"
            "    for requirement in (ResourceRequirement(), SecurityRequirement(),"
            " RealTimeRequirement(period=0.01, wcet=0.001),"
            " SafetyRequirement()):\n"
            "        contract.add_requirement(requirement)\n"
            "print(contract.validate())\n")
        outputs = set()
        for seed in ("0", "1"):
            environment = dict(os.environ, PYTHONHASHSEED=seed,
                               PYTHONPATH=os.pathsep.join(sys.path))
            outputs.add(subprocess.run([sys.executable, "-c", script],
                                       env=environment, check=True,
                                       capture_output=True,
                                       text=True).stdout)
        expected = [f"component comp has multiple {viewpoint} requirements"
                    for viewpoint in ("resources", "security", "timing",
                                      "safety")]
        assert outputs == {f"{expected}\n"}

    def test_validate_accepts_well_formed_contract(self, acc_contracts):
        for contract in acc_contracts:
            assert contract.validate() == []

    def test_negative_resources_rejected(self):
        with pytest.raises(ContractViolation):
            ResourceRequirement(memory_kib=-1)


_RESOLVED = {"timing": RealTimeRequirement, "safety": SafetyRequirement,
             "security": SecurityRequirement, "resources": ResourceRequirement}


def _claiming(viewpoint):
    """A base :class:`Requirement` that claims ``viewpoint`` with the wrong
    type: the accessor of that viewpoint must then read ``None``."""
    requirement = Requirement()
    requirement.viewpoint = viewpoint
    return requirement


_typed_requirements = st.one_of(
    st.builds(RealTimeRequirement, period=st.just(0.1),
              wcet=st.floats(0.001, 0.09)),
    st.builds(SafetyRequirement, asil=st.sampled_from(list(AsilLevel)),
              redundancy_group=st.sampled_from([None, "g"])),
    st.builds(SecurityRequirement, level=st.sampled_from(list(SecurityLevel)),
              external_interface=st.booleans()),
    st.builds(ResourceRequirement, memory_kib=st.floats(0.0, 1024.0)))
_requirements = st.one_of(
    _typed_requirements,
    st.builds(_claiming, st.sampled_from(["generic"] + list(_RESOLVED))))


def assert_resolved_like_the_scan(contract):
    """The resolved viewpoint attributes equal the first-requirement scan."""
    for viewpoint, kind in _RESOLVED.items():
        first = contract.requirement(viewpoint)
        expected = first if isinstance(first, kind) else None
        assert getattr(contract, viewpoint) is expected, viewpoint
    safety = contract.requirement("safety")
    expected_asil = safety.asil if isinstance(safety, SafetyRequirement) \
        else AsilLevel.QM
    assert contract.asil == expected_asil


class TestResolvedViewpoints:
    """``timing``/``safety``/``security``/``resources`` are resolved when
    the requirement list changes; every route must agree with a scan."""

    @settings(max_examples=60, deadline=None)
    @given(requirements=st.lists(_requirements, max_size=7))
    def test_construction_add_and_reassignment(self, requirements):
        constructed = Contract("comp", requirements=list(requirements))
        assert_resolved_like_the_scan(constructed)
        added = Contract("comp")
        for requirement in requirements:
            added.add_requirement(requirement)
            assert_resolved_like_the_scan(added)
        reassigned = Contract("comp", requirements=[
            SafetyRequirement(asil="D"), RealTimeRequirement(period=1.0, wcet=0.5)])
        reassigned.requirements = list(requirements)
        assert_resolved_like_the_scan(reassigned)
        assert constructed == added == reassigned

    @settings(max_examples=30, deadline=None)
    @given(requirements=st.lists(_typed_requirements, max_size=4,
                                 unique_by=lambda requirement: requirement.viewpoint))
    def test_parse_serialize_round_trip(self, requirements):
        parser, serializer = ContractParser(), ContractSerializer()
        original = Contract("comp", requirements=list(requirements))
        parsed = parser.parse(serializer.to_dict(original))
        assert_resolved_like_the_scan(parsed)
        for viewpoint in _RESOLVED:
            assert getattr(parsed, viewpoint) == getattr(original, viewpoint)

    def test_asil_follows_an_in_place_change(self):
        contract = Contract("comp", requirements=[SafetyRequirement(asil="A")])
        contract.safety.asil = AsilLevel.D
        assert contract.asil == AsilLevel.D


class TestContractParser:
    def test_parse_full_document(self, parser):
        contract = parser.parse({
            "component": "acc",
            "timing": {"period": 0.01, "wcet": 0.002, "jitter": 0.001},
            "safety": {"asil": "C", "fail_operational": True, "redundancy_group": "ctl"},
            "security": {"level": "MEDIUM", "allowed_peers": ["tracker"],
                         "external_interface": False},
            "resources": {"memory_kib": 256, "can_bandwidth_bps": 1000},
            "requires": [{"service": "objects", "max_latency": 0.02}],
            "provides": [{"service": "setpoints", "max_clients": 2}],
            "metadata": {"skill": "acc_driving"},
        })
        assert contract.component == "acc"
        assert contract.timing.jitter == 0.001
        assert contract.safety.redundancy_group == "ctl"
        assert contract.security.allowed_peers == ["tracker"]
        assert contract.provides[0].max_clients == 2
        assert contract.metadata["skill"] == "acc_driving"

    def test_parse_json_string(self, parser):
        contract = parser.parse('{"component": "x", "provides": ["svc"]}')
        assert contract.provided_services() == ["svc"]

    def test_string_service_shorthand(self, parser):
        contract = parser.parse({"component": "x", "requires": ["a"], "provides": ["b"]})
        assert contract.required_services() == ["a"]
        assert contract.provided_services() == ["b"]

    def test_missing_component_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse({"timing": {"period": 1, "wcet": 0.1}})

    def test_unknown_field_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse({"component": "x", "frobnication": {}})

    def test_invalid_json_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse("{not json")

    def test_timing_missing_field_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse({"component": "x", "timing": {"period": 0.01}})

    def test_invalid_requirement_values_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse({"component": "x", "timing": {"period": -1, "wcet": 0.1}})

    def test_nan_wcet_rejected(self, parser):
        """JSON's ``NaN`` literal parses to a float NaN."""
        with pytest.raises(ContractSyntaxError, match="wcet"):
            parser.parse('{"component": "x", '
                         '"timing": {"period": 0.01, "wcet": NaN}}')

    def test_non_dict_requirement_rejected(self, parser):
        with pytest.raises(ContractSyntaxError):
            parser.parse({"component": "x", "safety": "ASIL-D"})

    def test_parse_many(self, parser):
        contracts = parser.parse_many([{"component": "a"}, {"component": "b"}])
        assert [c.component for c in contracts] == ["a", "b"]

    def test_round_trip_through_serializer(self, parser):
        serializer = ContractSerializer()
        original = parser.parse({
            "component": "acc",
            "timing": {"period": 0.01, "wcet": 0.002},
            "safety": {"asil": "B"},
            "requires": [{"service": "objects"}],
            "provides": [{"service": "setpoints"}],
        })
        round_tripped = parser.parse(serializer.to_dict(original))
        assert round_tripped.component == original.component
        assert round_tripped.timing.period == original.timing.period
        assert round_tripped.safety.asil == original.safety.asil
        assert round_tripped.required_services() == original.required_services()

    def test_to_json_produces_valid_json(self, parser):
        serializer = ContractSerializer()
        contract = parser.parse({"component": "x", "timing": {"period": 1.0, "wcet": 0.1}})
        assert '"component"' in serializer.to_json(contract)


class TestViewpoints:
    def test_standard_registry_contains_paper_viewpoints(self):
        for name in ("timing", "safety", "security"):
            assert name in STANDARD_VIEWPOINTS

    def test_mandatory_selection(self):
        mandatory = {v.name for v in STANDARD_VIEWPOINTS.mandatory()}
        assert {"timing", "safety", "security"} <= mandatory
        assert "resources" not in mandatory

    def test_duplicate_registration_rejected(self):
        registry = ViewpointRegistry([Viewpoint("x", "desc")])
        with pytest.raises(ValueError):
            registry.register(Viewpoint("x", "other"))

    def test_unknown_viewpoint_lookup_raises(self):
        with pytest.raises(KeyError):
            STANDARD_VIEWPOINTS.get("does-not-exist")

    def test_relevant_contracts(self, acc_contracts):
        timing = STANDARD_VIEWPOINTS.get("timing")
        assert len(timing.relevant_contracts(acc_contracts)) == len(acc_contracts)
        dependency = STANDARD_VIEWPOINTS.get("dependency")
        assert dependency.relevant_contracts(acc_contracts) == []
