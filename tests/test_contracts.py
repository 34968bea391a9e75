"""Tests for the contracting language (repro.contracts)."""

from __future__ import annotations

import json
import os
import re
from dataclasses import FrozenInstanceError, field, make_dataclass, replace
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
    ServiceProvision,
    ServiceRequirement,
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
        contract = Contract("comp", requirements=[
            RealTimeRequirement(period=0.01, wcet=0.001),
            SafetyRequirement(asil="C", fail_operational=True),
            SecurityRequirement(level="HIGH"),
            ResourceRequirement(memory_kib=128)])
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
        contract = Contract("comp", requires=[ServiceRequirement("svc_b", max_latency=0.01)],
                            provides=[ServiceProvision("svc_a")])
        assert contract.provided_services() == ["svc_a"]
        assert contract.required_services() == ["svc_b"]
        assert contract.requires[0].max_latency == 0.01

    def test_validate_flags_provide_and_require_overlap(self):
        contract = Contract("comp", requires=[ServiceRequirement("svc")],
                            provides=[ServiceProvision("svc")])
        assert any("provides and requires" in problem for problem in contract.validate())

    def test_validate_flags_duplicate_provision(self):
        contract = Contract("comp", provides=[ServiceProvision("svc")] * 2)
        assert contract.validate()

    def test_validate_flags_duplicate_viewpoint(self):
        contract = Contract("comp", requirements=[SafetyRequirement(asil="A"),
                                                  SafetyRequirement(asil="B")])
        assert any("multiple safety" in problem for problem in contract.validate())

    def test_validate_reports_duplicates_in_first_appearance_order(self):
        """The order does not depend on the hash seed: two processes with
        different seeds report the same problems in the same order."""
        script = (
            "from repro.contracts.model import (Contract, RealTimeRequirement,"
            " ResourceRequirement, SafetyRequirement, SecurityRequirement)\n"
            "contract = Contract('comp', requirements=2 * ["
            "ResourceRequirement(), SecurityRequirement(),"
            " RealTimeRequirement(period=0.01, wcet=0.001),"
            " SafetyRequirement()])\n"
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

    @pytest.mark.parametrize("budget", ["memory_kib", "can_bandwidth_bps"])
    def test_nan_resources_rejected(self, budget):
        """A NaN budget would make its processor's or the bus's summed
        demand NaN, which passes every capacity check."""
        with pytest.raises(ContractViolation):
            ResourceRequirement(**{budget: float("nan")})


_RESOLVED = {"timing": RealTimeRequirement, "safety": SafetyRequirement,
             "security": SecurityRequirement, "resources": ResourceRequirement}


#: viewpoint -> a requirement type that claims it without being the
#: viewpoint's own type: the accessor of that viewpoint must then read
#: ``None``.
_CLAIMING = {viewpoint: make_dataclass(
    f"Claims{viewpoint.title()}",
    [("viewpoint", str, field(init=False, default=viewpoint))],
    bases=(Requirement,), frozen=True)
    for viewpoint in ["generic", "timing", "safety", "security", "resources"]}


def _claiming(viewpoint):
    return _CLAIMING[viewpoint]()


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


_names = st.text("abcdefgh_", min_size=1, max_size=6)

#: Valid contracts as the parser builds them: at most one typed
#: requirement per viewpoint, required services with latencies and
#: optional flags, provided services with client limits, security peers
#: and string metadata.
_documented_contracts = st.builds(
    Contract,
    component=_names,
    requirements=st.lists(st.one_of(
        st.builds(RealTimeRequirement, period=st.just(0.1),
                  wcet=st.floats(0.001, 0.05),
                  deadline=st.none() | st.floats(0.05, 0.2),
                  jitter=st.floats(0.0, 0.01)),
        st.builds(SafetyRequirement, asil=st.sampled_from(list(AsilLevel)),
                  fail_operational=st.booleans(),
                  redundancy_group=st.none() | _names),
        st.builds(SecurityRequirement,
                  level=st.sampled_from(list(SecurityLevel)),
                  allowed_peers=st.lists(_names, max_size=3),
                  external_interface=st.booleans()),
        st.builds(ResourceRequirement, memory_kib=st.floats(0.0, 1e6),
                  can_bandwidth_bps=st.floats(0.0, 1e6),
                  requires_vm_isolation=st.booleans())),
        max_size=4, unique_by=lambda requirement: requirement.viewpoint),
    requires=st.lists(st.builds(ServiceRequirement, service=_names,
                                max_latency=st.none() | st.floats(0.001, 1.0),
                                optional=st.booleans()), max_size=3),
    provides=st.lists(st.builds(ServiceProvision, service=_names,
                                max_clients=st.none() | st.integers(0, 16)),
                      max_size=3),
    metadata=st.dictionaries(_names, st.text(max_size=8), max_size=3))


class TestResolvedViewpoints:
    """``timing``/``safety``/``security``/``resources`` are resolved when a
    contract is built; every way of building one must agree with a scan."""

    @settings(max_examples=60, deadline=None)
    @given(requirements=st.lists(_requirements, max_size=7))
    def test_construction_add_and_reassignment(self, requirements):
        """Built at once, built one added requirement at a time, and
        rebuilt from another contract with the list exchanged."""
        constructed = Contract("comp", requirements=list(requirements))
        assert_resolved_like_the_scan(constructed)
        added = Contract("comp")
        for requirement in requirements:
            added = replace(added, requirements=added.requirements + (requirement,))
            assert_resolved_like_the_scan(added)
        reassigned = Contract("comp", requirements=[
            SafetyRequirement(asil="D"), RealTimeRequirement(period=1.0, wcet=0.5)])
        reassigned = replace(reassigned, requirements=list(requirements))
        assert_resolved_like_the_scan(reassigned)
        assert constructed == added == reassigned

    @settings(max_examples=60, deadline=None)
    @given(original=_documented_contracts)
    def test_parse_serialize_round_trip(self, original):
        """``parse(to_dict(c)) == c`` field for field, and the parsed
        contract writes the same document."""
        parser, serializer = ContractParser(), ContractSerializer()
        document = serializer.to_dict(original)
        parsed = parser.parse(document)
        assert parsed == original
        for name in ("requirements", "requires", "provides"):
            assert type(getattr(parsed, name)) is tuple
        assert dict(parsed.metadata) == dict(original.metadata)
        assert_resolved_like_the_scan(parsed)
        for viewpoint in _RESOLVED:
            assert getattr(parsed, viewpoint) == getattr(original, viewpoint)
        assert serializer.to_dict(parsed) == document


#: One instance of every frozen contract type, and a field of it.
_FROZEN = {
    "Contract": (Contract("comp"), "component"),
    "RealTimeRequirement": (RealTimeRequirement(period=0.1, wcet=0.01), "wcet"),
    "SafetyRequirement": (SafetyRequirement(asil="A"), "asil"),
    "SecurityRequirement": (SecurityRequirement(level="LOW"), "level"),
    "ResourceRequirement": (ResourceRequirement(memory_kib=1.0), "memory_kib"),
    "ServiceRequirement": (ServiceRequirement("svc"), "max_latency"),
    "ServiceProvision": (ServiceProvision("svc"), "max_clients"),
}


class TestImmutability:
    """Contracts are shared by models, configurations and fleet vehicles,
    so no part of one can change once it is built."""

    @pytest.mark.parametrize("kind", list(_FROZEN))
    def test_assigning_a_field_raises(self, kind):
        value, name = _FROZEN[kind]
        before = getattr(value, name)
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, before)
        with pytest.raises(FrozenInstanceError):
            delattr(value, name)
        assert getattr(value, name) == before

    def test_sequences_are_tuples_and_metadata_is_read_only(self):
        peers = ["tracker"]
        requirements = [SecurityRequirement(level="LOW", allowed_peers=peers)]
        metadata = {"skill": "acc_driving"}
        contract = Contract("comp", requirements=requirements,
                            requires=[ServiceRequirement("a")],
                            provides=[ServiceProvision("b")], metadata=metadata)
        assert contract.requirements == tuple(requirements)
        assert contract.requires == (ServiceRequirement("a"),)
        assert contract.provides == (ServiceProvision("b"),)
        assert contract.security.allowed_peers == ("tracker",)
        with pytest.raises(TypeError):
            contract.metadata["skill"] = "other"
        # The contract holds copies: the caller's objects stay its own.
        peers.append("planner")
        requirements.clear()
        metadata["skill"] = "other"
        assert contract.security.allowed_peers == ("tracker",)
        assert contract.security is contract.requirements[0]
        assert contract.metadata == {"skill": "acc_driving"}


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
        assert contract.security.allowed_peers == ("tracker",)
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

    @pytest.mark.parametrize("document", [
        {"provides": None},
        {"requires": None},
        {"safety": {"asil": {}}},
        {"security": {"level": None}},
        {"metadata": [1, 2]},
        {"metadata": "ab"},
        {"requires": [{"service": "s", "max_latency": "soon"}]},
        {"provides": [{"service": "s", "max_clients": "many"}]},
    ], ids=["provides-null", "requires-null", "asil-dict", "level-null",
            "metadata-list", "metadata-string", "max-latency-text",
            "max-clients-text"])
    def test_malformed_fields_raise_syntax_errors(self, parser, document):
        """Each of these escaped as a TypeError, an AttributeError or a
        plain ValueError."""
        with pytest.raises(ContractSyntaxError):
            parser.parse({"component": "x", **document})

    @pytest.mark.parametrize("document,path", [
        ({"component": 7}, "component"),
        ({"component": True}, "component"),
        ({"timing": {"period": "0.1", "wcet": 0.01}}, "timing.period"),
        ({"timing": {"period": True, "wcet": 0.01}}, "timing.period"),
        ({"timing": {"period": float("inf"), "wcet": 0.01}}, "timing.period"),
        ({"resources": {"memory_kib": "12"}}, "resources.memory_kib"),
        ({"safety": {"asil": True}}, "safety.asil"),
        ({"safety": {"fail_operational": 1}}, "safety.fail_operational"),
        ({"security": {"external_interface": "yes"}},
         "security.external_interface"),
        ({"requires": [{"service": "s", "optional": "no"}]},
         "requires[0].optional"),
        ({"provides": [{"service": 5}]}, "provides[0].service"),
        ({"provides": [{"service": "s", "max_clients": 1.5}]},
         "provides[0].max_clients"),
    ], ids=["component-int", "component-bool", "period-string", "period-bool",
            "period-infinity", "memory-string", "asil-bool",
            "fail-operational-int", "external-interface-string",
            "optional-string", "service-int", "max-clients-float"])
    def test_coercible_values_are_rejected(self, parser, document, path):
        """Each of these was coerced (``"0.1"`` to 0.1, ``true`` to ASIL A,
        ``1.5`` clients to 1, ...); the error names the field's JSON path.
        The document goes through its JSON text, where ``inf`` is the
        ``Infinity`` literal."""
        text = json.dumps({"component": "x", **document})
        with pytest.raises(ContractSyntaxError, match=re.escape(path)):
            parser.parse(text)

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
