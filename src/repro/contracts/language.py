"""Parsing and serializing contracts.

The paper's contracting language is proprietary; we substitute a small,
declarative dictionary/JSON representation that captures the same content:
per-component viewpoint requirements plus the required/provided service
interface.  ``ContractParser`` turns dictionaries (or JSON strings) into
:class:`~repro.contracts.model.Contract` objects and back.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Union

from repro.contracts.model import (
    Contract,
    RealTimeRequirement,
    Requirement,
    ResourceRequirement,
    SafetyRequirement,
    SecurityRequirement,
    ServiceProvision,
    ServiceRequirement,
)


class ContractSyntaxError(ValueError):
    """Raised when a contract document cannot be parsed."""


_REQUIREMENT_KEYS = {"timing", "safety", "security", "resources"}


class ContractParser:
    """Parse contract documents.

    A contract document is a dictionary of the form::

        {
          "component": "acc_controller",
          "timing":   {"period": 0.01, "wcet": 0.002, "deadline": 0.01},
          "safety":   {"asil": "C", "fail_operational": true},
          "security": {"level": "MEDIUM", "allowed_peers": ["object_tracker"]},
          "resources": {"memory_kib": 512, "can_bandwidth_bps": 20000},
          "requires": [{"service": "object_list", "max_latency": 0.02}],
          "provides": [{"service": "acc_setpoints"}],
          "metadata": {"skill": "acc_driving"}
        }
    """

    def parse(self, document: Union[str, Dict[str, Any]]) -> Contract:
        if isinstance(document, str):
            try:
                document = json.loads(document)
            except json.JSONDecodeError as exc:
                raise ContractSyntaxError(f"invalid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ContractSyntaxError(f"contract document must be a dict, got {type(document).__name__}")
        if "component" not in document:
            raise ContractSyntaxError("contract document is missing the 'component' field")

        requirements = [self._parse_requirement(key, document[key])
                        for key in document if key in _REQUIREMENT_KEYS]
        contract = Contract(component=str(document["component"]),
                            requirements=requirements,
                            metadata=dict(document.get("metadata", {})))

        for entry in document.get("requires", []):
            contract.requires.append(self._parse_service_requirement(entry))
        for entry in document.get("provides", []):
            contract.provides.append(self._parse_service_provision(entry))

        unknown = set(document) - _REQUIREMENT_KEYS - {
            "component", "requires", "provides", "metadata"}
        if unknown:
            raise ContractSyntaxError(f"unknown contract fields: {sorted(unknown)}")
        return contract

    def parse_many(self, documents: Iterable[Union[str, Dict[str, Any]]]) -> List[Contract]:
        return [self.parse(document) for document in documents]

    # -- helpers -----------------------------------------------------------

    def _parse_requirement(self, viewpoint: str, body: Dict[str, Any]) -> Requirement:
        if not isinstance(body, dict):
            raise ContractSyntaxError(f"{viewpoint} requirement must be a dict")
        try:
            if viewpoint == "timing":
                return RealTimeRequirement(
                    period=float(body["period"]),
                    wcet=float(body["wcet"]),
                    deadline=float(body["deadline"]) if "deadline" in body and body["deadline"] is not None else None,
                    jitter=float(body.get("jitter", 0.0)),
                )
            if viewpoint == "safety":
                return SafetyRequirement(
                    asil=body.get("asil", "QM"),
                    fail_operational=bool(body.get("fail_operational", False)),
                    redundancy_group=body.get("redundancy_group"),
                )
            if viewpoint == "security":
                return SecurityRequirement(
                    level=body.get("level", "NONE"),
                    allowed_peers=list(body.get("allowed_peers", [])),
                    external_interface=bool(body.get("external_interface", False)),
                )
            if viewpoint == "resources":
                return ResourceRequirement(
                    memory_kib=float(body.get("memory_kib", 0.0)),
                    can_bandwidth_bps=float(body.get("can_bandwidth_bps", 0.0)),
                    requires_vm_isolation=bool(body.get("requires_vm_isolation", False)),
                )
        except KeyError as exc:
            raise ContractSyntaxError(f"{viewpoint} requirement is missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise ContractSyntaxError(f"invalid {viewpoint} requirement: {exc}") from exc
        raise ContractSyntaxError(f"unknown viewpoint {viewpoint!r}")

    def _parse_service_requirement(self, entry: Union[str, Dict[str, Any]]) -> ServiceRequirement:
        if isinstance(entry, str):
            return ServiceRequirement(service=entry)
        if not isinstance(entry, dict) or "service" not in entry:
            raise ContractSyntaxError(f"invalid required-service entry: {entry!r}")
        return ServiceRequirement(
            service=str(entry["service"]),
            max_latency=float(entry["max_latency"]) if entry.get("max_latency") is not None else None,
            optional=bool(entry.get("optional", False)),
        )

    def _parse_service_provision(self, entry: Union[str, Dict[str, Any]]) -> ServiceProvision:
        if isinstance(entry, str):
            return ServiceProvision(service=entry)
        if not isinstance(entry, dict) or "service" not in entry:
            raise ContractSyntaxError(f"invalid provided-service entry: {entry!r}")
        return ServiceProvision(
            service=str(entry["service"]),
            max_clients=int(entry["max_clients"]) if entry.get("max_clients") is not None else None,
        )


class ContractSerializer:
    """Serialize contracts back to dictionaries/JSON (round-trips with the parser)."""

    def to_dict(self, contract: Contract) -> Dict[str, Any]:
        document: Dict[str, Any] = {"component": contract.component}
        for requirement in contract.requirements:
            body = requirement.to_dict()
            body.pop("viewpoint")
            document[requirement.viewpoint] = body
        if contract.requires:
            document["requires"] = [r.to_dict() for r in contract.requires]
        if contract.provides:
            document["provides"] = [p.to_dict() for p in contract.provides]
        if contract.metadata:
            document["metadata"] = dict(contract.metadata)
        return document

    def to_json(self, contract: Contract, indent: int = 2) -> str:
        return json.dumps(self.to_dict(contract), indent=indent, sort_keys=True)
