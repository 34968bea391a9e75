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
    """Parse contract documents: dictionaries, or their JSON text, with the
    fields below.  Each viewpoint object (``timing``, ``safety``,
    ``security``, ``resources``) may be left out, and a string in
    ``requires`` or ``provides`` is short for ``{"service": <string>}``.

    ===================================  ==========================  ==========
    field                                type                        default
    ===================================  ==========================  ==========
    ``component``                        non-empty str               required
    ``timing.period``                    number > 0 (s)              required
    ``timing.wcet``                      number > 0, <= deadline     required
    ``timing.deadline``                  number > 0 or null          ``period``
    ``timing.jitter``                    number >= 0                 0.0
    ``safety.asil``                      ``QM``, ``A``-``D`` or 0-4  ``QM``
    ``safety.fail_operational``          bool                        false
    ``safety.redundancy_group``          str or null                 null
    ``security.level``                   ``NONE``-``HIGH`` or 0-3    ``NONE``
    ``security.allowed_peers``           list of str                 []
    ``security.external_interface``      bool                        false
    ``resources.memory_kib``             number >= 0                 0.0
    ``resources.can_bandwidth_bps``      number >= 0                 0.0
    ``resources.requires_vm_isolation``  bool                        false
    ``requires``                         list of str or objects      []
    ``requires[].service``               str                         required
    ``requires[].max_latency``           number or null (s)          null
    ``requires[].optional``              bool                        false
    ``provides``                         list of str or objects      []
    ``provides[].service``               str                         required
    ``provides[].max_clients``           int or null                 null
    ``metadata``                         dict                        {}
    ===================================  ==========================  ==========
    """

    def parse(self, document: Union[str, Dict[str, Any]]) -> Contract:
        """Args: ``document`` (dict | str), a contract document or its JSON.

        Returns: ``Contract(component, requirements=(...), requires=(...),
        provides=(...), metadata={...})``, requirements in document order.
        Raises :class:`ContractSyntaxError` for invalid JSON, a missing,
        unknown or malformed field or a value its requirement rejects, and
        ``ContractViolation`` for an empty component name.
        """
        if isinstance(document, str):
            try:
                document = json.loads(document)
            except json.JSONDecodeError as exc:
                raise ContractSyntaxError(f"invalid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ContractSyntaxError(f"contract document must be a dict, got {type(document).__name__}")
        if "component" not in document:
            raise ContractSyntaxError("contract document is missing the 'component' field")

        for key, kind in (("requires", list), ("provides", list), ("metadata", dict)):
            if not isinstance(document.get(key, kind()), kind):
                raise ContractSyntaxError(f"{key} must be a {kind.__name__}, "
                                          f"got {type(document[key]).__name__}")
        requirements = [self._parse_requirement(key, document[key])
                        for key in document if key in _REQUIREMENT_KEYS]
        contract = Contract(
            component=str(document["component"]),
            requirements=requirements,
            requires=[self._parse_service_requirement(entry)
                      for entry in document.get("requires", [])],
            provides=[self._parse_service_provision(entry)
                      for entry in document.get("provides", [])],
            metadata=document.get("metadata", {}))

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
            max_latency=_optional(entry, "max_latency", float),
            optional=bool(entry.get("optional", False)),
        )

    def _parse_service_provision(self, entry: Union[str, Dict[str, Any]]) -> ServiceProvision:
        if isinstance(entry, str):
            return ServiceProvision(service=entry)
        if not isinstance(entry, dict) or "service" not in entry:
            raise ContractSyntaxError(f"invalid provided-service entry: {entry!r}")
        return ServiceProvision(
            service=str(entry["service"]),
            max_clients=_optional(entry, "max_clients", int),
        )


def _optional(entry: Dict[str, Any], key: str, kind: type) -> Any:
    """``entry[key]`` converted by ``kind``; ``None`` when absent or null."""
    value = entry.get(key)
    try:
        return None if value is None else kind(value)
    except (TypeError, ValueError) as exc:
        raise ContractSyntaxError(f"invalid {key} {value!r}: {exc}") from exc


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
