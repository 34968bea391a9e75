"""Parsing and serializing contracts.

The paper's contracting language is proprietary; we substitute a small,
declarative dictionary/JSON representation that captures the same content:
per-component viewpoint requirements plus the required/provided service
interface.  ``ContractParser`` turns dictionaries (or JSON strings) into
:class:`~repro.contracts.model.Contract` objects and back.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable, Dict, Iterable, List, Tuple, Union

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
    """Parse contract documents: dictionaries, or their JSON text.

    The document's fields, their exact types and defaults, and the
    acceptance test that reads each are listed in ``docs/CONTRACTS.md``.
    Each type is checked as written there: a bool is neither a number nor a
    level, a string is neither a number nor a bool, and numbers are finite.
    """

    def parse(self, document: Union[str, Dict[str, Any]]) -> Contract:
        """Args: ``document`` (dict | str), a contract document or its JSON.

        Returns: ``Contract(component, requirements=(...), requires=(...),
        provides=(...), metadata={...})``, requirements in document order.
        Raises :class:`ContractSyntaxError`, naming the field's JSON path
        (such as ``requires[0].optional``), for invalid JSON, a missing,
        unknown or mistyped field or a value its requirement rejects, and
        ``ContractViolation`` for an empty component name.
        """
        if isinstance(document, str):
            try:
                document = json.loads(document)
            except ValueError as exc:  # a JSONDecodeError, or an int too long to read
                raise ContractSyntaxError(f"invalid JSON: {exc}") from exc
        if not isinstance(document, dict):
            raise ContractSyntaxError(f"contract document must be a dict, got {type(document).__name__}")
        component = _field(document, "", "component", _STRING)
        requires = _field(document, "", "requires", _LIST, [])
        provides = _field(document, "", "provides", _LIST, [])
        metadata = _field(document, "", "metadata", _OBJECT, {})
        requirements = [self._parse_requirement(key, document[key])
                        for key in document if key in _REQUIREMENT_KEYS]
        contract = Contract(
            component=component,
            requirements=requirements,
            requires=[self._parse_service_requirement(entry, f"requires[{index}]")
                      for index, entry in enumerate(requires)],
            provides=[self._parse_service_provision(entry, f"provides[{index}]")
                      for index, entry in enumerate(provides)],
            metadata=metadata)

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
        at = viewpoint + "."
        try:
            if viewpoint == "timing":
                return RealTimeRequirement(
                    period=_field(body, at, "period", _NUMBER),
                    wcet=_field(body, at, "wcet", _NUMBER),
                    deadline=_field(body, at, "deadline", _NUMBER, None),
                    jitter=_field(body, at, "jitter", _NUMBER, 0.0))
            if viewpoint == "safety":
                return SafetyRequirement(
                    asil=_field(body, at, "asil", _LEVEL, "QM"),
                    fail_operational=_field(body, at, "fail_operational", _BOOL, False),
                    redundancy_group=_field(body, at, "redundancy_group", _STRING, None))
            if viewpoint == "security":
                peers = _field(body, at, "allowed_peers", _LIST, [])
                for index, peer in enumerate(peers):
                    _check(peer, f"security.allowed_peers[{index}]", _STRING)
                return SecurityRequirement(
                    level=_field(body, at, "level", _LEVEL, "NONE"),
                    allowed_peers=peers,
                    external_interface=_field(body, at, "external_interface", _BOOL, False))
            if viewpoint == "resources":
                return ResourceRequirement(
                    memory_kib=_field(body, at, "memory_kib", _NUMBER, 0.0),
                    can_bandwidth_bps=_field(body, at, "can_bandwidth_bps", _NUMBER, 0.0),
                    requires_vm_isolation=_field(body, at, "requires_vm_isolation",
                                                 _BOOL, False))
        except ContractSyntaxError:
            raise
        except ValueError as exc:
            raise ContractSyntaxError(f"invalid {viewpoint} requirement: {exc}") from exc
        raise ContractSyntaxError(f"unknown viewpoint {viewpoint!r}")

    def _parse_service_requirement(self, entry: Union[str, Dict[str, Any]],
                                   path: str) -> ServiceRequirement:
        if isinstance(entry, str):
            return ServiceRequirement(service=entry)
        _check(entry, path, _ENTRY)
        at = path + "."
        return ServiceRequirement(
            service=_field(entry, at, "service", _STRING),
            max_latency=_field(entry, at, "max_latency", _NUMBER, None),
            optional=_field(entry, at, "optional", _BOOL, False))

    def _parse_service_provision(self, entry: Union[str, Dict[str, Any]],
                                 path: str) -> ServiceProvision:
        if isinstance(entry, str):
            return ServiceProvision(service=entry)
        _check(entry, path, _ENTRY)
        at = path + "."
        return ServiceProvision(
            service=_field(entry, at, "service", _STRING),
            max_clients=_field(entry, at, "max_clients", _INT, None))


def _finite_number(value: Any) -> bool:
    """A finite int or float; a bool is no number."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


#: A field type: its test, and its name in error messages.
_Kind = Tuple[Callable[[Any], bool], str]
_NUMBER: _Kind = (_finite_number, "a finite number")
_INT: _Kind = (_integer, "an integer")
_BOOL: _Kind = (lambda value: isinstance(value, bool), "true or false")
_STRING: _Kind = (lambda value: isinstance(value, str), "a string")
_LEVEL: _Kind = (lambda value: isinstance(value, str) or _integer(value),
                 "a level name or an integer")
_LIST: _Kind = (lambda value: isinstance(value, list), "a list")
_OBJECT: _Kind = (lambda value: isinstance(value, dict), "an object")
#: A service entry that is not the string shorthand.
_ENTRY: _Kind = (_OBJECT[0], "a service name or an object")

_REQUIRED = object()


def _check(value: Any, path: str, kind: _Kind) -> None:
    """Raise unless ``value`` is of ``kind``; ``path`` names the field."""
    test, name = kind
    if not test(value):
        raise ContractSyntaxError(f"{path} must be {name}, got {value!r}")


def _field(body: Dict[str, Any], at: str, key: str, kind: _Kind,
           default: Any = _REQUIRED) -> Any:
    """``body[key]`` checked to be of ``kind``, or ``default`` when it is
    absent; a field whose default is ``None`` also takes null.  ``at + key``
    is the field's JSON path.  A number reads as a float."""
    value = body.get(key)
    if value is None and (key not in body or default is None):
        if default is _REQUIRED:
            raise ContractSyntaxError(f"{at}{key} is missing")
        return default
    test, name = kind
    if not test(value):
        raise ContractSyntaxError(f"{at}{key} must be {name}, got {value!r}")
    return float(value) if kind is _NUMBER else value


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
