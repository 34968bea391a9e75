"""System model, change requests and integration reports.

The MCC adopts frozen :class:`SystemModel` values — the model-domain
representation of the deployed configuration (contracts plus mapping
decisions) — one per accepted :class:`ChangeRequest` (addition, update or
removal of a component).  Every integration attempt produces an
:class:`IntegrationReport` recording the refinement steps and the verdicts
of the acceptance tests, whether or not the change was accepted.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.contracts.model import Contract

_request_counter = itertools.count(1)


class ChangeKind(enum.Enum):
    """Kinds of in-field changes the MCC handles."""

    ADD_COMPONENT = "add_component"
    UPDATE_COMPONENT = "update_component"
    REMOVE_COMPONENT = "remove_component"


@dataclass(frozen=True)
class ChangeRequest:
    """One requested change to the deployed system.

    ``contract`` is required for additions and updates and ignored for
    removals; ``component`` names the affected component.  Frozen, as a
    campaign hands one request to many vehicles.
    """

    kind: ChangeKind
    component: str
    contract: Optional[Contract] = None
    requester: str = "oem"
    request_id: int = field(default_factory=lambda: next(_request_counter))

    def __post_init__(self) -> None:
        if self.kind in (ChangeKind.ADD_COMPONENT, ChangeKind.UPDATE_COMPONENT):
            if self.contract is None:
                raise ValueError(f"{self.kind.value} requires a contract")
            if self.contract.component != self.component:
                raise ValueError(
                    f"contract is for {self.contract.component!r}, request names "
                    f"{self.component!r}")


@dataclass
class RefinementStep:
    """One step of the gradual model refinement performed during integration."""

    name: str
    description: str
    artefacts: Dict[str, Any] = field(default_factory=dict)


@dataclass
class IntegrationReport:
    """The result of one integration attempt.

    A report is read-only once it is in a controller's history: the MCC
    fills it in before
    :meth:`~repro.mcc.controller.MultiChangeController.request_change` or
    ``request_changes`` returns it and never mutates it afterwards, so
    stamped and replayed fleet vehicles hold the very report object of the
    integration they adopted instead of a copy.
    """

    request_id: int
    accepted: bool = False
    steps: List[RefinementStep] = field(default_factory=list)
    acceptance_results: Dict[str, bool] = field(default_factory=dict)
    findings: List[str] = field(default_factory=list)
    configuration_version: Optional[int] = None

    def add_step(self, name: str, description: str, **artefacts: Any) -> RefinementStep:
        step = RefinementStep(name=name, description=description, artefacts=dict(artefacts))
        self.steps.append(step)
        return step

    def failed_viewpoints(self) -> List[str]:
        return sorted(name for name, passed in self.acceptance_results.items() if not passed)

    def summary(self) -> str:
        verdict = "ACCEPTED" if self.accepted else "REJECTED"
        parts = [f"request {self.request_id}: {verdict}"]
        if self.acceptance_results:
            parts.append("acceptance: " + ", ".join(
                f"{name}={'pass' if ok else 'FAIL'}"
                for name, ok in sorted(self.acceptance_results.items())))
        if self.findings:
            parts.append(f"{len(self.findings)} finding(s)")
        return "; ".join(parts)


@dataclass(frozen=True, eq=False, init=False, repr=False)
class SystemModel:
    """Model-domain view of the deployed system: contracts plus mapping.

    Frozen, with read-only copies of ``mapping`` (component -> processor)
    and ``priorities`` (``<component>.task`` -> priority); :meth:`changed`
    derives a request's candidate.  Equality and hashing are by identity,
    so one shared object (snapshots, stamped and replayed fleet vehicles,
    admission dedupe) fixes the contracts, mapping, priorities and version.
    """

    _contracts: Dict[str, Contract]
    mapping: Mapping[str, str]
    priorities: Mapping[str, int]
    version: int

    def __init__(self, contracts: Optional[Iterable[Contract]] = None,
                 mapping: Optional[Mapping[str, str]] = None,
                 priorities: Optional[Mapping[str, int]] = None,
                 version: int = 0) -> None:
        by_component: Dict[str, Contract] = {}
        for contract in contracts or ():
            if contract.component in by_component:
                raise ValueError(f"duplicate contract for {contract.component!r}")
            by_component[contract.component] = contract
        self.__dict__.update(  # frozen fields, written once
            _contracts=by_component, version=version,
            mapping=MappingProxyType(dict(mapping or {})),
            priorities=MappingProxyType(dict(priorities or {})))

    # -- contracts ------------------------------------------------------------------

    def contract(self, component: str) -> Contract:
        try:
            return self._contracts[component]
        except KeyError as exc:
            raise KeyError(f"no contract for {component!r}") from exc

    def contracts(self) -> List[Contract]:
        return list(self._contracts.values())

    def components(self) -> List[str]:
        return list(self._contracts)

    def __contains__(self, component: str) -> bool:
        return component in self._contracts

    def __len__(self) -> int:
        return len(self._contracts)

    # -- candidates -----------------------------------------------------------------

    def changed(self, request: ChangeRequest) -> "SystemModel":
        """The candidate for ``request``: this model's version, its
        contracts with the request's added, exchanged in place or removed,
        and its placements and priorities but the changed component's.
        Raises ``ValueError`` for a duplicate addition and ``KeyError`` for
        an update or removal of an absent component."""
        component, kind = request.component, request.kind
        contracts = dict(self._contracts)
        if kind is ChangeKind.ADD_COMPONENT:
            if component in contracts:
                raise ValueError(f"duplicate contract for {component!r}")
            contracts[component] = request.contract
        elif component not in contracts:
            raise KeyError(f"no contract for {component!r}")
        elif kind is ChangeKind.UPDATE_COMPONENT:
            contracts[component] = request.contract
        else:
            del contracts[component]
        # copy() is dict.copy; dict() of a read-only proxy is far slower.
        mapping, priorities = self.mapping.copy(), self.priorities.copy()
        mapping.pop(component, None)
        priorities.pop(f"{component}.task", None)
        return SystemModel(contracts.values(), mapping, priorities, self.version)

    # -- provisioning helpers --------------------------------------------------------------

    def unmapped_components(self) -> List[str]:
        return [c for c in self._contracts if c not in self.mapping]

    def missing_services(self) -> List[str]:
        """Required, non-optional services without any provider."""
        contracts = self._contracts.values()
        provided = {provision.service for contract in contracts
                    for provision in contract.provides}
        return sorted(f"{contract.component}:{requirement.service}"
                      for contract in contracts for requirement in contract.requires
                      if not requirement.optional and requirement.service not in provided)
