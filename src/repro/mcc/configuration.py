"""System model, change requests and integration reports.

The MCC maintains a :class:`SystemModel` — the model-domain representation of
the currently deployed configuration (contracts plus mapping decisions) — and
processes :class:`ChangeRequest` objects describing in-field changes
(addition, update or removal of components).  Every integration attempt
produces an :class:`IntegrationReport` recording the refinement steps and the
verdicts of the acceptance tests, whether or not the change was accepted.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.contracts.model import Contract

_request_counter = itertools.count(1)


class ChangeKind(enum.Enum):
    """Kinds of in-field changes the MCC handles."""

    ADD_COMPONENT = "add_component"
    UPDATE_COMPONENT = "update_component"
    REMOVE_COMPONENT = "remove_component"


@dataclass
class ChangeRequest:
    """One requested change to the deployed system.

    ``contract`` is required for additions and updates and ignored for
    removals; ``component`` names the affected component.
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


class SystemModel:
    """Model-domain view of the deployed system: contracts plus mapping.

    The MCC never mutates the deployed model directly; integration operates
    on a :meth:`candidate` copy and the controller swaps models only after
    acceptance.
    """

    def __init__(self, contracts: Optional[List[Contract]] = None,
                 mapping: Optional[Dict[str, str]] = None,
                 priorities: Optional[Dict[str, int]] = None,
                 version: int = 0) -> None:
        self._contracts: Dict[str, Contract] = {}
        for contract in contracts or []:
            self.add_contract(contract)
        self.mapping: Dict[str, str] = dict(mapping or {})
        self.priorities: Dict[str, int] = dict(priorities or {})
        self.version = version

    # -- contracts ------------------------------------------------------------------

    def add_contract(self, contract: Contract) -> None:
        if contract.component in self._contracts:
            raise ValueError(f"duplicate contract for {contract.component!r}")
        self._contracts[contract.component] = contract

    def replace_contract(self, contract: Contract) -> None:
        if contract.component not in self._contracts:
            raise KeyError(f"no contract for {contract.component!r}")
        self._contracts[contract.component] = contract

    def remove_contract(self, component: str) -> Contract:
        try:
            contract = self._contracts.pop(component)
        except KeyError as exc:
            raise KeyError(f"no contract for {component!r}") from exc
        self.mapping.pop(component, None)
        self.priorities.pop(component, None)
        return contract

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

    # -- candidate handling --------------------------------------------------------------

    def candidate(self) -> "SystemModel":
        """A deep-enough copy for what-if integration (contracts are shared,
        mapping/priorities copied)."""
        return SystemModel(contracts=self.contracts(), mapping=dict(self.mapping),
                           priorities=dict(self.priorities), version=self.version)

    def apply_change(self, request: ChangeRequest) -> None:
        """Apply a change request to this model (used on candidates only)."""
        if request.kind == ChangeKind.ADD_COMPONENT:
            assert request.contract is not None
            self.add_contract(request.contract)
        elif request.kind == ChangeKind.UPDATE_COMPONENT:
            assert request.contract is not None
            self.replace_contract(request.contract)
            # A changed contract invalidates the old mapping decision for it.
            self.mapping.pop(request.component, None)
            self.priorities.pop(request.component, None)
        elif request.kind == ChangeKind.REMOVE_COMPONENT:
            self.remove_contract(request.component)
        else:  # pragma: no cover - exhaustive enum
            raise ValueError(f"unknown change kind {request.kind}")

    # -- provisioning helpers --------------------------------------------------------------

    def unmapped_components(self) -> List[str]:
        return [c for c in self._contracts if c not in self.mapping]

    def service_providers(self) -> Dict[str, List[str]]:
        providers: Dict[str, List[str]] = {}
        for contract in self._contracts.values():
            for provision in contract.provides:
                providers.setdefault(provision.service, []).append(contract.component)
        return providers

    def missing_services(self) -> List[str]:
        """Required, non-optional services without any provider."""
        providers = self.service_providers()
        missing: List[str] = []
        for contract in self._contracts.values():
            for requirement in contract.requires:
                if requirement.optional:
                    continue
                if requirement.service not in providers:
                    missing.append(f"{contract.component}:{requirement.service}")
        return sorted(missing)
