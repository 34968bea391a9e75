"""Safety viewpoint analysis.

The safety viewpoint of the MCC checks that a candidate configuration can
still satisfy the declared safety requirements: ASIL consistency along
service chains (a high-ASIL component must not depend on a lower-ASIL
provider unless the dependency is declared redundant), fail-operational
components must have redundancy, and mixed-criticality co-location on a
processor is flagged for freedom-from-interference measures (which the CCC
architecture realises through monitoring/enforcement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.contracts.model import AsilLevel, Contract


@dataclass
class SafetyFinding:
    """One finding of the safety analysis."""

    kind: str
    component: str
    detail: str
    blocking: bool = True

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        marker = "BLOCKING" if self.blocking else "info"
        return f"[{marker}] {self.kind}: {self.component}: {self.detail}"


class SafetyAnalysis:
    """Safety acceptance test over a set of contracts and a mapping.

    Parameters
    ----------
    contracts:
        Contracts of all components in the candidate configuration.
    mapping:
        Component name -> processor name (may be empty before mapping).
    """

    def __init__(self, contracts: Iterable[Contract],
                 mapping: Optional[Dict[str, str]] = None) -> None:
        self.contracts = {c.component: c for c in contracts}
        self.mapping = dict(mapping or {})

    # -- individual checks -------------------------------------------------------

    def check_asil_decomposition(self) -> List[SafetyFinding]:
        """A component must not require services from providers with a lower
        ASIL (ISO 26262 ASIL decomposition / criticality inheritance), unless
        the provider is part of a declared redundancy group."""
        findings: List[SafetyFinding] = []
        providers_of: Dict[str, List[Contract]] = {}
        for contract in self.contracts.values():
            for service in dict.fromkeys(contract.provided_services()):
                providers_of.setdefault(service, []).append(contract)
        for contract in self.contracts.values():
            client_asil = contract.asil
            if client_asil == AsilLevel.QM:
                continue
            for requirement in contract.requires:
                providers = providers_of.get(requirement.service, [])
                if not providers:
                    if not requirement.optional:
                        findings.append(SafetyFinding(
                            kind="missing-provider", component=contract.component,
                            detail=f"requires {requirement.service!r} but no provider exists"))
                    continue
                for provider in providers:
                    if provider.asil < client_asil and not self._redundant(provider):
                        findings.append(SafetyFinding(
                            kind="asil-inheritance", component=contract.component,
                            detail=(f"ASIL {client_asil.name} component depends on "
                                    f"{provider.component} (ASIL {provider.asil.name}) "
                                    f"for service {requirement.service!r}")))
        return findings

    def check_fail_operational_redundancy(self) -> List[SafetyFinding]:
        """Fail-operational components must have at least one redundancy peer
        (another component in the same redundancy group)."""
        findings: List[SafetyFinding] = []
        groups: Dict[str, List[str]] = {}
        for contract in self.contracts.values():
            safety = contract.safety
            if safety and safety.redundancy_group:
                groups.setdefault(safety.redundancy_group, []).append(contract.component)
        for contract in self.contracts.values():
            safety = contract.safety
            if not safety or not safety.fail_operational:
                continue
            group = safety.redundancy_group
            peers = [c for c in groups.get(group, []) if c != contract.component] if group else []
            if not peers:
                findings.append(SafetyFinding(
                    kind="missing-redundancy", component=contract.component,
                    detail="declared fail-operational but has no redundancy peer"))
        return findings

    def check_mixed_criticality_colocation(self) -> List[SafetyFinding]:
        """Flag processors hosting both ASIL >= C and QM/A components;
        non-blocking because the CCC execution domain provides isolation, but
        the MCC must enable monitoring/enforcement on those processors."""
        findings: List[SafetyFinding] = []
        by_processor: Dict[str, List[Contract]] = {}
        for component, processor in self.mapping.items():
            contract = self.contracts.get(component)
            if contract is not None:
                by_processor.setdefault(processor, []).append(contract)
        for processor, contracts in sorted(by_processor.items()):
            levels = {c.asil for c in contracts}
            if max(levels, default=AsilLevel.QM) >= AsilLevel.C and min(levels) <= AsilLevel.A:
                low = sorted(c.component for c in contracts if c.asil <= AsilLevel.A)
                high = sorted(c.component for c in contracts if c.asil >= AsilLevel.C)
                findings.append(SafetyFinding(
                    kind="mixed-criticality", component=processor,
                    detail=(f"hosts high-ASIL {high} together with low-ASIL {low}; "
                            "budget enforcement required"),
                    blocking=False))
        return findings

    def check_redundancy_mapping_independence(self) -> List[SafetyFinding]:
        """Redundant components mapped to the same processor share a common
        failure point, defeating the redundancy."""
        findings: List[SafetyFinding] = []
        groups: Dict[str, List[str]] = {}
        for contract in self.contracts.values():
            safety = contract.safety
            if safety and safety.redundancy_group:
                groups.setdefault(safety.redundancy_group, []).append(contract.component)
        for group, members in sorted(groups.items()):
            processors = [self.mapping.get(member) for member in members]
            mapped = [p for p in processors if p is not None]
            if len(mapped) >= 2 and len(set(mapped)) == 1:
                findings.append(SafetyFinding(
                    kind="redundancy-colocation", component=group,
                    detail=(f"redundancy group {group!r} members {sorted(members)} "
                            f"are all mapped to {mapped[0]}")))
        return findings

    # -- aggregate ----------------------------------------------------------------

    def _redundant(self, contract: Contract) -> bool:
        safety = contract.safety
        return bool(safety and safety.redundancy_group)

    def analyse(self) -> List[SafetyFinding]:
        """Run all checks; findings are ordered blocking-first."""
        findings = (self.check_asil_decomposition()
                    + self.check_fail_operational_redundancy()
                    + self.check_mixed_criticality_colocation()
                    + self.check_redundancy_mapping_independence())
        return sorted(findings, key=lambda f: (not f.blocking, f.kind, f.component))

    def acceptable(self) -> bool:
        """Acceptance criterion: no blocking findings."""
        return not any(finding.blocking for finding in self.analyse())
