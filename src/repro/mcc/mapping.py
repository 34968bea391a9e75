"""Mapping of components to platform resources and priority assignment.

This is the "fitting this functionality to the target platform" step of the
integration process (Section II.A): the functional architecture is turned
into a technical architecture by deciding which processing resource hosts
which component, and the implementation model is completed by assigning
scheduling priorities and resource budgets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.contracts.model import Contract
from repro.platform.resources import Platform, ProcessingResource


class MappingError(RuntimeError):
    """Raised when no feasible mapping can be constructed."""


class MappingStrategy(enum.Enum):
    """Heuristics for placing components onto processors."""

    #: Fill processors in order (packs components tightly; leaves spare
    #: processors empty for future changes).
    FIRST_FIT = "first_fit"
    #: Place each component on the currently least-utilized processor
    #: (balances thermal load and interference).
    WORST_FIT = "worst_fit"
    #: Place each component on the processor with the smallest remaining
    #: capacity that still fits (minimizes fragmentation).
    BEST_FIT = "best_fit"


@dataclass
class MappingDecision:
    """The outcome of the mapping step for one candidate model."""

    placement: Dict[str, str]
    priorities: Dict[str, int]
    utilization: Dict[str, float]

    def processor_of(self, component: str) -> Optional[str]:
        return self.placement.get(component)


class MappingEngine:
    """Heuristic component-to-processor mapping with priority assignment.

    Parameters
    ----------
    platform:
        The target platform (processor capacities are respected).
    strategy:
        Placement heuristic.
    keep_existing:
        If True (default), components that already have a mapping in the
        candidate model keep it (minimal-change integration, as expected for
        in-field updates); only unmapped components are placed.
    """

    def __init__(self, platform: Platform,
                 strategy: MappingStrategy = MappingStrategy.FIRST_FIT,
                 keep_existing: bool = True) -> None:
        self.platform = platform
        self.strategy = strategy
        self.keep_existing = keep_existing

    # -- placement ------------------------------------------------------------------------

    def map(self, contracts: List[Contract],
            existing: Optional[Dict[str, str]] = None) -> MappingDecision:
        """Place all components and assign deadline-monotonic priorities.

        Raises :class:`MappingError` if some component cannot be placed
        within the capacity bounds.
        """
        existing = dict(existing or {})
        utilization: Dict[str, float] = {p.name: 0.0 for p in self.platform.processors()}
        placement: Dict[str, str] = {}
        #: Redundancy-group members must not share a processor (their
        #: co-location would defeat the redundancy; the safety analysis treats
        #: it as a blocking finding).
        group_processors: Dict[str, set] = {}
        group_of = {c.component: c.safety.redundancy_group for c in contracts
                    if c.safety and c.safety.redundancy_group}

        def note_placement(component: str, processor_name: str, contract: Contract) -> None:
            placement[component] = processor_name
            utilization[processor_name] += self._utilization_of(contract)
            group = group_of.get(component)
            if group:
                group_processors.setdefault(group, set()).add(processor_name)

        # Account for components that keep their existing placement.
        if self.keep_existing:
            for contract in contracts:
                previous = existing.get(contract.component)
                if previous is not None and previous in utilization:
                    note_placement(contract.component, previous, contract)

        unplaced = [contract for contract in contracts
                    if contract.component not in placement]
        for contract in sorted(unplaced, key=self._utilization_of, reverse=True):
            if contract.component in placement:
                continue
            group = group_of.get(contract.component)
            excluded = group_processors.get(group, set()) if group else set()
            processor = self._choose_processor(contract, utilization, excluded)
            if processor is None and excluded:
                # Prefer separation, but a shared processor beats no mapping.
                processor = self._choose_processor(contract, utilization, set())
            if processor is None:
                raise MappingError(
                    f"no processor can host component {contract.component!r} "
                    f"(utilization {self._utilization_of(contract):.2f})")
            note_placement(contract.component, processor.name, contract)

        priorities = self._assign_priorities(contracts, placement)
        return MappingDecision(placement=placement, priorities=priorities,
                               utilization=utilization)

    def _utilization_of(self, contract: Contract) -> float:
        timing = contract.timing
        return timing.utilization if timing else 0.0

    def _choose_processor(self, contract: Contract, utilization: Dict[str, float],
                          excluded: Optional[set] = None) -> Optional[ProcessingResource]:
        demand = self._utilization_of(contract)
        isolation = contract.resources.requires_vm_isolation if contract.resources else False
        _ = isolation  # isolation constraints are handled by the hypervisor layer
        excluded = excluded or set()
        candidates: List[Tuple[float, ProcessingResource]] = []
        for processor in self.platform.processors():
            if processor.name in excluded:
                continue
            remaining = processor.capacity - utilization[processor.name]
            if demand <= remaining + 1e-12:
                candidates.append((remaining, processor))
        if not candidates:
            return None
        if self.strategy == MappingStrategy.FIRST_FIT:
            names = [p.name for p in self.platform.processors()]
            return min((p for _, p in candidates), key=lambda p: names.index(p.name))
        if self.strategy == MappingStrategy.WORST_FIT:
            return max(candidates, key=lambda item: (item[0], item[1].name))[1]
        return min(candidates, key=lambda item: (item[0], item[1].name))[1]

    # -- priorities ----------------------------------------------------------------------------

    def _assign_priorities(self, contracts: List[Contract],
                           placement: Dict[str, str]) -> Dict[str, int]:
        """Deadline-monotonic priorities per processor; ties broken by higher
        ASIL first, then by name for determinism.  Keys are task names
        (``<component>.task``) as deployed by the RTE."""
        priorities: Dict[str, int] = {}
        by_processor: Dict[str, List[Contract]] = {}
        for contract in contracts:
            if contract.timing is None:
                continue
            processor = placement.get(contract.component)
            if processor is None:
                continue
            by_processor.setdefault(processor, []).append(contract)
        for processor, hosted in by_processor.items():
            ordered = sorted(hosted, key=lambda c: (c.timing.deadline, -int(c.asil), c.component))
            for index, contract in enumerate(ordered):
                priorities[f"{contract.component}.task"] = index
        return priorities
