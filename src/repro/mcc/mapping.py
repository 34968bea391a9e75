"""Mapping of components to platform resources and priority assignment.

This is the "fitting this functionality to the target platform" step of the
integration process (Section II.A): the functional architecture is turned
into a technical architecture by deciding which processing resource hosts
which component, and the implementation model is completed by assigning
scheduling priorities and resource budgets.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

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


class MappingEngine:
    """Heuristic component-to-processor mapping with priority assignment.

    Every mapping is a :class:`MappingState` grown one contract at a time:
    :meth:`map` builds one over a whole contract list, and a run of
    additions carries one from prefix to prefix, so both share the
    placement and priority code.

    Parameters
    ----------
    platform:
        The target platform (processor capacities are respected).
    strategy:
        Placement heuristic.

    Components that already have a placement on this platform keep it
    (minimal-change integration, as expected for in-field updates); only
    unmapped components are placed.
    """

    def __init__(self, platform: Platform,
                 strategy: MappingStrategy = MappingStrategy.FIRST_FIT) -> None:
        self.platform = platform
        self.strategy = strategy

    # -- placement ------------------------------------------------------------------------

    def map(self, contracts: List[Contract],
            existing: Optional[Dict[str, str]] = None) -> MappingDecision:
        """Place all components and assign deadline-monotonic priorities.

        Components with an ``existing`` placement on this platform keep it,
        in contract order; the others are placed heaviest first.  Components
        must be unique, as a :class:`~repro.mcc.configuration.SystemModel`'s
        are.  Raises :class:`MappingError` if some component cannot be
        placed within the capacity bounds.
        """
        state = MappingState(self)
        kept = existing or {}
        unplaced: List[Tuple[int, Contract]] = []
        for position, contract in enumerate(contracts):
            processor = kept.get(contract.component)
            if processor in state.utilization:
                state.keep(contract, processor, position)
            else:
                unplaced.append((position, contract))
        unplaced.sort(key=lambda item: self._utilization_of(item[1]), reverse=True)
        for position, contract in unplaced:
            state.place(contract, position)
        return state.decision()

    def _utilization_of(self, contract: Contract) -> float:
        timing = contract.timing
        return timing.utilization if timing else 0.0

    def _choose_processor(self, contract: Contract, utilization: Dict[str, float],
                          excluded: Set[str]) -> Optional[ProcessingResource]:
        demand = self._utilization_of(contract)
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
            return candidates[0][1]
        if self.strategy == MappingStrategy.WORST_FIT:
            return max(candidates, key=lambda item: (item[0], item[1].name))[1]
        return min(candidates, key=lambda item: (item[0], item[1].name))[1]


class MappingState:
    """A partial mapping of a contract list, grown one contract at a time.

    It holds the placements, each processor's utilization, the processors
    each redundancy group already uses and each processor's timed contracts
    in deadline-monotonic order.  :meth:`keep` records an existing placement
    and :meth:`place` places one contract as the engine's strategy decides.
    ``position`` is the contract's index in the list being mapped: the
    priorities list processors in the order of their first timed contract
    in that list.

    Each processor's utilization is summed in the order contracts are
    noted, so a state carried through a run of additions (every earlier
    contract kept, in list order, then the new one placed) holds exactly
    what :meth:`MappingEngine.map` returns for each prefix given the
    previous prefix's placement.
    """

    def __init__(self, engine: MappingEngine) -> None:
        self.engine = engine
        self.placement: Dict[str, str] = {}
        self.utilization: Dict[str, float] = {
            processor.name: 0.0 for processor in engine.platform.processors()}
        #: Redundancy-group members must not share a processor (their
        #: co-location would defeat the redundancy; the safety analysis
        #: treats it as a blocking finding).
        self._group_processors: Dict[str, Set[str]] = {}
        #: processor -> (deadline, -ASIL, component) keys and task names of
        #: its timed contracts, both in priority order.
        self._order: Dict[str, Tuple[List[Tuple[float, int, str]], List[str]]] = {}
        #: processor -> position of its first timed contract.
        self._first: Dict[str, int] = {}

    def keep(self, contract: Contract, processor: str, position: int) -> None:
        """Record ``contract`` on ``processor`` (a processor of the
        platform)."""
        component = contract.component
        self.placement[component] = processor
        self.utilization[processor] += self.engine._utilization_of(contract)
        safety = contract.safety
        if safety and safety.redundancy_group:
            self._group_processors.setdefault(safety.redundancy_group,
                                              set()).add(processor)
        timing = contract.timing
        if timing is None:
            return
        # Deadline monotonic; ties go to the higher ASIL, then the name.
        key = (timing.deadline, -int(contract.asil), component)
        keys, tasks = self._order.setdefault(processor, ([], []))
        index = bisect_right(keys, key)
        keys.insert(index, key)
        tasks.insert(index, f"{component}.task")
        first = self._first.get(processor)
        if first is None or position < first:
            self._first[processor] = position

    def place(self, contract: Contract, position: int) -> None:
        """Place ``contract`` as the engine's strategy decides.

        A redundancy-group member avoids the processors its group already
        uses unless none of the others can host it.  Raises
        :class:`MappingError` when no processor can.
        """
        engine = self.engine
        safety = contract.safety
        group = safety.redundancy_group if safety else None
        excluded = self._group_processors.get(group, set()) if group else set()
        processor = engine._choose_processor(contract, self.utilization, excluded)
        if processor is None and excluded:
            # Prefer separation, but a shared processor beats no mapping.
            processor = engine._choose_processor(contract, self.utilization, set())
        if processor is None:
            raise MappingError(
                f"no processor can host component {contract.component!r} "
                f"(utilization {engine._utilization_of(contract):.2f})")
        self.keep(contract, processor.name, position)

    def decision(self) -> MappingDecision:
        """A copy of the mapping so far, with deadline-monotonic priorities
        per processor keyed by task name (``<component>.task``, as deployed
        by the RTE)."""
        priorities: Dict[str, int] = {}
        for processor in sorted(self._first, key=self._first.__getitem__):
            tasks = self._order[processor][1]
            priorities.update(zip(tasks, range(len(tasks))))
        return MappingDecision(placement=dict(self.placement),
                               priorities=priorities,
                               utilization=dict(self.utilization))
