"""Security threat modelling for vehicular systems.

Section II.A cites building "a security threat model for vehicular systems"
as one of the viewpoint-specific analyses inside the MCC, and Section V uses
a security leak in the rear-braking component as the running cross-layer
example.  This module provides a lightweight threat model: components carry
security requirements (level, external exposure); communication edges come
from the service sessions; the analysis computes attack paths from external
interfaces to critical assets and flags contracts whose protection level is
insufficient for their exposure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.contracts.model import Contract, SecurityLevel

#: ``networkx``, imported by the first :class:`ThreatModel`: the MCC builds
#: one only for a candidate with an external interface.
nx = None


@dataclass
class AttackPath:
    """A path from an externally reachable entry point to a target asset."""

    entry_point: str
    target: str
    path: List[str]
    exposure: float

    @property
    def hops(self) -> int:
        return len(self.path) - 1


@dataclass
class ThreatAssessment:
    """Result of a threat analysis run."""

    attack_paths: List[AttackPath] = field(default_factory=list)
    under_protected: List[str] = field(default_factory=list)
    unreachable_assets: List[str] = field(default_factory=list)

    @property
    def acceptable(self) -> bool:
        """The MCC acceptance criterion for the security viewpoint: no
        under-protected component sits on an attack path."""
        exposed = {p.target for p in self.attack_paths} | {
            node for p in self.attack_paths for node in p.path}
        return not any(component in exposed for component in self.under_protected)

    def paths_to(self, target: str) -> List[AttackPath]:
        return [p for p in self.attack_paths if p.target == target]


class ThreatModel:
    """Communication-graph-based threat model.

    Nodes are components; a directed edge ``a -> b`` means that ``a`` can send
    data to ``b`` (i.e. an attacker controlling ``a`` can try to exploit
    ``b``).  Edges are derived from service sessions: a client can attack its
    provider through request payloads and a provider can attack its clients
    through responses, so sessions add edges in both directions with different
    weights.
    """

    #: Per-hop exposure attenuation: each additional hop makes exploitation harder.
    HOP_ATTENUATION = 0.6

    def __init__(self) -> None:
        global nx
        import networkx as nx
        self._graph = nx.DiGraph()
        self._contracts: Dict[str, Contract] = {}

    # -- construction --------------------------------------------------------------

    def add_component(self, contract: Contract) -> None:
        self._contracts[contract.component] = contract
        security = contract.security
        external = bool(security.external_interface) if security else False
        level = security.level if security else SecurityLevel.NONE
        self._graph.add_node(contract.component, external=external, level=level)

    def add_components(self, contracts: Iterable[Contract]) -> None:
        for contract in contracts:
            self.add_component(contract)

    def add_channel(self, source: str, destination: str, weight: float = 1.0) -> None:
        """Add a raw communication channel (e.g. a shared CAN bus segment)."""
        for node in (source, destination):
            if node not in self._graph:
                raise KeyError(f"unknown component {node!r}")
        self._graph.add_edge(source, destination, weight=weight)

    def add_session(self, client: str, provider: str) -> None:
        """Register a service session; adds attack edges in both directions."""
        self.add_channel(client, provider, weight=1.0)
        self.add_channel(provider, client, weight=0.8)

    # -- queries ---------------------------------------------------------------------

    def entry_points(self) -> List[str]:
        """Components with an external interface (telematics, OBD, V2X...)."""
        return sorted(n for n, data in self._graph.nodes(data=True) if data.get("external"))

    def components(self) -> List[str]:
        return list(self._graph.nodes)

    def required_level_for_exposure(self, hops_from_entry: int) -> SecurityLevel:
        """Protection level required as a function of distance to the attack
        surface: directly exposed components need HIGH, one hop away MEDIUM,
        two hops LOW, further away NONE."""
        if hops_from_entry <= 0:
            return SecurityLevel.HIGH
        if hops_from_entry == 1:
            return SecurityLevel.MEDIUM
        if hops_from_entry == 2:
            return SecurityLevel.LOW
        return SecurityLevel.NONE

    def analyse(self, critical_assets: Optional[Iterable[str]] = None) -> ThreatAssessment:
        """Compute attack paths and protection findings.

        ``critical_assets`` defaults to every component with a safety
        requirement of ASIL B or above.
        """
        if critical_assets is None:
            critical_assets = [name for name, contract in self._contracts.items()
                               if contract.safety is not None and contract.safety.asil >= 2]
        critical = [asset for asset in critical_assets if asset in self._graph]

        assessment = ThreatAssessment()
        entry_points = self.entry_points()

        for asset in sorted(critical):
            reachable = False
            for entry in entry_points:
                if entry == asset:
                    reachable = True
                    assessment.attack_paths.append(AttackPath(entry, asset, [asset], 1.0))
                    continue
                try:
                    path = nx.shortest_path(self._graph, entry, asset)
                except nx.NetworkXNoPath:
                    continue
                reachable = True
                exposure = self.HOP_ATTENUATION ** (len(path) - 1)
                assessment.attack_paths.append(AttackPath(entry, asset, list(path), exposure))
            if not reachable:
                assessment.unreachable_assets.append(asset)

        # Protection-level findings: every component's declared level must
        # match its distance from the nearest entry point.
        distances = self._distances_from_entries(entry_points)
        for name, contract in sorted(self._contracts.items()):
            hops = distances.get(name)
            if hops is None:
                continue  # not reachable from any entry point
            required = self.required_level_for_exposure(hops)
            declared = contract.security.level if contract.security else SecurityLevel.NONE
            if declared < required:
                assessment.under_protected.append(name)
        assessment.attack_paths.sort(key=lambda p: (-p.exposure, p.hops, p.target, p.entry_point))
        return assessment

    def _distances_from_entries(self, entry_points: List[str]) -> Dict[str, int]:
        distances: Dict[str, int] = {}
        for entry in entry_points:
            lengths = nx.single_source_shortest_path_length(self._graph, entry)
            for node, length in lengths.items():
                if node not in distances or length < distances[node]:
                    distances[node] = length
        return distances

    def blast_radius(self, compromised: str) -> Set[str]:
        """Components an attacker can reach after compromising ``compromised``
        (used by the intrusion-response layer to size the containment)."""
        if compromised not in self._graph:
            raise KeyError(f"unknown component {compromised!r}")
        return set(nx.descendants(self._graph, compromised))

    def containment_candidates(self, compromised: str) -> List[Tuple[str, int]]:
        """Rank the sessions/channels to cut, by how much of the blast radius
        each outgoing edge removal eliminates.  Returns (neighbour, saved)."""
        if compromised not in self._graph:
            raise KeyError(f"unknown component {compromised!r}")
        baseline = self.blast_radius(compromised)
        candidates: List[Tuple[str, int]] = []
        for neighbour in list(self._graph.successors(compromised)):
            pruned = self._graph.copy()
            pruned.remove_edge(compromised, neighbour)
            remaining = set(nx.descendants(pruned, compromised))
            candidates.append((neighbour, len(baseline) - len(remaining)))
        return sorted(candidates, key=lambda item: (-item[1], item[0]))
