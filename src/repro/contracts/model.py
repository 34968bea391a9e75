"""Contract model: explicit requirements and provisions per component.

The paper's contracting language collects, for each component, the
requirements of every viewpoint (safety level, real-time constraints,
security level, resource budgets) together with the services the component
requires from and provides to others.  The MCC consumes these contracts
during the integration process.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


class AsilLevel(enum.IntEnum):
    """Automotive Safety Integrity Levels (ISO 26262), ordered QM < A < ... < D."""

    QM = 0
    A = 1
    B = 2
    C = 3
    D = 4

    @classmethod
    def parse(cls, value: "AsilLevel | str | int") -> "AsilLevel":
        if isinstance(value, AsilLevel):
            return value
        if isinstance(value, int):
            return cls(value)
        name = value.strip().upper().replace("ASIL-", "").replace("ASIL_", "").replace("ASIL", "").strip()
        if not name:
            raise ValueError(f"invalid ASIL level: {value!r}")
        try:
            return cls[name]
        except KeyError as exc:
            raise ValueError(f"invalid ASIL level: {value!r}") from exc


class SecurityLevel(enum.IntEnum):
    """Coarse security requirement levels used by the threat-model viewpoint."""

    NONE = 0
    LOW = 1
    MEDIUM = 2
    HIGH = 3

    @classmethod
    def parse(cls, value: "SecurityLevel | str | int") -> "SecurityLevel":
        if isinstance(value, SecurityLevel):
            return value
        if isinstance(value, int):
            return cls(value)
        try:
            return cls[value.strip().upper()]
        except KeyError as exc:
            raise ValueError(f"invalid security level: {value!r}") from exc


class ContractViolation(ValueError):
    """Raised when a contract is internally inconsistent or violated."""


@dataclass
class Requirement:
    """Base class for viewpoint-specific requirements."""

    viewpoint: str = field(init=False, default="generic")

    def to_dict(self) -> Dict[str, Any]:
        return {"viewpoint": self.viewpoint}


@dataclass
class RealTimeRequirement(Requirement):
    """Timing requirement of a component's task.

    Attributes
    ----------
    period:
        Activation period in seconds (sporadic minimum inter-arrival time).
    wcet:
        Worst-case execution time in seconds on the reference resource.
    deadline:
        Relative deadline; defaults to the period (implicit deadline).
    jitter:
        Maximum release jitter contributed by the component's inputs.
    """

    period: float = 0.0
    wcet: float = 0.0
    deadline: Optional[float] = None
    jitter: float = 0.0

    def __post_init__(self) -> None:
        self.viewpoint = "timing"
        # Negated comparisons, so that NaN is rejected too.
        if not self.period > 0:
            raise ContractViolation(f"period must be positive, got {self.period}")
        if not self.wcet > 0:
            raise ContractViolation(f"wcet must be positive, got {self.wcet}")
        if self.deadline is None:
            self.deadline = self.period
        if not self.deadline > 0:
            raise ContractViolation(f"deadline must be positive, got {self.deadline}")
        if self.wcet > self.deadline:
            raise ContractViolation(
                f"wcet {self.wcet} exceeds deadline {self.deadline}: unschedulable by construction")
        if not self.jitter >= 0:
            raise ContractViolation("jitter must be non-negative")

    @property
    def utilization(self) -> float:
        return self.wcet / self.period

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "period": self.period,
            "wcet": self.wcet,
            "deadline": self.deadline,
            "jitter": self.jitter,
        }


@dataclass
class SafetyRequirement(Requirement):
    """Safety requirement: required ASIL and redundancy expectations."""

    asil: AsilLevel = AsilLevel.QM
    fail_operational: bool = False
    redundancy_group: Optional[str] = None

    def __post_init__(self) -> None:
        self.viewpoint = "safety"
        self.asil = AsilLevel.parse(self.asil)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "asil": self.asil.name,
            "fail_operational": self.fail_operational,
            "redundancy_group": self.redundancy_group,
        }


@dataclass
class SecurityRequirement(Requirement):
    """Security requirement: minimum protection level and allowed peers."""

    level: SecurityLevel = SecurityLevel.NONE
    allowed_peers: List[str] = field(default_factory=list)
    external_interface: bool = False

    def __post_init__(self) -> None:
        self.viewpoint = "security"
        self.level = SecurityLevel.parse(self.level)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "level": self.level.name,
            "allowed_peers": list(self.allowed_peers),
            "external_interface": self.external_interface,
        }


@dataclass
class ResourceRequirement(Requirement):
    """Resource budgets (memory, CAN bandwidth share) requested by a component."""

    memory_kib: float = 0.0
    can_bandwidth_bps: float = 0.0
    requires_vm_isolation: bool = False

    def __post_init__(self) -> None:
        self.viewpoint = "resources"
        if self.memory_kib < 0 or self.can_bandwidth_bps < 0:
            raise ContractViolation("resource budgets must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "memory_kib": self.memory_kib,
            "can_bandwidth_bps": self.can_bandwidth_bps,
            "requires_vm_isolation": self.requires_vm_isolation,
        }


@dataclass
class ServiceRequirement:
    """A service this component requires from some provider (micro-server)."""

    service: str
    max_latency: Optional[float] = None
    optional: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {"service": self.service, "max_latency": self.max_latency,
                "optional": self.optional}


@dataclass
class ServiceProvision:
    """A service this component provides to others."""

    service: str
    max_clients: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {"service": self.service, "max_clients": self.max_clients}


@dataclass
class Contract:
    """The full contract of one component.

    A contract bundles the component's identity, its viewpoint requirements
    and its service interface.  ``metadata`` carries free-form annotations
    (e.g. the functional skill the component implements).

    ``timing``, ``safety``, ``security`` and ``resources`` hold the first
    requirement of their viewpoint (``None`` when there is none or it has
    another type).  The MCC reads them on every integration, so they are
    resolved whenever the requirement list changes -- at construction, in
    :meth:`add_requirement` and when ``requirements`` is reassigned -- not
    searched on each read.  Appending to ``requirements`` in place would
    leave them stale; use :meth:`add_requirement` or assign a new list.
    ``asil`` reads the resolved safety requirement on every access.
    """

    component: str
    requirements: List[Requirement] = field(default_factory=list)
    requires: List[ServiceRequirement] = field(default_factory=list)
    provides: List[ServiceProvision] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)
    timing: Optional[RealTimeRequirement] = field(init=False, repr=False,
                                                  compare=False)
    safety: Optional[SafetyRequirement] = field(init=False, repr=False,
                                                compare=False)
    security: Optional[SecurityRequirement] = field(init=False, repr=False,
                                                    compare=False)
    resources: Optional[ResourceRequirement] = field(init=False, repr=False,
                                                     compare=False)

    def __post_init__(self) -> None:
        if not self.component:
            raise ContractViolation("contract needs a component name")

    # -- accessors --------------------------------------------------------

    def requirement(self, viewpoint: str) -> Optional[Requirement]:
        """Return the first requirement of the given viewpoint, if any."""
        for req in self.requirements:
            if req.viewpoint == viewpoint:
                return req
        return None

    def requirements_for(self, viewpoint: str) -> List[Requirement]:
        return [req for req in self.requirements if req.viewpoint == viewpoint]

    @property
    def asil(self) -> AsilLevel:
        safety = self.safety
        return safety.asil if safety else AsilLevel.QM

    def provided_services(self) -> List[str]:
        return [p.service for p in self.provides]

    def required_services(self) -> List[str]:
        return [r.service for r in self.requires]

    # -- mutation ---------------------------------------------------------

    def add_requirement(self, requirement: Requirement) -> "Contract":
        self.requirements.append(requirement)
        _set_requirements(self, self.requirements)
        return self

    def add_required_service(self, service: str, max_latency: Optional[float] = None,
                             optional: bool = False) -> "Contract":
        self.requires.append(ServiceRequirement(service, max_latency, optional))
        return self

    def add_provided_service(self, service: str, max_clients: Optional[int] = None) -> "Contract":
        self.provides.append(ServiceProvision(service, max_clients))
        return self

    # -- validation / serialization ---------------------------------------

    def validate(self) -> List[str]:
        """Return a list of internal consistency problems (empty if sound)."""
        problems: List[str] = []
        provided = set(self.provided_services())
        required = set(self.required_services())
        overlap = provided & required
        if overlap:
            problems.append(
                f"component {self.component} both provides and requires {sorted(overlap)}")
        if len(provided) != len(self.provides):
            problems.append(f"component {self.component} provides a service twice")
        # One counting pass into a dict, which keeps first-appearance
        # order, so the problems come out in the same order in every
        # process (iterating a set of strings depends on the hash seed).
        counts: Dict[str, int] = {}
        for requirement in self.requirements:
            vp = requirement.viewpoint
            counts[vp] = counts.get(vp, 0) + 1
        for vp, count in counts.items():
            if count > 1 and vp in {"timing", "safety", "security", "resources"}:
                problems.append(
                    f"component {self.component} has multiple {vp} requirements")
        return problems

    def to_dict(self) -> Dict[str, Any]:
        return {
            "component": self.component,
            "requirements": [r.to_dict() for r in self.requirements],
            "requires": [r.to_dict() for r in self.requires],
            "provides": [p.to_dict() for p in self.provides],
            "metadata": dict(self.metadata),
        }


#: The requirement type each resolved viewpoint attribute of a
#: :class:`Contract` holds.
_RESOLVED_TYPES = {"timing": RealTimeRequirement, "safety": SafetyRequirement,
                   "security": SecurityRequirement,
                   "resources": ResourceRequirement}


def _set_requirements(contract: Contract, requirements: List[Requirement]) -> None:
    """Store ``requirements`` on ``contract`` and resolve its viewpoints."""
    state = contract.__dict__
    state["requirements"] = requirements
    state["timing"] = state["safety"] = state["security"] = \
        state["resources"] = None
    # Backwards, so the first requirement of a viewpoint is written last.
    for req in reversed(requirements):
        kind = _RESOLVED_TYPES.get(req.viewpoint)
        if kind is not None:
            state[req.viewpoint] = req if isinstance(req, kind) else None


Contract.requirements = property(  # type: ignore[assignment]
    lambda contract: contract.__dict__["requirements"], _set_requirements,
    doc="The viewpoint requirements; assigning a list re-resolves the "
        "viewpoint attributes.")
