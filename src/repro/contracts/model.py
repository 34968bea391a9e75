"""Contract model: explicit requirements and provisions per component.

The paper's contracting language collects, for each component, the
requirements of every viewpoint (safety level, real-time constraints,
security level, resource budgets) together with the services the component
requires from and provides to others.  The MCC consumes these contracts
during the integration process.

Every type here is a frozen dataclass.  Those that fleets build by the
hundred write their fields through the instance dict in their own
``__init__``, twice as fast as a generated one's ``object.__setattr__``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple


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
        if not isinstance(value, str):
            raise ValueError(f"invalid ASIL level: {value!r}")
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
        if not isinstance(value, str):
            raise ValueError(f"invalid security level: {value!r}")
        try:
            return cls[value.strip().upper()]
        except KeyError as exc:
            raise ValueError(f"invalid security level: {value!r}") from exc


class ContractViolation(ValueError):
    """Raised when a contract is internally inconsistent or violated."""


@dataclass(frozen=True)
class Requirement:
    """Base class for viewpoint requirements; a subclass redeclares ``viewpoint``."""

    viewpoint: str = field(init=False, default="generic")

    def to_dict(self) -> Dict[str, Any]:
        return {"viewpoint": self.viewpoint}


@dataclass(frozen=True, init=False)
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

    viewpoint: str = field(init=False, default="timing")
    period: float
    wcet: float
    deadline: float
    jitter: float

    def __init__(self, period: float = 0.0, wcet: float = 0.0,
                 deadline: Optional[float] = None, jitter: float = 0.0) -> None:
        deadline = period if deadline is None else deadline
        # Negated comparisons, so that NaN is rejected too.
        if not period > 0:
            raise ContractViolation(f"period must be positive, got {period}")
        if not wcet > 0:
            raise ContractViolation(f"wcet must be positive, got {wcet}")
        if not deadline > 0:
            raise ContractViolation(f"deadline must be positive, got {deadline}")
        if wcet > deadline:
            raise ContractViolation(
                f"wcet {wcet} exceeds deadline {deadline}: unschedulable by construction")
        if not jitter >= 0:
            raise ContractViolation("jitter must be non-negative")
        self.__dict__.update(period=period, wcet=wcet, deadline=deadline, jitter=jitter)

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


@dataclass(frozen=True, init=False)
class SafetyRequirement(Requirement):
    """Safety requirement: required ASIL and redundancy expectations."""

    viewpoint: str = field(init=False, default="safety")
    asil: AsilLevel
    fail_operational: bool
    redundancy_group: Optional[str]

    def __init__(self, asil: "AsilLevel | str | int" = AsilLevel.QM,
                 fail_operational: bool = False, redundancy_group: Optional[str] = None) -> None:
        self.__dict__.update(asil=AsilLevel.parse(asil), fail_operational=fail_operational,
                             redundancy_group=redundancy_group)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "asil": self.asil.name,
            "fail_operational": self.fail_operational,
            "redundancy_group": self.redundancy_group,
        }


@dataclass(frozen=True, init=False)
class SecurityRequirement(Requirement):
    """Security requirement: minimum protection level and allowed peers."""

    viewpoint: str = field(init=False, default="security")
    level: SecurityLevel
    allowed_peers: Tuple[str, ...]
    external_interface: bool

    def __init__(self, level: "SecurityLevel | str | int" = SecurityLevel.NONE,
                 allowed_peers: Iterable[str] = (), external_interface: bool = False) -> None:
        self.__dict__.update(level=SecurityLevel.parse(level), allowed_peers=tuple(allowed_peers),
                             external_interface=external_interface)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "level": self.level.name,
            "allowed_peers": list(self.allowed_peers),
            "external_interface": self.external_interface,
        }


@dataclass(frozen=True)
class ResourceRequirement(Requirement):
    """Resource budgets (memory, CAN bandwidth share) requested by a component."""

    viewpoint: str = field(init=False, default="resources")
    memory_kib: float = 0.0
    can_bandwidth_bps: float = 0.0
    requires_vm_isolation: bool = False

    def __post_init__(self) -> None:
        # Negated, so that NaN is rejected too: NaN demand passes every check.
        if not (self.memory_kib >= 0 and self.can_bandwidth_bps >= 0):
            raise ContractViolation("resource budgets must be non-negative")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "viewpoint": self.viewpoint,
            "memory_kib": self.memory_kib,
            "can_bandwidth_bps": self.can_bandwidth_bps,
            "requires_vm_isolation": self.requires_vm_isolation,
        }


@dataclass(frozen=True, init=False)
class ServiceRequirement:
    """A service this component requires from some provider (micro-server)."""

    service: str
    max_latency: Optional[float]
    optional: bool

    def __init__(self, service: str, max_latency: Optional[float] = None,
                 optional: bool = False) -> None:
        self.__dict__.update(service=service, max_latency=max_latency, optional=optional)

    def to_dict(self) -> Dict[str, Any]:
        return {"service": self.service, "max_latency": self.max_latency,
                "optional": self.optional}


@dataclass(frozen=True, init=False)
class ServiceProvision:
    """A service this component provides to others."""

    service: str
    max_clients: Optional[int]

    def __init__(self, service: str, max_clients: Optional[int] = None) -> None:
        self.__dict__.update(service=service, max_clients=max_clients)

    def to_dict(self) -> Dict[str, Any]:
        return {"service": self.service, "max_clients": self.max_clients}


#: The requirement type each resolved viewpoint attribute of a
#: :class:`Contract` holds.
_RESOLVED_TYPES = {"timing": RealTimeRequirement, "safety": SafetyRequirement,
                   "security": SecurityRequirement,
                   "resources": ResourceRequirement}


@dataclass(frozen=True, init=False)
class Contract:
    """The full contract of one component.

    A contract bundles the component's identity, its viewpoint requirements
    and its service interface.  ``metadata`` carries free-form annotations
    (e.g. the functional skill the component implements).

    A contract is frozen, with tuple sequences and a read-only copy of the
    metadata, so models, configurations and fleet vehicles share it, and a
    changed contract is a new one (``dataclasses.replace``).  ``timing``,
    ``safety``, ``security`` and ``resources`` hold the first requirement
    of their viewpoint (``None`` when there is none or it has another
    type), resolved at construction, as the MCC reads them on every
    integration.
    """

    component: str
    requirements: Tuple[Requirement, ...]
    requires: Tuple[ServiceRequirement, ...]
    provides: Tuple[ServiceProvision, ...]
    metadata: Mapping[str, Any]
    timing: Optional[RealTimeRequirement] = field(init=False, repr=False,
                                                  compare=False)
    safety: Optional[SafetyRequirement] = field(init=False, repr=False,
                                                compare=False)
    security: Optional[SecurityRequirement] = field(init=False, repr=False,
                                                    compare=False)
    resources: Optional[ResourceRequirement] = field(init=False, repr=False,
                                                     compare=False)

    def __init__(self, component: str, requirements: Iterable[Requirement] = (),
                 requires: Iterable[ServiceRequirement] = (),
                 provides: Iterable[ServiceProvision] = (),
                 metadata: Mapping[str, Any] = MappingProxyType({})) -> None:
        if not component:
            raise ContractViolation("contract needs a component name")
        requirements = tuple(requirements)
        state = self.__dict__
        state.update(component=component, requirements=requirements,
                     requires=tuple(requires), provides=tuple(provides),
                     metadata=MappingProxyType(dict(metadata)), timing=None,
                     safety=None, security=None, resources=None)
        # Backwards, so the first requirement of a viewpoint is written last.
        for req in reversed(requirements):
            kind = _RESOLVED_TYPES.get(req.viewpoint)
            if kind is not None:
                state[req.viewpoint] = req if isinstance(req, kind) else None

    # -- accessors --------------------------------------------------------

    def requirement(self, viewpoint: str) -> Optional[Requirement]:
        """Return the first requirement of the given viewpoint, if any."""
        for req in self.requirements:
            if req.viewpoint == viewpoint:
                return req
        return None

    @property
    def asil(self) -> AsilLevel:
        safety = self.safety
        return safety.asil if safety else AsilLevel.QM

    def provided_services(self) -> List[str]:
        return [p.service for p in self.provides]

    def required_services(self) -> List[str]:
        return [r.service for r in self.requires]

    # -- validation -------------------------------------------------------

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
