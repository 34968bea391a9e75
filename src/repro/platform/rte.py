"""Run-time environment (RTE) of the execution domain.

The RTE hosts the application components on top of a microkernel-like kernel
abstraction: components only interact through explicitly granted service
sessions (capabilities), and the MCC deploys configurations atomically.  The
RTE is also the attachment point for the application/platform monitors
(Section II.B, Fig. 1) and the enforcement hooks used by the security layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.contracts.model import Contract
from repro.platform.components import (
    Component,
    ComponentError,
    ComponentRegistry,
    ServiceSession,
)
from repro.platform.resources import Platform, ProcessingResource, ResourceError
from repro.platform.tasks import Task
from repro.sim.trace import TraceRecorder


class CapabilityError(PermissionError):
    """Raised when a component uses a service without an active session."""


@dataclass(frozen=True)
class RteConfiguration:
    """A deployable system configuration produced by the MCC; frozen, as
    stamped and replayed fleet vehicles share it.

    Attributes
    ----------
    version:
        Monotonically increasing configuration version.
    contracts:
        The contracts of all components in the configuration.
    mapping:
        Component name -> processor name (the MCC passes its model's
        read-only mapping).
    priorities:
        Task name -> fixed priority (read-only, as ``mapping``).
    sessions:
        Explicit client/provider/service triples to wire.
    """

    version: int
    contracts: Tuple[Contract, ...] = ()
    mapping: Mapping[str, str] = field(default_factory=dict)
    priorities: Mapping[str, int] = field(default_factory=dict)
    sessions: Tuple[Dict[str, str], ...] = ()

    def __post_init__(self) -> None:
        self.__dict__.update(  # frozen fields, written once
            contracts=tuple(self.contracts), sessions=tuple(self.sessions))


class RuntimeEnvironment:
    """The execution-domain runtime hosting components on a platform."""

    def __init__(self, platform: Platform, recorder: Optional[TraceRecorder] = None) -> None:
        self.platform = platform
        self.registry = ComponentRegistry()
        self.recorder = recorder or TraceRecorder()
        self.configuration: Optional[RteConfiguration] = None
        self._deployed_tasks: Dict[str, str] = {}  # task name -> processor name

    # -- deployment -----------------------------------------------------------

    def deploy(self, configuration: RteConfiguration) -> None:
        """Apply a configuration: instantiate components, map their tasks to
        processors, and wire the service sessions.

        Deployment is all-or-nothing at the model level: the MCC only hands
        over configurations that passed its acceptance tests, so a failure
        here indicates an inconsistency between model and execution domain
        and raises immediately.
        """
        self._undeploy_all()
        self.configuration = configuration
        for contract in configuration.contracts:
            component = Component(contract)
            self.registry.add(component)
            processor_name = configuration.mapping.get(contract.component)
            if processor_name is None:
                raise ComponentError(
                    f"configuration v{configuration.version} has no mapping for "
                    f"component {contract.component!r}")
            processor = self.platform.processor(processor_name)
            self._deploy_tasks(component, processor, configuration)
            resources = contract.resources
            if resources is not None and resources.memory_kib > 0:
                processor.allocate_memory(contract.component, resources.memory_kib)
            component.start()
        self._wire_sessions(configuration)
        self.recorder.record(0.0, "rte.deploy", "rte",
                             version=configuration.version,
                             components=len(configuration.contracts))

    def _deploy_tasks(self, component: Component, processor: ProcessingResource,
                      configuration: RteConfiguration) -> None:
        timing = component.contract.timing
        if timing is None:
            return
        task_name = f"{component.name}.task"
        priority = configuration.priorities.get(task_name, configuration.priorities.get(component.name, 0))
        task = Task.from_requirement(task_name, timing, priority=priority,
                                     component=component.name,
                                     criticality=component.contract.asil.name)
        processor.host(task)
        self._deployed_tasks[task_name] = processor.name

    def _wire_sessions(self, configuration: RteConfiguration) -> None:
        if configuration.sessions:
            for entry in configuration.sessions:
                self.registry.connect(entry["client"], entry["service"],
                                      entry.get("provider"))
        else:
            self.registry.autowire()

    def _undeploy_all(self) -> None:
        for component in list(self.registry.components()):
            self._remove_component(component.name)
        self.configuration = None

    def _remove_component(self, name: str) -> None:
        component = self.registry.get(name)
        task_name = f"{name}.task"
        processor_name = self._deployed_tasks.pop(task_name, None)
        if processor_name is not None:
            processor = self.platform.processor(processor_name)
            if task_name in processor.taskset:
                processor.evict(task_name)
            processor.release_memory(name)
        self.registry.remove(name)
        _ = component  # component fully stopped by registry.remove

    # -- runtime operations ------------------------------------------------------

    def component(self, name: str) -> Component:
        return self.registry.get(name)

    def components(self) -> List[Component]:
        return self.registry.components()

    def processor_of(self, component_name: str) -> Optional[ProcessingResource]:
        task_name = f"{component_name}.task"
        processor_name = self._deployed_tasks.get(task_name)
        return self.platform.processor(processor_name) if processor_name else None

    def use_service(self, client: str, service: str, time: float = 0.0) -> ServiceSession:
        """A client invokes a service: requires an active session (capability).

        Raises :class:`CapabilityError` if no active session exists — this is
        the least-privilege enforcement point the access-control layer relies
        on.
        """
        client_component = self.registry.get(client)
        if not client_component.running:
            raise CapabilityError(f"component {client} is not running")
        for session in client_component.sessions:
            if session.client == client and session.service == service and session.active:
                provider = self.registry.get(session.provider)
                if not provider.running:
                    raise CapabilityError(
                        f"provider {session.provider} of service {service!r} is not running")
                self.recorder.record(time, "rte.service_call", client,
                                     service=service, provider=session.provider)
                return session
        raise CapabilityError(f"component {client} holds no capability for service {service!r}")

    def quarantine(self, component_name: str, time: float = 0.0) -> int:
        """Quarantine a component (security containment): stop it, revoke all
        its sessions.  Returns the number of revoked sessions."""
        component = self.registry.get(component_name)
        revoked = self.registry.revoke_sessions(component_name)
        component.quarantine()
        self.recorder.record(time, "rte.quarantine", component_name, revoked_sessions=revoked)
        return revoked

    def restart(self, component_name: str, time: float = 0.0) -> None:
        """Restart a stopped component (safety-layer recovery mechanism)."""
        component = self.registry.get(component_name)
        if component.state.value == "quarantined":
            raise ComponentError(
                f"component {component_name} is quarantined; re-integration via the MCC required")
        component.health = 1.0
        component.start()
        self.recorder.record(time, "rte.restart", component_name)
        # Re-wire sessions that were revoked when the component stopped.
        for requirement in component.contract.requires:
            has_active = any(s.service == requirement.service and s.active
                             for s in component.sessions if s.client == component.name)
            if not has_active:
                providers = self.registry.providers_of(requirement.service)
                if len(providers) == 1:
                    self.registry.connect(component.name, requirement.service, providers[0].name)

    def snapshot(self) -> Dict[str, str]:
        """Component name -> lifecycle state (used by the self-model)."""
        return {component.name: component.state.value for component in self.registry}
