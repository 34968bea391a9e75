"""Execution-domain substrate (Section II.B of the paper).

Models the microkernel-based run-time environment the CCC architecture
builds on: software components and micro-servers connected through explicit
service sessions, tasks with real-time parameters, processing resources, a
fixed-priority preemptive scheduling simulator, and the RTE configuration
object that the MCC deploys and that monitors attach to.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "tasks": ["Task", "TaskState", "Job", "TaskSet"],
    "resources": ["ProcessingResource", "NetworkResource", "MemoryPool",
                  "ResourceError", "Platform"],
    "components": ["Component", "MicroServer", "ServiceSession",
                   "ComponentRegistry", "ComponentError"],
    "scheduler": ["FixedPriorityScheduler", "SchedulerStats",
                  "ResourceScheduler"],
    "rte": ["RuntimeEnvironment", "RteConfiguration", "CapabilityError"],
    "thermal": ["ThermalModel", "DvfsGovernor", "OperatingPoint"],
})
