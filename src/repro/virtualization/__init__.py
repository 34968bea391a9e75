"""Platform virtualization layer (Section III).

Hypervisor-based process virtualization provides temporal and spatial
segregation among mixed-criticality applications sharing a multicore
platform.  The hypervisor owns the physical functions of virtualized
peripherals (such as the CAN controller) and assigns virtual functions to
guest VMs; modifications inside one VM cannot affect other VMs.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "vm": ["VirtualMachine", "VmState", "VmError"],
    "hypervisor": ["Hypervisor", "DeviceAssignment", "IsolationViolation"],
})
