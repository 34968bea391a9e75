"""CAN bus substrate and virtualized CAN controller (Section III, Fig. 2).

The paper's quantitative evaluation concerns a hardware-virtualized CAN
controller split into a physical function (PF) and per-VM virtual functions
(VFs).  We reproduce it with a discrete-event CAN bus model (priority-based
arbitration, bit-accurate frame lengths), a conventional controller model,
the PF/VF virtualization layer with a calibrated latency model, and an
analytical FPGA resource model used for the break-even analysis (E3).
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "frame": ["CanFrame", "FrameType", "frame_bit_length"],
    "bus": ["CanBus", "BusError", "BusStatistics"],
    "controller": ["CanController", "TxRequest", "RxMessage",
                   "AcceptanceFilter"],
    "virtualization": ["VirtualFunction", "PhysicalFunction",
                       "VirtualizedCanController",
                       "VirtualizationLatencyModel", "TxSchedulingPolicy"],
    "resources": ["FpgaResourceModel", "ResourceEstimate", "break_even_vms"],
})
