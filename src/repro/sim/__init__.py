"""Discrete-event simulation substrate.

Every time-driven subsystem in this reproduction (platform scheduling, CAN
bus, vehicle dynamics, monitoring loops) runs on top of the small
discrete-event kernel defined here.  The kernel is deliberately simple: an
event calendar ordered by (time, priority, sequence number), a simulation
clock, and a trace recorder that downstream analyses and benchmarks consume.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "kernel": ["Event", "EventQueue", "Simulator", "Process"],
    "trace": ["Trace", "TraceRecord", "TraceRecorder"],
    "random": ["SeededRNG", "derive_seed"],
})
