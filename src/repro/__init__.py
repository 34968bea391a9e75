"""repro — cross-layer self-awareness for autonomous automotive systems.

A reproduction of Schlatow, Möstl, Ernst, Nolte, Jatzkowski, Maurer, Herber
and Herkersdorf, *Self-awareness in autonomous automotive systems* (DATE
2017), built as a pure-Python simulation library.

The package is organized by system layer (see DESIGN.md):

* ``repro.sim`` — discrete-event simulation kernel
* ``repro.contracts`` — contracting language and viewpoints
* ``repro.platform`` — execution domain (components, tasks, scheduler, RTE, thermal)
* ``repro.analysis`` — model-domain analyses (WCRT, dependencies, threats, safety)
* ``repro.mcc`` — Multi-Change Controller (in-field integration)
* ``repro.monitoring`` — run-time monitors, deviation detection, enforcement
* ``repro.virtualization`` / ``repro.can`` — hypervisor and virtualized CAN controller
* ``repro.skills`` — skill/ability graphs and graceful degradation
* ``repro.vehicle`` — driving-function substrate (dynamics, sensors, ACC)
* ``repro.security`` — intrusion detection, access control, attacks
* ``repro.platooning`` / ``repro.routing`` — cooperation and weather-aware planning
* ``repro.core`` — the cross-layer self-awareness coordinator and the
  integrated :class:`~repro.core.vehicle_system.SelfAwareVehicle`
* ``repro.scenarios`` — the paper's worked scenarios as reusable drivers
* ``repro.experiments`` — experiment orchestration: scenario registry,
  declarative parameter sweeps, serial/parallel runner, CPA memoization and
  the ``python -m repro.experiments`` CLI
"""

from repro import _lazy

__version__ = "0.1.0"

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "core": ["ArbitrationPolicy", "CrossLayerCoordinator", "Countermeasure",
             "CountermeasureCatalog", "Layer", "SelfAwareVehicle",
             "SelfAwarenessLoop", "SelfModel", "VehicleSystemConfig"],
    "monitoring": ["Anomaly", "AnomalySeverity", "AnomalyType"],
    "skills": ["AbilityGraph", "AbilityLevel", "SkillGraph",
               "build_acc_ability_graph", "build_acc_skill_graph"],
})
__all__.append("__version__")
