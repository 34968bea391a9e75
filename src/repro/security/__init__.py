"""Security layer: intrusion detection, access control and attack injection.

Section V's cross-layer example starts from "monitoring communication
behavior, the system itself is capable of detecting components or subsystems
affected by a security leak".  This package provides the communication-
behaviour intrusion detection system, the distributed access-control
configuration derived from the deployed contracts, and attack injectors used
by the scenarios and benchmarks.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "ids": ["IntrusionDetectionSystem", "IdsRule", "IntrusionAlert"],
    "access_control": ["AccessControlConfig", "build_policy_from_registry"],
    "attacks": ["Attack", "MessageInjectionAttack",
                "ComponentCompromiseAttack", "FloodingAttack",
                "AttackInjector"],
})
