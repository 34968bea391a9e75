"""Contracting language (Section II.A of the paper).

Requirements and constraints of every application/platform component are
captured explicitly so that the Multi-Change Controller can run
viewpoint-specific analyses (safety, timing, security, resources) as
acceptance tests during in-field integration.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "model": ["AsilLevel", "SecurityLevel", "Requirement",
              "RealTimeRequirement", "SafetyRequirement",
              "SecurityRequirement", "ResourceRequirement",
              "ServiceRequirement", "ServiceProvision", "Contract",
              "ContractViolation"],
    "language": ["ContractParser", "ContractSerializer",
                 "ContractSyntaxError"],
    "viewpoints": ["Viewpoint", "ViewpointRegistry", "STANDARD_VIEWPOINTS"],
})
