"""Multi-Change Controller (MCC) — the model domain of the CCC architecture.

"A so-called Multi-Change Controller (MCC) takes full control over the
system and platform configuration ... It performs the integration process
and ensures that a new configuration passes all necessary acceptance and
conformance tests." (Section II.A)

The MCC consumes contracts (from :mod:`repro.contracts`), gradually refines
a candidate configuration (functional architecture -> technical architecture
-> implementation mapping), runs the viewpoint analyses from
:mod:`repro.analysis` as acceptance tests, and only then hands the
configuration over to the execution domain's RTE.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "configuration": ["ChangeRequest", "ChangeKind", "SystemModel",
                      "IntegrationReport"],
    "mapping": ["MappingEngine", "MappingStrategy", "MappingError"],
    "acceptance": ["AcceptanceResult", "AcceptanceTest",
                   "TimingAcceptanceTest", "DistributedTimingAcceptanceTest",
                   "DistributedChainSpec", "MessageSpec",
                   "SafetyAcceptanceTest", "SecurityAcceptanceTest",
                   "ResourceAcceptanceTest", "default_acceptance_tests",
                   "tasksets_from_mapping"],
    "integration": ["IntegrationProcess", "IntegrationError"],
    "controller": ["MccSnapshot", "MultiChangeController"],
})
