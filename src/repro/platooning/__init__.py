"""Cooperative platooning with trust and agreement (Section V).

"Building a platoon with other vehicles can be beneficial in scenarios where
the vehicles are differently suited for driving in certain weather
conditions. ... agreeing on a common velocity or a minimum distance between
vehicles in a platoon is an essential but non-trivial problem as the
communication to or the platform of another vehicle might not be fully
trustworthy or even compromised."
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "trust": ["TrustModel", "TrustLevel"],
    "consensus": ["ConsensusProtocol", "ConsensusResult", "Proposal",
                  "median_consensus"],
    "platoon": ["Platoon", "PlatoonMember", "PlatoonError"],
})
