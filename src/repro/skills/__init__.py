"""Skill and ability graphs (Section IV of the paper).

A *skill graph* is a directed acyclic graph of skill nodes, data source
nodes and data sink nodes modelling which abilities a driving function needs
and how they depend on each other.  Instantiated with implementations and
metrics it becomes an *ability graph* used during operation to monitor the
current system performance, propagate degradations towards the main skill,
and drive graceful-degradation decisions.
"""

from repro import _lazy

__getattr__, __dir__, __all__ = _lazy.exports(__name__, {
    "graph": ["NodeKind", "SkillNode", "SkillGraph", "SkillGraphError"],
    "ability": ["AbilityLevel", "Ability", "AbilityGraph",
                "PropagationPolicy"],
    "degradation": ["DegradationAction", "DegradationActionKind",
                    "DegradationPlan", "DegradationManager",
                    "OperationalRestriction", "RedundancySwitch"],
    "acc_example": ["build_acc_skill_graph", "build_acc_ability_graph",
                    "ACC_MAIN_SKILL"],
})
