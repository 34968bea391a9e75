"""MappingEngine coverage: every strategy on contrived platforms.

Exercises first-fit/worst-fit/best-fit on exact-fit, overload and
tie-breaking platforms, plus the redundancy-separation, keep-existing and
priority-assignment rules — and pins mapping determinism across repeated
runs and rebuilt engines.  Two differentials close it: ``map`` against a
reference that re-derives everything per call, and one
:class:`MappingState` carried through a run of additions against ``map``
on every prefix.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.contracts.model import (Contract, RealTimeRequirement,
                                   SafetyRequirement)
from repro.mcc.mapping import (MappingEngine, MappingError, MappingState,
                               MappingStrategy)
from repro.platform.resources import Platform, ProcessingResource


def contract(name: str, utilization: float, period: float = 0.1,
             deadline: float = None, asil: str = "QM",
             redundancy_group: str = None) -> Contract:
    requirements = [RealTimeRequirement(period=period, wcet=utilization * period,
                                        deadline=deadline)]
    if asil != "QM" or redundancy_group is not None:
        requirements.append(SafetyRequirement(asil=asil,
                                              redundancy_group=redundancy_group))
    return Contract(component=name, requirements=requirements)


def platform_with(capacities) -> Platform:
    platform = Platform(name="map-test")
    for index, capacity in enumerate(capacities):
        platform.add_processor(ProcessingResource(f"cpu{index}", capacity=capacity))
    return platform


ALL_STRATEGIES = [MappingStrategy.FIRST_FIT, MappingStrategy.WORST_FIT,
                  MappingStrategy.BEST_FIT]


class TestExactFit:
    """Platforms whose capacity exactly matches the demand."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_exact_fit_places_everything(self, strategy):
        platform = platform_with([0.5, 0.5])
        contracts = [contract("a", 0.5), contract("b", 0.3), contract("c", 0.2)]
        decision = MappingEngine(platform, strategy=strategy).map(contracts)
        assert set(decision.placement) == {"a", "b", "c"}
        for processor, load in decision.utilization.items():
            assert load <= platform.processor(processor).capacity + 1e-9
        assert sum(decision.utilization.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_single_component_fills_single_processor(self, strategy):
        platform = platform_with([0.4])
        decision = MappingEngine(platform, strategy=strategy).map(
            [contract("only", 0.4)])
        assert decision.placement == {"only": "cpu0"}


class TestOverload:
    """Demand beyond every capacity bound raises MappingError."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_oversized_component_raises(self, strategy):
        platform = platform_with([0.5, 0.5])
        with pytest.raises(MappingError, match="no processor can host"):
            MappingEngine(platform, strategy=strategy).map([contract("big", 0.6)])

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_aggregate_overload_raises(self, strategy):
        platform = platform_with([0.5, 0.5])
        contracts = [contract(f"c{i}", 0.4) for i in range(3)]
        with pytest.raises(MappingError):
            MappingEngine(platform, strategy=strategy).map(contracts)

    def test_untimed_components_always_fit(self):
        platform = platform_with([0.1])
        decision = MappingEngine(platform).map([Contract(component="stateless")])
        assert decision.placement == {"stateless": "cpu0"}


class TestStrategySemantics:
    """The three heuristics differ exactly as documented."""

    def test_first_fit_packs_in_platform_order(self):
        platform = platform_with([0.9, 0.9, 0.9])
        contracts = [contract("a", 0.4), contract("b", 0.3), contract("c", 0.2)]
        decision = MappingEngine(platform, strategy=MappingStrategy.FIRST_FIT).map(contracts)
        assert decision.placement == {"a": "cpu0", "b": "cpu0", "c": "cpu0"}

    def test_worst_fit_balances_load(self):
        platform = platform_with([0.9, 0.9])
        contracts = [contract("a", 0.4), contract("b", 0.3), contract("c", 0.2)]
        decision = MappingEngine(platform, strategy=MappingStrategy.WORST_FIT).map(contracts)
        # Heaviest first onto the emptiest processor each time.
        assert decision.placement["a"] != decision.placement["b"]
        loads = sorted(decision.utilization.values())
        assert loads == [pytest.approx(0.4), pytest.approx(0.5)]

    def test_best_fit_minimizes_fragmentation(self):
        platform = platform_with([0.9, 0.45])
        contracts = [contract("a", 0.45), contract("b", 0.2)]
        decision = MappingEngine(platform, strategy=MappingStrategy.BEST_FIT).map(contracts)
        # "a" goes to the snug cpu1; "b" then only fits cpu0.
        assert decision.placement == {"a": "cpu1", "b": "cpu0"}

    def test_tie_breaking_is_by_name_for_equal_remaining(self):
        # Two identical processors: worst-fit must break the tie on the name
        # (max of (remaining, name)), best-fit on the min tuple.
        platform = platform_with([0.8, 0.8])
        worst = MappingEngine(platform, strategy=MappingStrategy.WORST_FIT).map(
            [contract("a", 0.1)])
        assert worst.placement == {"a": "cpu1"}
        best = MappingEngine(platform_with([0.8, 0.8]),
                             strategy=MappingStrategy.BEST_FIT).map(
            [contract("a", 0.1)])
        assert best.placement == {"a": "cpu0"}


class TestDeterminism:
    """Identical inputs -> identical decisions, run after run."""

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_repeated_runs_identical(self, strategy):
        contracts = [contract(f"c{i:02d}", u)
                     for i, u in enumerate([0.3, 0.25, 0.2, 0.15, 0.1, 0.05])]
        reference = None
        for _ in range(5):
            engine = MappingEngine(platform_with([0.7, 0.7, 0.7]), strategy=strategy)
            decision = engine.map(contracts)
            snapshot = (decision.placement, decision.priorities, decision.utilization)
            if reference is None:
                reference = snapshot
            assert snapshot == reference

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_equal_utilization_ties_are_stable(self, strategy):
        # sorted() is stable, so equal-utilization components keep their
        # input order in the placement loop; the decision must not flap.
        contracts = [contract(name, 0.2) for name in ["x", "y", "z"]]
        first = MappingEngine(platform_with([0.5, 0.5]), strategy=strategy).map(contracts)
        second = MappingEngine(platform_with([0.5, 0.5]), strategy=strategy).map(contracts)
        assert first.placement == second.placement


class TestExistingAndRedundancy:
    """Minimal-change integration and redundancy separation."""

    def test_existing_placement_is_kept(self):
        platform = platform_with([0.9, 0.9])
        contracts = [contract("a", 0.3), contract("b", 0.2)]
        decision = MappingEngine(platform).map(contracts,
                                               existing={"a": "cpu1"})
        assert decision.placement["a"] == "cpu1"

    def test_stale_existing_placement_is_dropped(self):
        platform = platform_with([0.9])
        decision = MappingEngine(platform).map([contract("a", 0.3)],
                                               existing={"a": "gone-cpu"})
        assert decision.placement["a"] == "cpu0"

    def test_redundancy_group_members_separated(self):
        platform = platform_with([0.9, 0.9])
        contracts = [contract("brake_a", 0.2, asil="D", redundancy_group="brakes"),
                     contract("brake_b", 0.2, asil="D", redundancy_group="brakes")]
        decision = MappingEngine(platform).map(contracts)
        assert decision.placement["brake_a"] != decision.placement["brake_b"]

    def test_redundancy_falls_back_to_shared_processor(self):
        platform = platform_with([0.9])  # separation impossible
        contracts = [contract("brake_a", 0.2, redundancy_group="brakes"),
                     contract("brake_b", 0.2, redundancy_group="brakes")]
        decision = MappingEngine(platform).map(contracts)
        assert decision.placement["brake_a"] == decision.placement["brake_b"] == "cpu0"


class TestPriorityAssignment:
    """Deadline-monotonic priorities with ASIL/name tie-breaking."""

    def test_deadline_monotonic_per_processor(self):
        platform = platform_with([0.9])
        contracts = [contract("slow", 0.1, period=0.2),
                     contract("fast", 0.1, period=0.02),
                     contract("mid", 0.1, period=0.1)]
        decision = MappingEngine(platform).map(contracts)
        assert decision.priorities["fast.task"] == 0
        assert decision.priorities["mid.task"] == 1
        assert decision.priorities["slow.task"] == 2

    def test_equal_deadline_ties_break_on_asil_then_name(self):
        platform = platform_with([0.9])
        contracts = [contract("qm_app", 0.1, period=0.05, asil="QM"),
                     contract("asil_d", 0.1, period=0.05, asil="D"),
                     contract("asil_b2", 0.1, period=0.05, asil="B"),
                     contract("asil_b1", 0.1, period=0.05, asil="B")]
        decision = MappingEngine(platform).map(contracts)
        ranked = sorted(decision.priorities, key=decision.priorities.get)
        assert ranked == ["asil_d.task", "asil_b1.task", "asil_b2.task",
                         "qm_app.task"]

    def test_priorities_restart_per_processor(self):
        platform = platform_with([0.3, 0.3])
        contracts = [contract("a", 0.3, period=0.05), contract("b", 0.3, period=0.1)]
        decision = MappingEngine(platform).map(contracts)
        assert decision.placement["a"] != decision.placement["b"]
        assert decision.priorities == {"a.task": 0, "b.task": 0}


# -- differentials -------------------------------------------------------------


def reference_map(engine, contracts, existing):
    """``MappingEngine.map`` re-deriving everything on each call: kept
    placements summed in contract order, the rest placed heaviest first,
    then every hosted contract sorted per processor."""
    utilization = {p.name: 0.0 for p in engine.platform.processors()}
    placement, used = {}, {}
    group_of = {c.component: c.safety.redundancy_group for c in contracts
                if c.safety and c.safety.redundancy_group}

    def load(contract):
        return contract.timing.utilization if contract.timing else 0.0

    def fits(contract, excluded):
        fitting = [(p.capacity - utilization[p.name], p)
                   for p in engine.platform.processors()
                   if p.name not in excluded
                   and load(contract) <= p.capacity - utilization[p.name] + 1e-12]
        if not fitting:
            return None
        if engine.strategy is MappingStrategy.FIRST_FIT:
            return fitting[0][1].name
        pick = max if engine.strategy is MappingStrategy.WORST_FIT else min
        return pick(fitting, key=lambda item: (item[0], item[1].name))[1].name

    def note(contract, processor):
        placement[contract.component] = processor
        utilization[processor] += load(contract)
        if contract.component in group_of:
            used.setdefault(group_of[contract.component], set()).add(processor)

    for contract in contracts:
        if existing.get(contract.component) in utilization:
            note(contract, existing[contract.component])
    for contract in sorted((c for c in contracts if c.component not in placement),
                           key=load, reverse=True):
        excluded = used.get(group_of.get(contract.component), set())
        processor = fits(contract, excluded)
        if processor is None and excluded:
            processor = fits(contract, set())
        if processor is None:
            raise MappingError(f"no processor can host {contract.component!r}")
        note(contract, processor)
    hosted = {}
    for contract in contracts:
        if contract.timing is not None:
            hosted.setdefault(placement[contract.component], []).append(contract)
    priorities = {}
    for members in hosted.values():
        members.sort(key=lambda c: (c.timing.deadline, -int(c.asil), c.component))
        priorities.update((f"{c.component}.task", rank)
                          for rank, c in enumerate(members))
    return placement, utilization, priorities


def ordered(placement, utilization, priorities):
    """The three artefacts as ordered item lists, utilizations bit for bit."""
    return (list(placement.items()),
            [(name, value.hex()) for name, value in utilization.items()],
            list(priorities.items()))


@st.composite
def mapping_runs(draw):
    """An engine over 1-3 processors of unequal capacity and a run of
    distinct contracts: timed and untimed, with deadline and ASIL ties,
    redundancy groups and loads that force the group fallback and
    ``MappingError``."""
    platform = Platform(name="run")
    for index in range(draw(st.integers(min_value=1, max_value=3))):
        platform.add_processor(ProcessingResource(
            f"cpu{index}", capacity=draw(st.sampled_from([0.3, 0.5, 0.7, 1.0]))))
    engine = MappingEngine(platform,
                           strategy=draw(st.sampled_from(list(MappingStrategy))))
    contracts = []
    for index in range(draw(st.integers(min_value=1, max_value=10))):
        name = f"c{draw(st.integers(0, 99)):02d}_{index}"
        requirements = []
        if draw(st.integers(0, 4)):
            period = draw(st.sampled_from([0.01, 0.02, 0.05]))
            utilization = draw(st.sampled_from([0.05, 0.1, 0.15, 0.25, 0.4]))
            requirements.append(RealTimeRequirement(
                period=period, wcet=utilization * period,
                deadline=draw(st.sampled_from([None, 0.5 * period]))))
        asil = draw(st.sampled_from(["QM", "B", "D"]))
        group = draw(st.sampled_from([None, None, "g0", "g1"]))
        if asil != "QM" or group is not None:
            requirements.append(SafetyRequirement(asil=asil,
                                                  redundancy_group=group))
        contracts.append(Contract(component=name, requirements=requirements))
    return engine, contracts


class TestMappingDifferentials:

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=mapping_runs(), data=st.data())
    def test_map_matches_the_rederiving_reference(self, run, data):
        """Placements kept anywhere in the list (as after an update), stale
        ones, and none at all."""
        engine, contracts = run
        names = [p.name for p in engine.platform.processors()] + ["gone"]
        existing = {c.component: data.draw(st.sampled_from(names))
                    for c in contracts if data.draw(st.booleans())}
        try:
            expected = ordered(*reference_map(engine, contracts, existing))
        except MappingError:
            with pytest.raises(MappingError):
                engine.map(contracts, existing=existing)
            return
        decision = engine.map(contracts, existing=existing)
        assert ordered(decision.placement, decision.utilization,
                       decision.priorities) == expected

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=mapping_runs(), data=st.data())
    def test_a_carried_state_matches_map_on_every_prefix(self, run, data):
        """One state through a run of additions, seeded as the one-pass
        seeds it (an installed base mapped whole, then kept), gives exactly
        ``map(prefix, existing=previous placement)`` on every prefix and
        fails on the same prefix."""
        engine, contracts = run
        installed = data.draw(st.integers(min_value=0, max_value=len(contracts)))
        try:
            placement = engine.map(contracts[:installed]).placement
        except MappingError:
            event("installed base unmappable")
            return
        state = MappingState(engine)
        for position, contract in enumerate(contracts[:installed]):
            state.keep(contract, placement[contract.component], position)
        for count in range(installed + 1, len(contracts) + 1):
            try:
                expected = engine.map(contracts[:count], existing=placement)
            except MappingError:
                with pytest.raises(MappingError):
                    state.place(contracts[count - 1], count - 1)
                event("MappingError")
                return
            state.place(contracts[count - 1], count - 1)
            got = state.decision()
            assert ordered(got.placement, got.utilization, got.priorities) == \
                ordered(expected.placement, expected.utilization,
                        expected.priorities), count
            placement = expected.placement
        event("whole run mapped")
