"""Differential oracle for the MCC's accept/reject logic.

The cache + incremental-engine admission stack must be *verdict-invisible*:
for any chain of change requests, an MCC running the default battery (shared
:class:`AnalysisCache`, incremental engine, warm history) must produce
exactly the verdicts of a reference MCC whose timing viewpoint re-derives
every busy window from scratch with a cold
:class:`~repro.analysis.cpa.ResponseTimeAnalysis`.

The harness drives both controllers through randomized chains of
add/update/remove requests over UUniFast-derived component sets — well over
200 randomized cases — and fails on the first diverging verdict, viewpoint
result or failed-viewpoint list.

A second oracle covers :meth:`MultiChangeController.request_changes`, which
admits a run of additions with one acceptance run when every test vouches
for the final contract set, and splits a run at each request the
per-request loop rejects: it adopts the longest passing prefix, sends the
rejected request through ``request_change`` and starts a new run on the
rest.  It must leave exactly what the per-request loop
``[mcc.request_change(r) for r in requests]`` leaves: every report field
(request ids and refinement-step artefacts included), the model, the
deployed configuration, the expectations and the execution domain's state.
Hypothesis draws the additions onto empty and installed models, under every
mapping strategy, with every kind of rejection mixed in and additions
following each rejection.  Fixed cases pin the ``request_change`` calls and
battery runs of split runs, and cover the contract sets whose prefixes fail
although the whole set passes.

A third oracle pins the frozen model domain against the mutating
reference of ``tests/harness.py``: every candidate comes from
:meth:`~repro.mcc.configuration.SystemModel.changed` and the integration
builds the model to adopt, where the reference edits a copy of the adopted
model in place.  Over add/update/remove chains with duplicate additions,
updates and removals of absent components, runs through
``request_changes`` and rollbacks to earlier snapshots, both must leave the
same reports, models, configurations and execution domains.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from harness import (ColdTimingAcceptanceTest, ReferenceController,
                     build_platform, clone_request, make_contract, random_chain)
from repro.analysis.cache import AnalysisCache
from repro.contracts.model import (Contract, RealTimeRequirement,
                                   SafetyRequirement, SecurityRequirement,
                                   ServiceProvision, ServiceRequirement)
from repro.mcc.acceptance import (ResourceAcceptanceTest, SafetyAcceptanceTest,
                                  SecurityAcceptanceTest, TimingAcceptanceTest,
                                  default_acceptance_tests)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingStrategy
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RuntimeEnvironment
from repro.sim.random import SeededRNG


def assert_chain_equivalent(seed: int, pool_size: int, length: int,
                            num_processors: int) -> int:
    """Drive both MCCs through one chain; return the number of compared
    verdicts."""
    rng = SeededRNG(seed)
    chain = random_chain(rng, pool_size, length)
    fast = MultiChangeController(
        build_platform(num_processors),
        acceptance_tests=default_acceptance_tests(cache=AnalysisCache()))
    reference = MultiChangeController(
        build_platform(num_processors),
        acceptance_tests=[ColdTimingAcceptanceTest(), SafetyAcceptanceTest(),
                          SecurityAcceptanceTest(), ResourceAcceptanceTest()])
    for step, request in enumerate(chain):
        fast_report = fast.request_change(clone_request(request))
        ref_report = reference.request_change(clone_request(request))
        context = f"seed={seed} step={step} {request.kind.value} {request.component}"
        assert fast_report.accepted == ref_report.accepted, context
        assert fast_report.acceptance_results == ref_report.acceptance_results, context
        assert fast_report.failed_viewpoints() == ref_report.failed_viewpoints(), context
    assert fast.version == reference.version
    assert sorted(fast.model.components()) == sorted(reference.model.components())
    return len(chain)


class TestMccDifferential:
    """Cache + incremental admission == cold reference admission."""

    @pytest.mark.parametrize("num_processors", [1, 2, 3])
    def test_randomized_chains(self, num_processors):
        compared = 0
        for seed in range(5):
            compared += assert_chain_equivalent(
                seed=seed * 10 + num_processors, pool_size=8, length=15,
                num_processors=num_processors)
        assert compared == 5 * 15

    def test_long_high_churn_chains(self):
        """Longer chains with a bigger pool: more interleaved adds/removes,
        deeper engine history."""
        compared = 0
        for seed in range(4):
            compared += assert_chain_equivalent(
                seed=1_000 + seed, pool_size=12, length=20, num_processors=2)
        assert compared == 4 * 20

    def test_total_case_count_clears_200(self):
        """The harness as a whole compares >= 200 randomized verdicts (this
        mirrors the two tests above; kept explicit so shrinking either one
        trips the floor)."""
        total = 3 * 5 * 15 + 4 * 20
        assert total >= 200

    def test_shared_cache_across_chains_stays_equivalent(self):
        """One cache reused across several campaigns (the fleet pattern) must
        not leak verdicts between chains."""
        cache = AnalysisCache()
        for seed in (5, 6):
            rng = SeededRNG(seed)
            chain = random_chain(rng, pool_size=6, length=12)
            fast = MultiChangeController(
                build_platform(2),
                acceptance_tests=default_acceptance_tests(cache=cache))
            reference = MultiChangeController(
                build_platform(2),
                acceptance_tests=[ColdTimingAcceptanceTest(),
                                  SafetyAcceptanceTest(),
                                  SecurityAcceptanceTest(),
                                  ResourceAcceptanceTest()])
            for request in chain:
                fast_report = fast.request_change(clone_request(request))
                ref_report = reference.request_change(clone_request(request))
                assert fast_report.accepted == ref_report.accepted
                assert fast_report.failed_viewpoints() == ref_report.failed_viewpoints()

    def test_duplicate_add_and_missing_remove_agree(self):
        """Pre-acceptance rejections (model-level errors) also agree."""
        fast = MultiChangeController(
            build_platform(2),
            acceptance_tests=default_acceptance_tests(cache=AnalysisCache()))
        reference = MultiChangeController(
            build_platform(2),
            acceptance_tests=[ColdTimingAcceptanceTest(), SafetyAcceptanceTest(),
                              SecurityAcceptanceTest(), ResourceAcceptanceTest()])
        contract = make_contract("dup", 0.05, 0.005)
        for mcc in (fast, reference):
            assert mcc.add_component(contract).accepted
            assert not mcc.add_component(contract).accepted  # duplicate add
            assert not mcc.remove_component("ghost").accepted  # unknown removal
        assert fast.version == reference.version


# -- request_changes: one acceptance run against the per-request loop ---------


def report_fields(report):
    # The artefacts are compared by repr, which keeps the key order that
    # dict equality ignores (placements, utilizations and priorities).
    return (report.request_id, report.accepted,
            dict(report.acceptance_results), list(report.findings),
            report.configuration_version,
            [(step.name, step.description, repr(step.artefacts))
             for step in report.steps])


def controller_state(mcc):
    """Everything observable about an MCC and its execution domain."""
    model, configuration, rte = mcc.model, mcc.deployed_configuration, mcc.rte
    return {
        "reports": [report_fields(report) for report in mcc.reports],
        "model": (model.contracts(), list(model.mapping.items()),
                  list(model.priorities.items()), model.version),
        "configuration": None if configuration is None else (
            configuration.version, configuration.contracts,
            configuration.mapping, configuration.priorities,
            configuration.sessions),
        "expectations": list(mcc.expectations),
        "rte": None if rte is None else (
            rte.configuration is configuration, sorted(rte.snapshot().items()),
            sorted(session.key for session in rte.registry.sessions()),
            [(processor.name,
              [(task.name, task.priority, task.period, task.wcet)
               for task in processor.taskset],
              processor.memory_allocated_kib)
             for processor in rte.platform.processors()]),
    }


class Unvouched:
    """An extra viewpoint without a ``monotone`` method (a cold timing
    analysis)."""

    viewpoint = "extra"

    def run(self, contracts, mapping, priorities, platform):
        return ColdTimingAcceptanceTest().run(contracts, mapping, priorities,
                                              platform)


class Vouching:
    """Wraps a test and vouches for every contract set: what a wrong
    ``monotone`` answer would do."""

    def __init__(self, test):
        self.test = test
        self.viewpoint = test.viewpoint

    def run(self, *args):
        return self.test.run(*args)

    def monotone(self, contracts):
        return True


def build_controller(platform, deploy, tests=None, cache=None,
                     strategy=MappingStrategy.FIRST_FIT):
    if tests is None:
        tests = default_acceptance_tests(cache=cache)
    return MultiChangeController(
        platform, rte=RuntimeEnvironment(platform) if deploy else None,
        acceptance_tests=tests, mapping_strategy=strategy)


def add(contract):
    return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                         component=contract.component, contract=contract)


def run_both(make_platform, base, requests, deploy=False, extra=None,
             wrap=None, strategy=MappingStrategy.FIRST_FIT):
    """Install ``base`` on two fresh controllers mapping with ``strategy``,
    one by one, then give one ``requests`` through ``request_changes`` and
    the other through the per-request loop, over the same request objects.

    Returns both states, each with the reports the call returned, and the
    work ``request_changes`` did: its ``request_change`` calls (0 when the
    run passes whole) and its battery runs (the runs of its controller's
    first test, inside ``request_change`` calls included).
    """
    installs = [add(contract) for contract in base]
    controllers = []
    for _ in range(2):
        tests = None
        if extra is not None or wrap is not None:
            tests = default_acceptance_tests() + list(extra or [])
            if wrap is not None:
                tests = [wrap(test) for test in tests]
        mcc = build_controller(make_platform(), deploy, tests,
                               cache=AnalysisCache(), strategy=strategy)
        for request in installs:
            mcc.request_change(request)
        controllers.append(mcc)
    fast, reference = controllers
    calls, runs = [], []
    request_change = fast.request_change
    first = fast.process.acceptance_tests[0]
    first_run = first.run

    def counting(request):
        calls.append(request)
        return request_change(request)

    def counting_run(*args):
        runs.append(args)
        return first_run(*args)

    fast.request_change = counting
    first.run = counting_run
    returned = fast.request_changes(requests)
    del first.run
    expected = [reference.request_change(request) for request in requests]
    for mcc, reports in ((fast, returned), (reference, expected)):
        appended = mcc.reports[len(mcc.reports) - len(reports):]
        assert [id(report) for report in appended] == \
            [id(report) for report in reports]
    return ({**controller_state(fast),
             "returned": [report_fields(report) for report in returned]},
            {**controller_state(reference),
             "returned": [report_fields(report) for report in expected]},
            (len(calls), len(runs)))


def invalid_contract(name, period, wcet):
    """Provides and requires the same service: fails validation."""
    return replace(make_contract(name, period, wcet), requires=[
        ServiceRequirement(f"service_{name}", optional=True)])


def client_contract(name, service):
    """Requires ``service``: fails service completeness while nothing
    provides it."""
    return replace(make_contract(name, 0.1, 0.001),
                   requires=[ServiceRequirement(service)])


@st.composite
def addition_runs(draw):
    """A platform size and capacity, a mapping strategy, an installed base
    and a run of requests: additions only, or additions with every kind of
    rejection mixed in, each followed by up to three additions, which the
    run after a split may admit in one pass."""
    def contract(name):
        period = draw(st.sampled_from([0.01, 0.02, 0.03, 0.04, 0.05, 0.07,
                                       0.1, 0.2]))
        utilization = draw(st.floats(min_value=0.02, max_value=0.6))
        return make_contract(name, period, period * utilization)

    processors = draw(st.integers(min_value=1, max_value=3))
    # At full capacity the mapping admits loads that deadline-monotonic
    # scheduling cannot meet, so the timing viewpoint rejects requests.
    capacity = draw(st.sampled_from([0.9, 1.0]))
    strategy = draw(st.sampled_from(list(MappingStrategy)))
    base = [contract(f"b{index}")
            for index in range(draw(st.integers(min_value=0, max_value=4)))]
    kinds = st.sampled_from(["add"])
    if draw(st.booleans()):
        kinds = st.sampled_from(["add"] * 3 + [
            "hog", "duplicate", "invalid", "unmappable", "orphan", "client",
            "update", "remove"])
    requests = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(kinds)
        index = len(requests)
        names = [c.component for c in base] + \
            [r.component for r in requests if r.kind is ChangeKind.ADD_COMPONENT]
        if kind == "duplicate" and names:
            name = draw(st.sampled_from(names))
            requests.append(add(make_contract(name, 0.1, 0.001)))
        elif kind == "invalid":
            requests.append(add(invalid_contract(f"x{index}", 0.1, 0.001)))
        elif kind == "unmappable":
            requests.append(add(make_contract(f"u{index}", 0.1, 0.09)))
        elif kind == "hog":
            # A heavy task: beside another heavy task whose period its own
            # does not divide, one of them can miss its deadline although
            # the processor has room.
            period = draw(st.sampled_from([0.02, 0.03, 0.05, 0.07]))
            utilization = draw(st.floats(min_value=0.35, max_value=0.5))
            requests.append(add(make_contract(f"h{index}", period,
                                              period * utilization)))
        elif kind in ("orphan", "client"):
            # Requires a service that nothing provides, or the one the
            # addition right after it provides.
            requests.append(add(client_contract(
                f"c{index}", "service_none" if kind == "orphan"
                else f"service_a{index + 1}")))
        elif kind in ("update", "remove") and names:
            name = draw(st.sampled_from(names))
            requests.append(
                ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT, component=name,
                              contract=make_contract(name, 0.1, 0.01))
                if kind == "update" else
                ChangeRequest(kind=ChangeKind.REMOVE_COMPONENT, component=name))
        else:
            requests.append(add(contract(f"a{index}")))
            continue
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            requests.append(add(contract(f"a{len(requests)}")))
    return processors, capacity, strategy, base, requests


class TestRequestChangesDifferential:
    """``request_changes`` leaves exactly what the per-request loop leaves."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(run=addition_runs(), deploy=st.booleans(),
           extra=st.sampled_from([False, False, False, True]))
    def test_random_runs(self, run, deploy, extra):
        processors, capacity, strategy, base, requests = run
        fast, reference, (calls, _) = run_both(
            lambda: build_platform(processors, capacity), base, requests,
            deploy=deploy, extra=[Unvouched()] if extra else None,
            strategy=strategy)
        event("whole" if calls == 0 else
              "per-request" if calls == len(requests) else "split")
        if any(steps and steps[-1][0] == "acceptance-tests" and not accepted
               for _, accepted, _, _, _, steps in reference["returned"]):
            event("a viewpoint rejects a request")
        assert fast == reference

    def test_a_passing_run_takes_the_one_pass(self, monkeypatch):
        """No per-request integration and one battery run for the run."""
        requests = [add(make_contract(f"a{index}", 0.1, 0.01))
                    for index in range(6)]
        runs = []
        original = TimingAcceptanceTest.run

        def counting(test, *args):
            runs.append(test)
            return original(test, *args)

        monkeypatch.setattr(TimingAcceptanceTest, "run", counting)
        fast, reference, (calls, _) = run_both(
            lambda: build_platform(2), [make_contract("b0", 0.05, 0.01)],
            requests, deploy=True)
        assert fast == reference and calls == 0
        # Base: 1 run on each controller; then 1 one-pass run against 6.
        assert len(runs) == 2 + 1 + 6
        assert fast["model"][3] == 7
        assert [entry[4] for entry in fast["reports"]] == list(range(1, 8))

    def test_a_later_addition_opening_a_processor_comes_last(self):
        """Priorities list processors by their first timed contract, so the
        processor the run's second addition opens comes after the one the
        installed base's last contract opened."""
        base = [make_contract(name, 0.1, wcet) for name, wcet in
                [("b0", 0.05), ("b1", 0.03), ("b2", 0.005), ("b3", 0.05)]]
        requests = [add(make_contract("a0", 0.1, 0.03)),
                    add(make_contract("a1", 0.1, 0.05))]
        fast, reference, (calls, _) = run_both(lambda: build_platform(3),
                                               base, requests)
        assert fast == reference and calls == 0
        processors = dict(fast["model"][1])
        assert [processors[task[:-len(".task")]]
                for task, _ in fast["model"][2]] == \
            ["cpu0"] * 3 + ["cpu1"] * 2 + ["cpu2"]

    #: case -> (the request added between a0 and a1, or appended, and the
    #: refinement step the per-request loop rejects it at: ``None`` when
    #: the change cannot even be applied, and no rejection at all for
    #: requests and tests the one-pass cannot vouch for).
    REJECTIONS = {
        # hog preempts a0 (0.4 + 0.5 fits cpu0), so a0 misses its deadline.
        "timing-overload": (add(make_contract("hog", 0.05, 0.025)),
                            "acceptance-tests"),
        "duplicate": (add(make_contract("a0", 0.1, 0.001)), None),
        "invalid": (add(invalid_contract("bad", 0.1, 0.001)),
                    "functional-architecture"),
        "unmappable": (add(make_contract("huge", 0.1, 0.09)),
                       "technical-architecture"),
        "update": (ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                                 component="a0",
                                 contract=make_contract("a0", 0.07, 0.03)),
                   "accepted"),
        "remove": (ChangeRequest(kind=ChangeKind.REMOVE_COMPONENT,
                                 component="a1"), "accepted"),
        "extra-test": (None, "accepted"),
    }

    #: case -> the ``request_change`` calls and battery runs of
    #: ``request_changes``.  A rejection splits ``[a0, X, a1]``: ``[a0]`` is
    #: adopted, X alone runs through ``request_change`` and ``[a1]`` passes
    #: as a new run.  On the one processor a0, hog and a1 do not all fit, so
    #: the timing case refines ``[a0, hog]`` only; its battery fails there
    #: and one bisection run passes ``[a0]``, then hog's own run and
    #: ``[a1]``'s: 2 + 1 + 1.  Every other rejection ends the refined run at
    #: ``[a0]``, which passes, and is decided before acceptance: 1 + 0 + 1.
    #: An update, a removal or a test without ``monotone`` sends every
    #: request through ``request_change``, one battery run each.
    WORK = {"timing-overload": (1, 4), "duplicate": (1, 2), "invalid": (1, 2),
            "unmappable": (1, 2), "update": (3, 3), "remove": (3, 3),
            "extra-test": (2, 2)}

    @pytest.mark.parametrize("case", list(REJECTIONS))
    def test_each_rejection_falls_back(self, case):
        """Every kind of rejection splits the run, and only the rejected
        request goes through the per-request loop; a request or test the
        one-pass cannot vouch for sends the whole run through it."""
        request, outcome = self.REJECTIONS[case]
        requests = [add(make_contract("a0", 0.07, 0.028)),
                    add(make_contract("a1", 0.05, 0.01))]
        if outcome == "accepted":
            if request is not None:
                requests.append(request)
        else:
            requests.insert(1, request)
        fast, reference, work = run_both(
            lambda: build_platform(1), [], requests, deploy=True,
            extra=[Unvouched()] if case == "extra-test" else None)
        assert fast == reference
        assert work == self.WORK[case]
        rejected = [entry for entry in reference["reports"] if not entry[1]]
        if outcome == "accepted":
            assert rejected == []
        else:
            (_, _, results, _, _, steps), = rejected
            assert (steps[-1][0] if steps else None) == outcome
            if outcome == "acceptance-tests":
                assert [name for name, passed in results.items()
                        if not passed] == ["timing"]


# -- runs that split -----------------------------------------------------------


def contracts(*specs):
    return [make_contract(name, period, wcet) for name, period, wcet in specs]


#: name -> (installed base, run, the components the per-request loop
#: rejects, and the ``request_change`` calls and battery runs of
#: ``request_changes``), all on one processor of capacity 0.9.  hog
#: (0.05 s, 0.5) preempts a0 (0.07 s, 0.4) past its deadline.
SPLIT_CASES = {
    # a1 does not fit beside a0 and hog, so the refined run is [a0, hog]:
    # its battery fails and one bisection run passes [a0] (2); hog's own
    # run (1).  The same again for [a1, hog2, a2], where hog2 (0.05 s, 0.4)
    # preempts a1 (0.1 s) past its deadline and a2 does not fit beside
    # them (2 + 1), and [a2] passes as a third run (1).
    "two-timing-rejections": (
        [], contracts(("a0", 0.07, 0.028), ("hog", 0.05, 0.025),
                      ("a1", 0.1, 0.01), ("hog2", 0.05, 0.02),
                      ("a2", 0.2, 0.02)),
        ["hog", "hog2"], (2, 7)),
    # The refined run is [hog] (a1 does not fit beside it): it fails, and
    # the empty prefix needs no run (1); hog's own run (1).  The new run
    # [a1, a2, huge] cannot place huge, so [a1, a2] is tested and passes
    # (1); huge is rejected at mapping (0).
    "first-and-last-prefix": (
        contracts(("a0", 0.07, 0.028)),
        contracts(("hog", 0.05, 0.025), ("a1", 0.1, 0.01), ("a2", 0.2, 0.02),
                  ("huge", 0.1, 0.09)),
        ["hog", "huge"], (2, 3)),
    # As in the first case for [a0, hog] (2 + 1).  The new run starts with
    # hog_b (0.05 s, 0.48), which preempts a0 past its deadline as well; a1
    # does not fit beside it, so the refined run is [hog_b], which fails
    # (1), then hog_b's own run (1) and [a1]'s (1).
    "continuation-rejected-again": (
        [], contracts(("a0", 0.07, 0.028), ("hog", 0.05, 0.025),
                      ("hog_b", 0.05, 0.024), ("a1", 0.1, 0.01)),
        ["hog", "hog_b"], (2, 6)),
    # All eight additions fit, and hog preempts a5 past its deadline: the
    # whole run fails (1) and the bisection tests prefixes 4, 6 and 7
    # (ceil(log2(8)) = 3) and keeps the six before hog; hog's own run (1)
    # and [a6]'s (1).
    "late-timing-rejection": (
        [], contracts(*[(f"a{index}", 0.07, 0.0056) for index in range(6)],
                      ("hog", 0.05, 0.02), ("a6", 0.2, 0.002)),
        ["hog"], (1, 6)),
}

#: kind -> a request the refinement rejects before the acceptance tests.
REFINEMENT_REJECTIONS = {
    "duplicate": make_contract("a0", 0.1, 0.001),
    "invalid": invalid_contract("bad", 0.1, 0.001),
    "unmappable": make_contract("huge", 0.1, 0.09),
    "missing-provider": client_contract("orphan", "service_none"),
}


class TestSplitRuns:
    """A rejected request splits the run: the prefix before it is adopted,
    it alone runs through ``request_change`` and a new run takes the rest."""

    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    def test_split_matches_the_loop(self, case):
        base, run, rejected, work = SPLIT_CASES[case]
        requests = [add(contract) for contract in run]
        fast, reference, done = run_both(lambda: build_platform(1), base,
                                         requests, deploy=True)
        assert fast == reference
        assert [request.component for request, entry
                in zip(requests, reference["returned"])
                if not entry[1]] == rejected
        assert done == work

    @pytest.mark.parametrize("kind", list(REFINEMENT_REJECTIONS))
    def test_a_refinement_rejection_mid_run(self, kind):
        """The run is refined up to the rejected request, and [a0, a1]
        passes one battery run; the refinement rejects the request itself
        in ``request_change`` before any test runs, and the three additions
        after it pass as one new run: 1 + 0 + 1."""
        requests = [add(contract) for contract in contracts(
            ("a0", 0.1, 0.01), ("a1", 0.1, 0.01))]
        requests.append(add(REFINEMENT_REJECTIONS[kind]))
        requests += [add(contract) for contract in contracts(
            ("a2", 0.1, 0.01), ("a3", 0.1, 0.01), ("a4", 0.1, 0.01))]
        fast, reference, work = run_both(lambda: build_platform(1), [],
                                         requests, deploy=True)
        assert fast == reference
        assert [entry[1] for entry in reference["returned"]] == \
            [True, True, False, True, True, True]
        assert work == (1, 2)
        # Two adoptions, each keeping the per-request versions.
        assert [entry[4] for entry in fast["returned"]] == \
            [1, 2, None, 3, 4, 5]


# -- prefixes that fail although the whole set passes --------------------------


def component(name, *, utilization=0.05, asil="B", level="MEDIUM",
              external=False, fail_operational=False, group=None,
              provides=(), requires=(), optional=False):
    return Contract(
        component=name,
        requirements=[
            RealTimeRequirement(period=0.1, wcet=0.1 * utilization),
            SafetyRequirement(asil=asil, fail_operational=fail_operational,
                              redundancy_group=group),
            SecurityRequirement(level=level, external_interface=external)],
        requires=[ServiceRequirement(service, optional=optional)
                  for service in requires],
        provides=[ServiceProvision(service) for service in provides])


def uneven_platform():
    """A roomy cpu0 and a small cpu1."""
    platform = Platform(name="uneven")
    platform.add_processor(ProcessingResource("cpu0", capacity=0.9))
    platform.add_processor(ProcessingResource("cpu1", capacity=0.2))
    platform.add_network(NetworkResource("can0", bandwidth_bps=500_000.0))
    return platform


#: name -> (platform factory, contracts in order, the request the
#: per-request loop rejects).
PREFIX_CASES = {
    # The fail-operational component has no peer until the second arrives.
    "fail-operational-before-peer": (
        lambda: build_platform(2),
        [component("brake", fail_operational=True, group="brakes"),
         component("brake_backup", group="brakes")],
        "brake"),
    # The second member cannot leave cpu0, so the pair is co-located until
    # the third member lands on cpu1.
    "co-located-until-third-member": (
        uneven_platform,
        [component("steer_a", utilization=0.1, group="steering"),
         component("steer_b", utilization=0.3, group="steering"),
         component("steer_c", utilization=0.1, group="steering")],
        "steer_b"),
    # The client's required service has no provider until the provider
    # arrives; service completeness rejects it before any test runs.
    "client-before-provider": (
        lambda: build_platform(2),
        [component("planner", requires=["objects"]),
         component("perception", provides=["objects"])],
        "planner"),
    # The same, with the client arriving after the run's first addition.
    "client-before-provider-mid-run": (
        lambda: build_platform(2),
        [component("sensor", provides=["raw"]),
         component("planner", requires=["objects"]),
         component("perception", provides=["objects"], requires=["raw"])],
        "planner"),
    # The logger, under-protected one hop from the gateway, sits on the
    # attack path to the asset until the firewall offers a path that
    # avoids it.
    "external-interface": (
        lambda: build_platform(2),
        [component("asset", level="LOW", provides=["a"], requires=["v"],
                   optional=True),
         component("gateway", asil="QM", level="HIGH", external=True,
                   provides=["e"], requires=["v"], optional=True),
         component("logger", asil="QM", level="LOW", requires=["a", "e"],
                   optional=True),
         component("firewall", level="MEDIUM", provides=["v"],
                   requires=["a"], optional=True)],
        "logger"),
}


#: case -> the ``request_change`` calls and battery runs of a run whose
#: client comes before its provider.  Service completeness ends the refined
#: run before the client, and only the client goes through
#: ``request_change``, which rejects it before acceptance; the provider
#: then passes as a new run.  That is one battery run, plus one for
#: ``[sensor]`` when the client comes mid-run.
CLIENT_SPLITS = {"client-before-provider": (1, 1),
                 "client-before-provider-mid-run": (1, 2)}


class TestPrefixesThatFail:
    """Sets whose whole passes every test while a prefix does not: the
    one-pass must not admit them, and each needs its own "no"."""

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    def test_request_changes_matches_the_loop(self, case):
        make_platform, contracts, rejected = PREFIX_CASES[case]
        requests = [add(contract) for contract in contracts]
        fast, reference, work = run_both(make_platform, [], requests,
                                         deploy=True)
        assert fast == reference
        # A redundancy group or an external interface keeps the tests from
        # vouching, so every request runs through request_change, each to
        # its own battery run.
        assert work == CLIENT_SPLITS.get(case, (len(requests), len(requests)))
        outcomes = {request.component: entry[1]
                    for request, entry in zip(requests, reference["reports"])}
        assert outcomes == {request.component: request.component != rejected
                            for request in requests}

    @pytest.mark.parametrize("case", sorted(PREFIX_CASES))
    def test_a_test_vouching_wrongly_would_admit_the_prefix(self, case):
        """With every test vouching for every set, the one-pass admits the
        whole set -- except where service completeness rejects the prefix
        first, which no test's answer can override."""
        make_platform, contracts, _ = PREFIX_CASES[case]
        requests = [add(contract) for contract in contracts]
        vouched, reference, work = run_both(make_platform, [], requests,
                                            wrap=Vouching)
        if case in CLIENT_SPLITS:
            assert vouched == reference and work == CLIENT_SPLITS[case]
        else:
            assert work == (0, 1)
            assert all(entry[1] for entry in vouched["reports"])
            assert vouched["reports"] != reference["reports"]


# -- frozen models against the mutating reference -------------------------------


@st.composite
def admission_scripts(draw):
    """A platform shape, a mapping strategy, whether to deploy, and a script
    over a :func:`random_chain`: groups of requests, each sent one by one
    or as one ``request_changes`` run, with snapshots and rollbacks to an
    earlier snapshot between them.  Mixed into the chain are duplicate
    additions, updates and removals of absent components, clients without
    a provider and heavy tasks that the mapping or the timing viewpoint
    rejects."""
    processors = draw(st.integers(min_value=1, max_value=3))
    capacity = draw(st.sampled_from([0.9, 1.0]))
    strategy = draw(st.sampled_from(list(MappingStrategy)))
    chain = random_chain(SeededRNG(draw(st.integers(0, 2 ** 16))),
                         pool_size=draw(st.integers(2, 8)),
                         length=draw(st.integers(0, 12)))
    requests = []
    for request in chain:
        requests.append(request)
        extra = draw(st.sampled_from([None] * 5 + ["duplicate", "update", "remove",
                                                   "client", "hog", "hog"]))
        if extra == "client":
            requests.append(add(client_contract(f"client{len(requests)}",
                                                "service_none")))
        elif extra == "hog":
            # Beside a heavy task whose period its own does not divide, a
            # heavy task can miss its deadline on a processor with room.
            for period, share in ((0.07, 0.4), (0.05, draw(st.floats(0.35, 0.5)))):
                requests.append(add(make_contract(f"hog{len(requests)}", period,
                                                  period * share)))
        elif extra == "duplicate":
            requests.append(add(make_contract(request.component, 0.1, 0.001)))
        elif extra == "update":
            requests.append(ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                                          component="ghost",
                                          contract=make_contract("ghost", 0.1, 0.001)))
        elif extra == "remove":
            requests.append(ChangeRequest(kind=ChangeKind.REMOVE_COMPONENT,
                                          component="ghost"))
    steps, snapshots, position = [("snapshot",)], 1, 0
    while position < len(requests):
        size = draw(st.integers(min_value=1, max_value=4))
        group = requests[position:position + size]
        position += size
        steps.append(("run" if draw(st.booleans()) else "each", group))
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0:
            steps.append(("snapshot",))
            snapshots += 1
        elif choice == 1:
            steps.append(("rollback", draw(st.integers(0, snapshots - 1))))
    return processors, capacity, strategy, draw(st.booleans()), steps


class TestFrozenModelDifferential:
    """Frozen models, built whole, leave exactly what the mutating
    reference leaves."""

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(script=admission_scripts())
    def test_scripts_match_the_mutating_reference(self, script):
        processors, capacity, strategy, deploy, steps = script
        controllers = []
        for kind in (MultiChangeController, ReferenceController):
            platform = build_platform(processors, capacity)
            controllers.append(kind(
                platform, rte=RuntimeEnvironment(platform) if deploy else None,
                mapping_strategy=strategy))
        snapshots = []
        for step in steps:
            if step[0] == "snapshot":
                snapshots.append([mcc.snapshot() for mcc in controllers])
            elif step[0] == "rollback":
                event("rollback")
                for mcc, snapshot in zip(controllers, snapshots[step[1]]):
                    mcc.rollback(snapshot)
            else:
                returned = [mcc.request_changes(step[1]) if step[0] == "run"
                            else [mcc.request_change(r) for r in step[1]]
                            for mcc in controllers]
                assert [report_fields(report) for report in returned[0]] == \
                    [report_fields(report) for report in returned[1]]
            assert controller_state(controllers[0]) == \
                controller_state(controllers[1])
        for report in controllers[1].reports:
            event("accepted" if report.accepted else
                  f"rejected at {report.steps[-1].name}" if report.steps else
                  "rejected before refinement")
