"""Lazy, stamped fleet provisioning against eager references.

:func:`repro.fleet.vehicle.generate_fleet` returns vehicles that provision
on first touch: the first touched vehicle of a variant integrates the
variant's baseline, and every later vehicle of the variant is stamped from
that vehicle's snapshot.  ``tests/harness.py`` holds two references:
:func:`generate_fleet_eagerly` touches every vehicle in index order before
returning the fleet, and :func:`generate_fleet_integrating_each` runs every
vehicle's baseline through its own MCC.  They must be indistinguishable:

* eager stamping against integrate-each, right after provisioning, vehicle
  by vehicle: installed components, mapping, priorities, model version,
  expectations, deployed configuration and every baseline report's
  verdict, viewpoint results, findings, configuration version and
  refinement steps; and after any campaign over them, the whole
  ``CampaignResult`` and every vehicle's state and rollout flags.  The
  shared cache's hit and miss counters and the engine reuse rate are left
  out: stamped provisioning admits a
  variant's baseline with one acceptance run, integrate-each with one run
  per contract, so the cache and its engine start the campaign warmed
  differently;
* lazy against eager, compared only after the campaign (reading a lazy
  fleet's state would provision it): the same.  Fixed cases pin the lazy
  fleet's counters exactly instead.

Both hold across ADD and UPDATE updates, halts with and without rollback,
resumes from every wave boundary and the three adversity models.  The provisioning work is pinned exactly (one admission report
per baseline contract and one acceptance battery run per touched variant,
whatever the fleet size; a halted campaign provisions only the variants it
reached), a provisioning error
leaves the campaign at a wave boundary, and the sharing is pinned to be
invisible: a change adopted, rejected or rolled back on one vehicle never
reaches the siblings it was stamped with or whose admission it replayed.
The vehicles of a variant share one platform model and one acceptance
battery, which no campaign writes to; only a deploying vehicle has a
platform of its own.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import fields, replace
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import generate_fleet_eagerly, generate_fleet_integrating_each
from repro.analysis.cache import AnalysisCache
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.contracts.language import ContractParser, ContractSerializer
from repro.fleet.adversity import (IntrusionAdversity, LossyDeliveryAdversity,
                                   ThermalAdversity)
from repro.fleet.campaign import Campaign, CampaignCheckpoint, WavePolicy
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import (FleetSpec, VehicleState,
                                 build_vehicle_platform, generate_fleet,
                                 generate_variants, variant_contracts)
from repro.mcc.acceptance import (AcceptanceResult, DistributedChainSpec,
                                  DistributedTimingAcceptanceTest, MessageSpec,
                                  TimingAcceptanceTest)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.monitoring.deviation import DeviationDetector
from repro.monitoring.metrics import MetricRegistry
from repro.scenarios.fleet_campaign import build_update_contract

#: Lazy provisioning, then the eager references it is compared against.
PROVISIONERS = (generate_fleet, generate_fleet_eagerly,
                generate_fleet_integrating_each)

#: ``CampaignResult`` fields that depend on how and when vehicles are
#: provisioned.
COUNTERS = frozenset({"cache_hits", "cache_misses", "engine_reuse_rate"})


# -- comparable state ---------------------------------------------------------


def report_state(report):
    """A report's verdicts and refinement steps; request ids are left out,
    because they come from a process-wide counter."""
    return (report.accepted, dict(report.acceptance_results),
            list(report.findings), report.configuration_version,
            [(step.name, step.description, step.artefacts)
             for step in report.steps])


def vehicle_state(vehicle):
    """Everything observable about one vehicle's MCC and rollout flags."""
    mcc = vehicle.mcc
    model = mcc.model
    configuration = mcc.deployed_configuration
    return (vehicle.vehicle_id, vehicle.variant, vehicle.updated,
            vehicle.deviating, vehicle.rolled_back,
            model.components(), sorted(model.mapping.items()),
            sorted(model.priorities.items()), model.version,
            list(mcc.expectations),
            None if configuration is None else (
                configuration.version, configuration.contracts,
                configuration.mapping, configuration.priorities,
                configuration.sessions),
            [report_state(report) for report in mcc.reports])


def fleet_state(fleet):
    return [vehicle_state(vehicle) for vehicle in fleet]


def result_state(result, counters=True):
    """Every ``CampaignResult`` field (with ``counters=False``, except
    :data:`COUNTERS`)."""
    return [(field.name, getattr(result, field.name))
            for field in fields(result)
            if counters or field.name not in COUNTERS]


def rte_state(vehicle):
    """What a vehicle's execution domain runs, processor by processor."""
    rte = vehicle.mcc.rte
    return (rte.configuration.version, sorted(rte.snapshot().items()),
            [(processor.name,
              [(task.name, task.priority, task.period, task.wcet)
               for task in processor.taskset],
              processor.memory_allocated_kib)
             for processor in vehicle.platform.processors()])


def platform_state(platform):
    """What a platform model holds: its processors' capacities, hosted
    tasks and memory allocations, and its networks' bandwidth
    allocations."""
    return (platform.name,
            [(processor.name, processor.capacity, processor.memory_kib,
              processor.condition.speed_factor,
              [(task.name, task.priority, task.period, task.wcet)
               for task in processor.taskset],
              processor.memory_allocated_kib)
             for processor in platform.processors()],
            [(network.name, network.kind, network.bandwidth_bps,
              network.allocations())
             for network in platform.networks()],
            [(memory.name, memory.partitions())
             for memory in platform.memories()])


# -- updates ------------------------------------------------------------------


def add_update(utilization=0.22, memory_kib=0.0):
    """ADD of one per-variant ``nav_assist`` contract."""
    contracts = {}
    parser = ContractParser()

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization)
            if memory_kib:
                document = ContractSerializer().to_dict(contract)
                document["resources"] = {"memory_kib": memory_kib}
                contract = parser.parse(document)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def rebudget_update(factor):
    """UPDATE of the planner's WCET by ``factor``, one contract per variant."""
    contracts = {}
    parser, serializer = ContractParser(), ContractSerializer()

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            document = serializer.to_dict(vehicle.mcc.model.contract("planner"))
            document["timing"]["wcet"] *= factor
            contract = parser.parse(document)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                             component="planner", contract=contract)

    return factory


def make_update(kind, level):
    return add_update(level) if kind == "add" else rebudget_update(level)


# -- strategies ---------------------------------------------------------------

specs = st.builds(FleetSpec,
                  size=st.integers(min_value=1, max_value=12),
                  seed=st.integers(min_value=0, max_value=2**20),
                  num_variants=st.integers(min_value=1, max_value=4),
                  extra_components=st.integers(min_value=0, max_value=4))

policies = st.builds(WavePolicy,
                     canary_size=st.integers(min_value=0, max_value=2),
                     wave_fractions=st.sampled_from([(0.1, 0.3, 1.0), (0.5,),
                                                     (1.0,)]),
                     max_failure_rate=st.sampled_from([0.0, 0.3, 1.0]),
                     rollback_on_halt=st.booleans(),
                     refine_on_deviation=st.booleans())

#: (kind, level): ADD at a utilization, or UPDATE by a WCET factor; the
#: levels span all-admitted, mixed and all-rejected waves.
updates = st.sampled_from([("add", 0.1), ("add", 0.45), ("add", 0.9),
                           ("rebudget", 1.05), ("rebudget", 2.5),
                           ("rebudget", 4.0)])

failure_rates = st.sampled_from([0.0, 0.3, 1.0])


def provision_and_run(provisioner, spec, update, policy, failure_rate, *,
                      shared_cache=True, adversity=None,
                      extra_acceptance_tests=None):
    """Provision with ``provisioner`` and run one campaign.

    Returns the fleet's state before the campaign (``None`` for the lazy
    fleet, which reading would provision), the result's state and the
    fleet's state after it.
    """
    cache = AnalysisCache() if shared_cache else None
    fleet = provisioner(spec, analysis_cache=cache,
                        extra_acceptance_tests=extra_acceptance_tests)
    provisioned = None if provisioner is generate_fleet else fleet_state(fleet)
    campaign = Campaign(fleet, make_update(*update), policy=policy,
                        analysis_cache=cache, batch_admission=shared_cache,
                        failure_injection_rate=failure_rate,
                        feedback_seed=spec.seed, adversity=adversity)
    result = campaign.run()
    return provisioned, result, fleet_state(fleet)


def assert_matches_references(run):
    """``run(provisioner)`` returns ``(provisioned, result, state)``; eager
    stamping must match integrate-each, and lazy provisioning must match
    eager stamping after the campaign, cache counters aside."""
    (_, lazy, lazy_fleet), (provisioned, eager, eager_fleet), \
        (reference_provisioned, reference, reference_fleet) = \
        (run(provisioner) for provisioner in PROVISIONERS)
    assert provisioned == reference_provisioned
    assert (result_state(eager, counters=False), eager_fleet) == \
        (result_state(reference, counters=False), reference_fleet)
    assert (result_state(lazy, counters=False), lazy_fleet) == \
        (result_state(eager, counters=False), eager_fleet)


def slow(max_examples):
    return settings(max_examples=max_examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class TestStampedMatchesReference:
    """Lazy fleets behave exactly like eagerly stamped fleets, and those
    exactly like integrate-each fleets."""

    @slow(60)
    @given(spec=specs, update=updates, policy=policies,
           failure_rate=failure_rates, shared_cache=st.booleans())
    def test_provisioning_and_campaign(self, spec, update, policy,
                                       failure_rate, shared_cache):
        assert_matches_references(partial(
            provision_and_run, spec=spec, update=update, policy=policy,
            failure_rate=failure_rate, shared_cache=shared_cache))

    @slow(12)
    @given(spec=specs, update=updates, seed=st.integers(0, 2**16),
           model=st.sampled_from(["lossy", "intrusion", "thermal"]))
    def test_adversity(self, spec, update, seed, model):
        def adversity():  # a fresh model per run: models are stateful
            if model == "lossy":
                return LossyDeliveryAdversity(0.4, seed=seed)
            if model == "intrusion":
                return IntrusionAdversity(compromise_rate=0.3, seed=seed)
            return ThermalAdversity(peak_wave=1)

        assert_matches_references(
            lambda provisioner: provision_and_run(
                provisioner, spec, update, WavePolicy(), 0.1,
                adversity=adversity()))

    @slow(10)
    @given(spec=specs, update=updates, policy=policies,
           failure_rate=failure_rates)
    def test_resume_from_every_boundary(self, spec, update, policy,
                                        failure_rate, tmp_path_factory):
        directory = tmp_path_factory.mktemp("stamping")

        def fresh(provisioner, run_policy=policy):
            cache = AnalysisCache()
            fleet = provisioner(spec, analysis_cache=cache)
            return fleet, Campaign(fleet, make_update(*update),
                                   policy=run_policy, analysis_cache=cache,
                                   failure_injection_rate=failure_rate,
                                   feedback_seed=spec.seed)

        def resumed_runs(provisioner):
            runs = []
            fleet, campaign = fresh(provisioner)
            engine = CampaignEngine(campaign)
            boundaries = 0
            while True:
                path = str(directory / f"{provisioner.__name__}-{boundaries}.ckpt")
                engine.checkpoint().save(path)
                fleet_resumed, campaign_resumed = fresh(provisioner)
                result = campaign_resumed.run(
                    resume_from=CampaignCheckpoint.load(path))
                runs.append((result_state(result, counters=False),
                             fleet_state(fleet_resumed)))
                if engine.done:
                    break
                engine.step()
                boundaries += 1
                if engine.state.result.halted:
                    break
            engine.finalize()
            runs.append((result_state(engine.state.result, counters=False),
                         fleet_state(fleet)))
            if campaign.last_checkpoint is not None:
                # A policy halt: remediate the threshold and resume the
                # halting wave from the halt-written checkpoint.
                fleet_resumed, campaign_resumed = fresh(
                    provisioner, replace(policy, max_failure_rate=1.0))
                result = campaign_resumed.run(
                    resume_from=campaign.last_checkpoint)
                runs.append((result_state(result, counters=False),
                             fleet_state(fleet_resumed)))
            return runs

        # Cache counters are left out of every comparison here, as in
        # assert_matches_references.
        lazy, eager, reference = (resumed_runs(provisioner)
                                  for provisioner in PROVISIONERS)
        assert lazy == eager == reference


# -- fixed cases ----------------------------------------------------------------


class RejectComponent:
    """Acceptance viewpoint failing every candidate that contains
    ``component``: a variant-only factory attaches it to chosen variants."""

    viewpoint = "policy"

    def __init__(self, component):
        self.component = component

    def run(self, contracts, mapping, priorities, platform):
        present = any(contract.component == self.component
                      for contract in contracts)
        return AcceptanceResult(
            viewpoint=self.viewpoint, passed=not present,
            findings=[f"{self.component} is not allowed"] if present else [])


def rejecting(component, variant_index):
    def factory(variant, platform):
        if variant.index == variant_index:
            return [RejectComponent(component)]
        return []
    return factory


def distributed_chain(deadline):
    def factory(variant, platform):
        return [DistributedTimingAcceptanceTest(
            messages=[MessageSpec("object_list", sender="perception",
                                  receiver="planner", can_id=0x100)],
            chains=[DistributedChainSpec(
                "sense-plan", stages=("perception", "object_list", "planner"),
                deadline=deadline)])]
    return factory


class TestFixedCases:

    def test_core_rejection_names_the_same_vehicle(self):
        """A core rejection that only the acceptance battery decides raises
        when the variant's first vehicle is touched: while the eager
        references provision, and on the lazy fleet when a campaign wave
        stages that vehicle -- with the same message either way."""
        spec = FleetSpec(size=9, seed=4, num_variants=3, extra_components=2)
        messages = []
        for provisioner in PROVISIONERS:
            with pytest.raises(RuntimeError, match="rejected its baseline") \
                    as raised:
                fleet = provisioner(
                    spec, extra_acceptance_tests=rejecting("planner", 2))
                Campaign(fleet, add_update(), batch_admission=False).run()
            # Request ids come from a process-wide counter; the rest of the
            # message must match.
            messages.append(re.sub(r"request \d+", "request N",
                                   str(raised.value)))
        assert messages[0] == messages[1] == messages[2]
        assert messages[0].startswith("vehicle 2 rejected its baseline")

    def test_optional_app_rejection_is_inherited(self):
        spec = FleetSpec(size=8, seed=4, num_variants=2, extra_components=3)
        factory = rejecting("app01", 1)
        stamped = generate_fleet(spec, extra_acceptance_tests=factory)
        reference = generate_fleet_integrating_each(
            spec, extra_acceptance_tests=factory)
        assert fleet_state(stamped) == fleet_state(reference)
        for vehicle in stamped:
            installed = vehicle.mcc.model.components()
            assert ("app01" in installed) == (vehicle.variant.index == 0)
            rejected = vehicle.mcc.rejected_reports()
            if vehicle.variant.index == 1:
                assert [report.findings for report in rejected] == \
                    [["[policy] app01 is not allowed"]]
            else:
                assert rejected == []

    def test_deploy_runs_the_configuration_on_each_platform(self):
        spec = FleetSpec(size=7, seed=2, num_variants=3, extra_components=2,
                         deploy=True)
        states = []
        for provisioner in PROVISIONERS:
            fleet = provisioner(spec)
            provisioned = None if provisioner is generate_fleet \
                else [rte_state(vehicle) for vehicle in fleet]
            Campaign(fleet, add_update(memory_kib=256.0),
                     batch_admission=False, feedback_seed=2).run()
            states.append((provisioned, [rte_state(v) for v in fleet],
                           fleet_state(fleet)))
        lazy, eager, reference = states
        assert eager == reference
        assert lazy[1:] == eager[1:]

    def test_extra_acceptance_tests(self):
        spec = FleetSpec(size=10, seed=7, num_variants=3, extra_components=2)
        assert_matches_references(partial(
            provision_and_run, spec=spec, update=("add", 0.22),
            policy=WavePolicy(), failure_rate=0.3,
            extra_acceptance_tests=distributed_chain(0.5)))

    @pytest.mark.parametrize("spec, update, policy, failure_rate, counters", [
        (FleetSpec(size=24, seed=5, num_variants=2, extra_components=10),
         ("add", 0.22), WavePolicy(), 0.0, (2, 6, 0.044444)),
        (FleetSpec(size=16, seed=5, num_variants=16, extra_components=10),
         ("rebudget", 1.05), WavePolicy(), 0.0, (19, 65, 0.175127)),
        (FleetSpec(size=16, seed=5, num_variants=16, extra_components=10),
         ("rebudget", 1.05), WavePolicy(max_failure_rate=0.0), 1.0,
         (1, 7, 0.195652)),
    ])
    def test_cache_counters_of_a_lazy_fleet(self, spec, update, policy,
                                            failure_rate, counters):
        """The counters the lazy differential leaves out, pinned exactly: a
        lazy campaign's result counts the provisioning it did itself (the
        last case halts at the canary and provisions two variants)."""
        _, result, _ = provision_and_run(generate_fleet, spec, update, policy,
                                         failure_rate)
        assert (result.cache_hits, result.cache_misses,
                round(result.engine_reuse_rate, 6)) == counters


@contextmanager
def counting_integrations(monkeypatch):
    """Work done inside the block.

    ``baseline`` counts the admission reports ``request_changes`` returns
    (provisioning is its only caller in a campaign), ``battery`` the
    acceptance battery runs inside it (timing is each default battery's
    first test, so its runs count the batteries), and ``request_change``
    every per-request integration, provisioning fallbacks included.
    """
    counts = {"baseline": 0, "battery": 0, "request_change": 0}
    inside = [0]
    request_changes = MultiChangeController.request_changes
    request_change = MultiChangeController.request_change
    timing_run = TimingAcceptanceTest.run

    def counting_requests(self, requests):
        inside[0] += 1
        try:
            reports = request_changes(self, requests)
        finally:
            inside[0] -= 1
        counts["baseline"] += len(reports)
        return reports

    def counting_request(self, request):
        counts["request_change"] += 1
        return request_change(self, request)

    def counting_timing(self, *args):
        counts["battery"] += bool(inside[0])
        return timing_run(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(MultiChangeController, "request_changes",
                      counting_requests)
        patch.setattr(MultiChangeController, "request_change",
                      counting_request)
        patch.setattr(TimingAcceptanceTest, "run", counting_timing)
        yield counts


def baseline_contracts(spec, variants=None):
    """Baseline contracts summed over ``variants`` (default: all)."""
    return sum(len(variant_contracts(variant, spec))
               for variant in generate_variants(spec)
               if variants is None or variant.index in variants)


class TestProvisioningWork:
    """One admission report per baseline contract and one acceptance battery
    run per touched variant, never per vehicle."""

    @pytest.mark.parametrize("size", [1, 5, 8, 40, 200])
    def test_integrations_equal_baseline_contracts(self, monkeypatch, size):
        """A completed campaign touches every vehicle.  Variant 6 rejects
        app03 on timing, so its one acceptance run fails and its 9
        contracts are integrated one by one: 1 + 9 battery runs where every
        other variant makes 1."""
        spec = FleetSpec(size=size, seed=11, num_variants=8,
                         extra_components=6)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        with counting_integrations(monkeypatch) as counts:
            result = Campaign(fleet, add_update(),
                              policy=WavePolicy(max_failure_rate=1.0),
                              analysis_cache=cache).run()
        assert result.completed
        assert all(vehicle.provisioned for vehicle in fleet)
        assert counts["baseline"] == baseline_contracts(spec)
        touched = min(size, spec.num_variants)
        assert counts["battery"] == touched + (9 if touched > 6 else 0)

    def test_fixpoints_of_a_diverged_fleet(self):
        """Exact work counters of provisioning 16 distinct variants in index
        order: the busy-window fixpoints (cold plus warm) the shared engine
        iterates, the task results it reuses, and the cache traffic in
        front of it.  The warm-start base decides the first two; the
        cache's hits and misses depend on the task sets alone.  Most
        variants run their battery once, on the whole baseline, so the
        engine never sees the prefixes' task sets."""
        cache = AnalysisCache()
        generate_fleet_eagerly(FleetSpec(size=16, seed=11, num_variants=16,
                                         extra_components=10),
                               analysis_cache=cache)
        engine = cache.engine
        assert (engine.tasks_cold + engine.tasks_warm_started,
                engine.tasks_reused) == (264, 61)
        assert (cache.hits, cache.misses) == (12, 56)

    def test_reference_integrates_per_vehicle(self, monkeypatch):
        spec = FleetSpec(size=12, seed=11, num_variants=3,
                         extra_components=2)
        with counting_integrations(monkeypatch) as counts:
            generate_fleet_integrating_each(spec, analysis_cache=AnalysisCache())
        assert counts["request_change"] == baseline_contracts(spec) * 12 // 3

    def test_a_canary_halt_provisions_only_the_canary_variants(
            self, monkeypatch):
        """A diverged fleet (every vehicle its own variant) whose canary
        halts admits the canary variants' baselines, each with one battery
        run, and nothing else, and leaves every other vehicle
        unprovisioned."""
        spec = FleetSpec(size=16, seed=201, num_variants=16,
                         extra_components=10)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        with counting_integrations(monkeypatch) as counts:
            result = Campaign(fleet, rebudget_update(1.05),
                              policy=WavePolicy(max_failure_rate=0.0),
                              analysis_cache=cache,
                              failure_injection_rate=1.0).run()
        assert result.halted_wave == 0
        assert counts["baseline"] == baseline_contracts(spec, {0, 1})
        assert counts["battery"] == 2
        assert [vehicle.provisioned for vehicle in fleet] == \
            [True] * 2 + [False] * 14


class TestSharedPerVariant:
    """One platform model and one acceptance battery per variant."""

    def test_a_campaign_leaves_every_variant_platform_as_built(self):
        """Without ``deploy`` nothing writes to a platform model: a
        campaign with failure injection, refinements and a halting
        rollback leaves every variant's platform equal to a fresh build."""
        spec = FleetSpec(size=24, seed=3, num_variants=3, extra_components=3)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        result = Campaign(fleet, add_update(0.3),
                          policy=WavePolicy(max_failure_rate=0.34,
                                            refine_on_deviation=True),
                          analysis_cache=cache, failure_injection_rate=0.2,
                          feedback_seed=3).run()
        assert result.halted and result.rolled_back == 15
        assert [record.refined for record in result.waves] == [0, 0, 1, 7]
        assert all(vehicle.provisioned for vehicle in fleet)
        platforms = {vehicle.variant.index: vehicle.platform
                     for vehicle in fleet}
        assert len(set(map(id, platforms.values()))) == 3
        for vehicle in fleet:
            assert vehicle.platform is platforms[vehicle.variant.index]
        for variant in generate_variants(spec):
            platform = platforms[variant.index]
            assert platform_state(platform) == platform_state(
                build_vehicle_platform(variant, platform.name))

    def test_extra_tests_are_built_once_per_touched_variant(self):
        """The ``extra_acceptance_tests`` factory runs when a variant is
        first touched, with the variant's platform model, and every
        vehicle of the variant shares the battery it extends."""
        calls = []

        def factory(variant, platform):
            calls.append((variant, platform))
            return [RejectComponent("absent")]

        spec = FleetSpec(size=12, seed=11, num_variants=3,
                         extra_components=2)
        fleet = generate_fleet(spec, extra_acceptance_tests=factory)
        assert calls == []
        assert Campaign(fleet, add_update(), feedback_seed=11).run().completed
        assert [variant.index for variant, _ in calls] == [0, 1, 2]
        for variant, platform in calls:
            vehicles = [v for v in fleet if v.variant == variant]
            battery = vehicles[0].mcc.process.acceptance_tests
            assert battery[-1].viewpoint == "policy"
            for vehicle in vehicles:
                assert vehicle.platform is platform
                assert vehicle.mcc.process.acceptance_tests is battery

    def test_a_cache_less_campaign_builds_no_incremental_engine(
            self, monkeypatch):
        """Without a cache the timing test analyses cold, so sequential
        admission builds no incremental engine."""
        built = []
        init = IncrementalResponseTimeAnalysis.__init__

        def counting(engine, *args, **kwargs):
            built.append(engine)
            init(engine, *args, **kwargs)

        monkeypatch.setattr(IncrementalResponseTimeAnalysis, "__init__",
                            counting)
        fleet = generate_fleet(FleetSpec(size=16, seed=0, num_variants=4))
        result = Campaign(fleet, add_update(), batch_admission=False,
                          feedback_seed=0).run()
        assert result.completed and result.admitted == 16
        assert built == []


class TestLazyProvisioning:
    """What laziness changes: checkpoints, resumes and provisioning errors."""

    SPEC = FleetSpec(size=12, seed=3, num_variants=3, extra_components=3)

    def campaign(self, fleet, cache, **policy):
        return Campaign(fleet, add_update(0.45), policy=WavePolicy(**policy),
                        analysis_cache=cache, failure_injection_rate=0.2,
                        feedback_seed=3)

    def test_a_fresh_boundary_checkpoint_holds_only_at_baseline_states(self):
        """The checkpoint of a fresh engine logs no wave, so a resume from
        it starts every vehicle at its baseline; touching vehicles outside
        the campaign leaves them there and the log unchanged."""
        cache = AnalysisCache()
        fleet = generate_fleet(self.SPEC, analysis_cache=cache)
        engine = CampaignEngine(self.campaign(fleet, cache,
                                              max_failure_rate=1.0))
        checkpoint = engine.checkpoint()
        assert checkpoint.to_bytes() == \
            b'{"format":1,"fleet_size":12,"waves":[]}'
        assert not any(vehicle.provisioned for vehicle in fleet)
        # Provisioned vehicles adopting their baseline stay at it: vehicle
        # 4 integrates variant 1's baseline, vehicle 1 is stamped.
        fleet[0].provision()
        fleet[4].provision()
        assert fleet[1].mcc.model is fleet[4].mcc.model
        assert engine.checkpoint() == checkpoint
        assert all(vehicle.at_baseline
                   and vehicle.capture_state() == VehicleState(vehicle.vehicle_id)
                   for vehicle in fleet)

    def test_a_built_vehicle_restores_its_starting_state(self):
        """A vehicle built with its own platform and MCC takes the state it
        was built with as its baseline, and rewinds to it."""
        vehicle = generate_fleet_integrating_each(self.SPEC)[0]
        model = vehicle.mcc.model
        assert vehicle.at_baseline
        assert vehicle.capture_state() == VehicleState(vehicle.vehicle_id)
        assert vehicle.mcc.add_component(
            build_update_contract(vehicle.wcet_factor)).accepted
        assert not vehicle.at_baseline
        assert vehicle.capture_state().snapshot.model is vehicle.mcc.model
        vehicle.restore_state(VehicleState(vehicle.vehicle_id,
                                           rolled_back=True))
        assert vehicle.mcc.model is model and not vehicle.at_baseline
        vehicle.restore_state(VehicleState(vehicle.vehicle_id))
        assert vehicle.at_baseline
        assert vehicle.capture_state() == VehicleState(vehicle.vehicle_id)

    def test_a_canary_halted_checkpoint_is_small(self):
        """A canary halt logs no wave: its document holds the fleet size
        only, whatever the fleet's provisioning, in under 100 bytes (a
        per-vehicle snapshot pickle took 1,980)."""
        spec = FleetSpec(size=48, seed=9, num_variants=8, extra_components=10)
        documents = []
        for provisioner in (generate_fleet, generate_fleet_integrating_each):
            cache = AnalysisCache()
            campaign = Campaign(provisioner(spec, analysis_cache=cache),
                                add_update(), analysis_cache=cache,
                                failure_injection_rate=1.0)
            assert campaign.run().halted_wave == 0
            documents.append(campaign.last_checkpoint.to_bytes())
        assert documents[0] == documents[1]
        assert len(documents[0]) <= 100

    def test_resuming_from_a_file_does_no_more_integrations(
            self, monkeypatch, tmp_path):
        """A checkpoint file restores reached vehicles that sit at their
        baseline to the resumed fleet's own baseline objects, so the
        resumed run's identity-keyed groups do not split and it integrates
        no more than the uninterrupted run -- from every wave boundary and
        from the halt checkpoint."""
        def integrations(run):
            with counting_integrations(monkeypatch) as counts:
                run()
            return counts["request_change"]

        def uninterrupted():
            cache = AnalysisCache()
            self.campaign(generate_fleet(self.SPEC, analysis_cache=cache),
                          cache, max_failure_rate=1.0).run()

        def resumed(path):
            cache = AnalysisCache()
            self.campaign(generate_fleet(self.SPEC, analysis_cache=cache),
                          cache, max_failure_rate=1.0).run(
                resume_from=CampaignCheckpoint.load(path))

        ceiling = integrations(uninterrupted)
        cache = AnalysisCache()
        halt_path = str(tmp_path / "halt.ckpt")
        halting = self.campaign(generate_fleet(self.SPEC, analysis_cache=cache),
                                cache, max_failure_rate=0.0)
        engine = CampaignEngine(halting)
        paths = []
        while not engine.done:
            paths.append(str(tmp_path / f"{len(paths)}.ckpt"))
            engine.checkpoint().save(paths[-1])
            engine.step()
        assert engine.state.result.halted and len(paths) > 1
        engine.checkpoint().save(halt_path)
        for path in paths + [halt_path]:
            assert integrations(partial(resumed, path)) <= ceiling, path

    @pytest.mark.parametrize("mode", ["batched", "sequential", "adversity"])
    def test_a_provisioning_error_leaves_the_wave_unadmitted(self, mode):
        """Provisioning runs before a wave admits anything: a core
        rejection on the wave's third vehicle leaves its first two
        unadmitted and the campaign at the boundary it started from (the
        adversity run admits sequentially, where admission would otherwise
        reach the first two vehicles before the third is touched)."""
        spec = FleetSpec(size=9, seed=4, num_variants=3, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache,
                               extra_acceptance_tests=rejecting("planner", 2))
        campaign = Campaign(
            fleet, add_update(), analysis_cache=cache,
            policy=WavePolicy(canary_size=0, wave_fractions=(1.0,)),
            batch_admission=mode == "batched",
            adversity=LossyDeliveryAdversity(0.0, seed=1)
            if mode == "adversity" else None)
        engine = CampaignEngine(campaign)
        with pytest.raises(RuntimeError,
                           match="vehicle 2 rejected its baseline"):
            engine.step()
        assert (engine.state.wave_index, engine.state.result.waves,
                engine.state.carry) == (0, [], [])
        assert [vehicle.provisioned for vehicle in fleet[:3]] == \
            [True, True, False]
        for vehicle in fleet[:2]:
            assert not vehicle.updated
            assert "nav_assist" not in vehicle.mcc.model.components()


class TestSiblingIsolation:
    """Stamped and replayed siblings share read-only state; no change
    leaks across."""

    SPEC = FleetSpec(size=6, seed=3, num_variants=2, extra_components=3)

    @staticmethod
    def observed(vehicle):
        """The vehicle's MCC state, by reference and by value (so an
        in-place mutation of a shared object shows too)."""
        mcc = vehicle.mcc
        return {"model": mcc.model,
                "contracts": repr(mcc.model.contracts()),
                "mapping": sorted(mcc.model.mapping.items()),
                "priorities": sorted(mcc.model.priorities.items()),
                "version": mcc.model.version,
                "configuration": mcc.deployed_configuration,
                "configuration_value": repr(mcc.deployed_configuration),
                "reports": [report_state(report) for report in mcc.reports],
                "expectations": repr(mcc.expectations)}

    def test_siblings_share_the_adopted_baseline(self):
        fleet = generate_fleet(self.SPEC)
        first, sibling = fleet[0], fleet[2]
        assert sibling.mcc.model is first.mcc.model
        assert sibling.mcc.deployed_configuration is \
            first.mcc.deployed_configuration
        assert len(sibling.mcc.reports) == len(first.mcc.reports)
        assert all(mine is theirs for mine, theirs
                   in zip(sibling.mcc.reports, first.mcc.reports))
        assert sibling.mcc.reports is not first.mcc.reports
        assert sibling.mcc.expectations is not first.mcc.expectations
        # One platform model and one acceptance battery per variant.
        other = fleet[1]
        assert other.variant != first.variant
        assert sibling.platform is first.platform is not other.platform
        assert sibling.mcc.process.acceptance_tests \
            is first.mcc.process.acceptance_tests \
            is not other.mcc.process.acceptance_tests
        assert sibling.mcc.process is not first.mcc.process

    @pytest.mark.parametrize("changed", [0, 2])
    def test_adopt_reject_rollback_stay_local(self, changed):
        fleet = generate_fleet(self.SPEC)
        siblings = [v for v in fleet if v.variant.index == 0
                    and v.index != changed]
        before = [self.observed(vehicle) for vehicle in siblings]
        vehicle = fleet[changed]
        snapshot = vehicle.mcc.snapshot()

        adopted = vehicle.mcc.add_component(
            build_update_contract(vehicle.wcet_factor, utilization=0.1))
        assert adopted.accepted
        rejected = vehicle.mcc.add_component(
            build_update_contract(vehicle.wcet_factor, utilization=5.0,
                                  component="hog"))
        assert not rejected.accepted
        updated = vehicle.mcc.update_component(build_update_contract(
            vehicle.wcet_factor, utilization=0.12))
        assert updated.accepted
        assert "nav_assist" in vehicle.mcc.model.components()
        assert [self.observed(v) for v in siblings] == before

        vehicle.mcc.rollback(snapshot)
        assert vehicle.mcc.model is before[0]["model"]
        assert len(vehicle.mcc.reports) == len(before[0]["reports"]) + 3
        assert [self.observed(v) for v in siblings] == before

    @pytest.mark.parametrize("changed", [0, 2])
    def test_replayed_siblings_adopt_and_stay_apart(self, changed):
        """A batched campaign replays each group's admission: every later
        vehicle adopts its representative's model and configuration
        objects, and a change on one member reaches no other."""
        fleet = generate_fleet(self.SPEC)
        result = Campaign(fleet, add_update(), feedback_seed=3).run()
        assert result.admitted == len(fleet) and result.deviating == 0
        group = [v for v in fleet if v.variant.index == 0]
        representative, replayed = group[0], group[1:]
        for vehicle in replayed:
            mcc, adopted = vehicle.mcc, representative.mcc
            assert mcc.reports[-1] is adopted.reports[-1]
            assert mcc.model is adopted.model
            assert mcc.deployed_configuration is adopted.deployed_configuration

        vehicle = fleet[changed]
        others = [v for v in group if v is not vehicle]
        before = [self.observed(v) for v in others]
        snapshot = vehicle.mcc.snapshot()
        assert vehicle.mcc.add_component(build_update_contract(
            vehicle.wcet_factor, utilization=0.05, component="extra")).accepted
        assert not vehicle.mcc.add_component(build_update_contract(
            vehicle.wcet_factor, utilization=5.0, component="hog")).accepted
        wcet = vehicle.mcc.model.contract("nav_assist").timing.wcet
        assert len(vehicle.mcc.incorporate_observed_wcets(
            {"nav_assist.task": 1.05 * wcet})) == 1
        assert vehicle.mcc.model.contract("nav_assist").timing.wcet > wcet
        assert [self.observed(v) for v in others] == before

        vehicle.mcc.rollback(snapshot)
        assert vehicle.mcc.model is representative.mcc.model
        assert [self.observed(v) for v in others] == before

    def test_a_detector_refinement_stays_in_its_detector(self):
        """Refining the nominal values of a detector loaded with a
        vehicle's expectations changes only the detector: the vehicle's own
        expectations, its stamped sibling's and its variant's baseline's
        still read the contracted WCET."""
        fleet = generate_fleet(FleetSpec(size=4, seed=0, num_variants=2,
                                         extra_components=2))
        first = fleet[0]
        key = ("perception.task", "execution_time")
        wcet = first.mcc.model.contract("perception").timing.wcet
        before = self.observed(first)
        detector = DeviationDetector(MetricRegistry())
        for expectation in first.mcc.expectations:
            detector.expect(expectation)
        assert detector.apply_refinements({key: 0.5}) == 1
        assert detector.expectation(*key).nominal == 0.5
        assert self.observed(first) == before
        # Vehicle 2 is stamped from the variant's baseline only now, and
        # vehicle 0 rewinds to that baseline.
        first.restore_state(VehicleState(first.vehicle_id))
        for vehicle in (first, fleet[2]):
            nominals = {(expectation.source, expectation.metric):
                        expectation.nominal
                        for expectation in vehicle.mcc.expectations}
            assert nominals[key] == wcet != 0.5

    def test_a_vehicle_at_another_version_integrates_itself(self):
        """A vehicle that reached its group's contracts, mapping and
        priorities by an addition and its removal holds another version,
        so batched admission must not hand it the group's adopted state:
        every vehicle ends where sequential admission leaves it, version
        and reports included."""
        def run(batch_admission):
            fleet = generate_fleet(self.SPEC)
            vehicle = fleet[2]
            baseline = vehicle.mcc.model
            assert vehicle.mcc.add_component(build_update_contract(
                vehicle.wcet_factor, utilization=0.05,
                component="extra")).accepted
            assert vehicle.mcc.remove_component("extra").accepted
            model = vehicle.mcc.model
            assert all(mine is theirs for mine, theirs
                       in zip(model.contracts(), baseline.contracts()))
            assert (model.mapping, model.priorities) == \
                (baseline.mapping, baseline.priorities)
            assert model.version == baseline.version + 2
            Campaign(fleet, add_update(), batch_admission=batch_admission,
                     feedback_seed=3).run()
            return fleet_state(fleet)

        assert run(True) == run(False)

    def test_deploy_keeps_platforms_apart(self):
        spec = replace(self.SPEC, deploy=True)
        fleet = generate_fleet(spec)
        Campaign([fleet[2]], add_update(memory_kib=256.0),
                 policy=WavePolicy(canary_size=0), batch_admission=False,
                 feedback_seed=3).run()
        for vehicle in fleet:
            rte = vehicle.mcc.rte
            assert rte.platform is vehicle.platform
            assert rte.configuration is vehicle.mcc.deployed_configuration
            configuration = rte.configuration
            for processor in vehicle.platform.processors():
                hosted = sorted(task.name for task in processor.taskset)
                assert hosted == sorted(
                    f"{component}.task"
                    for component, name in configuration.mapping.items()
                    if name == processor.name)
            memory = sum(processor.memory_allocated_kib
                         for processor in vehicle.platform.processors())
            assert memory == (256.0 if vehicle.index == 2 else 0.0)
        assert "nav_assist" in fleet[2].mcc.model.components()
        assert all("nav_assist" not in vehicle.mcc.model.components()
                   for vehicle in fleet if vehicle.index != 2)
