"""Fleet generation, staged campaign waves, rollback and the E10 scenario."""

from __future__ import annotations

import json
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.experiments.registry import run_scenario
from repro.fleet.campaign import (Campaign, CampaignError, WavePolicy,
                                  WaveRecord, plan_waves)
from repro.fleet.vehicle import (_CORE_COMPONENTS, FleetSpec, FleetVehicle,
                                 build_vehicle_platform, generate_fleet,
                                 generate_variants, variant_contracts)
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingStrategy
from repro.scenarios.fleet_campaign import (build_update_contract,
                                            run_fleet_campaign_scenario)


def small_spec(size: int = 8, **overrides) -> FleetSpec:
    defaults = dict(size=size, seed=7, num_variants=3, extra_components=2)
    defaults.update(overrides)
    return FleetSpec(**defaults)


def update_factory_for(contracts_by_variant=None):
    """A per-variant ADD update factory (one shared contract per variant)."""
    contracts = contracts_by_variant if contracts_by_variant is not None else {}

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


class TestFleetGeneration:
    """Deterministic heterogeneous fleets."""

    def test_fleet_is_deterministic(self):
        fleet_a = generate_fleet(small_spec())
        fleet_b = generate_fleet(small_spec())
        assert len(fleet_a) == len(fleet_b) == 8
        for a, b in zip(fleet_a, fleet_b):
            assert a.variant == b.variant
            assert a.mcc.version == b.mcc.version
            assert sorted(a.mcc.model.components()) == sorted(b.mcc.model.components())
            assert a.mcc.model.mapping == b.mcc.model.mapping

    def test_variants_cluster_vehicles(self):
        fleet = generate_fleet(small_spec(size=9, num_variants=3))
        variants = {vehicle.variant.index for vehicle in fleet}
        assert variants == {0, 1, 2}
        same = [v for v in fleet if v.variant.index == 0]
        assert len(same) == 3
        reference = sorted(same[0].mcc.model.components())
        for vehicle in same[1:]:
            assert sorted(vehicle.mcc.model.components()) == reference

    def test_heterogeneity_spreads_wcet_factors(self):
        variants = generate_variants(small_spec(size=20, num_variants=8,
                                                heterogeneity=0.3))
        factors = [variant.wcet_factor for variant in variants]
        assert max(factors) - min(factors) > 0.05
        assert all(0.7 <= factor <= 1.3 for factor in factors)

    def test_variant_contracts_respect_capacity_budget(self):
        spec = small_spec(extra_components=30)
        for variant in generate_variants(spec):
            contracts = variant_contracts(variant, spec)
            total = sum(c.timing.utilization for c in contracts if c.timing)
            assert total <= variant.num_processors * variant.capacity + 1e-9

    @staticmethod
    def crowded_spec(seed: int) -> FleetSpec:
        """A fleet shape where some seeds draw a variant whose core stack
        leaves no headroom for the extra apps."""
        return FleetSpec(size=4, seed=seed, num_variants=4, extra_components=2,
                         heterogeneity=0.8)

    @pytest.mark.parametrize("seed", [77, 258, 298, 381])
    def test_a_build_without_headroom_installs_no_extras(self, seed):
        """Regression: the extras of such a build used to shrink to a zero
        WCET and provisioning raised ContractSyntaxError."""
        fleet = generate_fleet(self.crowded_spec(seed))
        installed = [set(vehicle.mcc.model.components()) for vehicle in fleet]
        assert all(components >= {"perception", "planner", "actuation"}
                   for components in installed)
        assert any(not any(name.startswith("app") for name in components)
                   for components in installed)

    @pytest.mark.parametrize("seed", [5, 10, 26, 30, 34])
    def test_a_build_without_room_for_its_core_stack_is_rejected(self, seed):
        """These seeds also used to raise ContractSyntaxError; their crowded
        variant cannot host the core stack either, which is the documented
        core rejection."""
        with pytest.raises(RuntimeError, match="rejected its baseline"):
            generate_fleet(self.crowded_spec(seed))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), heterogeneity=st.floats(0.0, 0.99),
           size=st.integers(1, 6), num_variants=st.integers(1, 6),
           extra_components=st.integers(0, 6),
           min_processors=st.integers(1, 2), max_processors=st.integers(2, 4),
           strategy=st.sampled_from(MappingStrategy))
    @example(seed=5, heterogeneity=0.8, size=4, num_variants=4,
             extra_components=2, min_processors=2, max_processors=3,
             strategy=MappingStrategy.FIRST_FIT)
    @example(seed=77, heterogeneity=0.8, size=4, num_variants=4,
             extra_components=2, min_processors=2, max_processors=3,
             strategy=MappingStrategy.FIRST_FIT)
    def test_valid_specs_provision_unless_a_core_stack_does_not_fit(
            self, seed, heterogeneity, size, num_variants, extra_components,
            min_processors, max_processors, strategy):
        """Either every vehicle provisions, or ``generate_fleet`` (or a
        vehicle's first touch) names a vehicle whose variant the real MCC
        cannot admit the core stack on."""
        spec = FleetSpec(size=size, seed=seed, heterogeneity=heterogeneity,
                         num_variants=num_variants,
                         extra_components=extra_components,
                         min_processors=min_processors,
                         max_processors=max_processors,
                         mapping_strategy=strategy)
        try:
            fleet = generate_fleet(spec)
            for vehicle in fleet:
                vehicle.provision()
        except RuntimeError as error:
            rejected = re.match(r"vehicle (\d+) rejected its baseline",
                                str(error))
            assert rejected, error
            variants = generate_variants(spec)
            variant = variants[int(rejected.group(1)) % len(variants)]
            mcc = MultiChangeController(build_vehicle_platform(variant, "probe"),
                                        mapping_strategy=strategy)
            core = [contract for contract in variant_contracts(variant, spec)
                    if contract.component in _CORE_COMPONENTS]
            assert not all(mcc.add_component(contract).accepted
                           for contract in core)
        else:
            assert len(fleet) == size

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            FleetSpec(size=-1)
        with pytest.raises(ValueError):
            FleetSpec(heterogeneity=1.5)
        with pytest.raises(ValueError):
            FleetSpec(num_variants=0)
        with pytest.raises(ValueError):
            FleetSpec(min_processors=3, max_processors=2)


class TestWavePlanning:
    """Canary/percentage/full staging, including degenerate fleets."""

    def test_default_staging(self):
        fleet = generate_fleet(small_spec(size=20))
        waves = plan_waves(fleet, WavePolicy(canary_size=2,
                                             wave_fractions=(0.1, 0.5, 1.0)))
        kinds = [kind for kind, _ in waves]
        sizes = [len(wave) for _, wave in waves]
        assert kinds == ["canary", "wave", "wave", "full"]
        assert sizes[0] == 2
        assert sum(sizes) == 20
        assert all(size >= 1 for size in sizes)
        flattened = [vehicle.vehicle_id for _, wave in waves for vehicle in wave]
        assert flattened == [vehicle.vehicle_id for vehicle in fleet]

    def test_empty_fleet_yields_no_waves(self):
        assert plan_waves([], WavePolicy()) == []

    def test_single_vehicle_fleet(self):
        fleet = generate_fleet(small_spec(size=1))
        waves = plan_waves(fleet, WavePolicy(canary_size=2))
        assert [(kind, len(wave)) for kind, wave in waves] == [("canary", 1)]
        waves = plan_waves(fleet, WavePolicy(canary_size=0))
        assert [(kind, len(wave)) for kind, wave in waves] == [("full", 1)]

    def test_short_fraction_list_still_covers_fleet(self):
        fleet = generate_fleet(small_spec(size=12))
        waves = plan_waves(fleet, WavePolicy(canary_size=1, wave_fractions=(0.2,)))
        assert sum(len(wave) for _, wave in waves) == 12
        assert waves[-1][0] == "full"

    def test_policy_validation(self):
        with pytest.raises(CampaignError):
            WavePolicy(canary_size=-1)
        with pytest.raises(CampaignError):
            WavePolicy(wave_fractions=(0.5, 0.2))
        with pytest.raises(CampaignError):
            WavePolicy(wave_fractions=(0.0,))
        with pytest.raises(CampaignError):
            WavePolicy(max_failure_rate=1.5)

    def test_canary_at_least_fleet_size_is_the_whole_rollout(self):
        fleet = generate_fleet(small_spec(size=3))
        waves = plan_waves(fleet, WavePolicy(canary_size=5))
        assert [(kind, len(wave)) for kind, wave in waves] == [("canary", 3)]


class TestHaltSemantics:
    """The halt boundary: strict tolerance, zero tolerance, float safety.

    ``max_failure_rate`` is the highest *tolerated* wave failure rate: a
    wave exactly at the threshold passes, one vehicle beyond it halts, a
    zero threshold halts on any failure and a threshold of 1.0 never halts.
    All four corners are pinned here because the campaign's whole point is
    sound accept/reject decisions.
    """

    def test_exact_threshold_wave_is_tolerated(self):
        policy = WavePolicy(max_failure_rate=0.3)
        assert not policy.halts(failures=3, size=10)
        assert policy.halts(failures=4, size=10)

    def test_exact_threshold_survives_float_rounding(self):
        """The tolerated count ``max_failure_rate * size`` can round *below*
        the mathematically equal integer (e.g. ``(1/49) * 49 < 1``), so a
        bare ``failures > rate * size`` comparison would halt an
        exactly-at-threshold wave; the comparison slack must absorb it."""
        rate = 1 / 49
        assert rate * 49 < 1  # the trap the implementation must dodge
        assert not WavePolicy(max_failure_rate=rate).halts(failures=1, size=49)
        assert not WavePolicy(max_failure_rate=rate).halts(failures=3, size=147)
        assert WavePolicy(max_failure_rate=rate).halts(failures=2, size=49)
        assert not WavePolicy(max_failure_rate=0.3).halts(failures=3, size=10)
        assert not WavePolicy(max_failure_rate=0.2).halts(failures=1, size=5)
        assert not WavePolicy(max_failure_rate=0.1).halts(failures=10, size=100)

    def test_zero_tolerance_halts_on_any_failure(self):
        policy = WavePolicy(max_failure_rate=0.0)
        assert policy.halts(failures=1, size=1000)
        assert policy.halts(failures=1, size=1)
        assert not policy.halts(failures=0, size=1000)  # clean wave passes

    def test_full_tolerance_never_halts(self):
        policy = WavePolicy(max_failure_rate=1.0)
        assert not policy.halts(failures=10, size=10)
        assert not policy.halts(failures=1, size=1)

    def test_degenerate_sizes_never_halt(self):
        policy = WavePolicy(max_failure_rate=0.5)
        assert not policy.halts(failures=0, size=0)
        assert not policy.halts(failures=0, size=10)

    def test_empty_wave_record_failure_rate_is_zero(self):
        record = WaveRecord(index=0, kind="wave", vehicle_ids=[])
        assert record.size == 0
        assert record.failures == 0
        assert record.failure_rate == 0.0

    def test_campaign_halts_at_exact_threshold_plus_one(self):
        """End-to-end: with 100% injection a zero-tolerance canary halts at
        its very first deviating vehicle."""
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache,
                          policy=WavePolicy(canary_size=2, max_failure_rate=0.0),
                          failure_injection_rate=1.0).run()
        assert result.halted and result.halted_wave == 0
        assert result.waves[0].failures >= 1


class TestCampaign:
    """The staged rollout engine."""

    def run_campaign(self, fleet_kwargs=None, **campaign_kwargs):
        spec = small_spec(**(fleet_kwargs or {}))
        batched = campaign_kwargs.pop("batch_admission", True)
        cache = AnalysisCache() if batched else None
        fleet = generate_fleet(spec, analysis_cache=cache)
        campaign = Campaign(fleet, update_factory_for(), analysis_cache=cache,
                            batch_admission=batched, **campaign_kwargs)
        return fleet, campaign.run()

    def test_clean_rollout_updates_whole_fleet(self):
        fleet, result = self.run_campaign()
        assert result.completed and not result.halted
        assert result.admitted == result.vehicles_updated == len(fleet)
        assert result.rejected == result.deviating == result.rolled_back == 0
        assert result.update_coverage == 1.0
        assert all(vehicle.updated for vehicle in fleet)
        assert all("nav_assist" in vehicle.mcc.model for vehicle in fleet)

    def test_empty_fleet_campaign_is_neither_completed_nor_halted(self):
        """A zero-vehicle campaign plans no waves: it must not report a
        "completed" rollout (it rolled nothing out), must not divide by
        zero anywhere, and must not halt either."""
        cache = AnalysisCache()
        result = Campaign([], update_factory_for(), analysis_cache=cache).run()
        assert result.fleet_size == 0
        assert result.waves == []
        assert not result.completed
        assert not result.halted and result.halted_wave is None
        assert result.update_coverage == 0.0
        assert result.acceptance_rate == 0.0
        assert result.vehicles_updated == 0

    def test_single_vehicle_campaign(self):
        fleet, result = self.run_campaign(fleet_kwargs={"size": 1})
        assert len(result.waves) == 1
        assert result.admitted == 1

    def test_batched_and_sequential_verdicts_identical(self):
        _, batched = self.run_campaign(batch_admission=True,
                                       failure_injection_rate=0.4)
        _, sequential = self.run_campaign(batch_admission=False,
                                          failure_injection_rate=0.4)
        assert [w.to_dict() for w in batched.waves] == \
            [w.to_dict() for w in sequential.waves]
        for field in ("admitted", "rejected", "deviating", "rolled_back",
                      "halted", "halted_wave"):
            assert getattr(batched, field) == getattr(sequential, field)

    def test_all_rejected_wave_halts_without_rollback_work(self):
        """An update nobody can host: every wave member rejects, the campaign
        halts at the canary and there is nothing to roll back."""
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        oversized = {variant.index: build_update_contract(1.0, utilization=0.95)
                     for variant in {v.variant.index: v.variant for v in fleet}.values()}

        def factory(vehicle):
            contract = oversized[vehicle.variant.index]
            return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                 component=contract.component, contract=contract)

        result = Campaign(fleet, factory, analysis_cache=cache).run()
        assert result.halted and result.halted_wave == 0
        assert result.admitted == 0
        assert result.rolled_back == 0
        assert result.waves[0].failure_rate == 1.0
        assert not any(vehicle.updated for vehicle in fleet)

    def test_failure_injection_halts_and_rolls_back(self):
        fleet, result = self.run_campaign(failure_injection_rate=1.0)
        assert result.halted and result.halted_wave == 0
        assert result.deviating == result.waves[0].admitted
        assert result.rolled_back == result.waves[0].admitted
        assert result.vehicles_updated == 0
        canary = fleet[0]
        assert canary.rolled_back and not canary.updated
        assert "nav_assist" not in canary.mcc.model

    def test_rollback_restores_model_and_version(self):
        spec = small_spec(size=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        before = [(v.mcc.version, sorted(v.mcc.model.components())) for v in fleet]
        Campaign(fleet, update_factory_for(), analysis_cache=cache,
                 policy=WavePolicy(canary_size=2, max_failure_rate=0.0),
                 failure_injection_rate=1.0).run()
        after = [(v.mcc.version, sorted(v.mcc.model.components())) for v in fleet]
        assert after == before

    def test_halt_without_rollback_keeps_updates(self):
        fleet, result = self.run_campaign(
            policy=WavePolicy(rollback_on_halt=False, max_failure_rate=0.0),
            failure_injection_rate=1.0)
        assert result.halted
        assert result.rolled_back == 0
        assert result.vehicles_updated == result.waves[0].admitted

    def test_refine_on_deviation_reintegrates_observed_wcets(self):
        fleet, result = self.run_campaign(
            policy=WavePolicy(refine_on_deviation=True, max_failure_rate=1.0,
                              rollback_on_halt=False),
            failure_injection_rate=1.0)
        assert result.completed
        assert result.deviating > 0
        assert result.refined > 0

    def test_cache_counters_report_campaign_traffic_only(self):
        """The run's own traffic: its admissions and the provisioning of
        the vehicles it touched first, not what used the cache before."""
        spec = small_spec()
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        fleet[0].provision()  # touched before the campaign
        hits_before, misses_before = cache.hits, cache.misses
        assert hits_before + misses_before > 0  # provisioning used the cache
        result = Campaign(fleet, update_factory_for(), analysis_cache=cache).run()
        assert all(vehicle.provisioned for vehicle in fleet)
        assert result.cache_hits == cache.hits - hits_before
        assert result.cache_misses == cache.misses - misses_before

    def test_campaign_validation(self):
        with pytest.raises(CampaignError):
            Campaign([], update_factory_for(), analysis_cache=AnalysisCache(),
                     failure_injection_rate=2.0)
        with pytest.raises(CampaignError):
            # A cache snapshot path without a cache to snapshot is a typo.
            Campaign([], update_factory_for(), analysis_cache=None,
                     batch_admission=False, cache_path="cache.pkl")


class TestFleetScenario:
    """The registered E10 scenario."""

    def test_fleet_50_deterministic_under_fixed_seed(self):
        """Acceptance criterion: a >= 50-vehicle campaign is a pure function
        of its seed, byte-identical across runs."""
        record_a = run_scenario("fleet_update_campaign", fleet_size=50, seed=3)
        record_b = run_scenario("fleet_update_campaign", fleet_size=50, seed=3)
        assert json.dumps(record_a, sort_keys=True) == \
            json.dumps(record_b, sort_keys=True)
        assert record_a["fleet_size"] == 50
        assert record_a["admitted"] + record_a["rejected"] >= 50 \
            or record_a["halted"]

    def test_batching_mode_does_not_change_the_record(self):
        base = dict(fleet_size=12, num_variants=4, extra_components=3, seed=1,
                    failure_injection_rate=0.5)
        batched = run_scenario("fleet_update_campaign", batch_admission=True, **base)
        sequential = run_scenario("fleet_update_campaign", batch_admission=False,
                                  **base)
        for record in (batched, sequential):
            record.pop("batched")
        assert batched == sequential

    def test_scenario_runs_with_rte_deployment(self):
        result = run_fleet_campaign_scenario(fleet_size=4, num_variants=2,
                                             extra_components=2, deploy=True)
        assert result.admitted == 4

    def test_wave_fractions_knob_coerced_from_json(self):
        record = run_scenario("fleet_update_campaign", fleet_size=6,
                              num_variants=2, extra_components=2,
                              canary_size=1, wave_fractions=[0.5, 1.0])
        assert [wave["kind"] for wave in record["waves"]] == \
            ["canary", "wave", "full"]
