"""Adversity layer: hostile and degraded-world campaigns (E14–E16).

Two differential harnesses pin the load-bearing guarantees of
:mod:`repro.fleet.adversity`:

* **Worker parity** — every adversity model draws its randomness from
  ``SeededRNG`` streams keyed on campaign parameters and executes in wave
  order, so a perturbed campaign must reach byte-identical verdicts whether
  a wave is admitted batched or vehicle by vehicle by the sequential
  oracle (hypothesis-seeded).
* **Sequential reference** — the halt decision under compromised/false
  deviation feedback is recomputed by an independent sequential replay
  (per-vehicle admission on a fresh fleet, per-vehicle feedback draws for
  the admitted vehicles, two-sided band check, a hand-rolled
  sliding-window rate counter standing in for the IDS) and compared wave by
  wave against what the campaign engine actually did.
* **Exact resume** — a policy halt under every model leaves a checkpoint
  that, saved and loaded, resumes remediated under a fresh model, on a
  regenerated fleet and on the halted one alike, to the uninterrupted
  remediated run (hypothesis-seeded).

Deterministic tests cover the carry/straggler/abandon delivery accounting,
thermal WCET inflation and its caching, the no-op identity of the base
model, and a resume under another model diverging at its first replayed
wave.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import (MONITOR_PEER, AdversityModel,
                                   IntrusionAdversity, LossyDeliveryAdversity,
                                   ThermalAdversity)
from repro.fleet.campaign import (Campaign, CampaignCheckpoint,
                                  CampaignError, WavePolicy, plan_waves)
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract
from repro.sim.random import SeededRNG, derive_seed

from test_parallel_campaign import (campaign_digest, fleet_digest,
                                    verdict_digest)


def make_factory(utilization=0.22):
    """Per-variant ADD update factory (one shared contract per variant)."""
    contracts = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def run_adverse(size, seed, adversity, *, policy=None,
                utilization=0.22, failure_rate=0.0, num_variants=3,
                extra_components=2, batch_admission=True, fleet=None,
                cache=None, resume_from=None):
    """One campaign run under ``adversity`` (pass a FRESH model per run —
    adversity models are stateful), over a fresh fleet or over ``fleet``
    and ``cache``."""
    if fleet is None:
        spec = FleetSpec(size=size, seed=seed, num_variants=num_variants,
                         extra_components=extra_components)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, make_factory(utilization), policy=policy,
                        analysis_cache=cache, batch_admission=batch_admission,
                        failure_injection_rate=failure_rate,
                        feedback_seed=seed, adversity=adversity)
    return fleet, campaign, campaign.run(resume_from=resume_from)


class TestNoOpAdversity:
    """The base model is the identity: a campaign with it is byte-identical
    to one without any adversity at all."""

    def test_base_model_matches_unperturbed_run(self):
        fleet_none, _, plain = run_adverse(12, seed=7, adversity=None)
        fleet_noop, _, noop = run_adverse(12, seed=7,
                                          adversity=AdversityModel())
        assert campaign_digest(noop) == campaign_digest(plain)
        assert fleet_digest(fleet_noop) == fleet_digest(fleet_none)

    def test_perturbation_fields_stay_zero_unperturbed(self):
        _, _, result = run_adverse(10, seed=1, adversity=None)
        assert (result.undelivered, result.retried, result.abandoned,
                result.discounted) == (0, 0, 0, 0)
        for record in result.waves:
            assert record.delivered == record.size
            assert record.effective_failures == record.failures

    def test_resume_under_another_adversity_model_diverges(self):
        """A checkpoint replays only under the model it was taken with: a
        lossy model defers the replayed canary's vehicle, which raises
        naming that wave."""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.0)
        spec = FleetSpec(size=8, seed=3, num_variants=2, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        campaign = Campaign(fleet, make_factory(), policy=policy,
                            analysis_cache=cache,
                            failure_injection_rate=0.2, feedback_seed=3)
        halted = campaign.run()
        assert halted.halted_wave == 1
        assert campaign.last_checkpoint.next_wave == 1
        resumed_campaign = Campaign(fleet, make_factory(), policy=policy,
                                    analysis_cache=cache,
                                    failure_injection_rate=0.2,
                                    feedback_seed=3,
                                    adversity=LossyDeliveryAdversity(0.99))
        with pytest.raises(CampaignError,
                           match="diverges at wave 0: its replay differs "
                                 "in admitted, undelivered$"):
            resumed_campaign.run(resume_from=campaign.last_checkpoint)

    def test_halt_under_adversity_writes_a_checkpoint(self):
        """The halted engine's checkpoint is the halt's, and it resumes
        remediated, under a fresh model, to the uninterrupted remediated
        run."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.0)

        def adversity():
            return IntrusionAdversity(compromise_rate=1.0,
                                      discount_suspected=False, seed=5)

        spec = FleetSpec(size=8, seed=5, num_variants=2, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        campaign = Campaign(fleet, make_factory(), policy=policy,
                            analysis_cache=cache, feedback_seed=5,
                            adversity=adversity())
        engine = CampaignEngine(campaign)
        while not engine.done:
            engine.step()
        assert engine.state.result.halted
        assert engine.checkpoint() == campaign.last_checkpoint
        assert campaign.last_checkpoint.next_wave == \
            engine.state.result.halted_wave
        engine.finalize()
        tolerant = WavePolicy(canary_size=2, wave_fractions=(0.5, 1.0),
                              max_failure_rate=1.0)
        fleet_ref, _, reference = run_adverse(8, 5, adversity(),
                                              policy=tolerant, num_variants=2)
        _, _, resumed = run_adverse(8, 5, adversity(), policy=tolerant,
                                    fleet=fleet, cache=cache,
                                    resume_from=campaign.last_checkpoint)
        assert resumed.completed
        assert campaign_digest(resumed) == campaign_digest(reference)
        assert fleet_digest(fleet) == fleet_digest(fleet_ref)


#: A fresh model of each kind, from a seed (models are stateful).
MODELS = {
    "lossy": lambda seed: LossyDeliveryAdversity(0.4, max_retries=2,
                                                 seed=seed),
    "intrusion": lambda seed: IntrusionAdversity(compromise_rate=0.3,
                                                 seed=seed),
    "thermal": lambda seed: ThermalAdversity(peak_ambient_c=95.0,
                                             peak_wave=1, wave_dt_s=240.0),
}


class TestCheckpointResume:
    """A policy halt under any model resumes exactly."""

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           model=st.sampled_from(sorted(MODELS)))
    # Halts at waves 3 (after straggling deliveries), 3 and 1.
    @example(seed=2, model="lossy")
    @example(seed=1, model="intrusion")
    @example(seed=1, model="thermal")
    def test_policy_halt_resumes_remediated(self, seed, model, tmp_path_factory):
        """The halt checkpoint, saved and loaded, resumes under a tolerant
        policy and a fresh model to the uninterrupted tolerant run, on a
        regenerated fleet and on the halted one."""
        strict = WavePolicy(canary_size=2, wave_fractions=(0.3, 0.6, 1.0),
                            max_failure_rate=0.2)
        tolerant = replace(strict, max_failure_rate=1.0)

        def run(policy, **where):
            return run_adverse(12, seed, MODELS[model](seed), policy=policy,
                               failure_rate=0.25, **where)

        fleet, campaign, halted = run(strict)
        fleet_ref, _, reference = run(tolerant)
        expected = (campaign_digest(reference), fleet_digest(fleet_ref))
        if not halted.halted:
            assert campaign_digest(halted) == expected[0]
            return
        path = str(tmp_path_factory.mktemp("halt") / "halt.ckpt")
        campaign.last_checkpoint.save(path)
        loaded = CampaignCheckpoint.load(path)
        assert loaded.next_wave == halted.halted_wave
        fleet_resumed, _, resumed = run(tolerant, resume_from=loaded)
        assert (campaign_digest(resumed), fleet_digest(fleet_resumed)) == \
            expected
        _, _, resumed = run(tolerant, fleet=fleet,
                            cache=campaign.analysis_cache, resume_from=loaded)
        assert (campaign_digest(resumed), fleet_digest(fleet)) == expected


class TestWorkerParity:
    """Both admission paths — batched waves and the sequential per-vehicle
    oracle — agree for every adversity model.  Digests include the
    undelivered/retried/abandoned/discounted accounting via the wave
    ``to_dict`` rows."""

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           drop_rate=st.sampled_from([0.2, 0.5]))
    def test_lossy_delivery_parity(self, seed, drop_rate):
        fleet_seq, _, sequential = run_adverse(
            10, seed=seed, batch_admission=False,
            adversity=LossyDeliveryAdversity(drop_rate, max_retries=2,
                                             seed=seed))
        fleet_bat, _, batched = run_adverse(
            10, seed=seed,
            adversity=LossyDeliveryAdversity(drop_rate, max_retries=2,
                                             seed=seed))
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           mode=st.sampled_from(["over_report", "under_report"]),
           discount=st.booleans())
    def test_intrusion_parity(self, seed, mode, discount):
        policy = WavePolicy(canary_size=2, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)

        def model():
            return IntrusionAdversity(compromise_rate=0.3, mode=mode,
                                      discount_suspected=discount, seed=seed)

        fleet_seq, _, sequential = run_adverse(10, seed=seed,
                                               adversity=model(),
                                               policy=policy,
                                               batch_admission=False)
        fleet_bat, _, batched = run_adverse(10, seed=seed, adversity=model(),
                                            policy=policy)
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)

    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           peak=st.sampled_from([70.0, 95.0]))
    def test_thermal_parity(self, seed, peak):
        policy = WavePolicy(canary_size=2, wave_fractions=(0.5, 1.0),
                            max_failure_rate=1.0)

        def model():
            return ThermalAdversity(peak_ambient_c=peak, peak_wave=1,
                                    wave_dt_s=240.0)

        fleet_seq, _, sequential = run_adverse(10, seed=seed,
                                               adversity=model(),
                                               policy=policy,
                                               utilization=0.3,
                                               batch_admission=False)
        fleet_bat, _, batched = run_adverse(10, seed=seed, adversity=model(),
                                            policy=policy, utilization=0.3)
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)


class _ReferenceRateIds:
    """Independent stand-in for the IDS rate rule: a per-sender sliding
    window (``window_s`` seconds) whose population, divided by the window,
    must not exceed ``max_rate_hz``; every excess observation is one
    violation, and ``threshold`` violations make the sender suspected."""

    def __init__(self, window_s=1.0, max_rate_hz=2.0, threshold=3):
        self.window_s = window_s
        self.max_rate_hz = max_rate_hz
        self.threshold = threshold
        self._times = {}
        self._violations = {}

    def report(self, sender, time):
        window = self._times.setdefault(sender, [])
        window.append(time)
        cutoff = time - self.window_s
        while window and window[0] < cutoff:
            window.pop(0)
        if len(window) / self.window_s > self.max_rate_hz:
            self._violations[sender] = self._violations.get(sender, 0) + 1

    def suspected(self, sender):
        return self._violations.get(sender, 0) >= self.threshold


def intrusion_reference(fleet, update_factory, policy, *, compromise_rate,
                        mode, reports_per_wave, suspicion_threshold,
                        discount_suspected, adversity_seed, feedback_seed):
    """Sequential replay of the campaign's admission, feedback grading and
    halt logic.

    ``fleet`` is freshly provisioned: each vehicle of a wave requests its
    update through its own MCC, and only the admitted ones report
    feedback, as in the campaign.  Returns the per-executed-wave
    ``(admitted, deviating, discounted)`` triples and the halting wave index
    (``None`` when the rollout completes).
    """
    ids = _ReferenceRateIds(threshold=suspicion_threshold)
    spacing = ids.window_s / (4.0 * reports_per_wave)
    per_wave = []
    halted_wave = None
    for wave_index, (_, wave) in enumerate(plan_waves(fleet, policy)):
        admitted = deviating = discounted = 0
        for vehicle in wave:
            if not vehicle.mcc.request_change(update_factory(vehicle)).accepted:
                continue
            admitted += 1
            rng = SeededRNG(derive_seed(feedback_seed, vehicle.index))
            rng.uniform()  # failure-injection draw (rate 0 in this harness)
            factor = rng.uniform(0.92, 1.08)
            compromised = SeededRNG(derive_seed(
                adversity_seed, "compromise", vehicle.index)).uniform() \
                < compromise_rate
            if compromised:
                factor = 1.6 if mode == "over_report" else 0.02
            # Two-sided band, tolerance 0.1: honest factors stay inside,
            # both forgeries land outside.
            if not abs(factor - 1.0) > 0.1:
                continue
            deviating += 1
            reports = reports_per_wave \
                if compromised and mode == "over_report" else 1
            for copy in range(reports):
                ids.report(vehicle.vehicle_id,
                           float(wave_index) + copy * spacing)
            if discount_suspected and ids.suspected(vehicle.vehicle_id):
                discounted += 1
        per_wave.append((admitted, deviating, discounted))
        rejected = len(wave) - admitted
        if policy.halts(max(rejected + deviating - discounted, 0), len(wave)):
            halted_wave = wave_index
            break
    return per_wave, halted_wave


class TestIntrusionSequentialReference:
    """Acceptance criterion: halt decisions under compromised/false
    deviation feedback match an independent sequential reference."""

    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           compromise_rate=st.sampled_from([0.0, 0.25, 0.6]),
           mode=st.sampled_from(["over_report", "under_report"]),
           discount=st.booleans())
    # A telematics WCRT exceeds its deadline on one vehicle of this fleet,
    # so the update is rejected there.
    @example(seed=2850, compromise_rate=0.25, mode="over_report",
             discount=True)
    def test_halt_matches_reference(self, seed, compromise_rate, mode,
                                    discount):
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                            max_failure_rate=0.2)
        adversity = IntrusionAdversity(compromise_rate=compromise_rate,
                                       mode=mode, discount_suspected=discount,
                                       seed=seed)
        _, _, result = run_adverse(14, seed=seed,
                                   adversity=adversity, policy=policy,
                                   utilization=0.08)
        fresh = generate_fleet(FleetSpec(size=14, seed=seed, num_variants=3,
                                         extra_components=2))
        per_wave, halted_wave = intrusion_reference(
            fresh, make_factory(0.08), policy,
            compromise_rate=compromise_rate, mode=mode,
            reports_per_wave=adversity.reports_per_wave,
            suspicion_threshold=adversity.ids.suspicion_threshold,
            discount_suspected=discount, adversity_seed=seed,
            feedback_seed=seed)
        assert len(result.waves) == len(per_wave)
        for record, (admitted, deviating, discounted) in zip(result.waves,
                                                             per_wave):
            assert record.admitted == admitted
            assert record.rejected == record.size - admitted
            assert record.deviating == deviating
            assert record.discounted == discounted
        assert result.halted == (halted_wave is not None)
        assert result.halted_wave == halted_wave

    def test_discount_keeps_forged_halt_from_firing(self):
        """The defended/undefended pair: identical forged reports halt the
        undefended campaign and are discounted by the defended one."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                            max_failure_rate=0.2)

        def model(discount):
            return IntrusionAdversity(compromise_rate=0.5, seed=11,
                                      discount_suspected=discount)

        _, _, undefended = run_adverse(14, seed=11,
                                       adversity=model(False), policy=policy)
        _, _, defended = run_adverse(14, seed=11,
                                     adversity=model(True), policy=policy)
        assert undefended.halted
        assert defended.completed and not defended.halted
        assert defended.discounted == defended.deviating > 0

    def test_suspects_are_exactly_the_compromised_reporters(self):
        adversity = IntrusionAdversity(compromise_rate=0.5, seed=11)
        fleet, _, result = run_adverse(14, seed=11, adversity=adversity)
        suspects = set(adversity.ids.suspected_compromised())
        assert suspects
        assert suspects == set(adversity.compromised_ids)

    def test_under_reporting_is_caught_by_two_sided_band(self):
        """A stealthy under-reporter forges implausibly *small* execution
        times; the two-sided band flags them and — sending only one report
        per wave — the sender is never rate-suspected, so the failures
        count and the campaign halts (the defense narrative of E14)."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                            max_failure_rate=0.2)
        adversity = IntrusionAdversity(compromise_rate=0.5,
                                       mode="under_report", seed=11)
        _, _, result = run_adverse(14, seed=11,
                                   adversity=adversity, policy=policy)
        assert result.deviating > 0
        assert result.discounted == 0
        assert result.halted


class TestLossyDelivery:
    """Carry/retry/straggler/abandon accounting of the delivery seam."""

    def test_full_coverage_with_generous_retries(self):
        adversity = LossyDeliveryAdversity(0.5, max_retries=40, seed=3)
        fleet, _, result = run_adverse(12, seed=3, adversity=adversity)
        assert result.abandoned == 0
        assert all(vehicle.updated for vehicle in fleet)
        assert result.admitted + result.rejected == len(fleet)

    def test_accounting_identities(self):
        adversity = LossyDeliveryAdversity(0.4, max_retries=2, seed=9)
        fleet, _, result = run_adverse(12, seed=9, adversity=adversity)
        assert result.completed
        # Every drop is one undelivered event (the vehicle was staged but
        # not updated that wave) that either defers or abandons the vehicle.
        assert adversity.drops == result.undelivered
        assert result.abandoned <= result.undelivered
        assert result.retried == sum(record.retried for record in result.waves)
        updated = sum(1 for vehicle in fleet if vehicle.updated)
        assert updated + result.abandoned == len(fleet)
        assert sorted(adversity.abandoned_ids) == sorted(
            vehicle.vehicle_id for vehicle in fleet if not vehicle.updated)

    def test_straggler_waves_extend_the_plan(self):
        adversity = LossyDeliveryAdversity(0.6, max_retries=30, seed=4)
        _, _, result = run_adverse(12, seed=4, adversity=adversity)
        kinds = [record.kind for record in result.waves]
        planned = {"canary", "wave", "full"}
        assert set(kinds) - planned == {"straggler"}
        # Stragglers strictly follow the planned rollout.
        first_straggler = kinds.index("straggler")
        assert all(kind == "straggler" for kind in kinds[first_straggler:])

    def test_zero_retries_abandons_on_first_drop(self):
        adversity = LossyDeliveryAdversity(0.5, max_retries=0, seed=7)
        fleet, _, result = run_adverse(12, seed=7, adversity=adversity)
        assert result.retried == 0  # nothing is ever carried forward
        assert result.abandoned == adversity.drops  # every drop abandons
        assert result.undelivered == result.abandoned
        assert result.abandoned == sum(
            1 for vehicle in fleet if not vehicle.updated)

    def test_never_delivering_model_raises_instead_of_spinning(self):
        class BlackHole(AdversityModel):
            def deliver(self, vehicle, wave_index, attempt):
                return False

        with pytest.raises(CampaignError, match="stalled"):
            run_adverse(6, seed=1, adversity=BlackHole())

    def test_drop_rate_validation(self):
        with pytest.raises(ValueError):
            LossyDeliveryAdversity(1.0)
        with pytest.raises(ValueError):
            LossyDeliveryAdversity(0.2, max_retries=-1)


class TestThermalAdversity:
    """The admission-input seam: WCET inflation under DVFS throttling."""

    def test_ambient_profile_is_triangular(self):
        adversity = ThermalAdversity(base_ambient_c=30.0, peak_ambient_c=90.0,
                                     peak_wave=2)
        assert adversity.ambient_at(0) == pytest.approx(30.0)
        assert adversity.ambient_at(1) == pytest.approx(60.0)
        assert adversity.ambient_at(2) == pytest.approx(90.0)
        assert adversity.ambient_at(3) == pytest.approx(60.0)
        assert adversity.ambient_at(4) == pytest.approx(30.0)
        assert adversity.ambient_at(10) == pytest.approx(30.0)

    def test_inflation_scales_wcet_and_caps_below_deadline(self):
        adversity = ThermalAdversity()
        contract = build_update_contract(1.0, utilization=0.3)
        inflated = adversity._inflate(contract, 0.5)
        timing = contract.timing
        deadline = timing.deadline if timing.deadline is not None \
            else timing.period
        assert inflated.timing.wcet == pytest.approx(
            min(timing.wcet / 0.5, 0.99 * deadline))
        assert inflated.timing.wcet > timing.wcet
        barely = adversity._inflate(contract, 0.0001)
        assert barely.timing.wcet == pytest.approx(0.99 * deadline)

    def test_inflated_contracts_are_cached_per_speed(self):
        adversity = ThermalAdversity()
        contract = build_update_contract(1.0, utilization=0.3)
        assert adversity._inflate(contract, 0.8) \
            is adversity._inflate(contract, 0.8)
        assert adversity._inflate(contract, 0.8) \
            is not adversity._inflate(contract, 0.6)

    def test_transform_request_is_identity_at_full_speed(self):
        adversity = ThermalAdversity()
        contract = build_update_contract(1.0)
        request = ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                component=contract.component,
                                contract=contract)
        spec = FleetSpec(size=1, seed=0, num_variants=1, extra_components=0)
        vehicle = generate_fleet(spec)[0]
        assert adversity.speed_factor == 1.0
        assert adversity.transform_request(vehicle, request, 0) is request

    def test_heat_wave_throttles_and_flips_verdicts(self):
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 0.7, 1.0),
                            max_failure_rate=1.0)
        adversity = ThermalAdversity(peak_ambient_c=90.0, peak_wave=2,
                                     wave_dt_s=240.0)
        _, _, result = run_adverse(14, seed=2, adversity=adversity,
                                   policy=policy, utilization=0.35,
                                   extra_components=6)
        assert result.completed
        assert len(adversity.trace) == len(result.waves)
        speeds = [row[3] for row in adversity.trace]
        assert min(speeds) < 1.0
        rejected_by_wave = {record.index: record.rejected
                            for record in result.waves}
        hot = sum(count for wave, count in rejected_by_wave.items()
                  if adversity.trace[wave][3] < 1.0)
        cool = sum(count for wave, count in rejected_by_wave.items()
                   if adversity.trace[wave][3] >= 1.0)
        assert hot > 0  # inflated WCETs flipped verdicts in throttled waves
        assert cool == 0  # the same update admits cleanly at full speed

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ThermalAdversity(peak_wave=-1)
        with pytest.raises(ValueError):
            ThermalAdversity(wave_dt_s=0.0)
