"""Campaign admission paths and checkpoints: batched/sequential
equivalence and checkpoint/resume.

A wave is admitted batched (each group of identical vehicles integrates
once, the rest replay its verdict) or, with ``batch_admission=False``,
vehicle by vehicle by the sequential oracle; both must reach the same
verdicts, waves and per-vehicle rollout state for any fleet, staging
policy and failure injection — halts included.  A hypothesis-seeded
differential harness pins that.  A halted campaign resumes — remediated —
to the result of an uninterrupted run.  The module also holds the campaign
helpers the other campaign suites share (``make_factory``,
``campaign_digest``, ``verdict_digest``, ``fleet_digest``,
``report_digest``, ``run_campaign``).
"""

from __future__ import annotations

import os
import pickle
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  CampaignResult, WavePolicy)
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract


def make_factory():
    """Per-variant ADD update factory (one shared contract per variant)."""
    contracts = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def campaign_digest(result: CampaignResult):
    """Everything deterministic about a result (no cache/engine counters —
    those legitimately differ between batched and sequential admission)."""
    return (result.fleet_size, result.batched, result.admitted,
            result.rejected, result.deviating, result.refined,
            result.rolled_back, result.halted, result.halted_wave,
            result.completed,
            [record.to_dict() for record in result.waves])


def verdict_digest(result: CampaignResult):
    """:func:`campaign_digest` without the admission-mode flag."""
    digest = campaign_digest(result)
    return digest[:1] + digest[2:]


def fleet_digest(fleet):
    """Per-vehicle rollout state: flags, model version, installed set."""
    return [(vehicle.vehicle_id, vehicle.updated, vehicle.deviating,
             vehicle.rolled_back, vehicle.mcc.version,
             sorted(vehicle.mcc.model.components()),
             sorted(vehicle.mcc.model.mapping.items()))
            for vehicle in fleet]


def report_digest(fleet):
    """Per-vehicle priorities and every report's verdict, viewpoint
    results, findings, configuration version and refinement steps with
    their artefacts.  Request ids are left out: they come from a
    process-wide counter, and a replayed vehicle holds its representative's
    report.  Kept apart from :func:`fleet_digest`, because a resumed
    vehicle's append-only history also holds its pre-halt reports."""
    return [(vehicle.vehicle_id,
             sorted(vehicle.mcc.model.priorities.items()),
             [(report.accepted, report.acceptance_results, report.findings,
               report.configuration_version,
               [(step.name, step.description, step.artefacts)
                for step in report.steps])
              for report in vehicle.mcc.reports])
            for vehicle in fleet]


def run_campaign(size, seed, *, failure_rate=0.0, policy=None,
                 num_variants=4, shared_cache=True,
                 **campaign_kwargs):
    spec = FleetSpec(size=size, seed=seed, num_variants=num_variants,
                     extra_components=2)
    cache = AnalysisCache() if shared_cache else None
    fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, make_factory(), policy=policy,
                        analysis_cache=cache,
                        failure_injection_rate=failure_rate,
                        feedback_seed=seed, **campaign_kwargs)
    return fleet, campaign, campaign.run()


class TestParallelSequentialEquivalence:
    """Batched admission vs the sequential per-vehicle oracle: identical
    verdicts, rollout state and reports, halt included."""

    def test_clean_rollout_equivalence(self):
        fleet_seq, _, sequential = run_campaign(12, seed=1,
                                                batch_admission=False)
        fleet_bat, _, batched = run_campaign(12, seed=1)
        assert batched.batched and not sequential.batched
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)
        assert report_digest(fleet_bat) == report_digest(fleet_seq)

    def test_mid_campaign_halt_equivalence(self):
        """A failure-injected campaign that halts mid-rollout: identical
        halted wave, identical rollback set, identical per-vehicle state."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.3, 1.0),
                            max_failure_rate=0.2)
        fleet_seq, _, sequential = run_campaign(16, seed=1, failure_rate=0.5,
                                                policy=policy,
                                                batch_admission=False)
        fleet_bat, _, batched = run_campaign(16, seed=1, failure_rate=0.5,
                                             policy=policy)
        # The scenario must actually exercise a *mid-campaign* halt.
        assert sequential.halted and sequential.halted_wave >= 1
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)
        assert report_digest(fleet_bat) == report_digest(fleet_seq)
        rollback_seq = [v.vehicle_id for v in fleet_seq if v.rolled_back]
        rollback_bat = [v.vehicle_id for v in fleet_bat if v.rolled_back]
        assert rollback_bat == rollback_seq

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.3, 0.8]),
           size=st.integers(min_value=4, max_value=14),
           shared_cache=st.booleans())
    def test_differential_random_fleets(self, seed, failure_rate, size,
                                        shared_cache):
        """Hypothesis-seeded fleets: batched admission, with or without a
        shared cache, may never diverge from sequential admission, whatever
        the fleet or failure pattern."""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(size, seed=seed,
                                                failure_rate=failure_rate,
                                                policy=policy,
                                                batch_admission=False)
        fleet_bat, _, batched = run_campaign(size, seed=seed,
                                             failure_rate=failure_rate,
                                             policy=policy,
                                             shared_cache=shared_cache)
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)
        assert report_digest(fleet_bat) == report_digest(fleet_seq)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.4]),
           canary_size=st.integers(min_value=0, max_value=3),
           wave_fractions=st.sampled_from([(1.0,), (0.5, 1.0),
                                           (0.2, 0.6, 1.0)]))
    def test_differential_random_schedules(self, seed, failure_rate,
                                           canary_size, wave_fractions):
        """Random staging schedules may never change a verdict relative to
        sequential admission."""
        policy = WavePolicy(canary_size=canary_size,
                            wave_fractions=wave_fractions,
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(10, seed=seed,
                                                failure_rate=failure_rate,
                                                policy=policy,
                                                batch_admission=False)
        fleet_bat, _, batched = run_campaign(10, seed=seed,
                                             failure_rate=failure_rate,
                                             policy=policy)
        assert verdict_digest(batched) == verdict_digest(sequential)
        assert fleet_digest(fleet_bat) == fleet_digest(fleet_seq)
        assert report_digest(fleet_bat) == report_digest(fleet_seq)


class TestCheckpointResume:
    """A halted campaign resumes — remediated — to the reference result."""

    POLICY_STRICT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                               max_failure_rate=0.1)
    POLICY_TOLERANT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                                 max_failure_rate=1.0)

    def _halting_setup(self, tmp_path, batch_admission=True):
        checkpoint_path = os.path.join(tmp_path, "campaign.ckpt")
        fleet, campaign, halted = run_campaign(
            18, seed=1, failure_rate=0.4, batch_admission=batch_admission,
            policy=self.POLICY_STRICT)
        assert halted.halted
        campaign.last_checkpoint.save(checkpoint_path)
        return fleet, halted, checkpoint_path

    def test_resume_reaches_reference_result(self, tmp_path):
        fleet, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, seed=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        # Remediation: the operator raises the tolerance and resumes the
        # SAME fleet from the checkpoint (live objects, same process).
        cache = AnalysisCache()
        resumed = Campaign(fleet, make_factory(), policy=self.POLICY_TOLERANT,
                           analysis_cache=cache, failure_injection_rate=0.4,
                           feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_resume_on_regenerated_fleet(self, tmp_path):
        """The checkpoint replays onto a *freshly generated* fleet — the
        cross-process story (a fleet is a function of its spec)."""
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, seed=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        resumed = Campaign(fresh_fleet, make_factory(),
                           policy=self.POLICY_TOLERANT, analysis_cache=cache,
                           failure_injection_rate=0.4, feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_resume_with_parallel_workers(self, tmp_path):
        """A checkpoint of the sequential oracle resumes under batched
        admission on a regenerated fleet to the reference result."""
        _, halted, checkpoint_path = self._halting_setup(
            tmp_path, batch_admission=False)
        _, _, reference = run_campaign(18, seed=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        resumed = Campaign(fresh_fleet, make_factory(),
                           policy=self.POLICY_TOLERANT, analysis_cache=cache,
                           failure_injection_rate=0.4, feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_checkpoint_excludes_the_halting_wave(self, tmp_path):
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        assert checkpoint.next_wave == halted.halted_wave
        assert checkpoint.waves == halted.waves[:halted.halted_wave]
        assert checkpoint.fleet_size == halted.fleet_size
        # Halting-wave members are in no logged wave, so a resume leaves
        # them at their baseline until the wave re-runs.
        halting_ids = set(halted.waves[-1].vehicle_ids)
        assert all(halting_ids.isdisjoint(record.vehicle_ids)
                   for record in checkpoint.waves)

    def test_resume_rejects_diverging_fleet(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=5, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        wrong_fleet = generate_fleet(spec, analysis_cache=cache)
        with pytest.raises(CampaignError,
                           match="diverges at wave 0: it logs a fleet of 18"):
            Campaign(wrong_fleet, make_factory(), policy=self.POLICY_TOLERANT,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_resume_rejects_diverging_staging(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        reshaped = WavePolicy(canary_size=5, wave_fractions=(1.0,),
                              max_failure_rate=1.0)
        with pytest.raises(CampaignError, match="diverges at wave 0"):
            Campaign(fleet, make_factory(), policy=reshaped,
                     analysis_cache=cache).run(resume_from=checkpoint)

    @pytest.mark.parametrize("corrupt, message", [
        (lambda waves: waves[:1] + waves[2:],
         "wave 1: its replay differs in index, kind, vehicle_ids"),
        (lambda waves: waves + [replace(waves[2], index=3)],
         "wave 3: the resumed campaign has no such wave"),
        (lambda waves: [waves[0], replace(waves[1], index=2), waves[2]],
         "wave 1: its replay differs in index$"),
        (lambda waves: [waves[0], replace(
            waves[1], vehicle_ids=waves[1].vehicle_ids
            + waves[1].vehicle_ids[:1]), waves[2]],
         "wave 1: its replay differs in vehicle_ids$"),
        (lambda waves: [replace(waves[0], admitted=waves[0].admitted - 1)]
         + waves[1:], "wave 0: its replay differs in admitted$"),
        (lambda waves: waves[:2] + [replace(
            waves[2], vehicle_ids=["veh9999"] + waves[2].vehicle_ids[1:])],
         "wave 2: its replay differs in vehicle_ids$"),
    ], ids=["dropped-record", "cursor-past-plan", "misnumbered-record",
            "repeated-vehicle", "changed-count", "changed-vehicle-id"])
    def test_resume_rejects_inconsistent_checkpoint(self, corrupt, message):
        """The checkpoint of a completed three-wave campaign, its wave
        records then edited: the replay names the first diverging wave."""
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        engine = CampaignEngine(Campaign(fleet, make_factory(),
                                         policy=self.POLICY_TOLERANT,
                                         analysis_cache=cache))
        while not engine.done:
            engine.step()
        checkpoint = engine.checkpoint()
        assert checkpoint.next_wave == 3
        checkpoint = replace(checkpoint, waves=corrupt(checkpoint.waves))
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        with pytest.raises(CampaignError,
                           match="checkpoint diverges at " + message):
            Campaign(fresh_fleet, make_factory(), policy=self.POLICY_TOLERANT,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_checkpoint_file_validation(self, tmp_path):
        bogus = os.path.join(tmp_path, "bogus.ckpt")
        with open(bogus, "wb") as stream:
            pickle.dump({"not": "a checkpoint"}, stream)
        with pytest.raises(CampaignError):
            CampaignCheckpoint.load(bogus)
