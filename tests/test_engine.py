"""The re-entrant campaign engine: stepped/run parity, boundary checkpoints.

The refactor's contract is byte-parity by construction:
``Campaign.run()`` is nothing but a loop over
:meth:`~repro.fleet.engine.CampaignEngine.step`, so a stepped execution,
a run-to-completion execution and a resumed-mid-campaign execution of the
same submission must produce identical results — with and without an
adversity model, with and without a deterministic tracer.  The hypothesis
differentials here pin exactly that.

The satellite guarantees ride along:

* ``run()`` is one-shot — the second call raises ``CampaignError``
  instead of silently reusing per-run state;
* :meth:`CampaignEngine.checkpoint` logs *any* wave boundary (not only
  where the halt policy tripped) and a resume from boundary ``k`` replays
  to the uninterrupted run byte-for-byte, under every adversity model,
  onto a regenerated fleet or the same one, including from a fresh
  process, with exactly the uninterrupted run's admission calls; after a
  policy halt it returns the boundary the halt logged, and it refuses a
  campaign that did not start at its fleet's baseline;
* ``CampaignCheckpoint.load`` reads JSON only — a pickle payload raises
  ``CampaignError`` without executing, and so does a malformed field,
  named in the message.
"""

from __future__ import annotations

import json
import os
import pickle
import re
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import (IntrusionAdversity, LossyDeliveryAdversity,
                                   ThermalAdversity)
from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  WavePolicy)
from repro.fleet.engine import CampaignEngine, CampaignState
from repro.fleet.vehicle import FleetSpec, FleetVehicle, generate_fleet
from repro.mcc.controller import MultiChangeController
from repro.observability.tracer import CampaignTracer

from test_parallel_campaign import campaign_digest, fleet_digest, make_factory


#: A fresh model of each adversity kind, from a seed (models are stateful).
ADVERSITY = {
    "none": lambda seed: None,
    "lossy": lambda seed: LossyDeliveryAdversity(0.4, seed=seed),
    "intrusion": lambda seed: IntrusionAdversity(compromise_rate=0.3,
                                                 seed=seed),
    "thermal": lambda seed: ThermalAdversity(peak_ambient_c=95.0,
                                             peak_wave=1, wave_dt_s=240.0),
}


def build_campaign(size, seed, *, policy=None, adversity=None,
                   tracer=None, failure_rate=0.0, num_variants=3,
                   fleet=None, cache=None):
    """A campaign over a fresh fleet, or over ``fleet`` and ``cache``."""
    if fleet is None:
        spec = FleetSpec(size=size, seed=seed, num_variants=num_variants,
                         extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, make_factory(), policy=policy,
                        analysis_cache=cache,
                        failure_injection_rate=failure_rate,
                        feedback_seed=seed, adversity=adversity,
                        tracer=tracer)
    return fleet, campaign


@contextmanager
def counted_admissions():
    """Count ``request_change`` and ``replay_change`` calls in the block."""
    counts = Counter()
    originals = {name: MultiChangeController.__dict__[name]
                 for name in ("request_change", "replay_change")}

    def counted(name, original):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name, original in originals.items():
        setattr(MultiChangeController, name, counted(name, original))
    try:
        yield counts
    finally:
        for name, original in originals.items():
            setattr(MultiChangeController, name, original)


def step_to_completion(campaign, resume_from=None):
    """Drive an engine by hand, asserting the per-step invariants."""
    engine = CampaignEngine(campaign, resume_from=resume_from)
    records = []
    while not engine.done:
        records.append(engine.step())
    result = engine.finalize()
    assert [record.index for record in records] == \
        [record.index for record in result.waves[len(result.waves)
                                                 - len(records):]]
    return engine, result


class TestSteppedRunParity:
    """step()-driven and run()-driven executions are byte-identical."""

    @given(size=st.integers(min_value=6, max_value=14),
           seed=st.integers(min_value=0, max_value=2**20),
           trace=st.booleans())
    @settings(max_examples=5, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stepped_matches_run(self, size, seed, trace):
        run_tracer = CampaignTracer(deterministic=True) if trace else None
        fleet_run, campaign_run = build_campaign(size, seed,
                                                 tracer=run_tracer)
        reference = campaign_run.run()

        step_tracer = CampaignTracer(deterministic=True) if trace else None
        fleet_step, campaign_step = build_campaign(size, seed,
                                                   tracer=step_tracer)
        _, stepped = step_to_completion(campaign_step)

        assert campaign_digest(stepped) == campaign_digest(reference)
        assert fleet_digest(fleet_step) == fleet_digest(fleet_run)
        if trace:
            # Deterministic traces are a pure function of the computation:
            # the stepped engine must neither add nor reorder events.
            assert step_tracer.events == run_tracer.events

    @given(seed=st.integers(min_value=0, max_value=2**20),
           drop_rate=st.floats(min_value=0.1, max_value=0.5))
    @settings(max_examples=4, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_stepped_matches_run_under_adversity(self, seed, drop_rate):
        fleet_run, campaign_run = build_campaign(
            10, seed, adversity=LossyDeliveryAdversity(drop_rate, seed=seed))
        reference = campaign_run.run()
        fleet_step, campaign_step = build_campaign(
            10, seed, adversity=LossyDeliveryAdversity(drop_rate, seed=seed))
        _, stepped = step_to_completion(campaign_step)
        assert campaign_digest(stepped) == campaign_digest(reference)
        assert fleet_digest(fleet_step) == fleet_digest(fleet_run)

    def test_step_past_done_raises(self):
        _, campaign = build_campaign(6, seed=3)
        engine = CampaignEngine(campaign)
        while not engine.done:
            engine.step()
        with pytest.raises(CampaignError, match="no next wave"):
            engine.step()
        engine.finalize()

    def test_finalize_is_one_shot(self):
        _, campaign = build_campaign(6, seed=3)
        engine, _ = step_to_completion(campaign)
        with pytest.raises(CampaignError, match="already finalized"):
            engine.finalize()
        with pytest.raises(CampaignError, match="already finalized"):
            engine.step()


class TestDoubleRunGuard:
    """run() is one-shot: per-run state must never silently leak."""

    def test_second_run_raises(self):
        _, campaign = build_campaign(6, seed=9)
        campaign.run()
        with pytest.raises(CampaignError, match="one-shot"):
            campaign.run()

    def test_failed_run_still_consumes_the_instance(self):
        _, campaign = build_campaign(6, seed=9)
        campaign.update_factory = None  # force the first wave to blow up
        with pytest.raises(TypeError):
            campaign.run()
        with pytest.raises(CampaignError, match="one-shot"):
            campaign.run()


class TestBoundaryCheckpoint:
    """checkpoint() at any wave boundary resumes byte-identically."""

    @given(seed=st.integers(min_value=0, max_value=2**20),
           model=st.sampled_from(sorted(ADVERSITY)))
    # Four waves; six with stragglers carrying undelivered vehicles; five
    # discounted forged reports; a throttled wave 1 inflating its requests.
    @example(seed=11, model="none")
    @example(seed=14, model="lossy")
    @example(seed=11, model="intrusion")
    @example(seed=11, model="thermal")
    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_resume_from_every_boundary(self, seed, model, tmp_path_factory):
        """From every boundary of an uninterrupted run, through save and
        load: a resume on a regenerated fleet, with a fresh adversity
        model, equals the uninterrupted run and makes exactly its
        admission calls; a resume on the fleet the checkpoint was taken
        on equals it too."""
        def fresh(**where):
            return build_campaign(10, seed, failure_rate=0.2,
                                  policy=WavePolicy(max_failure_rate=0.5),
                                  adversity=ADVERSITY[model](seed), **where)

        fleet_ref, campaign_ref = fresh()
        with counted_admissions() as calls:
            reference = campaign_ref.run()
        expected = (campaign_digest(reference), fleet_digest(fleet_ref))
        directory = tmp_path_factory.mktemp("boundaries")
        for boundary in range(len(reference.waves) + (not reference.halted)):
            fleet, campaign = fresh()
            engine = CampaignEngine(campaign)
            for _ in range(boundary):
                engine.step()
            path = str(directory / f"wave{boundary}_{seed}.ckpt")
            checkpoint = engine.checkpoint()
            checkpoint.save(path)
            assert checkpoint.next_wave == len(checkpoint.waves) == boundary
            engine.finalize()
            loaded = CampaignCheckpoint.load(path)
            assert loaded == checkpoint

            fleet_resumed, campaign_resumed = fresh()
            with counted_admissions() as resumed_calls:
                resumed = campaign_resumed.run(resume_from=loaded)
            assert (campaign_digest(resumed), fleet_digest(fleet_resumed)) \
                == expected
            assert resumed_calls == calls

            _, campaign_same = fresh(fleet=fleet,
                                     cache=campaign.analysis_cache)
            resumed = campaign_same.run(resume_from=loaded)
            assert (campaign_digest(resumed), fleet_digest(fleet)) == expected

    def test_resume_in_fresh_process(self, tmp_path):
        """A boundary checkpoint of a lossy campaign, carrying an
        undelivered vehicle, survives a real process boundary."""
        seed, size = 13, 8
        _, campaign_ref = build_campaign(
            size, seed, adversity=LossyDeliveryAdversity(0.5, seed=seed))
        reference = campaign_ref.run()

        _, campaign = build_campaign(
            size, seed, adversity=LossyDeliveryAdversity(0.5, seed=seed))
        engine = CampaignEngine(campaign)
        while not engine.state.carry:
            engine.step()
        path = str(tmp_path / "boundary.ckpt")
        engine.checkpoint().save(path)
        engine.finalize()

        script = f"""
import sys
from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import LossyDeliveryAdversity
from repro.fleet.campaign import Campaign, CampaignCheckpoint
from repro.fleet.vehicle import FleetSpec, generate_fleet
sys.path.insert(0, {os.path.dirname(__file__)!r})
from test_parallel_campaign import campaign_digest, make_factory

cache = AnalysisCache()
fleet = generate_fleet(FleetSpec(size={size}, seed={seed}, num_variants=3,
                                 extra_components=2), analysis_cache=cache)
campaign = Campaign(fleet, make_factory(), analysis_cache=cache,
                    feedback_seed={seed},
                    adversity=LossyDeliveryAdversity(0.5, seed={seed}))
resumed = campaign.run(resume_from=CampaignCheckpoint.load({path!r}))
sys.stdout.write(repr(campaign_digest(resumed)))
"""
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(os.path.dirname(__file__)), "src"),
             environment.get("PYTHONPATH", "")]).rstrip(os.pathsep)
        completed = subprocess.run([sys.executable, "-c", script],
                                   capture_output=True, text=True,
                                   env=environment, check=True)
        assert completed.stdout == repr(campaign_digest(reference))

    def test_checkpoint_requires_a_baseline_start(self):
        """A checkpoint replays from the fleet's baseline, so a second
        campaign over a fleet the first one updated cannot take one, and
        its policy halt leaves no checkpoint; a resume rewinds the fleet to
        its baseline first, so its engine can."""
        fleet, first = build_campaign(8, seed=4)
        assert first.run().completed
        policy = WavePolicy(canary_size=2, max_failure_rate=0.0)
        _, second = build_campaign(8, seed=4, policy=policy, fleet=fleet,
                                   cache=first.analysis_cache,
                                   failure_rate=1.0)
        engine = CampaignEngine(second)
        with pytest.raises(CampaignError, match="baseline"):
            engine.checkpoint()
        engine.step()
        assert engine.done and second.last_checkpoint is None
        with pytest.raises(CampaignError, match="baseline"):
            engine.checkpoint()
        engine.finalize()

        checkpoint = CampaignCheckpoint(fleet_size=8, waves=[])
        _, resumed = build_campaign(8, seed=4, fleet=fleet,
                                    cache=first.analysis_cache)
        engine = CampaignEngine(resumed, resume_from=checkpoint)
        assert engine.checkpoint() == checkpoint
        assert not any(vehicle.updated for vehicle in fleet)
        engine.finalize()

    def test_checkpoint_after_halt_is_the_halt_checkpoint(self,
                                                          monkeypatch):
        """After a policy halt, checkpoint() returns the boundary before the
        halting wave, equal to Campaign.last_checkpoint field for field,
        without capturing a vehicle, and resumes like it."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.1)
        _, campaign = build_campaign(8, seed=4, policy=policy,
                                     failure_rate=0.4)
        engine = CampaignEngine(campaign)
        engine.step()
        record = engine.step()
        assert engine.done and engine.state.result.halted
        assert record.index == 1
        captures = []
        original = FleetVehicle.capture_state

        def counted(vehicle):
            captures.append(vehicle.vehicle_id)
            return original(vehicle)

        monkeypatch.setattr(FleetVehicle, "capture_state", counted)
        checkpoint = engine.checkpoint()
        assert captures == []
        assert checkpoint == campaign.last_checkpoint
        assert checkpoint.next_wave == 1
        assert [record.index for record in checkpoint.waves] == [0]
        engine.finalize()

        def remediated_run(resume_from):
            _, fresh = build_campaign(
                8, seed=4, failure_rate=0.4,
                policy=replace(policy, max_failure_rate=1.0))
            return fresh.run(resume_from=resume_from)

        resumed = remediated_run(checkpoint)
        assert resumed.completed
        assert campaign_digest(resumed) == \
            campaign_digest(remediated_run(None))


class _EvilPayload:
    """Pickles to a reduce payload that would execute on a naive load."""

    def __init__(self, marker: str) -> None:
        self.marker = marker

    def __reduce__(self):
        return (os.system, (f"touch {self.marker}",))


def _canary_document():
    """The checkpoint document after the canary of a 12-vehicle, 3-variant
    fleet, parsed."""
    _, campaign = build_campaign(12, seed=1)
    engine = CampaignEngine(campaign)
    engine.step()
    checkpoint = engine.checkpoint()
    engine.finalize()
    return json.loads(checkpoint.to_bytes())


def _corrupted(corrupt):
    """``corrupt`` applied to a fresh canary document, which it returns."""
    def apply(document):
        corrupt(document)
        return document
    return lambda: apply(_canary_document())


class TestRestrictedUnpickler:
    """CampaignCheckpoint.load never executes foreign pickle payloads."""

    def test_reduce_payload_is_rejected_not_executed(self, tmp_path):
        marker = str(tmp_path / "owned")
        malicious = str(tmp_path / "malicious.ckpt")
        with open(malicious, "wb") as handle:
            pickle.dump(_EvilPayload(marker), handle)
        with pytest.raises(CampaignError,
                           match="not a loadable campaign checkpoint"):
            CampaignCheckpoint.load(malicious)
        assert not os.path.exists(marker)  # the payload never ran

    def test_foreign_class_is_rejected(self, tmp_path):
        import pathlib
        foreign = str(tmp_path / "foreign.ckpt")
        with open(foreign, "wb") as handle:
            pickle.dump(pathlib.PurePosixPath("x"), handle)
        with pytest.raises(CampaignError,
                           match="not a loadable campaign checkpoint"):
            CampaignCheckpoint.load(foreign)

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignCheckpoint.load(str(tmp_path / "absent.ckpt"))

    @pytest.mark.parametrize("document, field", [
        (_corrupted(lambda doc: doc.update(waves=None)), "waves"),
        (_corrupted(lambda doc: doc["waves"][0].update(vehicle_ids=None)),
         "waves[0].vehicle_ids"),
        (_corrupted(lambda doc: doc["waves"].__setitem__(0, {
            "vehicle_id": "veh0000", "snapshot": None, "updated": False,
            "deviating": False, "rolled_back": False})), "waves[0]"),
        (lambda: [], "document"),
        (_corrupted(lambda doc: doc.update(vehicle_states=[])), "document"),
        (_corrupted(lambda doc: doc.pop("format")), "format"),
        (_corrupted(lambda doc: doc.update(format=2)), "format"),
        (_corrupted(lambda doc: doc.update(fleet_size="12")), "fleet_size"),
        (_corrupted(lambda doc: doc.update(fleet_size=True)), "fleet_size"),
        (_corrupted(lambda doc: doc["waves"][0].pop("admitted")),
         "waves[0].admitted"),
        (_corrupted(lambda doc: doc["waves"][0].update(rejected=0.0)),
         "waves[0].rejected"),
        (_corrupted(lambda doc: doc["waves"][0].update(kind=None)),
         "waves[0].kind"),
        (_corrupted(lambda doc: doc["waves"][0]["vehicle_ids"].append(7)),
         "waves[0].vehicle_ids"),
        (_corrupted(lambda doc: doc["waves"][0].update(snapshot=None)),
         "waves[0]"),
    ], ids=["waves-none", "vehicle-ids-none", "state-as-record",
            "document-list", "unknown-field", "format-missing",
            "format-unknown", "fleet-size-str", "fleet-size-bool",
            "count-missing", "count-float", "kind-none", "vehicle-id-int",
            "record-unknown-field"])
    def test_malformed_contents_raise_naming_the_field(self, tmp_path,
                                                       document, field):
        """A canary checkpoint document, one field then missing, unknown or
        given the wrong type: each raises naming that field."""
        path = tmp_path / "malformed.ckpt"
        path.write_text(json.dumps(document()))
        with pytest.raises(CampaignError,
                           match=rf"malformed {re.escape(field)}$"):
            CampaignCheckpoint.load(str(path))

    @pytest.mark.parametrize("data", [
        b'{"format":1,"fleet_size":12,"waves":[', b"\xff\xfe",
        b"[" * 100_000 + b"]" * 100_000,
    ], ids=["truncated", "not-utf8", "nested-too-deep"])
    def test_undecodable_documents_raise(self, tmp_path, data):
        path = tmp_path / "undecodable.ckpt"
        path.write_bytes(data)
        with pytest.raises(CampaignError,
                           match="not a loadable campaign checkpoint"):
            CampaignCheckpoint.load(str(path))

    def test_real_checkpoint_round_trips(self, tmp_path):
        _, campaign = build_campaign(8, seed=17)
        engine = CampaignEngine(campaign)
        engine.step()
        path = str(tmp_path / "real.ckpt")
        original = engine.checkpoint()
        original.save(path)
        engine.finalize()
        loaded = CampaignCheckpoint.load(path)
        assert isinstance(loaded, CampaignCheckpoint)
        assert loaded == original and loaded.next_wave == 1
        with open(path, "rb") as stream:
            assert stream.read() == original.to_bytes()


class TestCampaignState:
    def test_default_state_is_inert(self):
        state = CampaignState()
        assert state.wave_index == 0
        assert state.carry == []
        assert state.result.fleet_size == 0
