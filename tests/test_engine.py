"""The re-entrant campaign engine: stepped/run parity, boundary checkpoints.

The refactor's contract is byte-parity by construction:
``Campaign.run()`` is nothing but a loop over
:meth:`~repro.fleet.engine.CampaignEngine.step`, so a stepped execution,
a run-to-completion execution and a resumed-mid-campaign execution of the
same submission must produce identical results — with and without an
adversity model, with and without a deterministic tracer.  The hypothesis differentials here pin exactly that.

The satellite guarantees ride along:

* ``run()`` is one-shot — the second call raises ``CampaignError``
  instead of silently reusing per-run state;
* :meth:`CampaignEngine.checkpoint` serializes *any* wave boundary (not
  only where the halt policy tripped) and a resume from boundary ``k``
  reproduces the uninterrupted run byte-for-byte, including from a fresh
  process; after a policy halt it returns the halt's own checkpoint;
* ``CampaignCheckpoint.load`` unpickles through a restricted allowlist —
  a malicious reduce payload, a dotted name or a non-class global raises
  ``CampaignError`` without executing, and so does a mistyped field.
"""

from __future__ import annotations

import os
import pickle
import re
import subprocess
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import LossyDeliveryAdversity
from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  WavePolicy)
from repro.fleet.engine import CampaignEngine, CampaignState
from repro.fleet.vehicle import FleetSpec, FleetVehicle, generate_fleet
from repro.observability.tracer import CampaignTracer

from test_parallel_campaign import campaign_digest, fleet_digest, make_factory


def build_campaign(size, seed, *, policy=None, adversity=None,
                   tracer=None, failure_rate=0.0, num_variants=3):
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

    @given(seed=st.integers(min_value=0, max_value=2**20))
    @settings(max_examples=3, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_resume_from_every_boundary(self, seed, tmp_path_factory):
        fleet_ref, campaign_ref = build_campaign(10, seed)
        reference = campaign_ref.run()
        reference_fleet = fleet_digest(fleet_ref)
        waves = len(reference.waves)
        assert waves >= 2
        directory = tmp_path_factory.mktemp("boundaries")
        for boundary in range(waves + 1):
            _, campaign = build_campaign(10, seed)
            engine = CampaignEngine(campaign)
            for _ in range(boundary):
                engine.step()
            path = str(directory / f"wave{boundary}_{seed}.ckpt")
            checkpoint = engine.checkpoint()
            checkpoint.save(path)
            assert checkpoint.next_wave == boundary
            assert len(checkpoint.result.waves) == boundary
            engine.finalize()

            loaded = CampaignCheckpoint.load(path)
            fleet_resumed, campaign_resumed = build_campaign(10, seed)
            resumed = campaign_resumed.run(resume_from=loaded)
            assert campaign_digest(resumed) == campaign_digest(reference)
            assert fleet_digest(fleet_resumed) == reference_fleet

    def test_resume_in_fresh_process(self, tmp_path):
        """A boundary checkpoint survives a real process boundary."""
        seed, size = 13, 8
        fleet_ref, campaign_ref = build_campaign(size, seed)
        reference = campaign_ref.run()

        _, campaign = build_campaign(size, seed)
        engine = CampaignEngine(campaign)
        engine.step()
        path = str(tmp_path / "boundary.ckpt")
        engine.checkpoint().save(path)
        engine.finalize()

        script = f"""
import pickle, sys
from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, CampaignCheckpoint
from repro.fleet.vehicle import FleetSpec, generate_fleet
sys.path.insert(0, {os.path.dirname(__file__)!r})
from test_parallel_campaign import campaign_digest, make_factory

cache = AnalysisCache()
fleet = generate_fleet(FleetSpec(size={size}, seed={seed}, num_variants=3,
                                 extra_components=2), analysis_cache=cache)
campaign = Campaign(fleet, make_factory(), analysis_cache=cache,
                    feedback_seed={seed})
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

    def test_checkpoint_requires_no_adversity(self):
        _, campaign = build_campaign(
            8, seed=4, adversity=LossyDeliveryAdversity(0.3, seed=4))
        engine = CampaignEngine(campaign)
        engine.step()
        with pytest.raises(CampaignError, match="adversity"):
            engine.checkpoint()
        while not engine.done:
            engine.step()
        engine.finalize()

    def test_checkpoint_after_halt_is_the_halt_checkpoint(self,
                                                          monkeypatch):
        """After a policy halt, checkpoint() returns the boundary before the
        halting wave, equal to Campaign.last_checkpoint field for field,
        without capturing a vehicle again, and resumes like it."""
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
        assert [record.index for record in checkpoint.result.waves] == [0]
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


def _global_call_pickle(module: str, name: str, argument: str) -> bytes:
    """A protocol-4 pickle calling ``module``'s ``name`` on ``argument``.

    ``STACK_GLOBAL`` resolves a dotted ``name`` attribute by attribute, so
    ``("repro.fleet.campaign", "os.mkdir")`` reaches ``os`` through the
    campaign module's own import.
    """
    def text(value: str) -> bytes:
        data = value.encode("utf-8")
        return b"\x8c" + bytes([len(data)]) + data  # SHORT_BINUNICODE

    # PROTO 4, STACK_GLOBAL, TUPLE1, REDUCE, STOP
    return (b"\x80\x04" + text(module) + text(name) + b"\x93"
            + text(argument) + b"\x85" + b"R" + b".")


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

    @pytest.mark.parametrize("module, name", [
        ("repro.fleet.campaign", "os.mkdir"),  # dotted name via an import
        ("repro.fleet.vehicle", "generate_fleet"),  # a function
        ("repro.fleet", "Campaign"),  # a class its module only re-exports
    ])
    def test_only_classes_of_the_named_module_load(self, tmp_path, module,
                                                   name):
        target = tmp_path / "created"
        crafted = tmp_path / "crafted.ckpt"
        crafted.write_bytes(_global_call_pickle(module, name, str(target)))
        with pytest.raises(CampaignError, match="forbidden global"):
            CampaignCheckpoint.load(str(crafted))
        assert not target.exists()  # nothing ran

    def test_missing_file_raises_file_not_found(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            CampaignCheckpoint.load(str(tmp_path / "absent.ckpt"))

    @pytest.mark.parametrize("corrupt, field", [
        (lambda checkpoint: replace(checkpoint, vehicle_states=None),
         "vehicle_states"),
        (lambda checkpoint: replace(checkpoint, result=replace(
            checkpoint.result, waves=None)), "result.waves"),
        (lambda checkpoint: replace(checkpoint, result=replace(
            checkpoint.result, waves=[replace(checkpoint.result.waves[0],
                                              vehicle_ids=None)])),
         "result.waves[0].vehicle_ids"),
        (lambda checkpoint: replace(checkpoint, result=None), "result"),
        (lambda checkpoint: replace(
            checkpoint, vehicle_states=[checkpoint.result]
            + checkpoint.vehicle_states[1:]), "vehicle_states[0]"),
        (lambda checkpoint: replace(checkpoint, result=replace(
            checkpoint.result, waves=checkpoint.vehicle_states[:1])),
         "result.waves[0]"),
        (lambda checkpoint: replace(
            checkpoint, vehicle_states=[replace(
                checkpoint.vehicle_states[0], snapshot=replace(
                    checkpoint.vehicle_states[0].snapshot, model="x"))]
            + checkpoint.vehicle_states[1:]),
         "vehicle_states[0].snapshot.model"),
    ], ids=["states-none", "waves-none", "vehicle-ids-none", "result-none",
            "result-as-state", "state-as-record", "snapshot-model-str"])
    def test_malformed_contents_raise_naming_the_field(self, tmp_path,
                                                       corrupt, field):
        """A checkpoint after the canary of a 12-vehicle, 3-variant fleet,
        one field then given the wrong type; each used to load and then
        fail the resume with a raw TypeError or AttributeError, or (the
        snapshot model) resume to a vehicle whose MCC model is a string."""
        _, campaign = build_campaign(12, seed=1)
        engine = CampaignEngine(campaign)
        engine.step()
        checkpoint = engine.checkpoint()
        engine.finalize()
        assert checkpoint.vehicle_states[0].snapshot is not None
        path = str(tmp_path / "malformed.ckpt")
        corrupt(checkpoint).save(path)
        with pytest.raises(CampaignError,
                           match=rf"malformed {re.escape(field)}$"):
            CampaignCheckpoint.load(path)

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
        assert loaded.next_wave == original.next_wave
        assert campaign_digest(loaded.result) == \
            campaign_digest(original.result)


class TestCampaignState:
    def test_default_state_is_inert(self):
        state = CampaignState()
        assert state.wave_index == 0
        assert state.carry == []
        assert state.result.fleet_size == 0
