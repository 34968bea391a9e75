"""Machine-independent work counts of the benchmark's three workload shapes.

Wall time needs long runs on a quiet machine; the work a campaign does does
not.  This test runs one tiny fixed input of each ``perfbench`` workload
shape on the default paths:

* ``clustered_add`` -- an ADD rollout on a fleet of two variants;
* ``diverged_rebudget`` -- a planner re-budget on a fleet where every
  vehicle is its own variant (one of them rejects a baseline app, so its
  baseline run splits there);
* ``service_round`` -- one admission-service round: a clean job, and a job
  that halts at its canary and is resumed.

Test-side wrappers count, over each run: ``request_change``,
``replay_change`` and ``MappingEngine.map`` calls; placement decisions
(``MappingEngine._choose_processor`` calls, a redundancy group's fallback
to a shared processor included); ``request_changes`` calls that admitted
their requests whole, as one run (``whole_runs``), and those that sent at
least one request through ``request_change`` (``split_runs``: a rejected
request splits the run there, and a run the tests cannot vouch for sends
every request);
acceptance runs per viewpoint; configurations synthesized
(``IntegrationProcess.synthesize_configuration``, one per adoption that
derives its own state, none for a replay); analysis-cache hits, misses and
``analyse_many`` lanes; busy windows (the task fixpoints the analyses
compute, one per task of every analysed task set); deviations raised
(observations that ``ExpectedBehaviour.violated_by`` flags);
``ExpectedBehaviour`` objects constructed; vehicles provisioned; platform models built (``Platform``
constructions) and default acceptance batteries built
(``TimingAcceptanceTest`` constructions, one per battery); integration
reports built (``IntegrationReport`` constructions: one per integrated
request, none for a replay, which shares its precedent's report);
vehicle states captured and restored (every resume rewinds its fleet);
the JSON document bytes of every checkpoint taken; and service resumes.
Every count must equal ``tests/work_counts.json``.  A change that moves a
count regenerates that file in the same commit and explains each move::

    PYTHONPATH=src python tests/test_work_counts.py
"""

from __future__ import annotations

import asyncio
import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator

from repro.analysis import cpa
from repro.analysis.cache import AnalysisCache
from repro.contracts.language import ContractParser, ContractSerializer
from repro.fleet.campaign import Campaign
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import (FleetProvisioner, FleetSpec, FleetVehicle,
                                 generate_fleet)
from repro.mcc import acceptance
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport
from repro.mcc.controller import MultiChangeController
from repro.mcc.integration import IntegrationProcess
from repro.mcc.mapping import MappingEngine
from repro.monitoring.deviation import ExpectedBehaviour
from repro.platform.resources import Platform
from repro.scenarios.fleet_campaign import build_update_contract
from repro.service import (AdmissionService, JobState, ResumeRequest,
                           SubmitCampaign)

GOLDEN = Path(__file__).with_name("work_counts.json")

#: Every count, recorded even when it is zero.
KEYS = ("request_change", "replay_change", "map", "placements", "whole_runs",
        "split_runs", "acceptance.timing", "acceptance.safety",
        "acceptance.security", "acceptance.resources", "cache.hits",
        "cache.misses", "cache.analyse_many_lanes", "busy_windows",
        "deviations", "expectations",
        "vehicles_provisioned", "capture_state", "restore_state",
        "checkpoint_bytes", "service.resumes", "synthesize", "platforms",
        "batteries", "reports")

VIEWPOINT_TESTS = (acceptance.TimingAcceptanceTest,
                   acceptance.SafetyAcceptanceTest,
                   acceptance.SecurityAcceptanceTest,
                   acceptance.ResourceAcceptanceTest)


@contextmanager
def counting() -> Iterator[Counter]:
    """Count the work done inside the block (see the module docstring).

    The cache counters are summed over every cache created inside the
    block when it ends.
    """
    counts: Counter = Counter(dict.fromkeys(KEYS, 0))
    caches = []
    patches = []

    def patch(owner, name, make):
        original = owner.__dict__[name]
        patches.append((owner, name, original))
        setattr(owner, name, make(original))

    def counted(key):
        def make(original):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            return wrapper
        return make

    def registered(instances):
        def make(original):
            def wrapper(self, *args, **kwargs):
                original(self, *args, **kwargs)
                instances.append(self)
            return wrapper
        return make

    def request_changes(original):
        def wrapper(self, requests):
            before = counts["request_change"]
            reports = original(self, requests)
            split = counts["request_change"] > before
            counts["split_runs" if split else "whole_runs"] += 1
            return reports
        return wrapper

    def analyse_many(original):
        def wrapper(self, tasksets, *args, **kwargs):
            tasksets = list(tasksets)
            counts["cache.analyse_many_lanes"] += len(tasksets)
            return original(self, tasksets, *args, **kwargs)
        return wrapper

    def checkpoint(original):
        def wrapper(engine):
            taken = original(engine)
            counts["checkpoint_bytes"] += len(taken.to_bytes())
            return taken
        return wrapper

    def violated_by(original):
        def wrapper(*args, **kwargs):
            violated = original(*args, **kwargs)
            counts["deviations"] += violated
            return violated
        return wrapper

    patch(MultiChangeController, "request_change", counted("request_change"))
    patch(MultiChangeController, "replay_change", counted("replay_change"))
    patch(MultiChangeController, "request_changes", request_changes)
    patch(MappingEngine, "map", counted("map"))
    patch(MappingEngine, "_choose_processor", counted("placements"))
    patch(IntegrationProcess, "synthesize_configuration", counted("synthesize"))
    for test in VIEWPOINT_TESTS:
        patch(test, "run", counted(f"acceptance.{test.viewpoint}"))
    patch(AnalysisCache, "__init__", registered(caches))
    patch(AnalysisCache, "analyse_many", analyse_many)
    patch(cpa, "_busy_window", counted("busy_windows"))
    patch(ExpectedBehaviour, "violated_by", violated_by)
    patch(ExpectedBehaviour, "__init__", counted("expectations"))
    patch(FleetProvisioner, "provision", counted("vehicles_provisioned"))
    patch(Platform, "__init__", counted("platforms"))
    patch(acceptance.TimingAcceptanceTest, "__init__", counted("batteries"))
    patch(IntegrationReport, "__init__", counted("reports"))
    patch(FleetVehicle, "capture_state", counted("capture_state"))
    patch(FleetVehicle, "restore_state", counted("restore_state"))
    patch(CampaignEngine, "checkpoint", checkpoint)
    patch(AdmissionService, "resume", counted("service.resumes"))
    try:
        yield counts
    finally:
        while patches:
            owner, name, original = patches.pop()
            setattr(owner, name, original)
    counts["cache.hits"] = sum(cache.hits for cache in caches)
    counts["cache.misses"] = sum(cache.misses for cache in caches)


# -- the three shapes ----------------------------------------------------------


def per_variant(kind, build):
    """An update factory building one contract per variant, as perfbench's
    factories do, so same-variant vehicles replay each other's verdict."""
    contracts = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = contracts[vehicle.variant.index] = build(vehicle)
        return ChangeRequest(kind=kind, component=contract.component,
                             contract=contract)

    return factory


def rebudget(vehicle):
    document = ContractSerializer().to_dict(vehicle.mcc.model.contract("planner"))
    document["timing"]["wcet"] *= 1.05
    return ContractParser().parse(document)


def campaign(spec, update):
    cache = AnalysisCache()
    fleet = generate_fleet(spec, analysis_cache=cache)
    result = Campaign(fleet, update, analysis_cache=cache,
                      feedback_seed=spec.seed).run()
    assert result.completed and result.admitted == spec.size


def clustered_add():
    campaign(FleetSpec(size=8, seed=4, num_variants=2, extra_components=10),
             per_variant(ChangeKind.ADD_COMPONENT,
                         lambda vehicle: build_update_contract(
                             vehicle.wcet_factor)))


def diverged_rebudget():
    # Variant 0 of this seed rejects a baseline app, so both provisioning
    # paths run.
    campaign(FleetSpec(size=4, seed=12, num_variants=4, extra_components=10),
             per_variant(ChangeKind.UPDATE_COMPONENT, rebudget))


def service_round():
    async def drive(service, request):
        receipt = await service.submit(request)
        while True:
            async for _ in service.stream(receipt.job_id):
                pass
            state = service.status(receipt.job_id).state
            if state != JobState.HALTED:
                assert state == JobState.COMPLETED, state
                return
            await service.resume(ResumeRequest(job_id=receipt.job_id,
                                               max_failure_rate=1.0))

    async def serve():
        async with AdmissionService() as service:
            await asyncio.gather(
                drive(service, SubmitCampaign(tenant="heavy", fleet_size=8,
                                              seed=5, num_variants=2,
                                              extra_components=10)),
                drive(service, SubmitCampaign(tenant="light", fleet_size=4,
                                              seed=6,
                                              failure_injection_rate=1.0)))

    asyncio.run(serve())


SHAPES = {"clustered_add": clustered_add,
          "diverged_rebudget": diverged_rebudget,
          "service_round": service_round}


def measure() -> Dict[str, Dict[str, int]]:
    measured = {}
    for name, shape in SHAPES.items():
        with counting() as counts:
            shape()
        measured[name] = dict(sorted(counts.items()))
    return measured


def test_work_counts_match_the_golden_file():
    assert measure() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(measure(), indent=2) + "\n")
    print(f"wrote {GOLDEN}")
