"""Workload inputs, operations and verdict oracles of the benchmark.

Every workload is a closed loop over a stream of *units* -- a campaign, or a
service round -- whose inputs are all distinct.  A run takes the first units
of the stream, as many as its arguments set, so each percentile covers a
large sample of inputs and runs of different seeds draw from the same
distribution:

* ``clustered_rollout`` -- one client runs back-to-back campaigns that ADD
  E10's new component to variant-clustered fleets.  Most vehicles repeat
  another vehicle of their variant, so provisioning and rollout admission
  are mostly redundant work.
* ``diverged_rebudget`` -- one client runs back-to-back campaigns that
  UPDATE the planner with a +5% WCET budget on fleets where every vehicle is
  its own variant, so no two vehicles share an integration problem.
* ``tenant_mix`` -- one heavy and three light tenants, each a closed-loop
  client of one :class:`~repro.service.AdmissionService` with default slots
  that serves the whole run and keeps every finished job.  A unit is one
  *round*: the heavy tenant submits one large campaign and each light
  tenant one small campaign (resumed with ``max_failure_rate=1.0`` after a
  policy halt); the round ends when every job has.  The service runs
  without timers, so the rounds interleave the same way on every run.

Inputs are a pure function of the workload seed.  The program only sees the
generated ``FleetSpec``, ``ChangeRequest`` and ``SubmitCampaign`` values, and
every knob the benchmark does not name keeps its default.
"""

from __future__ import annotations

import asyncio
import gc
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from typing import (Callable, ContextManager, Dict, Hashable, List, Optional,
                    Sequence, Tuple)

# generate_fleet is looked up on its module at call time, so the traced run's
# wrapper sees every provisioning call.
import repro.fleet.vehicle as fleet_vehicle
from repro.analysis.cache import AnalysisCache
from repro.contracts.language import ContractParser, ContractSerializer
from repro.contracts.model import Contract
from repro.fleet.campaign import Campaign, CampaignResult, WavePolicy
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetSpec, FleetVehicle
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract
from repro.service import AdmissionService, ResumeRequest, SubmitCampaign
from repro.service.schemas import JobState

from perfbench import speed

UpdateFactory = Callable[[FleetVehicle], ChangeRequest]

#: The benchmark's clock: CPU time of this process.  The benchmark is one
#: single-threaded process whose loop never idles while it measures, so on a
#: dedicated core this equals wall time.  On a shared virtual machine the
#: wall clock also counts time the host hands to other machines (steal);
#: that moved whole runs by 10-20% and dominated every p90.  The CPU clock
#: still follows the host's speed, which :mod:`perfbench.speed` cancels.
CLOCK = time.process_time

WORKLOADS = ("clustered_rollout", "diverged_rebudget", "tenant_mix")

#: WCET growth of the diverged workload's planner re-budget.
REBUDGET = 1.05

#: Variants of a clustered_rollout fleet.
CLUSTERED_VARIANTS = 2

#: Light tenants of tenant_mix, each with one job per round.
LIGHT_TENANTS = 3


@dataclass(frozen=True)
class Scale:
    """Sizes of the generated inputs.

    ``setup_probes`` is how many fresh processes ``setup_s`` times and
    ``verified`` how many operations of a run the oracle re-derives.
    """

    clustered_size: int = 24
    diverged_size: int = 16
    extra_components: int = 10
    heavy_size: int = 48
    heavy_variants: int = 8
    light_size: int = 6
    setup_probes: int = 7
    verified: int = 12


FULL = Scale()
#: A few-second version of every workload, for the benchmark's own tests.
TINY = Scale(clustered_size=4, diverged_size=3, extra_components=2,
             heavy_size=6, heavy_variants=2, light_size=3, setup_probes=1,
             verified=4)


@dataclass
class Op:
    """One measured operation: a whole campaign, or one tenant's job."""

    key: Hashable
    role: str
    vehicles: int
    first_wave_s: Optional[float] = None
    completion_s: Optional[float] = None
    halts: int = 0
    digest: Optional[Tuple] = None
    error: Optional[str] = None


@dataclass
class Batch:
    """One unit of work -- a campaign, or a service round -- and its busy time.

    ``scale`` turns the unit's CPU times into CPU times at the reference
    speed (see :mod:`perfbench.speed`); it is set once the reference loop
    has been timed on both sides of the unit.
    """

    ops: List[Op]
    busy_s: float
    loop_lags_s: List[float] = field(default_factory=list)
    scale: float = 1.0


def _metered(gc_meter: Optional[ContextManager]) -> ContextManager:
    return nullcontext() if gc_meter is None else gc_meter


def _between_units() -> float:
    """Start the next unit from a fresh heap; return the reference loop's time.

    The earlier units' garbage is collected and what survives is frozen.
    Frozen objects are left out of every later collection until
    ``gc.unfreeze()``, so no unit pays for the garbage of the units before
    it or for a full collector pass over what they left alive -- in
    tenant_mix, every finished job the service keeps.  Then the reference
    loop is timed.  All of it runs between units, outside every operation's
    clock.
    """
    gc.collect()
    gc.freeze()
    return speed.loop_seconds()


def _bracketed(batches: List[Batch], loops: Sequence[float]) -> List[Batch]:
    """Set each unit's scale from the loop times just before and after it."""
    for batch, before, after in zip(batches, loops, loops[1:]):
        batch.scale = speed.scale(before, after)
    return batches


def _seed(*parts: object) -> int:
    """A fleet seed drawn from the workload seed and an input's position."""
    return random.Random(":".join(map(str, parts))).randrange(1 << 31)


def result_digest(result: CampaignResult) -> Tuple:
    """Canonical verdicts of a campaign: wave records, counts, halted wave."""
    return (result.fleet_size, result.admitted, result.rejected,
            result.deviating, result.refined, result.rolled_back,
            result.halted, result.halted_wave, result.completed,
            tuple(tuple(sorted(record.to_dict().items()))
                  for record in result.waves))


def fleet_flags(fleet: Sequence[FleetVehicle]) -> Tuple:
    """Per-vehicle rollout flags after a campaign."""
    return tuple((vehicle.vehicle_id, vehicle.updated, vehicle.deviating,
                  vehicle.rolled_back) for vehicle in fleet)


def add_component(utilization: float = 0.22,
                  component: str = "nav_assist") -> UpdateFactory:
    """E10's rollout: one new component, its contract scaled per variant."""
    contracts: Dict[int, Contract] = {}

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor,
                                             utilization=utilization,
                                             component=component)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def rebudget() -> UpdateFactory:
    """Monitoring-driven refinement: the planner's WCET grows by REBUDGET."""
    contracts: Dict[int, Contract] = {}
    parser, serializer = ContractParser(), ContractSerializer()

    def factory(vehicle: FleetVehicle) -> ChangeRequest:
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            document = serializer.to_dict(vehicle.mcc.model.contract("planner"))
            document["timing"]["wcet"] *= REBUDGET
            contract = parser.parse(document)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                             component="planner", contract=contract)

    return factory


class CampaignWorkload:
    """One client running back-to-back campaigns, each on a fresh fleet.

    Unit ``index`` is one campaign on the ``index``-th fleet generated from
    the seed.  An operation runs from the call into ``generate_fleet`` to the
    ``CampaignResult``; its first wave is the canary verdict.
    """

    #: Latency samples per unit.
    samples_per_unit = 1

    def __init__(self, name: str, seed: int, size: int, variants: int,
                 extra_components: int,
                 update: Callable[[], UpdateFactory]) -> None:
        self.name = name
        self.seed = seed
        self.size = size
        self.variants = variants
        self.extra_components = extra_components
        self.update = update

    def spec(self, index: int) -> FleetSpec:
        return FleetSpec(size=self.size, seed=_seed(self.name, self.seed, index),
                         num_variants=self.variants,
                         extra_components=self.extra_components)

    def inputs(self, units: int) -> List[FleetSpec]:
        return [self.spec(index) for index in range(units)]

    def warm_up(self) -> None:
        self._operation(FleetSpec(size=2, seed=self.seed, num_variants=2,
                                  extra_components=2))

    def units(self, count: int,
              gc_meter: Optional[ContextManager] = None) -> List[Batch]:
        """The first ``count`` campaigns, each from a fresh heap.

        ``gc_meter`` is entered around each campaign only.
        """
        batches, loops = [], []
        try:
            for index in range(count):
                loops.append(_between_units())
                with _metered(gc_meter):
                    op = self._operation(self.spec(index))
                batches.append(Batch([op], busy_s=op.completion_s))
            loops.append(_between_units())
        finally:
            gc.unfreeze()
        return _bracketed(batches, loops)

    def _operation(self, spec: FleetSpec) -> Op:
        clock = CLOCK
        op = Op(key=spec, role="campaign", vehicles=spec.size)
        start = clock()
        try:
            cache = AnalysisCache()
            fleet = fleet_vehicle.generate_fleet(spec, analysis_cache=cache)
            campaign = Campaign(fleet, self.update(), analysis_cache=cache,
                                feedback_seed=spec.seed)
            engine = CampaignEngine(campaign)
            while not engine.done:
                engine.step()
                if op.first_wave_s is None:
                    op.first_wave_s = clock() - start
            result = engine.finalize()
        except Exception as error:  # counted as a failed operation
            op.error = f"{type(error).__name__}: {error}"
            return op
        finally:
            op.completion_s = clock() - start
        op.halts = int(result.halted)
        op.digest = result_digest(result) + (fleet_flags(fleet),)
        return op

    def reference(self, spec: FleetSpec) -> Tuple:
        """The oracle: sequential per-vehicle admission, no shared cache."""
        fleet = fleet_vehicle.generate_fleet(spec)
        campaign = Campaign(fleet, self.update(), batch_admission=False,
                            feedback_seed=spec.seed)
        return result_digest(campaign.run()) + (fleet_flags(fleet),)


class TenantMixWorkload:
    """Closed-loop heavy and light tenants of one long-lived admission service.

    Unit ``index`` is one round: the heavy tenant and then each light tenant
    submit one job, and every client follows its job to the end (resuming a
    policy halt) before the next round starts.  One service serves every
    round of a run and keeps every finished job, so memory and collector
    work grow with the rounds, as in a service that never forgets a job.
    An operation is one job, from ``submit`` to its final ``WaveProgress``;
    its first wave is the first streamed progress.
    """

    name = "tenant_mix"
    #: Latency samples per unit: the light tenants' jobs.
    samples_per_unit = LIGHT_TENANTS

    def __init__(self, seed: int, scale: Scale) -> None:
        self.seed = seed
        self.scale = scale

    def requests(self, index: int) -> List[SubmitCampaign]:
        """The round's submissions, heavy tenant first."""
        heavy = SubmitCampaign(tenant="heavy", fleet_size=self.scale.heavy_size,
                               num_variants=self.scale.heavy_variants,
                               seed=_seed(self.name, self.seed, index, "heavy"))
        return [heavy] + [
            SubmitCampaign(tenant=f"light-{tenant}",
                           fleet_size=self.scale.light_size,
                           seed=_seed(self.name, self.seed, index, tenant),
                           failure_injection_rate=0.1)
            for tenant in range(LIGHT_TENANTS)]

    def inputs(self, units: int) -> List[List[SubmitCampaign]]:
        return [self.requests(index) for index in range(units)]

    def warm_up(self) -> None:
        warm = SubmitCampaign(tenant="warm-up", fleet_size=2, seed=self.seed)
        asyncio.run(_serve([[warm]], None, ticker=False))

    def units(self, count: int, gc_meter: Optional[ContextManager] = None,
              ticker: bool = False) -> List[Batch]:
        """The first ``count`` rounds, on one service, each from a fresh heap.

        ``gc_meter`` is entered around each round only; ``ticker`` samples
        the event loop's lag during the rounds.
        """
        return asyncio.run(_serve(self.inputs(count), gc_meter, ticker))

    def reference(self, request: SubmitCampaign) -> Tuple:
        """The oracle: an isolated ``Campaign.run()`` of the submission,
        resumed from its halt checkpoint the way the client resumes it."""
        cache = AnalysisCache()
        spec = FleetSpec(size=request.fleet_size, seed=request.seed,
                         heterogeneity=request.heterogeneity,
                         num_variants=request.num_variants,
                         extra_components=request.extra_components)
        fleet = fleet_vehicle.generate_fleet(spec, analysis_cache=cache)
        factory = add_component(request.update_utilization, request.component)
        policy = WavePolicy(canary_size=request.canary_size,
                            wave_fractions=request.wave_fractions,
                            max_failure_rate=request.max_failure_rate,
                            rollback_on_halt=request.rollback_on_halt)

        def campaign(policy: WavePolicy) -> Campaign:
            return Campaign(fleet, factory, policy=policy, analysis_cache=cache,
                            failure_injection_rate=request.failure_injection_rate,
                            feedback_seed=request.seed)

        first = campaign(policy)
        result = first.run()
        if result.halted:
            result = campaign(replace(policy, max_failure_rate=1.0)).run(
                resume_from=first.last_checkpoint)
        return result_digest(result)


async def _serve(rounds: Sequence[Sequence[SubmitCampaign]],
                 gc_meter: Optional[ContextManager], ticker: bool) -> List[Batch]:
    """Every round, in order, on one service that keeps every finished job."""
    batches, loops = [], []
    try:
        async with AdmissionService() as service:
            for requests in rounds:
                loops.append(_between_units())
                with _metered(gc_meter):
                    batches.append(await _round(service, requests, ticker))
            loops.append(_between_units())
    finally:
        gc.unfreeze()
    return _bracketed(batches, loops)


async def _round(service: AdmissionService,
                 requests: Sequence[SubmitCampaign], ticker: bool) -> Batch:
    """One round: every client submits and follows its job to the end."""
    lags: List[float] = []
    stop = asyncio.Event()
    start = CLOCK()
    lag_task = asyncio.create_task(_ticker(stop, lags)) if ticker else None
    jobs = await asyncio.gather(*(
        _drive(service, request,
               "heavy" if request.tenant == "heavy" else "light")
        for request in requests))
    stop.set()
    if lag_task is not None:
        await lag_task
    busy = CLOCK() - start
    for op, job_id in jobs:
        if op.error is None:
            op.digest = result_digest(service.result(job_id))
    return Batch([op for op, _ in jobs], busy_s=busy, loop_lags_s=lags)


async def _drive(service: AdmissionService, request: SubmitCampaign,
                 role: str) -> Tuple[Op, str]:
    """Submit one job and follow it to its end, resuming every policy halt."""
    clock = CLOCK
    op = Op(key=request, role=role, vehicles=request.fleet_size)
    start = clock()
    receipt = await service.submit(request)
    while True:
        async for _ in service.stream(receipt.job_id):
            if op.first_wave_s is None:
                op.first_wave_s = clock() - start
        status = service.status(receipt.job_id)
        if status.state != JobState.HALTED:
            break
        op.halts += 1
        await service.resume(ResumeRequest(job_id=receipt.job_id,
                                           max_failure_rate=1.0))
    op.completion_s = clock() - start
    if status.state != JobState.COMPLETED:
        op.error = f"job {receipt.job_id} ended {status.state}: {status.error}"
    return op, receipt.job_id


async def _ticker(stop: asyncio.Event, lags: List[float],
                  period: float = 0.005) -> None:
    """Event-loop lag: how late a timer on the service's loop fires."""
    loop = asyncio.get_running_loop()
    while not stop.is_set():
        due = loop.time() + period
        await asyncio.sleep(period)
        lags.append(loop.time() - due)


def verify(workload, ops: Sequence[Op], seed: int, count: int) -> List[str]:
    """Failed operations: every error, plus oracle mismatches in a sample.

    The sample is ``count`` operations chosen by the seed among the run's
    first 100, which every run reaches in the same order; each is re-derived
    through the workload's oracle outside the timed region.
    """
    failures = [op.error for op in ops if op.error is not None]
    prefix = ops[:100]
    chosen = random.Random(f"verify:{workload.name}:{seed}").sample(
        range(len(prefix)), min(count, len(prefix)))
    for op in (prefix[position] for position in sorted(chosen)):
        if op.error is not None:
            continue
        try:
            expected = workload.reference(op.key)
        except Exception as error:  # the oracle itself failed
            expected = f"{type(error).__name__}: {error}"
        if op.digest != expected:
            failures.append(f"{workload.name}: {op.role} verdicts differ from "
                            f"the oracle for {op.key!r}")
    return failures


def build(name: str, seed: int, scale: Scale = FULL):
    """The workload ``name``, its inputs generated from ``seed``."""
    if name == "clustered_rollout":
        return CampaignWorkload(name, seed, scale.clustered_size,
                                CLUSTERED_VARIANTS, scale.extra_components,
                                add_component)
    if name == "diverged_rebudget":
        return CampaignWorkload(name, seed, scale.diverged_size,
                                scale.diverged_size, scale.extra_components,
                                rebudget)
    if name == "tenant_mix":
        return TenantMixWorkload(seed, scale)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
