"""Simulated fleet vehicles: perturbed platform models around one baseline.

A production fleet is not a million copies of the reference vehicle: vehicles
cluster into *variants* (hardware generations, trim levels, regional builds)
that differ in processor count and capacity, CAN topology, measured WCETs and
the set of baseline components.  :func:`generate_fleet` instantiates such a
fleet deterministically from a single seed.  Every vehicle carries its own
:class:`~repro.mcc.controller.MultiChangeController`, exactly as the paper's
in-field update process runs per vehicle.  The MCC admits a change by
analysing a *model* of the platform, and every vehicle of a variant has the
same model, so the vehicles of a variant share one
:class:`~repro.platform.resources.Platform` model and one acceptance
battery; only a vehicle that deploys (``FleetSpec.deploy``) has a platform
of its own, which its runtime environment writes tasks and memory into.

The variant structure is what makes fleet-scale admission batchable: vehicles
of the same variant produce identical candidate task sets for the same
update, so a shared :class:`~repro.analysis.cache.AnalysisCache` answers one
variant's admission analysis once per wave; a miss, the first analysis of a
task set, runs cold.

It also makes provisioning cheap, and lets it wait until a vehicle is
needed.  A generated vehicle starts with its id, index and variant only;
its platform and MCC are built the first time anything reads either of
them.  Every vehicle of a variant reaches the identical MCC state after its
baseline integrations, so the first touched vehicle of a variant builds the
variant's contracts from its drawn numbers and admits them in one
:meth:`~repro.mcc.controller.MultiChangeController.request_changes` call
(one acceptance run on the whole baseline when every test vouches for it
and it passes; an app the build rejects splits the run, and only that app
is integrated on its own, with the same reports either way), and
every later vehicle of that variant is *stamped*: it gets its own MCC over
the variant's platform and battery, then adopts the first vehicle's
:class:`~repro.mcc.controller.MccSnapshot` through
:meth:`~repro.mcc.controller.MultiChangeController.rollback`.  Stamped
siblings share the adopted :class:`~repro.mcc.configuration.SystemModel`,
:class:`~repro.platform.rte.RteConfiguration` and baseline
:class:`~repro.mcc.configuration.IntegrationReport` objects: the model and
configuration are frozen, no report changes once a history holds it, and
adoption swaps references, so a change on one vehicle never reaches its
siblings.  A batched campaign shares the same way: a replayed vehicle
adopts its group's model and configuration and appends its group's report
(see
:meth:`~repro.mcc.controller.MultiChangeController.replay_change`).  Each
MCC derives its expectations from the model it adopted, so none are
shared.
A staged campaign touches a vehicle when its wave is staged, so a canary
verdict waits only for the canary's variants, and a halted campaign never
provisions the waves it did not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.model import (AsilLevel, Contract, RealTimeRequirement,
                                   SafetyRequirement, SecurityLevel,
                                   SecurityRequirement, ServiceProvision,
                                   ServiceRequirement)
from repro.mcc.acceptance import AcceptanceTest, default_acceptance_tests
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport
from repro.mcc.controller import MccSnapshot, MultiChangeController
from repro.mcc.mapping import (MappingEngine, MappingError, MappingState,
                               MappingStrategy)
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RuntimeEnvironment
from repro.sim.random import SeededRNG, child_seed


@dataclass(frozen=True)
class FleetSpec:
    """Shape of a simulated fleet.

    ``heterogeneity`` is the relative spread of the per-variant perturbations
    (WCET scale, processor capacity); ``num_variants`` bounds how many
    distinct hardware/software builds the fleet contains — vehicle ``i``
    instantiates variant ``i % num_variants``.
    """

    size: int = 50
    seed: int = 0
    heterogeneity: float = 0.15
    num_variants: int = 8
    extra_components: int = 10
    min_processors: int = 2
    max_processors: int = 3
    base_capacity: float = 0.85
    deploy: bool = False
    mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError("fleet size must be non-negative")
        if not 0.0 <= self.heterogeneity < 1.0:
            raise ValueError("heterogeneity must be in [0, 1)")
        if self.num_variants <= 0:
            raise ValueError("num_variants must be positive")
        if self.extra_components < 0:
            raise ValueError("extra_components must be non-negative")
        if not 1 <= self.min_processors <= self.max_processors:
            raise ValueError("need 1 <= min_processors <= max_processors")


@dataclass(frozen=True)
class VehicleVariant:
    """One hardware/software build shared by a slice of the fleet."""

    index: int
    wcet_factor: float
    num_processors: int
    capacity: float
    can_bandwidth_bps: float
    has_telematics: bool


@dataclass(frozen=True)
class VehicleState:
    """Rollout state of one fleet vehicle.

    Bundles the vehicle's adopted MCC snapshot (model and deployed
    configuration, see
    :meth:`~repro.mcc.controller.MultiChangeController.snapshot`) with the
    campaign's rollout flags.

    ``snapshot`` is ``None`` when the vehicle is *at baseline*: never
    touched, or adopting its baseline model.  ``VehicleState(vehicle_id)``
    is therefore the state at baseline with clean flags, the state every
    campaign replay starts from.  Restoring it leaves an untouched vehicle
    untouched and rolls a touched one back to its own baseline objects, so
    a resumed campaign's vehicles share baseline identities with the
    vehicles it provisions later, exactly as an uninterrupted run's do.
    """

    vehicle_id: str
    snapshot: Optional[MccSnapshot] = None
    updated: bool = False
    deviating: bool = False
    rolled_back: bool = False


class FleetVehicle:
    """One simulated vehicle: its own MCC over a platform model.

    Construct it either with its ``mcc``, or with the ``provisioner`` of a
    generated fleet, which builds the MCC the first time anything reads it
    (see :func:`generate_fleet`).  Its *baseline*, the MCC state
    :meth:`restore_state` rewinds to, is the state of the ``mcc`` it was
    built with, or else its variant's baseline.
    """

    def __init__(self, index: int, variant: VehicleVariant,
                 mcc: Optional[MultiChangeController] = None, *,
                 provisioner: Optional["FleetProvisioner"] = None) -> None:
        if (mcc is None) == (provisioner is None):
            raise ValueError("pass exactly one of mcc and provisioner")
        self.index = index
        self.vehicle_id = f"veh{index:04d}"
        self.variant = variant
        #: Rollout bookkeeping maintained by the campaign engine.
        self.updated = False
        self.deviating = False
        self.rolled_back = False
        self._provisioner = provisioner
        self._mcc = mcc
        self._baseline = mcc.snapshot() if mcc is not None else None

    @property
    def platform(self) -> Platform:
        """The platform model this vehicle's MCC integrates against,
        provisioned on first read: its variant's, or under ``spec.deploy``
        its own."""
        return self.mcc.platform

    @property
    def mcc(self) -> MultiChangeController:
        """This vehicle's MCC, provisioned on first read."""
        mcc = self._mcc
        if mcc is None:
            self.provision()
            mcc = self._mcc
        return mcc

    @property
    def provisioned(self) -> bool:
        """Whether this vehicle's MCC exists yet."""
        return self._mcc is not None

    def provision(self) -> None:
        """Build this vehicle's MCC now, unless it exists.

        Raises the fleet's :class:`RuntimeError` when this vehicle is the
        first touched vehicle of its variant and rejects a core component
        of the variant's baseline; the vehicle then stays unprovisioned.
        """
        if self._mcc is None:
            self._mcc = self._provisioner.provision(self)
            self._baseline = self._provisioner.baseline(self.variant)

    @property
    def wcet_factor(self) -> float:
        return self.variant.wcet_factor

    @property
    def at_baseline(self) -> bool:
        """Whether this vehicle holds its baseline model with clean rollout
        flags: ``capture_state() == VehicleState(vehicle_id)``, without
        building either state."""
        return not (self.updated or self.deviating or self.rolled_back) \
            and (self._mcc is None or self._mcc.model is self._baseline.model)

    def capture_state(self) -> VehicleState:
        """This vehicle's current :class:`VehicleState`."""
        snapshot = None
        if self.provisioned and self._mcc.model is not self._baseline.model:
            snapshot = self._mcc.snapshot()
        return VehicleState(vehicle_id=self.vehicle_id,
                            snapshot=snapshot,
                            updated=self.updated,
                            deviating=self.deviating,
                            rolled_back=self.rolled_back)

    def restore_state(self, state: VehicleState) -> None:
        """Roll this vehicle back to a captured :class:`VehicleState`."""
        if state.vehicle_id != self.vehicle_id:
            raise ValueError(f"state of {state.vehicle_id!r} cannot restore "
                             f"{self.vehicle_id!r}")
        if state.snapshot is not None:
            self.mcc.rollback(state.snapshot)
        elif self.provisioned:
            self._mcc.rollback(self._baseline)
        self.updated = state.updated
        self.deviating = state.deviating
        self.rolled_back = state.rolled_back

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        version = self.mcc.version if self.provisioned else "unprovisioned"
        return (f"FleetVehicle({self.vehicle_id}, variant={self.variant.index}, "
                f"version={version})")


class _Component(NamedTuple):
    """A baseline component of a variant, before its WCET is scaled to the
    variant's build."""

    name: str
    period: float
    wcet: float
    asil: AsilLevel
    requires: Tuple[str, ...] = ()
    provides: Tuple[str, ...] = ()

    def contract(self, wcet_factor: float) -> Contract:
        """This component's contract on a build that scales WCETs by
        ``wcet_factor``: an implicit-deadline timing requirement, its ASIL,
        the ``MEDIUM`` security level and its services."""
        return Contract(
            component=self.name,
            requirements=[
                RealTimeRequirement(period=self.period,
                                    wcet=self.scaled_wcet(wcet_factor)),
                SafetyRequirement(asil=self.asil),
                SecurityRequirement(level=SecurityLevel.MEDIUM)],
            requires=[ServiceRequirement(service) for service in self.requires],
            provides=[ServiceProvision(service) for service in self.provides])

    def scaled_wcet(self, wcet_factor: float) -> float:
        """The WCET on a build that scales WCETs by ``wcet_factor``."""
        # A variant never ships a baseline that is unschedulable by
        # construction, so the scaled WCET stays below the implicit deadline.
        return min(self.wcet * wcet_factor, 0.9 * self.period)


_CORE_STACK: Tuple[_Component, ...] = (
    _Component("perception", 0.05, 0.010, AsilLevel.B,
               provides=("object_list",)),
    _Component("planner", 0.1, 0.020, AsilLevel.B,
               requires=("object_list",), provides=("trajectory",)),
    _Component("actuation", 0.01, 0.002, AsilLevel.B,
               requires=("trajectory",), provides=("actuator_commands",)),
)

#: Components every vehicle must ship; rejecting one of these at fleet
#: generation time is a bug, rejecting an optional app is a variant trait.
_CORE_COMPONENTS = frozenset(component.name for component in _CORE_STACK)

_TELEMATICS = _Component("telematics", 0.2, 0.012, AsilLevel.A,
                         provides=("telemetry",))

#: The ASILs an installed app is drawn from.
_APP_ASILS = (AsilLevel.QM, AsilLevel.A, AsilLevel.B)


def variant_contracts(variant: VehicleVariant, spec: FleetSpec) -> List[Contract]:
    """The baseline contract set of one variant (WCETs scaled to its build).

    Besides the core perception/planner/actuation stack (plus telematics on
    the variants that ship it), every variant carries
    ``spec.extra_components`` installed applications with variant-specific
    periods and budgets — production ECUs host tens of components, and that
    installed base is what makes fleet admission analysis-heavy.  The
    contracts are built from the drawn numbers directly, without a contract
    document.
    """
    components = list(_CORE_STACK)
    if variant.has_telematics:
        components.append(_TELEMATICS)
    rng = SeededRNG(child_seed(spec.seed, 2_000 + variant.index))
    extras: List[_Component] = []
    for index in range(spec.extra_components):
        # Continuous (non-harmonic) periods: realistic mixed workloads whose
        # busy windows genuinely iterate, unlike neat harmonic period sets.
        period = rng.uniform(0.02, 0.2)
        wcet = period * rng.uniform(0.05, 0.11)
        extras.append(_Component(f"app{index:02d}", period, wcet,
                                 rng.choice(_APP_ASILS),
                                 provides=(f"service_app{index:02d}",)))
    # Budget the installed base so every variant's baseline is admissible by
    # construction and headroom for one more update remains: the extras'
    # utilization is scaled into what the platform can host beyond the core
    # stack.
    factor = variant.wcet_factor
    budget = 0.8 * variant.num_processors * variant.capacity
    core_util = sum(component.wcet * factor / component.period
                    for component in components)
    extra_util = sum(component.wcet * factor / component.period
                     for component in extras)
    headroom = max(0.0, budget - core_util)
    if extra_util > headroom and extra_util > 0.0:
        shrink = headroom / extra_util
        extras = [component._replace(wcet=component.wcet * shrink)
                  for component in extras]
        # When the core stack leaves no headroom, the extras shrink to a
        # zero budget: such a build does not install them.
        extras = [component for component in extras if component.wcet > 0.0]
    return [component.contract(factor) for component in components + extras]


def generate_variants(spec: FleetSpec) -> List[VehicleVariant]:
    """The deterministic variant catalog of a fleet spec."""
    variants: List[VehicleVariant] = []
    for index in range(min(spec.num_variants, max(spec.size, 1))):
        rng = SeededRNG(child_seed(spec.seed, 1_000 + index))
        spread = spec.heterogeneity
        factor = 1.0 + spread * (2.0 * rng.uniform() - 1.0)
        capacity = min(1.0, max(0.05,
                                spec.base_capacity * (1.0 + 0.5 * spread
                                                      * (2.0 * rng.uniform() - 1.0))))
        variants.append(VehicleVariant(
            index=index,
            wcet_factor=factor,
            num_processors=rng.integer(spec.min_processors, spec.max_processors),
            capacity=capacity,
            can_bandwidth_bps=rng.choice([250_000.0, 500_000.0, 1_000_000.0]),
            has_telematics=rng.bernoulli(0.5)))
    return variants


def build_vehicle_platform(variant: VehicleVariant, name: str) -> Platform:
    """A fresh platform model of the given variant."""
    platform = Platform(name=name)
    for index in range(variant.num_processors):
        platform.add_processor(ProcessingResource(f"cpu{index}",
                                                  capacity=variant.capacity))
    platform.add_network(NetworkResource("can0",
                                         bandwidth_bps=variant.can_bandwidth_bps))
    if variant.can_bandwidth_bps >= 1_000_000.0:
        # High-end builds carry a second bus for telematics/diagnostics.
        platform.add_network(NetworkResource("can1", bandwidth_bps=500_000.0))
    return platform


class FleetProvisioner:
    """Builds a generated fleet's vehicles the first time each is touched.

    One per :func:`generate_fleet` call.  It holds what provisioning reads
    -- the spec, each variant's platform model, the shared analysis cache
    and the ``extra_acceptance_tests`` factory -- plus, per touched
    variant, the acceptance battery every vehicle of the variant
    integrates with and the baseline its first touched vehicle admitted,
    which every later vehicle of the variant adopts.
    """

    def __init__(self, spec: FleetSpec, platforms: List[Platform],
                 analysis_cache: Optional[AnalysisCache] = None,
                 extra_acceptance_tests: Optional[
                     Callable[[VehicleVariant, Platform],
                              List[AcceptanceTest]]] = None) -> None:
        self.spec = spec
        #: Variant index -> the variant's platform model.
        self.platforms = platforms
        self.analysis_cache = analysis_cache
        self.extra_acceptance_tests = extra_acceptance_tests
        #: Variant index -> the variant's acceptance battery.
        self._batteries: Dict[int, List[AcceptanceTest]] = {}
        #: Variant index -> (adopted baseline, baseline reports) of the
        #: variant's first touched vehicle.
        self._baselines: Dict[int, Tuple[MccSnapshot,
                                         List[IntegrationReport]]] = {}

    def baseline(self, variant: VehicleVariant) -> MccSnapshot:
        """The adopted baseline of ``variant`` (provisioned already)."""
        return self._baselines[variant.index][0]

    def provision(self, vehicle: FleetVehicle) -> MultiChangeController:
        """``vehicle``'s own MCC over its variant's platform model and
        acceptance battery, its baseline deployed.  Under ``spec.deploy``
        the MCC gets a platform of its own instead, shared only with its
        RTE, which writes the deployed tasks and memory into it."""
        spec, variant = self.spec, vehicle.variant
        platform = self.platforms[variant.index]
        battery = self._batteries.get(variant.index)
        if battery is None:
            battery = default_acceptance_tests(cache=self.analysis_cache)
            if self.extra_acceptance_tests is not None:
                battery += self.extra_acceptance_tests(variant, platform)
            self._batteries[variant.index] = battery
        if spec.deploy:
            platform = build_vehicle_platform(variant, vehicle.vehicle_id)
        rte = RuntimeEnvironment(platform) if spec.deploy else None
        mcc = MultiChangeController(platform, rte=rte,
                                    acceptance_tests=battery,
                                    mapping_strategy=spec.mapping_strategy)
        baseline = self._baselines.get(variant.index)
        if baseline is None:
            requests = [ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                      component=contract.component,
                                      contract=contract)
                        for contract in variant_contracts(variant, spec)]
            for request, report in zip(requests, mcc.request_changes(requests)):
                # An optional app that does not fit this build simply is
                # not installed on it — variants legitimately differ in
                # their installed base; every core component must fit.
                if not report.accepted and request.component in _CORE_COMPONENTS:
                    raise RuntimeError(f"vehicle {vehicle.index} rejected its "
                                       f"baseline: {report.summary()}")
            self._baselines[variant.index] = (mcc.snapshot(), list(mcc.reports))
        else:
            snapshot, reports = baseline
            mcc.rollback(snapshot)
            mcc.reports = list(reports)
        return mcc


def _variant_platform(variant: VehicleVariant, spec: FleetSpec) -> Platform:
    """The platform model every vehicle of ``variant`` integrates against.

    Raises provisioning's core :class:`RuntimeError` if it cannot host the
    variant's core stack.  Integration maps the core contracts first, one
    at a time, each keeping the placements before it, so carrying one
    mapping state through them, placing one contract at a time, decides
    every mapping rejection of a core component -- the only kind of core
    rejection seen in sweeps over the generated fleet shapes.  Rejections
    that only the acceptance tests can decide still raise when the
    variant's first vehicle is touched.
    """
    platform = build_vehicle_platform(variant, f"variant{variant.index}-platform")
    factor = variant.wcet_factor
    # Every processor of the variant has the same capacity and the core
    # contracts form no redundancy group, so a core stack that fits on one
    # processor fits whatever the strategy places first: no contract can
    # then find less room than the stack minus itself leaves.  The margin
    # dwarfs the rounding of the engine's own utilization sums.
    if sum(component.scaled_wcet(factor) / component.period
           for component in _CORE_STACK) <= variant.capacity - 1e-9:
        return platform
    state = MappingState(MappingEngine(platform,
                                       strategy=spec.mapping_strategy))
    for position, component in enumerate(_CORE_STACK):
        try:
            state.place(component.contract(factor), position)
        except MappingError as error:
            raise RuntimeError(f"vehicle {variant.index} rejected its "
                               f"baseline: {error}") from None
    return platform


def generate_fleet(spec: FleetSpec,
                   analysis_cache: Optional[AnalysisCache] = None,
                   extra_acceptance_tests: Optional[
                       Callable[[VehicleVariant, Platform],
                                List[AcceptanceTest]]] = None
                   ) -> List[FleetVehicle]:
    """Instantiate a fleet whose vehicles provision on first touch.

    Every returned vehicle has its id, index and variant at once.  Its MCC
    is built the first time anything reads it or the vehicle's platform
    (a campaign wave staging it, an update factory, or
    :meth:`FleetVehicle.provision`).  The first touched vehicle of each
    variant builds the variant's baseline contracts (see
    :func:`variant_contracts`) and admits them, as one ADD request each,
    through :meth:`MultiChangeController.request_changes`: the contracts
    are validated and mapped one prefix at a time, and the acceptance
    battery runs once, on the whole baseline, unless a test cannot vouch
    for it, in which case every contract is integrated in turn.  When the
    baseline fails, a bisection finds the longest passing prefix, the app
    after it is integrated on its own, and the apps after that are admitted
    as a new run.  Either way the vehicle records one report per contract,
    exactly as per-contract integration would.  A rejected core component
    raises :class:`RuntimeError` naming that vehicle, which stays
    unprovisioned.
    Every later vehicle of the variant is stamped from it: it gets its own
    MCC over the variant's platform model and acceptance battery (and,
    under ``spec.deploy``, its own platform and RTE), adopts the first
    vehicle's baseline snapshot and holds the first vehicle's baseline
    reports in its own ``reports`` list.  The stamped state is shared and
    read-only; see the module docstring.  Stamping is exact because
    integration is a pure function of the contracts, the platform shape
    and the acceptance battery, all of which depend on the variant alone,
    so the order in which vehicles are touched changes no vehicle's state.
    Touching the whole fleet admits the baseline contract count summed
    over the distinct variants, whatever the fleet size.

    Before it builds any vehicle, ``generate_fleet`` builds every variant's
    platform model, maps the variant's core stack onto it, in variant
    order, and raises the same :class:`RuntimeError`, naming the variant's
    first vehicle, when a core component cannot be placed.  Integration
    and the acceptance tests only read a platform model, so every vehicle
    of the variant integrates against that one model; only a deploying
    vehicle's RTE writes to a platform, which is why it has its own.

    Pass a shared :class:`AnalysisCache` to let all vehicles' timing
    acceptance tests share one content-addressed store (the
    batched-admission mode); without it every timing analysis runs cold
    and every vehicle admits in isolation (the sequential baseline).
    Either way the fleet is a pure function of ``spec`` — verdicts cannot
    depend on the cache, nor on when each vehicle is touched.  The cache
    sees the same misses as if every touched vehicle had admitted its own
    baseline; only the sibling hits are gone.

    ``extra_acceptance_tests`` optionally extends the default viewpoint
    battery: the factory is called once per touched variant, with the
    variant and its platform model, and returns additional tests (e.g. a
    :class:`~repro.mcc.acceptance.DistributedTimingAcceptanceTest` checking
    cross-ECU end-to-end deadlines during campaign admission).  The tests
    it returns must depend only on the variant (the platform's shape, never
    its name or identity): every vehicle of the variant runs the same
    tests, and a stamped vehicle inherits the first vehicle's baseline
    verdicts without running them.
    """
    variants = generate_variants(spec)
    platforms = [_variant_platform(variant, spec)
                 for variant in variants[:spec.size]]
    provisioner = FleetProvisioner(spec, platforms, analysis_cache,
                                   extra_acceptance_tests)
    return [FleetVehicle(index, variants[index % len(variants)],
                         provisioner=provisioner)
            for index in range(spec.size)]
