"""Simulated fleet vehicles: perturbed platform models around one baseline.

A production fleet is not a million copies of the reference vehicle: vehicles
cluster into *variants* (hardware generations, trim levels, regional builds)
that differ in processor count and capacity, CAN topology, measured WCETs and
the set of baseline components.  :func:`generate_fleet` instantiates such a
fleet deterministically from a single seed — every vehicle carries its own
:class:`~repro.platform.resources.Platform` model and its own
:class:`~repro.mcc.controller.MultiChangeController`, exactly as the paper's
in-field update process runs per vehicle.

The variant structure is what makes fleet-scale admission batchable: vehicles
of the same variant produce identical candidate task sets for the same
update, so a shared :class:`~repro.analysis.cache.AnalysisCache` answers one
variant's admission analysis once per wave, and the incremental engine
warm-starts the remaining variants off each other.

It also makes provisioning cheap, and lets it wait until a vehicle is
needed.  A generated vehicle starts with its id, index and variant only;
its platform and MCC are built the first time anything reads either of
them.  Every vehicle of a variant reaches the identical MCC state after its
baseline integrations, so the first touched vehicle of a variant parses the
variant's contracts and admits them in one
:meth:`~repro.mcc.controller.MultiChangeController.request_changes` call
(one acceptance run on the whole baseline when every test vouches for it,
else one integration per contract, with the same reports either way), and
every later vehicle of that variant is *stamped*: it gets its own platform,
RTE, acceptance battery and MCC, then adopts the first vehicle's
:class:`~repro.mcc.controller.MccSnapshot` through
:meth:`~repro.mcc.controller.MultiChangeController.rollback`.  Stamped
siblings share the adopted :class:`~repro.mcc.configuration.SystemModel`,
:class:`~repro.platform.rte.RteConfiguration`, expectations and baseline
:class:`~repro.mcc.configuration.IntegrationReport` objects; all of them are
read-only (adoption swaps references, it never mutates an adopted object),
so a later change on one vehicle never reaches its siblings.  A staged
campaign touches a vehicle when its wave is staged, so a canary verdict
waits only for the canary's variants, and a halted campaign never
provisions the waves it did not reach.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.language import ContractParser
from repro.contracts.model import Contract
from repro.mcc.acceptance import AcceptanceTest, default_acceptance_tests
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport
from repro.mcc.controller import MccSnapshot, MultiChangeController
from repro.mcc.mapping import MappingEngine, MappingError, MappingStrategy
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RuntimeEnvironment
from repro.sim.random import SeededRNG


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
    """Checkpointable state of one fleet vehicle.

    Bundles the vehicle's adopted MCC snapshot (model, deployed
    configuration, expectations — all portable, see
    :meth:`~repro.mcc.controller.MultiChangeController.snapshot`) with the
    campaign's rollout flags.  Campaign checkpoints pickle a list of these
    so a halted campaign can be resumed in a fresh process over a
    regenerated fleet.

    ``snapshot`` is ``None`` when the vehicle is *at baseline*: never
    touched, or adopting its variant's baseline model.  Restoring such a
    state leaves an untouched vehicle untouched and rolls a touched one
    back to its own fleet's baseline objects, so a resumed campaign's
    vehicles share baseline identities with the vehicles it provisions
    later, exactly as an uninterrupted run's do.
    """

    vehicle_id: str
    snapshot: Optional[MccSnapshot]
    updated: bool
    deviating: bool
    rolled_back: bool


class FleetVehicle:
    """One simulated vehicle: platform model plus its own MCC.

    Construct it either with its ``platform`` and ``mcc``, or with the
    ``provisioner`` of a generated fleet, which builds both the first time
    anything reads either of them (see :func:`generate_fleet`).
    """

    def __init__(self, index: int, variant: VehicleVariant,
                 platform: Optional[Platform] = None,
                 mcc: Optional[MultiChangeController] = None, *,
                 provisioner: Optional["FleetProvisioner"] = None) -> None:
        if (platform is None or mcc is None) == (provisioner is None):
            raise ValueError("a fleet vehicle needs its platform and MCC, "
                             "or a provisioner, but not both")
        self.index = index
        self.vehicle_id = f"veh{index:04d}"
        self.variant = variant
        #: Rollout bookkeeping maintained by the campaign engine.
        self.updated = False
        self.deviating = False
        self.rolled_back = False
        self._provisioner = provisioner
        self._platform = platform
        self._mcc = mcc

    @property
    def platform(self) -> Platform:
        """This vehicle's platform model, provisioned on first read."""
        if self._mcc is None:
            self.provision()
        return self._platform

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
        """Whether this vehicle's platform and MCC exist yet."""
        return self._mcc is not None

    def provision(self) -> None:
        """Build this vehicle's platform and MCC now, unless they exist.

        Raises the fleet's :class:`RuntimeError` when this vehicle is the
        first touched vehicle of its variant and rejects a core component
        of the variant's baseline; the vehicle then stays unprovisioned.
        """
        if self._mcc is None:
            self._platform, self._mcc = self._provisioner.provision(self)

    @property
    def wcet_factor(self) -> float:
        return self.variant.wcet_factor

    def checkpoint_snapshot(self, snapshot: MccSnapshot) -> Optional[MccSnapshot]:
        """``snapshot`` as a :class:`VehicleState` stores it: ``None`` when it
        adopts this vehicle's variant baseline model."""
        provisioner = self._provisioner
        if provisioner is not None and \
                snapshot.model is provisioner.baseline(self.variant).model:
            return None
        return snapshot

    def capture_state(self) -> VehicleState:
        """This vehicle's current :class:`VehicleState` (for checkpoints)."""
        snapshot = None
        if self.provisioned:
            snapshot = self.checkpoint_snapshot(self.mcc.snapshot())
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
            if self._provisioner is None:
                raise ValueError(f"{self.vehicle_id} was not generated by "
                                 "generate_fleet and has no baseline to "
                                 "restore")
            self.mcc.rollback(self._provisioner.baseline(self.variant))
        self.updated = state.updated
        self.deviating = state.deviating
        self.rolled_back = state.rolled_back

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        version = self.mcc.version if self.provisioned else "unprovisioned"
        return (f"FleetVehicle({self.vehicle_id}, variant={self.variant.index}, "
                f"version={version})")


_BASELINE_DOCUMENTS: List[Dict[str, Any]] = [
    {"component": "perception", "timing": {"period": 0.05, "wcet": 0.010},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "provides": ["object_list"]},
    {"component": "planner", "timing": {"period": 0.1, "wcet": 0.020},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "requires": [{"service": "object_list"}], "provides": ["trajectory"]},
    {"component": "actuation", "timing": {"period": 0.01, "wcet": 0.002},
     "safety": {"asil": "B"}, "security": {"level": "MEDIUM"},
     "requires": [{"service": "trajectory"}], "provides": ["actuator_commands"]},
]

#: Components every vehicle must ship; rejecting one of these at fleet
#: generation time is a bug, rejecting an optional app is a variant trait.
_CORE_COMPONENTS = frozenset(document["component"] for document in _BASELINE_DOCUMENTS)

_TELEMATICS_DOCUMENT: Dict[str, Any] = {
    "component": "telematics", "timing": {"period": 0.2, "wcet": 0.012},
    "safety": {"asil": "A"}, "security": {"level": "MEDIUM"},
    "provides": ["telemetry"],
}


def variant_contracts(variant: VehicleVariant, spec: FleetSpec) -> List[Contract]:
    """The baseline contract set of one variant (WCETs scaled to its build).

    Besides the core perception/planner/actuation stack (plus telematics on
    the variants that ship it), every variant carries
    ``spec.extra_components`` installed applications with variant-specific
    periods and budgets — production ECUs host tens of components, and that
    installed base is what makes fleet admission analysis-heavy.
    """
    parser = ContractParser()
    documents = list(_BASELINE_DOCUMENTS)
    if variant.has_telematics:
        documents = documents + [_TELEMATICS_DOCUMENT]
    rng = SeededRNG(spec.seed).spawn(2_000 + variant.index)
    extras: List[Dict[str, Any]] = []
    for index in range(spec.extra_components):
        # Continuous (non-harmonic) periods: realistic mixed workloads whose
        # busy windows genuinely iterate, unlike neat harmonic period sets.
        period = rng.uniform(0.02, 0.2)
        extras.append({
            "component": f"app{index:02d}",
            "timing": {"period": period, "wcet": period * rng.uniform(0.05, 0.11)},
            "safety": {"asil": rng.choice(["QM", "A", "B"])},
            "security": {"level": "MEDIUM"},
            "provides": [f"service_app{index:02d}"],
        })
    # Budget the installed base so every variant's baseline is admissible by
    # construction and headroom for one more update remains: the extras'
    # utilization is scaled into what the platform can host beyond the core
    # stack.
    def util(document: Dict[str, Any]) -> float:
        timing = document["timing"]
        return timing["wcet"] * variant.wcet_factor / timing["period"]

    budget = 0.8 * variant.num_processors * variant.capacity
    core_util = sum(util(document) for document in documents)
    extra_util = sum(util(document) for document in extras)
    headroom = max(0.0, budget - core_util)
    if extra_util > headroom and extra_util > 0.0:
        shrink = headroom / extra_util
        for document in extras:
            document["timing"]["wcet"] *= shrink
        # When the core stack leaves no headroom, the extras shrink to a
        # zero budget: such a build does not install them.
        extras = [document for document in extras
                  if document["timing"]["wcet"] > 0.0]
    return parser.parse_many(_scaled(document, variant)
                             for document in documents + extras)


def _scaled(document: Dict[str, Any], variant: VehicleVariant) -> Dict[str, Any]:
    """``document`` with its WCET scaled to the variant's build."""
    timing = dict(document["timing"])
    # A variant never ships a baseline that is unschedulable by
    # construction, so the scaled WCET stays below the implicit deadline.
    timing["wcet"] = min(timing["wcet"] * variant.wcet_factor,
                         0.9 * timing["period"])
    return {**document, "timing": timing}


def generate_variants(spec: FleetSpec) -> List[VehicleVariant]:
    """The deterministic variant catalog of a fleet spec."""
    variants: List[VehicleVariant] = []
    for index in range(min(spec.num_variants, max(spec.size, 1))):
        rng = SeededRNG(spec.seed).spawn(1_000 + index)
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
    """A fresh platform model for one vehicle of the given variant."""
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
    -- the spec, the shared analysis cache and the
    ``extra_acceptance_tests`` factory -- plus the baseline each variant's
    first touched vehicle admitted, which every later vehicle of the
    variant adopts.
    """

    def __init__(self, spec: FleetSpec,
                 analysis_cache: Optional[AnalysisCache] = None,
                 extra_acceptance_tests: Optional[
                     Callable[[VehicleVariant, Platform],
                              List[AcceptanceTest]]] = None) -> None:
        self.spec = spec
        self.analysis_cache = analysis_cache
        self.extra_acceptance_tests = extra_acceptance_tests
        #: Variant index -> (adopted baseline, baseline reports) of the
        #: variant's first touched vehicle.
        self._baselines: Dict[int, Tuple[MccSnapshot,
                                         List[IntegrationReport]]] = {}

    def baseline(self, variant: VehicleVariant) -> MccSnapshot:
        """The adopted baseline of ``variant`` (provisioned already)."""
        return self._baselines[variant.index][0]

    def provision(self, vehicle: FleetVehicle
                  ) -> Tuple[Platform, MultiChangeController]:
        """``vehicle``'s own platform and MCC, its baseline deployed."""
        spec, variant = self.spec, vehicle.variant
        platform = build_vehicle_platform(variant,
                                          name=f"{vehicle.vehicle_id}-platform")
        rte = RuntimeEnvironment(platform) if spec.deploy else None
        acceptance_tests = None
        if self.extra_acceptance_tests is not None:
            acceptance_tests = (
                default_acceptance_tests(cache=self.analysis_cache)
                + list(self.extra_acceptance_tests(variant, platform)))
        mcc = MultiChangeController(platform, rte=rte,
                                    acceptance_tests=acceptance_tests,
                                    mapping_strategy=spec.mapping_strategy,
                                    analysis_cache=self.analysis_cache)
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
        return platform, mcc


def _check_core_stack(variant: VehicleVariant, spec: FleetSpec) -> None:
    """Raise provisioning's core :class:`RuntimeError` if the variant's
    platform cannot host its core stack.

    Integration maps the core contracts first, one at a time, each keeping
    the placements before it, so running the mapping engine over them the
    same way decides every mapping rejection of a core component -- the
    only kind of core rejection seen in sweeps over the generated fleet
    shapes.  Rejections that only the acceptance tests can decide still
    raise when the variant's first vehicle is touched.
    """
    documents = [_scaled(document, variant) for document in _BASELINE_DOCUMENTS]
    # Every processor of the variant has the same capacity and the core
    # contracts form no redundancy group, so a core stack that fits on one
    # processor fits whatever the strategy places first: no contract can
    # then find less room than the stack minus itself leaves.  The margin
    # dwarfs the rounding of the engine's own utilization sums.
    if sum(document["timing"]["wcet"] / document["timing"]["period"]
           for document in documents) <= variant.capacity - 1e-9:
        return
    engine = MappingEngine(build_vehicle_platform(variant, name="core-check"),
                           strategy=spec.mapping_strategy)
    core = ContractParser().parse_many(documents)
    placement: Dict[str, str] = {}
    for count in range(1, len(core) + 1):
        try:
            placement = engine.map(core[:count], existing=placement).placement
        except MappingError as error:
            raise RuntimeError(f"vehicle {variant.index} rejected its "
                               f"baseline: {error}") from None


def generate_fleet(spec: FleetSpec,
                   analysis_cache: Optional[AnalysisCache] = None,
                   extra_acceptance_tests: Optional[
                       Callable[[VehicleVariant, Platform],
                                List[AcceptanceTest]]] = None
                   ) -> List[FleetVehicle]:
    """Instantiate a fleet whose vehicles provision on first touch.

    Every returned vehicle has its id, index and variant at once.  Its
    platform and MCC are built the first time anything reads either of them
    (a campaign wave staging it, an update factory, a checkpoint restore,
    or :meth:`FleetVehicle.provision`).  The first touched vehicle of each
    variant parses the variant's baseline contracts and admits them, as one
    ADD request each, through
    :meth:`MultiChangeController.request_changes`: the contracts are
    validated and mapped one prefix at a time, and the acceptance battery
    runs once, on the whole baseline, unless a test cannot vouch for it or
    the run fails, in which case every contract is integrated in turn.
    Either way the vehicle records one report per contract, exactly as
    per-contract integration would.  A rejected core component raises
    :class:`RuntimeError` naming that vehicle, which stays unprovisioned.
    Every later vehicle of the variant is stamped from it:
    it gets its own platform, RTE (``spec.deploy``), acceptance battery and
    MCC, adopts the first vehicle's baseline snapshot (deploying it on its
    own platform) and holds the first vehicle's baseline reports in its own
    ``reports`` list.  The stamped state is shared and read-only; see the
    module docstring.  Stamping is exact because integration is a pure
    function of the contracts, the platform shape and the acceptance
    battery, all of which depend on the variant alone, so the order in
    which vehicles are touched changes no vehicle's state.  Touching the
    whole fleet admits the baseline contract count summed over the
    distinct variants, whatever the fleet size.

    Before it builds any vehicle, ``generate_fleet`` maps every variant's
    core stack onto the variant's platform, in variant order, and raises
    the same :class:`RuntimeError`, naming the variant's first vehicle,
    when a core component cannot be placed.

    Pass a shared :class:`AnalysisCache` to let all vehicles' timing
    acceptance tests share one content-addressed store plus one incremental
    engine (the batched-admission mode); without it every vehicle admits in
    isolation (the sequential baseline).  Either way the fleet is a pure
    function of ``spec`` — verdicts cannot depend on the cache, nor on
    when each vehicle is touched.  The cache and its engine see the same
    misses as if every touched vehicle had admitted its own baseline;
    only the sibling hits are gone.

    ``extra_acceptance_tests`` optionally extends every vehicle's default
    viewpoint battery: the factory is called once per vehicle with its
    variant and platform and returns additional tests (e.g. a
    :class:`~repro.mcc.acceptance.DistributedTimingAcceptanceTest` checking
    cross-ECU end-to-end deadlines during campaign admission).  The tests
    it returns must depend only on the variant (the platform's shape, never
    its name or identity): a stamped vehicle inherits the first vehicle's
    baseline verdicts without running its own battery.
    """
    variants = generate_variants(spec)
    for variant in variants[:spec.size]:
        _check_core_stack(variant, spec)
    provisioner = FleetProvisioner(spec, analysis_cache, extra_acceptance_tests)
    return [FleetVehicle(index, variants[index % len(variants)],
                         provisioner=provisioner)
            for index in range(spec.size)]
