"""Staged update campaigns across a simulated fleet.

The unit of work at production scale is not one change request but a
*campaign*: the same logical update rolled out to N vehicles in staged waves
(canary -> percentage waves -> full), with per-vehicle admission through each
vehicle's own MCC, monitor feedback consumed between waves, and a policy that
halts — and optionally rolls back — a wave whose rejection/deviation rate
exceeds the tolerated threshold.

Batched admission is *verdict dedupe*: vehicles whose model, platform
shape and request are *identical* (same variant, same adopted
:class:`~repro.mcc.configuration.SystemModel` object, same request
contract object) are one integration, not N.  The first vehicle of each
equivalence group runs the full process; the rest replay its decision
through :meth:`~repro.mcc.controller.MultiChangeController.replay_change`:
each appends the first vehicle's report to its own history and, on an
acceptance, adopts its resulting ``MccSnapshot`` by reference, as
stamped vehicles adopt their variant's baseline.  An adopted model is
frozen, so the grouping is exact: batched and sequential admission
produce identical wave verdicts, vehicle states and reports (request ids
aside), and only the wall time differs (the differential harness, the
fleet tests and the E10 benchmarks all assert this).  Either way a shared
:class:`~repro.analysis.cache.AnalysisCache` lets every integration reuse
the analyses of the ones before it; a task set the cache has not seen is
analysed cold.

Warm starts and checkpoints
---------------------------

Wave N+1 reuses wave N's analyses through the live cache, and a new
campaign handed the same :class:`~repro.analysis.cache.AnalysisCache`
warm-starts from every analysis of the runs before it, in this process;
no analysis is written to disk.
:meth:`CampaignEngine.checkpoint
<repro.fleet.engine.CampaignEngine.checkpoint>` freezes a campaign at a
wave boundary as the log of its committed waves, and a policy halt freezes
it at the start of the halting wave (also kept as
:attr:`Campaign.last_checkpoint`), so a remediated campaign can
:meth:`Campaign.run` with ``resume_from=`` and continue where it stopped,
by replaying the log (see :mod:`repro.fleet.engine`).  Whoever holds a
checkpoint saves it (:meth:`CampaignCheckpoint.save`).

Execution itself lives in :mod:`repro.fleet.engine`: this module holds the
campaign *description* (fleet, policy, knobs, result/checkpoint types and
the wave planner), while :class:`~repro.fleet.engine.CampaignEngine` is the
re-entrant wave stepper that :meth:`Campaign.run` drives to completion —
and that the fleet admission service (:mod:`repro.service`) drives one wave
at a time.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.cache import AnalysisCache
from repro.fleet.adversity import AdversityModel
from repro.fleet.vehicle import FleetVehicle
from repro.mcc.configuration import ChangeRequest
from repro.observability.tracer import CampaignTracer

#: Builds the per-vehicle change request of the campaign's update.
UpdateFactory = Callable[[FleetVehicle], ChangeRequest]

#: Absolute slack on the halt threshold comparison, in *vehicles*.  The
#: failure count is an integer but the tolerated count is a float product
#: (``max_failure_rate * size``) that can round below the mathematically
#: equal integer (``(1/49) * 49 == 0.9999...``); the slack keeps an
#: exactly-at-threshold wave tolerated for any fleet far below a billion
#: vehicles.
_HALT_SLACK = 1e-9

#: Version of the :class:`CampaignCheckpoint` document.
_CHECKPOINT_FORMAT = 1


class CampaignError(ValueError):
    """Raised for invalid campaign or wave-policy configuration."""


def _atomic_write(data: bytes, path: str) -> None:
    """Write ``data`` to ``path``, replacing it only once fully written.

    The bytes land in a temp file next to ``path`` that replaces it
    atomically, so a crash mid-write never leaves a truncated file where a
    valid earlier one used to be.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    handle, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            stream.write(data)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


@dataclass(frozen=True)
class WavePolicy:
    """Staging and halting policy of a campaign.

    ``canary_size`` vehicles go first (0 disables the canary wave); the
    remainder is released in waves at the cumulative ``wave_fractions`` of
    the post-canary fleet (a final full wave is implied when the last
    fraction is below 1).

    ``max_failure_rate`` is the highest **tolerated** failure rate of one
    wave — failures being rejections plus post-deployment deviations.  The
    halt comparison is strict (*exceeds*, not *reaches*): a wave at exactly
    the threshold passes, ``max_failure_rate=1.0`` never halts.  Two edge
    semantics are pinned explicitly (see :meth:`halts`): a zero threshold is
    zero tolerance — **any** failed vehicle halts, without relying on
    floating-point strictness — and the exactly-at-threshold comparison is
    performed on integer failure counts with an absolute slack, so binary
    rounding of the tolerated count (``(1/49) * 49 < 1``) cannot turn a
    tolerated wave into a halt.
    ``rollback_on_halt`` then rolls the admitted vehicles of the halting
    wave back to their pre-wave state.
    """

    canary_size: int = 2
    wave_fractions: Tuple[float, ...] = (0.1, 0.3, 1.0)
    max_failure_rate: float = 0.3
    rollback_on_halt: bool = True
    refine_on_deviation: bool = False

    def __post_init__(self) -> None:
        if self.canary_size < 0:
            raise CampaignError("canary_size must be non-negative")
        if not 0.0 <= self.max_failure_rate <= 1.0:
            raise CampaignError("max_failure_rate must be in [0, 1]")
        previous = 0.0
        for fraction in self.wave_fractions:
            if not 0.0 < fraction <= 1.0:
                raise CampaignError(f"wave fraction {fraction} not in (0, 1]")
            if fraction < previous:
                raise CampaignError("wave_fractions must be non-decreasing")
            previous = fraction

    def halts(self, failures: int, size: int) -> bool:
        """Whether a wave with ``failures`` failed vehicles of ``size`` halts.

        A clean wave never halts (even at a zero threshold); a zero
        threshold halts on any failure; otherwise the integer failure count
        must strictly exceed the tolerated count ``max_failure_rate * size``
        beyond float rounding slack.  Empty waves are never planned, but a
        ``size <= 0`` input degrades to "no halt" rather than dividing by
        zero.
        """
        if failures <= 0 or size <= 0:
            return False
        if self.max_failure_rate == 0.0:
            return True
        return failures > self.max_failure_rate * size + _HALT_SLACK


@dataclass
class WaveRecord:
    """Outcome of one executed wave.

    Under an adversity model a wave's staged membership and its executed
    membership can differ: ``undelivered`` vehicles were staged but never
    received the update this wave (they carry into the next wave or are
    ``abandoned`` once their retry budget is spent), ``retried`` counts the
    members that were carried *into* this wave from earlier failed
    deliveries, and ``discounted`` counts deviation reports the feedback
    grader attributed to suspected-compromised senders — still recorded as
    deviating, but excluded from the halt decision.  All four stay zero on
    an unperturbed campaign.
    """

    index: int
    kind: str
    vehicle_ids: List[str]
    admitted: int = 0
    rejected: int = 0
    deviating: int = 0
    refined: int = 0
    rolled_back: int = 0
    undelivered: int = 0
    retried: int = 0
    abandoned: int = 0
    discounted: int = 0

    @property
    def size(self) -> int:
        return len(self.vehicle_ids)

    @property
    def delivered(self) -> int:
        """Members that actually received the update this wave."""
        return self.size - self.undelivered

    @property
    def failures(self) -> int:
        """Failed vehicles of the wave: rejections plus deviations."""
        return self.rejected + self.deviating

    @property
    def effective_failures(self) -> int:
        """Failures that count towards the halt decision (discount applied)."""
        return max(self.failures - self.discounted, 0)

    @property
    def failure_rate(self) -> float:
        """Failures over wave size (0.0 for a degenerate empty wave)."""
        return self.failures / self.size if self.size else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {"index": self.index, "kind": self.kind, "size": self.size,
                "admitted": self.admitted, "rejected": self.rejected,
                "deviating": self.deviating, "refined": self.refined,
                "rolled_back": self.rolled_back,
                "undelivered": self.undelivered, "retried": self.retried,
                "abandoned": self.abandoned, "discounted": self.discounted,
                "failure_rate": self.failure_rate}


def _summed(name: str, doc: str) -> property:
    """A read-only count: the sum of field ``name`` over the wave records."""
    return property(lambda result: sum(getattr(record, name)
                                       for record in result.waves), doc=doc)


@dataclass
class CampaignResult:
    """Aggregate outcome of one campaign run, stored in its wave records."""

    fleet_size: int
    batched: bool
    waves: List[WaveRecord] = field(default_factory=list)
    halted: bool = False
    halted_wave: Optional[int] = None
    #: The shared analysis cache's hits and misses during this run: its
    #: admissions plus the provisioning of every vehicle the run touched
    #: first (vehicles provision on first touch, see
    #: :func:`~repro.fleet.vehicle.generate_fleet`).  They are
    #: informational and vary with the order in which vehicles were
    #: touched; verdicts never do.
    cache_hits: int = 0
    cache_misses: int = 0

    admitted = _summed("admitted", "Admissions that accepted the update.")
    rejected = _summed("rejected", "Admissions that rejected the update.")
    deviating = _summed("deviating", "Updated vehicles that deviated.")
    refined = _summed("refined", "WCETs refined from deviating feedback.")
    rolled_back = _summed("rolled_back", "Admissions a halt rolled back.")
    # Adversity accounting (see WaveRecord), zero on unperturbed campaigns:
    undelivered = _summed("undelivered", "Deferred delivery events.")
    retried = _summed("retried", "Wave slots of carried vehicles.")
    abandoned = _summed("abandoned", "Vehicles out of delivery retries.")
    discounted = _summed("discounted", "Deviations of IDS suspects.")

    @property
    def completed(self) -> bool:
        """Whether the campaign ran its staged rollout to the end.

        Requires at least one executed wave and no halt: a degenerate
        campaign over an empty fleet (zero waves planned) reports neither
        ``completed`` nor ``halted`` — it did not successfully roll anything
        out, it had nothing to do.
        """
        return bool(self.waves) and not self.halted

    @property
    def vehicles_updated(self) -> int:
        """Vehicles running the update after the campaign (net of rollback)."""
        return self.admitted - self.rolled_back

    @property
    def update_coverage(self) -> float:
        """Updated fraction of the fleet (0.0, not NaN, for an empty fleet)."""
        return self.vehicles_updated / self.fleet_size if self.fleet_size else 0.0

    @property
    def acceptance_rate(self) -> float:
        """Admitted fraction of attempted admissions (0.0 when none ran)."""
        attempted = self.admitted + self.rejected
        return self.admitted / attempted if attempted else 0.0


@dataclass
class CampaignCheckpoint:
    """A campaign frozen at a wave boundary, ready to resume: its wave log.

    :meth:`CampaignEngine.checkpoint
    <repro.fleet.engine.CampaignEngine.checkpoint>` is its one producer.
    ``fleet_size`` is the size of the fleet the campaign ran on and
    ``waves`` the records of every wave it committed, in order, so the
    wave cursor is their number (:attr:`next_wave`).  After a policy
    **halt** the boundary is the start of the halting wave, whose record is
    left out, so the remediated wave re-runs from scratch.

    Nothing per vehicle is stored: :meth:`Campaign.run` with
    ``resume_from=`` rewinds the fleet to its baseline and replays the
    logged waves, and a replayed wave that commits another record raises
    :class:`CampaignError` naming it.  :meth:`save`/:meth:`load` move the
    log across processes as a versioned JSON document
    (``docs/SERVICE.md`` lists its fields).
    """

    fleet_size: int
    waves: List[WaveRecord]

    @property
    def next_wave(self) -> int:
        """The wave cursor: the number of committed waves."""
        return len(self.waves)

    def to_bytes(self) -> bytes:
        """This checkpoint as its compact JSON document."""
        return json.dumps({"format": _CHECKPOINT_FORMAT,
                           "fleet_size": self.fleet_size,
                           "waves": [asdict(record) for record in self.waves]},
                          separators=(",", ":")).encode()

    def save(self, path: str) -> None:
        """Write this checkpoint to ``path``, atomically: a crash mid-write
        never truncates the recovery artifact of a halted campaign."""
        _atomic_write(self.to_bytes(), path)

    @staticmethod
    def load(path: str) -> "CampaignCheckpoint":
        """Load a checkpoint previously written by :meth:`save`.

        A file that is not JSON (whatever its format) raises
        :class:`CampaignError` without anything in it being run, and so
        does any malformed field, named in the message.
        """
        with open(path, "rb") as stream:
            data = stream.read()
        try:
            return _decoded(json.loads(data))
        except CampaignError as error:
            raise CampaignError(f"{path!r} is not a campaign checkpoint: "
                                f"{error}") from None
        except (ValueError, RecursionError) as error:
            raise CampaignError(f"{path!r} is not a loadable campaign "
                                f"checkpoint: {error}") from error


def _checked(value: object, kind: type, name: str):
    """``value`` if it is a ``kind`` (an ``int`` is never a ``bool``), else
    a :class:`CampaignError` naming the malformed field ``name``."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise CampaignError(f"malformed {name}")


def _decoded(document: object) -> CampaignCheckpoint:
    """The checkpoint a parsed JSON document describes; every field that
    is missing, unknown or of the wrong type raises, naming it."""
    keys = set(_checked(document, dict, "document"))
    if not keys <= {"format", "fleet_size", "waves"}:
        raise CampaignError("malformed document")
    if _checked(document.get("format"), int, "format") != _CHECKPOINT_FORMAT:
        raise CampaignError("malformed format")
    fleet_size = _checked(document.get("fleet_size"), int, "fleet_size")
    kinds = {spec.name: {"kind": str, "vehicle_ids": list}.get(spec.name, int)
             for spec in fields(WaveRecord)}
    waves = []
    records = _checked(document.get("waves"), list, "waves")
    for position, record in enumerate(records):
        name = f"waves[{position}]"
        if not set(_checked(record, dict, name)) <= set(kinds):
            raise CampaignError(f"malformed {name}")
        for key, kind in kinds.items():
            _checked(record.get(key), kind, f"{name}.{key}")
        for vehicle_id in record["vehicle_ids"]:
            _checked(vehicle_id, str, f"{name}.vehicle_ids")
        waves.append(WaveRecord(**record))
    return CampaignCheckpoint(fleet_size=fleet_size, waves=waves)


def plan_waves(vehicles: Sequence[FleetVehicle],
               policy: WavePolicy) -> List[Tuple[str, Sequence[FleetVehicle]]]:
    """Deterministic wave partition of a fleet: canary, staged, full.

    Every returned wave is non-empty; an empty fleet yields no waves (the
    degenerate campaign executes nothing) and a single-vehicle fleet yields
    exactly one (canary when enabled).  The last wave always covers the
    remaining fleet even when ``wave_fractions`` stops short of 1.0, and a
    canary at least as large as the fleet simply is the whole rollout.
    Each wave is a slice of ``vehicles``, which is never copied whole, so
    a ``range`` plans a fleet's waves without building it.
    """
    if not vehicles:
        return []
    waves: List[Tuple[str, Sequence[FleetVehicle]]] = []
    cursor = 0
    if policy.canary_size > 0:
        canary = vehicles[:policy.canary_size]
        waves.append(("canary", canary))
        cursor = len(canary)
    remainder = vehicles[cursor:]
    released = 0
    fractions = list(policy.wave_fractions)
    if not fractions or fractions[-1] < 1.0:
        fractions.append(1.0)
    for fraction in fractions:
        if released >= len(remainder):
            break
        target = min(len(remainder), max(released + 1,
                                         round(fraction * len(remainder))))
        wave = remainder[released:target]
        kind = "full" if target == len(remainder) else "wave"
        waves.append((kind, wave))
        released = target
    return waves


class Campaign:
    """Rolls one update out across a fleet in staged waves.

    Parameters
    ----------
    vehicles:
        The fleet, in rollout order.
    update_factory:
        Builds the per-vehicle :class:`ChangeRequest` (vehicles of different
        variants typically get variant-scaled contracts of the same logical
        update).
    policy:
        Staging/halting policy.
    analysis_cache:
        The cache the fleet was generated with, if any: the result reports
        its traffic.  Handing a later campaign the same cache warm-starts
        it from every analysis derived here.
    batch_admission:
        Admit only the first vehicle of each group of identical admission
        problems; the others take its verdict and adopt its resulting state.
    failure_injection_rate:
        Probability that an updated vehicle's observed execution time exceeds
        its contracted budget (simulated field failure).
    feedback_seed:
        Seed of the simulated monitor feedback stream; per-vehicle draws are
        derived from it and the vehicle index, so feedback is identical for
        batched and sequential admission.
    adversity:
        Optional :class:`~repro.fleet.adversity.AdversityModel` perturbing
        the wave loop: lossy update delivery (undelivered vehicles carry
        into later waves, extra ``straggler`` waves run after the planned
        rollout until every retry budget is spent), forged monitor feedback
        graded by an IDS (suspected senders' deviations are recorded but
        *discounted* from the halt decision) and perturbed admission inputs
        (e.g. thermally inflated WCETs).  All adversity decisions execute
        in wave order from seeded streams, so perturbed campaigns keep the
        byte-parity guarantee of batched against sequential admission,
        and a checkpointed campaign resumes under a fresh model of the
        same parameters, which its replay brings to the same state.
    tracer:
        Optional :class:`~repro.observability.tracer.CampaignTracer`.  When
        set, the wave loop, the adversity seams and, while this campaign
        runs, the shared analysis cache report structured events into it
        (flushed to its JSONL path at run end); see
        ``docs/OBSERVABILITY.md`` for the event taxonomy.
        Tracing is strictly read-only: traced campaigns produce
        field-for-field identical results to untraced ones, and
        ``tracer=None`` (the default) leaves every
        instrumentation site a single attribute test — the zero-overhead
        path.
    """

    def __init__(self, vehicles: Sequence[FleetVehicle],
                 update_factory: UpdateFactory,
                 policy: Optional[WavePolicy] = None,
                 analysis_cache: Optional[AnalysisCache] = None,
                 batch_admission: bool = True,
                 failure_injection_rate: float = 0.0,
                 feedback_seed: int = 0,
                 adversity: Optional[AdversityModel] = None,
                 tracer: Optional[CampaignTracer] = None) -> None:
        if not 0.0 <= failure_injection_rate <= 1.0:
            raise CampaignError("failure_injection_rate must be in [0, 1]")
        self.vehicles = list(vehicles)
        self.update_factory = update_factory
        self.policy = policy if policy is not None else WavePolicy()
        self.analysis_cache = analysis_cache
        self.batch_admission = batch_admission
        self.failure_injection_rate = failure_injection_rate
        self.feedback_seed = feedback_seed
        self.adversity = adversity
        self.tracer = tracer
        #: The checkpoint of the last policy halt (None before, or when
        #: the vehicles were not at their baseline as the run started).
        self.last_checkpoint: Optional[CampaignCheckpoint] = None
        #: One-shot latch of :meth:`run` (see its docstring).
        self._ran = False

    # -- execution ---------------------------------------------------------

    def run(self, resume_from: Optional[CampaignCheckpoint] = None
            ) -> CampaignResult:
        """Execute the campaign and return its aggregate result.

        With ``resume_from`` every vehicle is first rewound to its
        baseline and the checkpointed waves are replayed, then execution
        continues at the checkpointed wave; the returned result aggregates
        the checkpointed waves plus everything executed now.

        ``run()`` is **one-shot**: a finished (or failed) run leaves
        per-run state behind — :attr:`last_checkpoint`, adopted vehicle
        models, cache-counter baselines — so re-entering
        the same instance would silently compute something other than a
        fresh campaign.  A second call raises :class:`CampaignError`;
        construct a new ``Campaign`` (passing ``resume_from=`` to continue
        a checkpointed rollout) instead.  Wave-by-wave execution with
        explicit boundaries is available through
        :class:`~repro.fleet.engine.CampaignEngine` directly.
        """
        if self._ran:
            raise CampaignError(
                "this Campaign instance already ran; run() is one-shot "
                "because a run mutates per-run state (last_checkpoint, "
                "vehicle models) — construct a fresh "
                "Campaign, with resume_from= to continue a checkpoint")
        self._ran = True
        from repro.fleet.engine import CampaignEngine
        engine = CampaignEngine(self, resume_from=resume_from)
        while not engine.done:
            engine.step()
        return engine.finalize()

