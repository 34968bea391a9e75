"""Scenario: automated in-field integration of function updates (E1).

The CCC architecture "combines a conventional lab-based design of individual
functions with an automated integration process which ensures that updates
are applied to an already deployed system only if the system can still
adhere to the required safety and security constraints" (Section II).

The scenario deploys a baseline configuration, then feeds the MCC a stream
of synthetic change requests — benign additions, risky updates that inflate
WCETs, components with missing protection, and removals — and measures
acceptance behaviour and integration effort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.analysis.cache import AnalysisCache, default_cache
from repro.contracts.language import ContractParser
from repro.contracts.model import Contract
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.mcc.controller import MultiChangeController
from repro.mcc.mapping import MappingStrategy
from repro.platform.resources import NetworkResource, Platform, ProcessingResource
from repro.platform.rte import RuntimeEnvironment
from repro.sim.random import SeededRNG


@dataclass
class InFieldUpdateResult:
    """Metrics of one in-field update campaign."""

    total_requests: int
    accepted: int
    rejected: int
    rejected_by_viewpoint: Dict[str, int] = field(default_factory=dict)
    final_version: int = 0
    deployed_components: int = 0
    unsafe_update_accepted: bool = False

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.total_requests if self.total_requests else 0.0


def build_baseline_platform(num_processors: int = 3,
                            capacity: float = 0.85) -> Platform:
    """The shared mixed-criticality platform the updates target."""
    platform = Platform(name="ccc-platform")
    for index in range(num_processors):
        platform.add_processor(ProcessingResource(f"cpu{index}", capacity=capacity))
    platform.add_network(NetworkResource("can0", bandwidth_bps=500_000.0))
    return platform


def baseline_contracts() -> List[Contract]:
    """A small deployed baseline: perception, control and actuation components."""
    parser = ContractParser()
    documents = [
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
    return parser.parse_many(documents)


def generate_change_requests(count: int, seed: int = 0,
                             risky_fraction: float = 0.3) -> List[ChangeRequest]:
    """Generate a synthetic update campaign.

    A ``risky_fraction`` of the requests is deliberately problematic: they
    either demand more processor time than the platform can absorb, lack the
    security level their exposure requires, or have dangling service
    requirements — the kinds of updates the MCC exists to keep out.
    """
    rng = SeededRNG(seed)
    parser = ContractParser()
    requests: List[ChangeRequest] = []
    for index in range(count):
        name = f"app{index:03d}"
        risky = rng.uniform() < risky_fraction
        period = rng.choice([0.01, 0.02, 0.05, 0.1])
        if risky:
            flavour = rng.choice(["overload", "insecure", "dangling"])
        else:
            flavour = "benign"
        if flavour == "overload":
            wcet = period * rng.uniform(0.85, 0.98)
        else:
            wcet = period * rng.uniform(0.05, 0.25)
        document: Dict = {
            "component": name,
            "timing": {"period": period, "wcet": wcet},
            "safety": {"asil": rng.choice(["QM", "A", "B"])},
            "security": {"level": "MEDIUM"},
            "provides": [f"service_{name}"],
        }
        if flavour == "insecure":
            document["security"] = {"level": "NONE", "external_interface": True}
            document["safety"] = {"asil": "C"}
        if flavour == "dangling":
            document["requires"] = [{"service": f"missing_service_{index}"}]
        contract = parser.parse(document)
        requests.append(ChangeRequest(kind=ChangeKind.ADD_COMPONENT, component=name,
                                      contract=contract))
    return requests


def run_infield_update_scenario(num_requests: int = 30, seed: int = 0,
                                risky_fraction: float = 0.3,
                                num_processors: int = 3,
                                mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT,
                                deploy: bool = True,
                                analysis_cache: Optional["AnalysisCache"] = None,
                                use_analysis_cache: bool = True
                                ) -> InFieldUpdateResult:
    """Run one in-field update campaign through the MCC.

    Pass an :class:`~repro.analysis.cache.AnalysisCache` to memoize the
    timing acceptance test across the campaign's change requests (and across
    campaigns, when the same cache is shared by a sweep).  When no cache is
    given the process-local :func:`~repro.analysis.cache.default_cache` is
    used — WCRT results are content-addressed, so sharing it across
    campaigns cannot change any verdict, it only removes re-derivations.
    ``use_analysis_cache=False`` opts out entirely (benchmark baselines).
    """
    if analysis_cache is None and use_analysis_cache:
        analysis_cache = default_cache()
    platform = build_baseline_platform(num_processors=num_processors)
    rte = RuntimeEnvironment(platform) if deploy else None
    mcc = MultiChangeController(platform, rte=rte, mapping_strategy=mapping_strategy,
                                analysis_cache=analysis_cache)
    for contract in baseline_contracts():
        report = mcc.add_component(contract)
        if not report.accepted:  # pragma: no cover - baseline accepted by construction
            raise RuntimeError(f"baseline rejected: {report.summary()}")
    baseline_requests = len(mcc.reports)

    requests = generate_change_requests(num_requests, seed=seed,
                                        risky_fraction=risky_fraction)
    rejected_by_viewpoint: Dict[str, int] = {}
    unsafe_accepted = False
    for request in requests:
        report = mcc.request_change(request)
        if not report.accepted:
            for viewpoint in report.failed_viewpoints():
                rejected_by_viewpoint[viewpoint] = rejected_by_viewpoint.get(viewpoint, 0) + 1
            if not report.acceptance_results and report.findings:
                bucket = ("mapping" if any("no processor can host" in finding
                                           for finding in report.findings)
                          else "functional")
                rejected_by_viewpoint[bucket] = rejected_by_viewpoint.get(bucket, 0) + 1
        else:
            contract = request.contract
            if contract is not None and contract.security is not None:
                if contract.security.external_interface and contract.security.level.name == "NONE":
                    unsafe_accepted = True

    update_reports = mcc.reports[baseline_requests:]
    accepted = sum(1 for r in update_reports if r.accepted)
    return InFieldUpdateResult(
        total_requests=len(requests),
        accepted=accepted,
        rejected=len(requests) - accepted,
        rejected_by_viewpoint=rejected_by_viewpoint,
        final_version=mcc.version,
        deployed_components=len(rte.components()) if rte is not None else len(mcc.model),
        unsafe_update_accepted=unsafe_accepted)
