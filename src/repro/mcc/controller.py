"""The Multi-Change Controller.

The MCC "takes full control over the system and platform configuration":
it holds the deployed system model, processes change requests through the
integration process, deploys accepted configurations to the execution
domain, and consumes run-time feedback (metrics, deviations) from the
monitors to refine its models or trigger self-reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.model import Contract, RealTimeRequirement
from repro.mcc.acceptance import AcceptanceTest
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport, SystemModel
from repro.mcc.integration import IntegrationProcess
from repro.mcc.mapping import MappingStrategy
from repro.monitoring.deviation import DeviationDetector, ExpectedBehaviour
from repro.monitoring.metrics import MetricRegistry
from repro.platform.resources import Platform
from repro.platform.rte import RteConfiguration, RuntimeEnvironment


@dataclass(frozen=True)
class MccSnapshot:
    """An adopted MCC state that :meth:`MultiChangeController.rollback` can
    restore: the system model, the configuration deployed for it and the
    expectations derived from its contracts."""

    model: SystemModel
    deployed_configuration: Optional[RteConfiguration]
    expectations: Tuple[ExpectedBehaviour, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "expectations", tuple(self.expectations))


class MultiChangeController:
    """Model-domain controller of the CCC architecture.

    Parameters
    ----------
    platform:
        The target platform model.
    rte:
        Optional execution-domain runtime; if given, accepted configurations
        are deployed immediately.
    acceptance_tests:
        Override the default battery of viewpoint acceptance tests.
    analysis_cache:
        Optional :class:`~repro.analysis.cache.AnalysisCache` that memoizes
        the timing viewpoint across change requests (ignored when explicit
        ``acceptance_tests`` are given).
    """

    def __init__(self, platform: Platform, rte: Optional[RuntimeEnvironment] = None,
                 acceptance_tests: Optional[List[AcceptanceTest]] = None,
                 mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT,
                 analysis_cache: Optional["AnalysisCache"] = None) -> None:
        self.platform = platform
        self.rte = rte
        self.model = SystemModel()
        self.process = IntegrationProcess(platform, acceptance_tests=acceptance_tests,
                                          mapping_strategy=mapping_strategy,
                                          analysis_cache=analysis_cache)
        self.reports: List[IntegrationReport] = []
        self.deployed_configuration: Optional[RteConfiguration] = None
        #: Model-domain expectations derived from the contracts (fed to the
        #: deviation detector of the execution domain).
        self.expectations: List[ExpectedBehaviour] = []

    # -- change handling -----------------------------------------------------------------

    def request_change(self, request: ChangeRequest) -> IntegrationReport:
        """Process one change request end-to-end.

        The change is applied to a candidate model, integrated, and — only if
        every acceptance test passes — adopted and deployed.
        """
        candidate = self.model.candidate()
        try:
            candidate.apply_change(request)
        except (ValueError, KeyError) as exc:
            report = IntegrationReport(request_id=request.request_id, accepted=False)
            report.findings.append(str(exc))
            self.reports.append(report)
            return report

        report = self.process.integrate(candidate, request)
        if report.accepted:
            report.configuration_version = self._adopt(candidate,
                                                       self.model.version + 1)
        self.reports.append(report)
        return report

    def request_changes(self, requests: List[ChangeRequest]) -> List[IntegrationReport]:
        """Process a sequence of change requests in order.

        Returns what ``[self.request_change(r) for r in requests]`` returns
        and leaves the same model, configuration, expectations and report
        history behind, request ids and refinement steps included.  When
        every request is an addition and every acceptance test vouches for
        the final contract set (see
        :class:`~repro.mcc.acceptance.AcceptanceTest`), the additions are
        validated and mapped prefix by prefix and tested once, on the final
        candidate.  If that run passes, the final model is adopted and
        deployed once, so the execution domain sees one deployment instead
        of one per request.  Otherwise, or if any prefix is rejected, every
        request runs through :meth:`request_change` in turn.  A test
        without a ``monotone`` method keeps every call on that path.
        """
        outcome = self.process._integrate_additions(self.model, requests)
        if outcome is None:
            return [self.request_change(request) for request in requests]
        candidate, reports = outcome
        base = self.model.version
        for offset, report in enumerate(reports, start=1):
            report.configuration_version = base + offset
        self._adopt(candidate, base + len(reports))
        self.reports.extend(reports)
        return reports

    def replay_change(self, request: ChangeRequest, precedent: IntegrationReport,
                      mapping: Dict[str, str],
                      priorities: Dict[str, int]) -> IntegrationReport:
        """Adopt or reject ``request`` by replaying a precedent integration.

        Fleet-scale admission dedupe: when another controller with an
        *identical* model, platform shape and request already ran the full
        integration, its verdict and mapping decision apply verbatim —
        integration is deterministic in exactly those inputs.  The caller
        (e.g. :class:`repro.fleet.campaign.Campaign`) is responsible for that
        equivalence; this method re-applies the change and the decided
        mapping without re-running the analyses, then adopts/deploys as
        :meth:`request_change` would.

        The returned report carries this request's id with the precedent's
        verdict, per-viewpoint results and findings (copied, never aliased).
        """
        candidate = self.model.candidate()
        try:
            candidate.apply_change(request)
        except (ValueError, KeyError) as exc:
            report = IntegrationReport(request_id=request.request_id, accepted=False)
            report.findings.append(str(exc))
            self.reports.append(report)
            return report

        report = IntegrationReport(request_id=request.request_id,
                                   accepted=precedent.accepted,
                                   acceptance_results=dict(precedent.acceptance_results),
                                   findings=list(precedent.findings))
        report.add_step("replay", "verdict replayed from an equivalent integration",
                        precedent_request_id=precedent.request_id)
        if report.accepted:
            candidate.mapping = dict(mapping)
            candidate.priorities = dict(priorities)
            report.configuration_version = self._adopt(candidate,
                                                       self.model.version + 1)
        self.reports.append(report)
        return report

    def _adopt(self, candidate: SystemModel, version: int) -> int:
        """Adopt an accepted candidate as ``version`` and deploy it; returns
        the deployed configuration's version."""
        candidate.version = version
        self.model = candidate
        configuration = self.process.synthesize_configuration(candidate, version)
        self.deployed_configuration = configuration
        self._refresh_expectations()
        if self.rte is not None:
            self.rte.deploy(configuration)
        return configuration.version

    def add_component(self, contract: Contract) -> IntegrationReport:
        return self.request_change(ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                                                 component=contract.component,
                                                 contract=contract))

    def update_component(self, contract: Contract) -> IntegrationReport:
        return self.request_change(ChangeRequest(kind=ChangeKind.UPDATE_COMPONENT,
                                                 component=contract.component,
                                                 contract=contract))

    def remove_component(self, component: str) -> IntegrationReport:
        return self.request_change(ChangeRequest(kind=ChangeKind.REMOVE_COMPONENT,
                                                 component=component))

    # -- checkpointing --------------------------------------------------------------------

    def snapshot(self) -> "MccSnapshot":
        """Capture the adopted state (model, configuration, expectations).

        Adoption never mutates a previously adopted :class:`SystemModel`
        (integration operates on candidates and swaps the reference), so the
        snapshot is a cheap bundle of references plus a copied expectation
        list.  Used by staged rollout engines to undo a bad wave.

        Snapshots are *portable*: they reference only model-domain state
        (contracts, mapping, configuration, expectations — no platform,
        process or cache handles), so a pickled snapshot restored in another
        process or a later run rolls a controller back to byte-equivalent
        behaviour.  Campaign checkpoints rely on exactly this.
        """
        return MccSnapshot(model=self.model,
                           deployed_configuration=self.deployed_configuration,
                           expectations=list(self.expectations))

    def rollback(self, snapshot: "MccSnapshot") -> None:
        """Restore a previously captured snapshot and redeploy it.

        The integration report history is kept (it is an append-only audit
        log); only the adopted model, the deployed configuration and the
        derived expectations are rewound.  When an execution domain is
        attached and the snapshot carried a configuration, that configuration
        is deployed again.
        """
        self.model = snapshot.model
        self.deployed_configuration = snapshot.deployed_configuration
        self.expectations = list(snapshot.expectations)
        if self.rte is not None and snapshot.deployed_configuration is not None:
            self.rte.deploy(snapshot.deployed_configuration)

    # -- status ---------------------------------------------------------------------------

    @property
    def version(self) -> int:
        return self.model.version

    def accepted_reports(self) -> List[IntegrationReport]:
        return [r for r in self.reports if r.accepted]

    def rejected_reports(self) -> List[IntegrationReport]:
        return [r for r in self.reports if not r.accepted]

    def acceptance_rate(self) -> float:
        if not self.reports:
            return 0.0
        return len(self.accepted_reports()) / len(self.reports)

    # -- feedback from the execution domain -------------------------------------------------

    def _refresh_expectations(self) -> None:
        """Derive model expectations (execution-time budgets) from contracts."""
        self.expectations = []
        for contract in self.model.contracts():
            timing = contract.timing
            if timing is None:
                continue
            self.expectations.append(ExpectedBehaviour(
                source=f"{contract.component}.task", metric="execution_time",
                nominal=timing.wcet, tolerance=0.1, layer="platform"))

    def configure_deviation_detector(self, registry: MetricRegistry,
                                     two_sided: bool = False) -> DeviationDetector:
        """Build a deviation detector loaded with the current expectations.

        With ``two_sided=True`` every expectation is converted to a two-sided
        tolerance band (without mutating the stored expectations): a value
        collapsing *below* the band is then flagged too, which closes the
        under-reporting channel a compromised vehicle would otherwise use to
        hide failures behind an implausibly small execution time.
        """
        detector = DeviationDetector(registry)
        for expectation in self.expectations:
            if two_sided and not expectation.two_sided:
                expectation = replace(expectation, two_sided=True)
            detector.expect(expectation)
        return detector

    def incorporate_observed_wcets(self, observed: Dict[str, float],
                                   margin: float = 1.2) -> List[IntegrationReport]:
        """Model refinement from run-time metrics: if observed execution times
        exceed the contracted WCET, update the affected contracts (with a
        safety margin) and re-integrate them.

        Returns the integration reports of the triggered updates (empty if
        all observations are within the contracted budgets).
        """
        if margin < 1.0:
            raise ValueError("margin must be at least 1.0")
        reports: List[IntegrationReport] = []
        for task_name, observed_wcet in observed.items():
            component = task_name.removesuffix(".task")
            if component not in self.model:
                continue
            contract = self.model.contract(component)
            timing = contract.timing
            if timing is None or observed_wcet <= timing.wcet:
                continue
            new_wcet = min(observed_wcet * margin, timing.deadline or timing.period)
            updated = Contract(component=contract.component,
                               requirements=[r for r in contract.requirements
                                             if r.viewpoint != "timing"],
                               requires=list(contract.requires),
                               provides=list(contract.provides),
                               metadata=dict(contract.metadata))
            updated.add_requirement(RealTimeRequirement(
                period=timing.period, wcet=new_wcet, deadline=timing.deadline,
                jitter=timing.jitter))
            reports.append(self.update_component(updated))
        return reports
