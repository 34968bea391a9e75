"""The Multi-Change Controller.

The MCC "takes full control over the system and platform configuration":
it holds the deployed system model, processes change requests through the
integration process, deploys accepted configurations to the execution
domain, and consumes run-time feedback (metrics, deviations) from the
monitors to refine its models or trigger self-reconfiguration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.model import Contract, RealTimeRequirement
from repro.mcc.acceptance import AcceptanceTest
from repro.mcc.configuration import ChangeKind, ChangeRequest, IntegrationReport, SystemModel
from repro.mcc.integration import IntegrationProcess
from repro.mcc.mapping import MappingStrategy
from repro.monitoring.deviation import ExpectedBehaviour
from repro.platform.resources import Platform
from repro.platform.rte import RteConfiguration, RuntimeEnvironment


def derive_expectation(contract: Contract) -> Optional[ExpectedBehaviour]:
    """The execution-time expectation the model domain derives from one
    contract: its contracted WCET within a 10% band, or ``None`` for a
    contract without a timing requirement."""
    timing = contract.timing
    if timing is None:
        return None
    return ExpectedBehaviour(source=f"{contract.component}.task",
                             metric="execution_time", nominal=timing.wcet,
                             tolerance=0.1, layer="platform")


@dataclass(frozen=True)
class MccSnapshot:
    """An adopted MCC state that :meth:`MultiChangeController.rollback` can
    restore: the system model and the configuration deployed for it.  The
    expectations follow from the model, so a snapshot holds none."""

    model: SystemModel
    deployed_configuration: Optional[RteConfiguration]


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
        and leaves the same model, configuration and report history behind,
        request ids and refinement steps included.  When
        every request is an addition and every acceptance test vouches for
        the final contract set (see
        :class:`~repro.mcc.acceptance.AcceptanceTest`), the additions are
        validated once, mapped prefix by prefix (each prefix after the first
        places only its new component in one carried mapping state) and
        tested once, on the final candidate.  If that run passes, the final model is adopted and
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

    def replay_change(self, precedent: IntegrationReport,
                      adopted: MccSnapshot) -> IntegrationReport:
        """Take an equivalent integration's decision, deriving nothing.

        Fleet-scale admission dedupe.  The caller guarantees that
        ``precedent`` reports a full integration of the same request on the
        same variant and the same adopted model object, and that
        ``adopted`` is that controller's :meth:`snapshot` right after it.
        An accepted verdict adopts ``adopted`` through :meth:`rollback`, by
        reference and read-only, as a stamped fleet vehicle adopts its
        baseline; a rejection adopts nothing.  Either way ``precedent``
        itself joins the report history, shared and read-only, as a stamped
        vehicle's baseline reports do, and is returned.
        """
        if precedent.accepted:
            self.rollback(adopted)
        self.reports.append(precedent)
        return precedent

    def _adopt(self, candidate: SystemModel, version: int) -> int:
        """Adopt an accepted candidate as ``version`` and deploy it; returns
        the deployed configuration's version."""
        candidate.version = version
        self.model = candidate
        configuration = self.process.synthesize_configuration(candidate, version)
        self.deployed_configuration = configuration
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
        """Capture the adopted state (model, configuration).

        Adoption never mutates a previously adopted :class:`SystemModel`
        (integration operates on candidates and swaps the reference), so the
        snapshot is a bundle of two references.  Used by staged rollout
        engines to undo a bad wave.

        Snapshots reference only model-domain state (contracts, mapping,
        configuration — no platform, process or cache handles), so a
        vehicle's baseline snapshot can roll its MCC back at any later time.
        """
        return MccSnapshot(model=self.model,
                           deployed_configuration=self.deployed_configuration)

    def rollback(self, snapshot: "MccSnapshot") -> None:
        """Restore a previously captured snapshot and redeploy it.

        The integration report history is kept (it is an append-only audit
        log); only the adopted model and the deployed configuration are
        rewound, and the :attr:`expectations` follow the model.  When an
        execution domain is attached and the snapshot carried a
        configuration, that configuration is deployed again.
        """
        self.model = snapshot.model
        self.deployed_configuration = snapshot.deployed_configuration
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

    @property
    def expectations(self) -> Tuple[ExpectedBehaviour, ...]:
        """The expectations of the adopted model, one per timed contract
        (see :func:`derive_expectation`), derived on each read."""
        derived = (derive_expectation(c) for c in self.model.contracts())
        return tuple(e for e in derived if e is not None)

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
