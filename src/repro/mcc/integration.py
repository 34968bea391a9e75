"""The automated model-based integration process.

"Similar to the conventional V-model development process, the MCC gradually
refines the model representation of the new system configuration during the
integration process." (Section II.A)

The refinement steps implemented here:

1. **Contract validation** — internal consistency of every contract and
   completeness of the service architecture (functional architecture level).
2. **Mapping** — components are fitted to the target platform (technical
   architecture level) and priorities/budgets assigned (implementation
   level).
3. **Acceptance testing** — every viewpoint analysis must pass.
4. **Configuration synthesis** — an :class:`~repro.platform.rte.RteConfiguration`
   is produced for the execution domain.

A run of additions can share step 3: the process refines every prefix of
the run and tests only the final candidate, when every acceptance test
vouches that a pass there implies a pass on each prefix (see
:meth:`~repro.mcc.controller.MultiChangeController.request_changes`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import AnalysisCache
from repro.contracts.model import Contract
from repro.mcc.acceptance import (AcceptanceTest, default_acceptance_tests,
                                  tasksets_from_mapping)
from repro.mcc.configuration import (ChangeKind, ChangeRequest, IntegrationReport,
                                    SystemModel)
from repro.mcc.mapping import MappingEngine, MappingError, MappingStrategy
from repro.platform.resources import Platform
from repro.platform.rte import RteConfiguration
from repro.platform.tasks import TaskSet


class IntegrationError(RuntimeError):
    """Raised when the integration process itself fails (not a rejection)."""


class IntegrationProcess:
    """Runs the stepwise refinement for one candidate model."""

    def __init__(self, platform: Platform,
                 acceptance_tests: Optional[List[AcceptanceTest]] = None,
                 mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT,
                 analysis_cache: Optional[AnalysisCache] = None) -> None:
        self.platform = platform
        self.acceptance_tests = (acceptance_tests if acceptance_tests is not None
                                 else default_acceptance_tests(cache=analysis_cache))
        self.mapping_engine = MappingEngine(platform, strategy=mapping_strategy)

    def integrate(self, candidate: SystemModel, request: ChangeRequest) -> IntegrationReport:
        """Run the full refinement on a candidate model.

        The candidate is mutated (mapping/priorities are filled in) but the
        caller decides whether to adopt it based on ``report.accepted``.
        """
        report = IntegrationReport(request_id=request.request_id)
        contracts = candidate.contracts()
        problems = [problem for contract in contracts
                    for problem in contract.validate()]
        if not self._refine(candidate, contracts, problems, report):
            return report

        # Step 4: acceptance tests for every viewpoint.
        all_passed = True
        for test in self.acceptance_tests:
            result = test.run(contracts, candidate.mapping,
                              candidate.priorities, self.platform)
            report.acceptance_results[test.viewpoint] = result.passed
            report.findings.extend(f"[{test.viewpoint}] {finding}" for finding in result.findings
                                   if not result.passed)
            all_passed = all_passed and result.passed
        report.add_step("acceptance-tests", "run viewpoint analyses",
                        results=dict(report.acceptance_results))

        report.accepted = all_passed
        return report

    def _integrate_additions(self, model: SystemModel, requests: List[ChangeRequest]
                             ) -> Optional[Tuple[SystemModel, List[IntegrationReport]]]:
        """Integrate a run of additions with one acceptance run.

        Applies the requests to one candidate of ``model`` in order and runs
        steps 1-3 of :meth:`integrate` on every prefix, then runs the
        acceptance tests once, on the final candidate.  Returns that
        candidate and one report per request, each holding exactly what
        :meth:`integrate` records for it in turn; the caller sets the
        configuration versions.  That is exact because every test vouches,
        through its ``monotone`` method, that a pass on the final contract
        set implies a pass on each prefix: placements are kept from one
        prefix to the next, and priorities keep their relative order.

        Returns ``None``, having adopted nothing, when per-request
        integration must decide instead: there are no requests, a request
        is not an addition, a test has no ``monotone`` method or answers
        ``False``, a prefix is rejected before the acceptance tests, or the
        final candidate fails one.
        """
        if not requests or any(request.kind is not ChangeKind.ADD_COMPONENT
                               for request in requests):
            return None
        final = model.contracts() + [request.contract for request in requests]
        for test in self.acceptance_tests:
            monotone = getattr(test, "monotone", None)
            if monotone is None or not monotone(final):
                return None
        # A contract's own problems do not depend on the others, so each
        # contract is validated once, not once per prefix holding it.
        if any(contract.validate() for contract in final):
            return None
        candidate = model.candidate()
        reports: List[IntegrationReport] = []
        for request in requests:
            try:
                candidate.apply_change(request)
            except (ValueError, KeyError):
                return None
            contracts = candidate.contracts()
            report = IntegrationReport(request_id=request.request_id)
            if not self._refine(candidate, contracts, [], report):
                return None
            reports.append(report)
        for test in self.acceptance_tests:
            if not test.run(contracts, candidate.mapping, candidate.priorities,
                            self.platform).passed:
                return None
        results = {test.viewpoint: True for test in self.acceptance_tests}
        for report in reports:
            report.acceptance_results = dict(results)
            report.add_step("acceptance-tests", "run viewpoint analyses",
                            results=dict(results))
            report.accepted = True
        return candidate, reports

    def _refine(self, candidate: SystemModel, contracts: List[Contract],
                problems: List[str], report: IntegrationReport) -> bool:
        """Steps 1-3 of :meth:`integrate` on ``candidate``, given its
        ``contracts`` and their validation ``problems``, recorded in
        ``report``; fills in the candidate's mapping and priorities.
        ``False`` when the candidate is rejected (its findings are in
        ``report``)."""
        # Step 1: functional architecture — validate contracts and service
        # completeness.
        problems = problems + [f"missing provider for {entry}"
                               for entry in candidate.missing_services()]
        report.add_step("functional-architecture",
                        "validate contracts and service completeness",
                        problems=list(problems))
        if problems:
            report.findings.extend(problems)
            report.accepted = False
            return False

        # Step 2: technical architecture — map components to the platform.
        try:
            decision = self.mapping_engine.map(contracts,
                                               existing=candidate.mapping)
        except MappingError as exc:
            report.add_step("technical-architecture", "mapping failed", error=str(exc))
            report.findings.append(str(exc))
            report.accepted = False
            return False
        candidate.mapping = decision.placement
        candidate.priorities = decision.priorities
        report.add_step("technical-architecture",
                        "map components to processing resources",
                        placement=dict(decision.placement),
                        utilization=dict(decision.utilization))

        # Step 3: implementation model — priorities were assigned during
        # mapping; record them explicitly as their own refinement step.
        report.add_step("implementation-model",
                        "assign scheduling priorities (deadline monotonic per resource)",
                        priorities=dict(decision.priorities))
        return True

    def preview_tasksets(self, model: SystemModel,
                         request: ChangeRequest) -> Optional[Dict[str, TaskSet]]:
        """The per-processor task sets the timing acceptance test *would*
        analyse for ``request`` applied to ``model``.

        Runs the same candidate construction, validation and mapping steps as
        :meth:`integrate` on a scratch copy, without any acceptance test.
        Returns ``None`` when the request would be rejected before the
        acceptance phase (invalid change, contract problems, mapping
        failure).
        """
        candidate = model.candidate()
        try:
            candidate.apply_change(request)
        except (ValueError, KeyError):
            return None
        for contract in candidate.contracts():
            if contract.validate():
                return None
        if candidate.missing_services():
            return None
        try:
            decision = self.mapping_engine.map(candidate.contracts(),
                                               existing=candidate.mapping)
        except MappingError:
            return None
        return tasksets_from_mapping(candidate.contracts(), decision.placement,
                                     decision.priorities)

    def synthesize_configuration(self, model: SystemModel, version: int) -> RteConfiguration:
        """Produce the deployable configuration from an accepted model."""
        if model.unmapped_components():
            raise IntegrationError(
                f"model has unmapped components: {model.unmapped_components()}")
        return RteConfiguration(version=version, contracts=model.contracts(),
                                mapping=dict(model.mapping),
                                priorities=dict(model.priorities))
