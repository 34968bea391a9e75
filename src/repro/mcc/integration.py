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
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.analysis.cache import AnalysisCache
from repro.mcc.acceptance import (AcceptanceTest, default_acceptance_tests,
                                  tasksets_from_mapping)
from repro.mcc.configuration import ChangeRequest, IntegrationReport, SystemModel
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

        # Step 1: functional architecture — validate contracts and service
        # completeness.
        problems: List[str] = []
        for contract in contracts:
            problems.extend(contract.validate())
        problems.extend(f"missing provider for {entry}" for entry in candidate.missing_services())
        report.add_step("functional-architecture",
                        "validate contracts and service completeness",
                        problems=list(problems))
        if problems:
            report.findings.extend(problems)
            report.accepted = False
            return report

        # Step 2: technical architecture — map components to the platform.
        try:
            decision = self.mapping_engine.map(contracts,
                                               existing=candidate.mapping)
        except MappingError as exc:
            report.add_step("technical-architecture", "mapping failed", error=str(exc))
            report.findings.append(str(exc))
            report.accepted = False
            return report
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

    def preview_tasksets(self, model: SystemModel,
                         request: ChangeRequest) -> Optional[Dict[str, TaskSet]]:
        """The per-processor task sets the timing acceptance test *would*
        analyse for ``request`` applied to ``model``.

        Runs the same candidate construction, validation and mapping steps as
        :meth:`integrate` on a scratch copy, without any acceptance test.
        Returns ``None`` when the request would be rejected before the
        acceptance phase (invalid change, contract problems, mapping
        failure).  Batched admission uses this to warm a shared
        :class:`~repro.analysis.cache.AnalysisCache` for a whole wave of
        requests before the individual integrations run — the fingerprints
        match because the derivation is identical.
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
