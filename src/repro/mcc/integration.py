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
the run and tests only the last one, when every acceptance test vouches
that a pass on a contract set implies a pass on each of its prefixes (see
:meth:`~repro.mcc.controller.MultiChangeController.request_changes`); when
that test fails, it bisects over the refined prefixes for the longest one
that passes.  It carries one :class:`~repro.mcc.mapping.MappingState`
through the run, so each prefix after the first checks the services and
places the component of its own addition only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.contracts.model import Contract
from repro.mcc.acceptance import (AcceptanceTest, default_acceptance_tests,
                                  tasksets_from_mapping)
from repro.mcc.configuration import (ChangeKind, ChangeRequest, IntegrationReport,
                                    SystemModel)
from repro.mcc.mapping import (MappingDecision, MappingEngine, MappingError,
                               MappingState, MappingStrategy)
from repro.platform.resources import Platform
from repro.platform.rte import RteConfiguration
from repro.platform.tasks import TaskSet


class IntegrationError(RuntimeError):
    """Raised when the integration process itself fails (not a rejection)."""


class IntegrationProcess:
    """Runs the stepwise refinement for one candidate model."""

    def __init__(self, platform: Platform,
                 acceptance_tests: Optional[List[AcceptanceTest]] = None,
                 mapping_strategy: MappingStrategy = MappingStrategy.FIRST_FIT) -> None:
        self.platform = platform
        self.acceptance_tests = (acceptance_tests if acceptance_tests is not None
                                 else default_acceptance_tests())
        self.mapping_engine = MappingEngine(platform, strategy=mapping_strategy)

    def integrate(self, candidate: SystemModel, request: ChangeRequest
                  ) -> Tuple[IntegrationReport, Optional[SystemModel]]:
        """Run the full refinement on the candidate ``request`` yields.

        Returns the report and, if every test passes, the model to adopt
        (the candidate's contracts with the decided mapping and priorities,
        one version on), else ``None``; the caller decides on adoption."""
        report = IntegrationReport(request_id=request.request_id)
        contracts = candidate.contracts()
        problems = [problem for contract in contracts
                    for problem in contract.validate()]
        decision = self._refine(candidate, contracts, problems, report)
        if decision is None:
            return report, None

        # Step 4: acceptance tests for every viewpoint.
        all_passed = True
        for test in self.acceptance_tests:
            result = test.run(contracts, decision.placement,
                              decision.priorities, self.platform)
            report.acceptance_results[test.viewpoint] = result.passed
            report.findings.extend(f"[{test.viewpoint}] {finding}" for finding in result.findings
                                   if not result.passed)
            all_passed = all_passed and result.passed
        report.add_step("acceptance-tests", "run viewpoint analyses",
                        results=dict(report.acceptance_results))

        report.accepted = all_passed
        return report, (SystemModel(contracts, decision.placement, decision.priorities,
                                    candidate.version + 1) if all_passed else None)

    def _integrate_additions(self, model: SystemModel, requests: List[ChangeRequest]
                             ) -> Optional[Tuple[SystemModel, List[IntegrationReport]]]:
        """Integrate the longest passing prefix of a run of additions.

        Records steps 1-3 of :meth:`integrate` for every prefix of the run
        applied to ``model``, in order, up to the first prefix those steps
        reject (a duplicate, an invalid contract, a missing provider or a
        :class:`MappingError`) or to the end of the run.  The first prefix
        is refined as :meth:`integrate` refines it.  Each later prefix adds
        one contract to a prefix that passed, and the engine keeps every
        earlier placement, so the prefix checks only its new contract's
        name and required services and places only that contract, in the
        one :class:`MappingState` carried through the run; its steps record
        exactly what a full refinement of the prefix would.

        The acceptance tests then run on the last refined prefix.  If it
        fails one, they bisect over the refined prefixes, each tested with
        the placement and priorities recorded for it, for the longest
        prefix that passes.  Both are exact because every test vouches,
        through its ``monotone`` method, that a pass on a contract set
        implies a pass on each of its prefixes: placements are kept from
        one prefix to the next, and priorities keep their relative order.
        So "prefix k passes" is a step function of k, one run on the last
        refined prefix decides a run that passes whole, and
        ``ceil(log2(n))`` more runs find the step among ``n`` refined
        prefixes.

        Returns the model to adopt, built once for the longest passing
        prefix (its version ``model.version`` plus the prefix length), and
        one report per request of it, each holding exactly what
        :meth:`integrate` records for that request in turn; the caller sets
        the configuration versions.  When the prefix is shorter than the
        run, the next request is the first one per-request integration
        rejects, and everything after it is a new run: skipping the
        rejected request changes every later prefix.  With no passing
        request the model is ``model`` itself and the list is empty.

        Returns ``None``, having refined nothing, when per-request
        integration must decide the whole run instead: there are no
        requests, a request is not an addition, or a test has no
        ``monotone`` method or does not vouch for the run's final contract
        set.
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
        # contract is validated once, not once per prefix holding it, and
        # the run is refined up to the first invalid one.
        installed = len(model)
        first_invalid = next((index for index, contract in enumerate(final)
                              if contract.validate()), len(final))
        reports: List[IntegrationReport] = []
        decisions: List[MappingDecision] = []
        state: Optional[MappingState] = None
        provided: Set[str] = set()
        for position, request in enumerate(
                requests[:max(0, first_invalid - installed)], start=installed):
            if state is None:
                try:
                    candidate = model.changed(request)
                except ValueError:
                    break
                report = IntegrationReport(request_id=request.request_id)
                contracts = candidate.contracts()
                decision = self._refine(candidate, contracts, [], report)
                if decision is None:
                    break
                state = MappingState(self.mapping_engine)
                for index, contract in enumerate(contracts):
                    state.keep(contract, decision.placement[contract.component], index)
                    provided.update(provision.service for provision in contract.provides)
            else:
                contract = request.contract
                if contract.component in state.placement:
                    break
                provided.update(provision.service for provision in contract.provides)
                if any(not requirement.optional and requirement.service not in provided
                       for requirement in contract.requires):
                    break
                try:
                    state.place(contract, position)
                except MappingError:
                    break
                decision = state.decision()
                report = IntegrationReport(request_id=request.request_id)
                self._record_services(report, [])
                self._record_mapping(decision, report)
            reports.append(report)
            decisions.append(decision)
        passing = len(reports)
        if passing and not self._passes(final[:installed + passing],
                                        decisions[passing - 1]):
            # Prefix ``low`` passes (the empty one is the adopted model) and
            # prefix ``high`` fails.
            low, high = 0, passing
            while high - low > 1:
                middle = (low + high) // 2
                if self._passes(final[:installed + middle], decisions[middle - 1]):
                    low = middle
                else:
                    high = middle
            passing = low
        if not passing:
            return model, []
        results = {test.viewpoint: True for test in self.acceptance_tests}
        for report in reports[:passing]:
            report.acceptance_results = dict(results)
            report.add_step("acceptance-tests", "run viewpoint analyses",
                            results=dict(results))
            report.accepted = True
        decision = decisions[passing - 1]
        return (SystemModel(final[:installed + passing], decision.placement,
                            decision.priorities, model.version + passing),
                reports[:passing])

    def _passes(self, contracts: List[Contract], decision: MappingDecision) -> bool:
        """Whether ``contracts``, mapped and prioritised as ``decision``
        records, pass every acceptance test; stops at the first that
        fails."""
        return all(test.run(contracts, decision.placement, decision.priorities,
                            self.platform).passed
                   for test in self.acceptance_tests)

    def _refine(self, candidate: SystemModel, contracts: List[Contract],
                problems: List[str], report: IntegrationReport
                ) -> Optional[MappingDecision]:
        """Steps 1-3 of :meth:`integrate` on ``candidate``, given its
        ``contracts`` and their validation ``problems``, recorded in
        ``report``.  Returns the mapping decision, or ``None`` when the
        candidate is rejected (its findings are in ``report``)."""
        # Step 1: functional architecture — validate contracts and service
        # completeness.
        problems = problems + [f"missing provider for {entry}"
                               for entry in candidate.missing_services()]
        if not self._record_services(report, problems):
            return None

        # Step 2: technical architecture — map components to the platform.
        try:
            decision = self.mapping_engine.map(contracts,
                                               existing=candidate.mapping)
        except MappingError as exc:
            report.add_step("technical-architecture", "mapping failed", error=str(exc))
            report.findings.append(str(exc))
            report.accepted = False
            return None
        self._record_mapping(decision, report)
        return decision

    @staticmethod
    def _record_services(report: IntegrationReport, problems: List[str]) -> bool:
        """Record step 1 with its ``problems``; ``False`` (the report
        rejected, with the problems as findings) when there are any."""
        report.add_step("functional-architecture",
                        "validate contracts and service completeness",
                        problems=list(problems))
        if problems:
            report.findings.extend(problems)
            report.accepted = False
            return False
        return True

    @staticmethod
    def _record_mapping(decision: MappingDecision,
                        report: IntegrationReport) -> None:
        """Record steps 2 and 3 of ``decision``."""
        report.add_step("technical-architecture",
                        "map components to processing resources",
                        placement=dict(decision.placement),
                        utilization=dict(decision.utilization))
        # Step 3: implementation model — priorities were assigned during
        # mapping; record them explicitly as their own refinement step.
        report.add_step("implementation-model",
                        "assign scheduling priorities (deadline monotonic per resource)",
                        priorities=dict(decision.priorities))

    def preview_tasksets(self, model: SystemModel,
                         request: ChangeRequest) -> Optional[Dict[str, TaskSet]]:
        """The per-processor task sets the timing acceptance test *would*
        analyse for ``request`` applied to ``model``.

        Runs the same candidate construction, validation and mapping steps as
        :meth:`integrate`, without any acceptance test.  Returns ``None``
        when the request would be rejected before the acceptance phase
        (invalid change, contract problems, mapping failure).
        """
        try:
            candidate = model.changed(request)
        except (ValueError, KeyError):
            return None
        contracts = candidate.contracts()
        problems = [problem for contract in contracts
                    for problem in contract.validate()]
        decision = self._refine(candidate, contracts, problems,
                                IntegrationReport(request_id=request.request_id))
        return None if decision is None else tasksets_from_mapping(
            contracts, decision.placement, decision.priorities)

    def synthesize_configuration(self, model: SystemModel, version: int) -> RteConfiguration:
        """Produce the deployable configuration from an accepted model."""
        if model.unmapped_components():
            raise IntegrationError(
                f"model has unmapped components: {model.unmapped_components()}")
        return RteConfiguration(version=version, contracts=model.contracts(),
                                mapping=model.mapping,
                                priorities=model.priorities)
