"""Differentials of the busy-window analysis and its memo against the
reference fixpoint.

``ResponseTimeAnalysis.analyse()`` resolves every task's event model and
speed-scaled WCET once per task set and shares one fixpoint with
``response_time()``; :class:`~repro.analysis.cache.AnalysisCache` answers a
miss with a cold analysis.  Both must reproduce
:func:`harness.reference_response_time`, which resolves the interferers per
analysed task, field for field: ``wcrt``, ``converged``, ``schedulable``,
``busy_window``, ``iterations`` and ``completions``.  The interference is a
float sum, and Python 3.12's ``sum`` is compensated, so CI runs these on
every interpreter of its matrix.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from harness import (ColdTimingAcceptanceTest, reference_analyse,
                     reference_response_time, result_fields, timing_workloads)
from repro.analysis.cache import AnalysisCache
from repro.analysis.cpa import ResponseTimeAnalysis
from repro.contracts.model import Contract, RealTimeRequirement
from repro.mcc.acceptance import TimingAcceptanceTest
from repro.platform.resources import Platform, ProcessingResource


def fields_of(results):
    return {name: result_fields(result) for name, result in results.items()}


class TestFixpointMatchesReference:

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(timing_workloads())
    def test_analyse_and_response_time(self, workload):
        taskset, speed, overrides = workload
        reference = reference_analyse(taskset, speed, overrides)
        analysis = ResponseTimeAnalysis(taskset, speed, overrides)
        results = analysis.analyse()
        assert list(results) == list(reference)
        assert fields_of(results) == fields_of(reference)
        assert analysis.schedulable() == all(
            result.schedulable for result in reference.values())
        for task in taskset:
            assert result_fields(analysis.response_time(task)) == \
                result_fields(reference[task.name])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(timing_workloads(), st.floats(0.5, 1.0), st.data())
    def test_warm_started_response_time(self, workload, shrink, data):
        """Seeds below, at and above the fixpoints: the warm start is a
        hint the caller vouches for, and both sides must treat it alike."""
        taskset, speed, overrides = workload
        analysis = ResponseTimeAnalysis(taskset, speed, overrides)
        for task in taskset:
            completions = reference_response_time(
                taskset, task, speed, overrides).completions
            scale = data.draw(st.sampled_from((shrink, 1.0, 1.0 / shrink)))
            warm = tuple(completion * scale for completion in completions)
            assert result_fields(analysis.response_time(task, warm)) == \
                result_fields(reference_response_time(
                    taskset, task, speed, overrides, warm_start=warm))


class TestMemoMatchesReference:

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(timing_workloads(max_tasks=6), min_size=1, max_size=4),
           st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=4))
    def test_miss_and_hit_on_one_shared_cache(self, workloads, nudges):
        """Speed factors drawn within 4e-13 of each other are different
        entries; a repeated lookup is a hit that returns the same
        fields."""
        cache = AnalysisCache()
        lookups = [(taskset, speed * (1.0 + nudge * 1e-13), overrides)
                   for taskset, speed, overrides in workloads
                   for nudge in nudges]
        for _ in range(2):
            for taskset, speed, overrides in lookups:
                results = cache.analyse(taskset, speed, overrides)
                assert fields_of(results) == fields_of(
                    reference_analyse(taskset, speed, overrides))
        assert cache.hits + cache.misses == 2 * len(lookups)
        assert cache.misses == len(cache)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(st.lists(st.tuples(st.sampled_from((0.005, 0.01, 0.02, 0.05)),
                              st.floats(0.02, 0.45),
                              st.integers(0, 1), st.integers(0, 5)),
                    min_size=1, max_size=8),
           st.just(1.0) | st.floats(0.5, 2.0))
    def test_timing_acceptance_with_a_cache(self, components, speed):
        """The timing viewpoint with a shared cache, run twice (miss, then
        hit), gives the uncached viewpoint's verdict, findings and
        metrics."""
        contracts, mapping, priorities = [], {}, {}
        for index, (period, share, processor, priority) in \
                enumerate(components):
            name = f"c{index}"
            contracts.append(Contract(component=name, requirements=[
                RealTimeRequirement(period=period, wcet=period * share)]))
            mapping[name] = f"cpu{processor}"
            priorities[f"{name}.task"] = priority
        platform = Platform(name="differential")
        for processor in range(2):
            platform.add_processor(ProcessingResource(f"cpu{processor}"))
        plain = TimingAcceptanceTest(speed).run(contracts, mapping,
                                                priorities, platform)
        cache = AnalysisCache()
        for _ in range(2):
            cached = TimingAcceptanceTest(speed, cache=cache).run(
                contracts, mapping, priorities, platform)
            assert (cached.passed, cached.findings, cached.metrics) == \
                (plain.passed, plain.findings, plain.metrics)
        if speed == 1.0:
            cold = ColdTimingAcceptanceTest().run(contracts, mapping,
                                                  priorities, platform)
            assert (cold.passed, cold.metrics) == (plain.passed, plain.metrics)


@pytest.mark.parametrize("speed_factor", [0.0, -1.0, float("nan")])
def test_timing_acceptance_checks_its_speed_factor(speed_factor):
    """The viewpoint takes its utilization from the task set before any
    analysis object would check the speed factor, so it checks it
    itself."""
    with pytest.raises(ValueError, match="speed factor"):
        TimingAcceptanceTest(speed_factor)
