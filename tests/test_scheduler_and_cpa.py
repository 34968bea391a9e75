"""Tests for the scheduling simulator and the WCRT analysis, including the
property that the analytical bound dominates the simulated response times."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.cpa import EndToEndPath, EventModel, ResponseTimeAnalysis, end_to_end_latency
from repro.platform.scheduler import FixedPriorityScheduler, ResourceScheduler
from repro.platform.resources import ProcessingResource
from repro.platform.tasks import Task, TaskError, TaskSet
from repro.sim.random import SeededRNG
from repro.sim.trace import TraceRecorder


class TestEventModel:
    def test_eta_plus_periodic(self):
        model = EventModel(period=10.0)
        assert model.eta_plus(0.0) == 0
        assert model.eta_plus(1.0) == 1
        assert model.eta_plus(10.0) == 1
        assert model.eta_plus(10.1) == 2

    def test_jitter_increases_activations(self):
        assert EventModel(period=10.0, jitter=5.0).eta_plus(6.0) == 2

    def test_delta_min(self):
        model = EventModel(period=10.0, jitter=3.0)
        assert model.delta_min(1) == 0.0
        assert model.delta_min(2) == pytest.approx(7.0)
        assert model.delta_min(3) == pytest.approx(17.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            EventModel(period=0.0)
        with pytest.raises(ValueError):
            EventModel(period=1.0, jitter=-1.0)

    def test_nan_parameters_rejected(self):
        with pytest.raises(ValueError, match="period"):
            EventModel(period=float("nan"))
        with pytest.raises(ValueError, match="jitter"):
            EventModel(period=1.0, jitter=float("nan"))


class TestResponseTimeAnalysis:
    def test_classic_example(self, simple_taskset):
        results = ResponseTimeAnalysis(simple_taskset).analyse()
        assert results["t_high"].wcrt == pytest.approx(0.002)
        assert results["t_mid"].wcrt == pytest.approx(0.007)
        assert results["t_low"].wcrt == pytest.approx(0.019)
        assert all(r.schedulable for r in results.values())

    def test_unschedulable_overload_detected(self):
        taskset = TaskSet([
            Task("a", period=0.01, wcet=0.006, priority=0),
            Task("b", period=0.01, wcet=0.006, priority=1),
        ])
        analysis = ResponseTimeAnalysis(taskset)
        assert not analysis.schedulable()

    def test_speed_factor_slows_tasks(self, simple_taskset):
        nominal = ResponseTimeAnalysis(simple_taskset).response_time(
            simple_taskset.get("t_low")).wcrt
        throttled = ResponseTimeAnalysis(simple_taskset, speed_factor=0.8).response_time(
            simple_taskset.get("t_low")).wcrt
        assert throttled > nominal
        overloaded = ResponseTimeAnalysis(simple_taskset, speed_factor=0.5).response_time(
            simple_taskset.get("t_low"))
        assert not overloaded.schedulable

    def test_jitter_increases_wcrt(self):
        base = TaskSet([Task("hp", period=0.01, wcet=0.004, priority=0),
                        Task("lp", period=0.05, wcet=0.01, priority=1)])
        with_jitter = TaskSet([Task("hp", period=0.01, wcet=0.004, priority=0, jitter=0.005),
                               Task("lp", period=0.05, wcet=0.01, priority=1)])
        wcrt_base = ResponseTimeAnalysis(base).response_time(base.get("lp")).wcrt
        wcrt_jitter = ResponseTimeAnalysis(with_jitter).response_time(
            with_jitter.get("lp")).wcrt
        assert wcrt_jitter >= wcrt_base

    @pytest.mark.parametrize("speed_factor", [0.0, -0.5, float("nan")])
    def test_invalid_speed_factor_rejected(self, simple_taskset, speed_factor):
        with pytest.raises(ValueError, match="speed factor"):
            ResponseTimeAnalysis(simple_taskset, speed_factor=speed_factor)

    def test_nan_inputs_that_used_to_hang_are_rejected(self):
        """A NaN WCET, speed factor or deadline made the busy window's
        stopping tests all false, so these never returned."""
        with pytest.raises(TaskError):
            ResponseTimeAnalysis(TaskSet([
                Task("a", period=0.1, wcet=float("nan"))])).analyse()
        with pytest.raises(ValueError):
            ResponseTimeAnalysis(TaskSet([Task("a", period=0.1, wcet=0.01)]),
                                 speed_factor=float("nan")).analyse()
        with pytest.raises(TaskError):
            ResponseTimeAnalysis(TaskSet([
                Task("a", period=0.01, wcet=0.006, priority=0),
                Task("b", period=0.01, wcet=0.006, priority=1,
                     deadline=float("nan"))])).analyse()

    def test_unknown_task_rejected(self, simple_taskset):
        analysis = ResponseTimeAnalysis(simple_taskset)
        with pytest.raises(ValueError):
            analysis.response_time(Task("alien", period=1.0, wcet=0.1))

    def test_utilization(self, simple_taskset):
        assert ResponseTimeAnalysis(simple_taskset).utilization() == pytest.approx(0.65)

    def test_end_to_end_latency_composition(self, simple_taskset):
        results = ResponseTimeAnalysis(simple_taskset).analyse()
        path = EndToEndPath("chain", tasks=[simple_taskset.get("t_high"),
                                            simple_taskset.get("t_low")],
                            communication_delays=[0.001])
        latency = end_to_end_latency(path, [results])
        assert latency == pytest.approx(results["t_high"].wcrt + 0.001 + results["t_low"].wcrt)

    def test_end_to_end_latency_none_when_unschedulable(self):
        taskset = TaskSet([Task("a", period=0.01, wcet=0.006, priority=0),
                           Task("b", period=0.01, wcet=0.006, priority=1)])
        results = ResponseTimeAnalysis(taskset).analyse()
        path = EndToEndPath("chain", tasks=[taskset.get("b")])
        assert end_to_end_latency(path, [results]) is None

    def test_empty_task_chain_is_rejected(self):
        """Regression: an empty chain used to report 0.0 latency — silently
        'schedulable' — instead of surfacing the configuration error."""
        with pytest.raises(ValueError, match="must not be empty"):
            EndToEndPath("chain")
        with pytest.raises(ValueError, match="must not be empty"):
            EndToEndPath("chain", tasks=[])

    def test_communication_delay_count_still_validated(self, simple_taskset):
        with pytest.raises(ValueError, match="one communication delay per hop"):
            EndToEndPath("chain", tasks=[simple_taskset.get("t_high")],
                         communication_delays=[0.001, 0.002])


class TestFixedPriorityScheduler:
    def test_simulation_matches_analysis_on_classic_set(self, simple_taskset):
        analysis = ResponseTimeAnalysis(simple_taskset).analyse()
        stats = FixedPriorityScheduler(simple_taskset).run(1.0)
        for name, result in analysis.items():
            assert stats.worst_response_times[name] == pytest.approx(result.wcrt, abs=1e-9)

    def test_no_deadline_misses_for_schedulable_set(self, simple_taskset):
        stats = FixedPriorityScheduler(simple_taskset).run(1.0)
        assert stats.deadline_misses == 0
        assert stats.jobs_completed > 0

    def test_overload_produces_misses(self):
        taskset = TaskSet([Task("a", period=0.01, wcet=0.006, priority=0),
                           Task("b", period=0.01, wcet=0.006, priority=1)])
        stats = FixedPriorityScheduler(taskset).run(0.5)
        assert stats.deadline_misses > 0

    def test_busy_time_matches_utilization(self, simple_taskset):
        stats = FixedPriorityScheduler(simple_taskset).run(1.0)
        assert stats.utilization_observed == pytest.approx(0.65, abs=0.02)

    def test_preemption_recorded(self):
        taskset = TaskSet([Task("hp", period=0.01, wcet=0.002, priority=0),
                           Task("lp", period=0.1, wcet=0.05, priority=1)])
        stats = FixedPriorityScheduler(taskset).run(0.5)
        assert stats.preemptions > 0

    def test_speed_factor_causes_misses(self, simple_taskset):
        nominal = FixedPriorityScheduler(simple_taskset, speed_factor=1.0).run(1.0)
        throttled = FixedPriorityScheduler(simple_taskset, speed_factor=0.4).run(1.0)
        assert nominal.deadline_misses == 0
        assert throttled.deadline_misses > 0

    def test_recorder_receives_completions(self, simple_taskset):
        recorder = TraceRecorder()
        FixedPriorityScheduler(simple_taskset, recorder=recorder).run(0.2)
        assert len(recorder.filter(category="scheduler.job_complete")) > 0

    def test_invalid_arguments(self, simple_taskset):
        with pytest.raises(ValueError):
            FixedPriorityScheduler(simple_taskset, speed_factor=0.0)
        with pytest.raises(ValueError):
            FixedPriorityScheduler(simple_taskset).run(0.0)

    def test_resource_scheduler_wraps_platform(self, dual_core_platform, simple_taskset):
        cpu0 = dual_core_platform.processor("cpu0")
        for task in simple_taskset:
            cpu0.host(task)
        results = ResourceScheduler().simulate(dual_core_platform.processors(), 0.2)
        assert set(results) == {"cpu0", "cpu1"}
        assert results["cpu0"].jobs_completed > 0
        assert results["cpu1"].jobs_completed == 0


def _random_taskset(seed: int, n: int, total_utilization: float) -> TaskSet:
    rng = SeededRNG(seed)
    utilizations = rng.uunifast(n, total_utilization)
    periods = rng.log_uniform_periods(n, 0.005, 0.2)
    taskset = TaskSet()
    for index, (u, period) in enumerate(zip(utilizations, periods)):
        wcet = max(1e-6, u * period)
        taskset.add(Task(f"task{index}", period=period, wcet=wcet, priority=0))
    taskset.assign_rate_monotonic_priorities()
    return taskset


class TestAnalysisDominatesSimulation:
    """Property: the analytical WCRT bound is never below the simulated
    worst-case response time (soundness of the busy-window analysis)."""

    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=2, max_value=6),
           utilization=st.floats(min_value=0.2, max_value=0.85))
    @settings(max_examples=25, deadline=None)
    def test_wcrt_bound_is_sound(self, seed, n, utilization):
        taskset = _random_taskset(seed, n, utilization)
        analysis = ResponseTimeAnalysis(taskset).analyse()
        horizon = min(1.0, 20 * max(task.period for task in taskset))
        stats = FixedPriorityScheduler(taskset).run(horizon)
        for name, result in analysis.items():
            observed = stats.worst_response_times.get(name)
            if observed is None or result.wcrt is None:
                continue
            assert result.wcrt + 1e-9 >= observed

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=15, deadline=None)
    def test_low_utilization_sets_are_schedulable(self, seed):
        taskset = _random_taskset(seed, 4, 0.5)
        # Liu & Layland: below the RM bound for 4 tasks (~0.757) everything is
        # schedulable under rate-monotonic priorities.
        assert ResponseTimeAnalysis(taskset).schedulable()
