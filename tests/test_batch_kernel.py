"""Differential-oracle tests for batched busy-window analysis.

A sweep hands a whole grid of task sets to
:meth:`~repro.analysis.cache.AnalysisCache.analyse_many` or to
:meth:`~repro.analysis.incremental.IncrementalResponseTimeAnalysis.analyze_many`.
The contract of both entry points is exactness: for any grid of task
sets, every lane's ``wcrt``/``schedulable``/``converged`` verdicts equal a
cold :class:`~repro.analysis.cpa.ResponseTimeAnalysis` of that lane, in
input order.  The suites below drive randomized UUniFast grids (hypothesis
plus seeded sweeps), adversarial fixpoint edge cases, the engine history a
batch leaves behind, and the scenario wiring through the shared
``tests/harness.py`` oracle.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harness import assert_equivalent, cold_results, make_taskset, rebuild
from repro.analysis.cache import AnalysisCache
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.platform.tasks import Task, TaskSet
from repro.sim.random import SeededRNG

#: ``False`` analyses through the bare incremental engine, ``True`` through
#: the memoising cache in front of it (the path a campaign wave takes).
BATCH_PATHS = [False, True]


def batched(cached: bool):
    """A fresh batched entry point: ``analyse_many(tasksets, ...)``."""
    if cached:
        return AnalysisCache().analyse_many
    return IncrementalResponseTimeAnalysis().analyze_many


def perturbed_grid(seed: int, n: int, utilization: float, variants: int,
                   low: float = 0.7, high: float = 1.35):
    """An acceptance-sweep grid: one base set plus WCET-perturbed variants
    (same task names and priorities by construction)."""
    base = make_taskset(seed, n, utilization).tasks()
    rng = SeededRNG(seed + 10_000)
    grid = [rebuild(base)]
    for _ in range(variants - 1):
        grid.append(rebuild([t.scaled(rng.uniform(low, high)) for t in base]))
    return grid


class TestBatchEqualsColdOracle:
    """Every lane of a batch equals its own from-scratch analysis."""

    @pytest.mark.parametrize("cached", BATCH_PATHS)
    @pytest.mark.parametrize("utilization", [0.5, 0.75, 0.9, 1.05])
    def test_perturbed_grids(self, cached, utilization):
        for seed in (0, 1, 2):
            grid = perturbed_grid(seed, 8, utilization, variants=12)
            solved = batched(cached)(grid)
            for lane, taskset in enumerate(grid):
                assert_equivalent(solved[lane], cold_results(taskset),
                                  f"seed={seed} u={utilization} lane={lane}")

    @pytest.mark.parametrize("cached", BATCH_PATHS)
    def test_mixed_congruence_grid_preserves_input_order(self, cached):
        """Grids of several task-set shapes, shuffled together, come back
        lane for lane in input order."""
        grid = []
        for seed in range(3):
            grid.extend(perturbed_grid(seed, 5 + seed, 0.7, variants=4))
        rng = SeededRNG(99)
        rng.shuffle(grid)
        solved = batched(cached)(grid)
        assert len(solved) == len(grid)
        for lane, taskset in enumerate(grid):
            assert set(solved[lane]) == {t.name for t in taskset}
            assert_equivalent(solved[lane], cold_results(taskset),
                              f"mixed lane={lane}")

    @pytest.mark.parametrize("cached", BATCH_PATHS)
    def test_divergent_lanes(self, cached):
        """Over-utilized lanes diverge exactly as the cold analysis does
        without disturbing schedulable neighbours."""
        grid = (perturbed_grid(4, 6, 1.3, variants=4)
                + perturbed_grid(5, 6, 0.5, variants=4))
        solved = batched(cached)(grid)
        diverged = 0
        for lane, taskset in enumerate(grid):
            cold = cold_results(taskset)
            assert_equivalent(solved[lane], cold, f"divergent lane={lane}")
            diverged += sum(1 for r in cold.values() if not r.converged)
        assert diverged > 0, "the grid must actually exercise divergence"

    @pytest.mark.parametrize("cached", BATCH_PATHS)
    def test_speed_factors_and_event_models(self, cached):
        grid = perturbed_grid(7, 7, 0.65, variants=6)
        for speed in (1.0, 0.8, 0.4):
            solved = batched(cached)(grid, speed_factor=speed)
            for lane, taskset in enumerate(grid):
                assert_equivalent(
                    solved[lane], cold_results(taskset, speed_factor=speed),
                    f"speed={speed} lane={lane}")
        models = {"t0": EventModel(period=grid[0].get("t0").period, jitter=0.002),
                  "t3": EventModel(period=grid[0].get("t3").period * 0.9,
                                   jitter=0.001)}
        solved = batched(cached)(grid, event_models=models)
        for lane, taskset in enumerate(grid):
            assert_equivalent(
                solved[lane], cold_results(taskset, event_models=models),
                f"event models lane={lane}")

    @pytest.mark.parametrize("cached", BATCH_PATHS)
    def test_empty_and_degenerate_batches(self, cached):
        assert batched(cached)([]) == []
        assert batched(cached)([TaskSet()]) == [{}]
        single = make_taskset(3, 5, 0.6)
        assert_equivalent(batched(cached)([single])[0], cold_results(single),
                          "single lane")

    def test_rejects_nonpositive_speed_factor(self):
        with pytest.raises(ValueError):
            batched(False)([make_taskset(0, 4, 0.5)], speed_factor=0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000),
           n=st.integers(min_value=2, max_value=10),
           utilization=st.floats(min_value=0.3, max_value=1.2),
           variants=st.integers(min_value=2, max_value=8))
    def test_randomized_grids_hypothesis(self, seed, n, utilization, variants):
        """Property: any UUniFast grid — engine batch == cached batch == cold."""
        grid = perturbed_grid(seed, n, utilization, variants)
        engine_results = batched(False)(grid)
        cached_results = batched(True)(grid)
        for lane, taskset in enumerate(grid):
            cold = cold_results(taskset)
            assert_equivalent(engine_results[lane], cold, f"engine lane={lane}")
            assert_equivalent(cached_results[lane], cold, f"cache lane={lane}")


class TestFixpointEdgeCases:
    """Adversarial busy-window shapes, batched and per-set incremental
    analysis against the cold analysis via the shared harness."""

    def _check_all_engines(self, tasksets, context, max_iterations=10_000,
                           fresh_incremental=False):
        """``fresh_incremental`` gives each lane its own engine: a truncated
        (cap-starved) fixpoint depends on its starting iterate, so a warm
        history legitimately lands elsewhere than a cold run — only the
        cold-history engine is bound to identical truncation."""
        tasksets = list(tasksets)

        def engine():
            return IncrementalResponseTimeAnalysis(max_iterations=max_iterations)

        if fresh_incremental:
            batch = [engine().analyze_many([taskset])[0] for taskset in tasksets]
        else:
            batch = engine().analyze_many(tasksets)
        incremental = engine()
        solved = []
        for lane, taskset in enumerate(tasksets):
            cold = ResponseTimeAnalysis(
                taskset, max_iterations=max_iterations).analyse()
            assert_equivalent(batch[lane], cold, f"{context} batch lane={lane}")
            if fresh_incremental:
                incremental = engine()
            assert_equivalent(incremental.analyse(taskset), cold,
                              f"{context} incremental lane={lane}")
            solved.append(cold)
        return solved

    def test_vanishing_wcet_tasks(self):
        """WCETs at the validation floor (1e-12) neither divide away nor
        perturb neighbours."""
        grids = []
        for seed in range(3):
            tasks = make_taskset(seed, 6, 0.6).tasks()
            tasks[0] = Task(tasks[0].name, period=tasks[0].period, wcet=1e-12,
                            priority=tasks[0].priority)
            tasks[3] = Task(tasks[3].name, period=tasks[3].period, wcet=1e-12,
                            priority=tasks[3].priority)
            grids.append(rebuild(tasks))
        self._check_all_engines(grids, "vanishing wcet")

    def test_equal_priority_ties_do_not_interfere(self):
        """Tied priorities: strictly-higher only — the tie partner must not
        appear in the interference sum."""
        grid = []
        for seed in range(3):
            rng = SeededRNG(seed)
            periods = rng.log_uniform_periods(6, 0.01, 0.2)
            grid.append(TaskSet([
                Task(f"t{i}", period=p, wcet=p * 0.12, priority=i // 2)
                for i, p in enumerate(periods)]))
        assert all(self._check_all_engines(grid, "priority ties"))

    def test_busy_window_exactly_touching_deadline(self):
        """WCRT == deadline is schedulable (<= deadline + eps); one epsilon
        of extra WCET flips it.  Integer-ratio periods make the fixpoint
        land exactly on the deadline."""
        exact = TaskSet([Task("hi", period=4.0, wcet=1.0, priority=0),
                         Task("lo", period=16.0, wcet=3.0, deadline=4.0,
                              priority=1)])
        over = TaskSet([Task("hi", period=4.0, wcet=1.0, priority=0),
                        Task("lo", period=16.0, wcet=3.0 + 1e-6, deadline=4.0,
                             priority=1)])
        solved = self._check_all_engines([exact, over], "deadline touch")
        assert solved[0]["lo"].wcrt == 4.0
        assert solved[0]["lo"].schedulable
        assert not solved[1]["lo"].schedulable

    @pytest.mark.parametrize("cap", [1, 2, 3, 5])
    def test_iteration_cap_divergence(self, cap):
        """A starved iteration budget truncates the fixpoint identically:
        same final iterate, same (non-)verdict."""
        grids = [make_taskset(seed, 7, u) for seed in range(2)
                 for u in (0.9, 1.2)]
        self._check_all_engines(grids, f"cap={cap}", max_iterations=cap,
                                fresh_incremental=True)


class TestEngineWiring:
    """The history and counters an ``analyze_many`` batch leaves in
    :class:`IncrementalResponseTimeAnalysis`."""

    def test_warm_sets_use_incremental_path(self):
        """Once history exists, repeated sets are reused or warm-started —
        and verdicts still match cold."""
        grid = perturbed_grid(23, 7, 0.7, variants=6)
        engine = IncrementalResponseTimeAnalysis()
        engine.analyze_many(grid)
        again = engine.analyze_many([rebuild(ts.tasks()) for ts in grid])
        assert engine.tasks_warm_started + engine.tasks_reused > 0
        for lane, taskset in enumerate(grid):
            assert_equivalent(again[lane], cold_results(taskset),
                              f"warm lane={lane}")

    def test_batched_results_seed_warm_history(self):
        """Batched lanes are remembered: a follow-up perturbation of a
        batched set must hit the delta machinery, not a cold full analysis."""
        grid = perturbed_grid(24, 6, 0.7, variants=5)
        engine = IncrementalResponseTimeAnalysis()
        engine.analyze_many(grid)
        assert len(engine._history) > 0
        victim = grid[-1].tasks()
        mutated = rebuild([t.scaled(1.05) if i == 2 else t
                           for i, t in enumerate(victim)])
        full_before = engine.full_analyses
        results = engine.analyse(mutated)
        assert engine.delta_analyses > 0
        assert engine.full_analyses == full_before
        assert_equivalent(results, cold_results(mutated), "post-batch delta")

    def test_batch_and_scalar_engines_agree(self):
        """One ``analyze_many`` batch equals per-set ``analyse`` calls in
        the same order."""
        grid = (perturbed_grid(25, 8, 0.85, variants=7)
                + perturbed_grid(26, 5, 1.1, variants=4))
        scalar_engine = IncrementalResponseTimeAnalysis()
        scalar = [scalar_engine.analyse(taskset) for taskset in grid]
        batch = IncrementalResponseTimeAnalysis().analyze_many(grid)
        for lane in range(len(grid)):
            assert_equivalent(batch[lane], scalar[lane], f"lane={lane}")

    def test_clear_resets_batch_counters(self):
        engine = IncrementalResponseTimeAnalysis()
        engine.analyze_many(perturbed_grid(27, 6, 0.7, variants=4))
        assert engine.tasks_analysed > 0
        assert engine.delta_analyses > 0
        engine.clear()
        assert engine.tasks_analysed == 0
        assert engine.tasks_reused == 0
        assert (engine.full_analyses, engine.delta_analyses) == (0, 0)
        assert len(engine._history) == 0


class TestScenarioParity:
    """Batching and memoising the analysis are verdict-invisible end to
    end."""

    def test_fleet_campaign_records_identical(self):
        """Batched admission against the sequential per-vehicle oracle:
        every field but the admission mode and the cache/engine counters."""
        from repro.scenarios.fleet_campaign import run_fleet_campaign_scenario
        counters = {"batched", "cache_hits", "cache_misses",
                    "engine_reuse_rate"}

        def verdicts(result):
            return {name: value
                    for name, value in dataclasses.asdict(result).items()
                    if name not in counters}

        batch = run_fleet_campaign_scenario(fleet_size=14, seed=2,
                                            num_variants=4, extra_components=6)
        sequential = run_fleet_campaign_scenario(fleet_size=14, seed=2,
                                                 num_variants=4,
                                                 extra_components=6,
                                                 batch_admission=False)
        assert batch.batched and not sequential.batched
        assert verdicts(batch) == verdicts(sequential)

    def test_infield_update_records_identical(self):
        from repro.scenarios.infield_update import run_infield_update_scenario
        base = run_infield_update_scenario(num_requests=10, seed=4,
                                           deploy=False,
                                           use_analysis_cache=False)
        cached = run_infield_update_scenario(num_requests=10, seed=4,
                                             deploy=False,
                                             analysis_cache=AnalysisCache())
        assert cached == base
