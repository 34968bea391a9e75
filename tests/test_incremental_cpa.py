"""Property-style equivalence tests for the incremental CPA engine.

The engine's contract is exactness: priority-delta pruning, warm-started
fixpoints and divergence carry-over must produce **bit-identical**
``wcrt``/``schedulable``/``converged`` verdicts to a from-scratch
:class:`~repro.analysis.cpa.ResponseTimeAnalysis`, across randomized
UUniFast task sets and arbitrary single-task mutations.  These tests sweep
well over 200 randomized task sets (fresh sets plus mutation chains) and
fail on the first deviating bit.
"""

from __future__ import annotations

import pytest

from harness import assert_equivalent, make_taskset, rebuild
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.platform.tasks import Task, TaskSet
from repro.sim.random import SeededRNG


class TestFreshTaskSetEquivalence:
    """A cold engine on unrelated task sets reproduces the full analysis."""

    @pytest.mark.parametrize("utilization", [0.5, 0.75, 0.9, 1.05])
    def test_randomized_task_sets(self, utilization):
        engine = IncrementalResponseTimeAnalysis()
        for seed in range(25):
            taskset = make_taskset(seed, 8, utilization)
            assert_equivalent(engine.analyse(taskset),
                              ResponseTimeAnalysis(taskset).analyse(),
                              f"seed={seed} u={utilization}")

    def test_speed_factors(self):
        engine = IncrementalResponseTimeAnalysis()
        taskset = make_taskset(7, 10, 0.7)
        for speed in (1.0, 0.8, 0.5, 0.25):
            assert_equivalent(
                engine.analyse(taskset, speed_factor=speed),
                ResponseTimeAnalysis(taskset, speed_factor=speed).analyse(),
                f"speed={speed}")

    def test_event_model_overrides(self):
        engine = IncrementalResponseTimeAnalysis()
        taskset = make_taskset(11, 6, 0.65)
        models = {"t0": EventModel(period=taskset.get("t0").period, jitter=0.002)}
        assert_equivalent(
            engine.analyse(taskset, event_models=models),
            ResponseTimeAnalysis(taskset, event_models=models).analyse(),
            "event models")
        # And again without overrides: the override run must not poison it.
        assert_equivalent(engine.analyse(taskset),
                          ResponseTimeAnalysis(taskset).analyse(),
                          "after event models")


class TestMutationChainEquivalence:
    """Random single-task mutations re-use aggressively yet stay exact."""

    def _mutate(self, rng: SeededRNG, tasks):
        """One random single-task mutation (grow/shrink/add/remove/rewire)."""
        kind = rng.choice(["inflate", "deflate", "period", "add", "remove"])
        index = rng.integer(0, len(tasks) - 1)
        victim = tasks[index]
        if kind == "add" or len(tasks) <= 2:
            period = rng.choice([0.01, 0.05, 0.1])
            new = Task(f"m{rng.integer(0, 10**6)}", period=period,
                       wcet=period * rng.uniform(0.02, 0.3),
                       priority=max(t.priority for t in tasks) + 1)
            return tasks + [new]
        if kind == "remove":
            return tasks[:index] + tasks[index + 1:]
        if kind == "inflate":
            changed = victim.scaled(rng.uniform(1.01, 1.6))
        elif kind == "deflate":
            changed = victim.scaled(rng.uniform(0.5, 0.99))
        else:  # period change (also reshuffles relative priorities implicitly)
            changed = Task(victim.name, period=victim.period * rng.uniform(0.7, 1.4),
                           wcet=victim.wcet, priority=victim.priority)
        return [changed if i == index else t for i, t in enumerate(tasks)]

    def test_mutation_chains_bit_identical(self):
        """>= 200 task sets: 20 chains x (1 base + 10 mutation steps)."""
        engine = IncrementalResponseTimeAnalysis()
        checked = 0
        for seed in range(20):
            utilization = (0.6, 0.8, 0.95)[seed % 3]
            tasks = make_taskset(seed, 9, utilization).tasks()
            rng = SeededRNG(seed + 4000)
            for step in range(11):
                taskset = rebuild(tasks)
                assert_equivalent(engine.analyse(taskset),
                                  ResponseTimeAnalysis(taskset).analyse(),
                                  f"seed={seed} step={step}")
                checked += 1
                tasks = self._mutate(rng, tasks)
        assert checked >= 200
        # The chains must actually exercise the delta machinery.
        assert engine.delta_analyses > 0
        assert engine.tasks_reused > 0
        assert engine.tasks_warm_started > 0

    def test_wcet_inflation_grid(self):
        """The archetypal acceptance sweep: one task's WCET walks a grid."""
        engine = IncrementalResponseTimeAnalysis()
        base = make_taskset(3, 10, 0.8).tasks()
        victim = base[len(base) // 2].name
        for factor in (1.0, 1.1, 1.25, 1.5, 2.0, 4.0):
            tasks = [t.scaled(factor) if t.name == victim else t for t in base]
            taskset = rebuild(tasks)
            assert_equivalent(engine.analyse(taskset),
                              ResponseTimeAnalysis(taskset).analyse(),
                              f"factor={factor}")
        assert engine.tasks_reused > 0

    def test_add_chain_reanalyses_only_new_tasks(self):
        """Adding a lowest-priority task must not re-iterate existing ones."""
        engine = IncrementalResponseTimeAnalysis()
        tasks = make_taskset(5, 8, 0.5).tasks()
        engine.analyse(rebuild(tasks))
        analysed_before = engine.tasks_analysed
        new = Task("added", period=0.2, wcet=0.001,
                   priority=max(t.priority for t in tasks) + 1)
        results = engine.analyse(rebuild(tasks + [new]))
        assert engine.tasks_analysed == analysed_before + 1
        assert engine.tasks_reused == len(tasks)
        full = ResponseTimeAnalysis(rebuild(tasks + [new])).analyse()
        assert_equivalent(results, full, "add chain")


class TestBatchedApi:
    def test_analyze_many_matches_per_set_analysis(self):
        grids = []
        base = make_taskset(9, 8, 0.7).tasks()
        victim = base[2].name
        for factor in (1.0, 1.2, 1.4, 1.8):
            grids.append(rebuild([t.scaled(factor) if t.name == victim else t
                                  for t in base]))
        engine = IncrementalResponseTimeAnalysis()
        batched = engine.analyze_many(grids)
        assert len(batched) == len(grids)
        for taskset, results in zip(grids, batched):
            assert_equivalent(results, ResponseTimeAnalysis(taskset).analyse(),
                              "analyze_many")

    def test_empty_batch_returns_empty_list(self):
        """Edge case pinned for the fleet campaign: an empty wave."""
        engine = IncrementalResponseTimeAnalysis()
        assert engine.analyze_many([]) == []
        assert engine.full_analyses == engine.delta_analyses == 0

    def test_single_element_batch(self):
        """Edge case: a single-vehicle fleet is a one-element batch."""
        engine = IncrementalResponseTimeAnalysis()
        taskset = make_taskset(4, 6, 0.7)
        batched = engine.analyze_many([taskset])
        assert len(batched) == 1
        assert_equivalent(batched[0], ResponseTimeAnalysis(taskset).analyse(),
                          "single-element batch")

    def test_empty_taskset_analyses_to_empty_results(self):
        engine = IncrementalResponseTimeAnalysis()
        assert engine.analyse(TaskSet()) == {}
        assert engine.schedulable(TaskSet())  # vacuously schedulable

    def test_all_unschedulable_batch(self):
        """Edge case: an all-rejected wave — every set over-utilized —
        stays bit-identical to the full analysis."""
        engine = IncrementalResponseTimeAnalysis()
        grids = [make_taskset(seed, 6, 1.4) for seed in range(4)]
        for taskset, results in zip(grids, engine.analyze_many(grids)):
            full = ResponseTimeAnalysis(taskset).analyse()
            assert_equivalent(results, full, "all-unschedulable batch")
            assert not all(r.schedulable for r in results.values())

    def test_alias_and_schedulable(self):
        engine = IncrementalResponseTimeAnalysis()
        taskset = make_taskset(2, 6, 0.6)
        assert engine.analyze_many([taskset])[0].keys() == {t.name for t in taskset}
        assert engine.schedulable(taskset) == ResponseTimeAnalysis(taskset).schedulable()
        overloaded = make_taskset(2, 6, 1.3)
        assert engine.schedulable(overloaded) == \
            ResponseTimeAnalysis(overloaded).schedulable()


class TestEngineHousekeeping:
    def test_history_is_bounded(self):
        engine = IncrementalResponseTimeAnalysis(history_limit=4)
        for seed in range(10):
            engine.analyse(make_taskset(seed, 5, 0.5))
        assert len(engine._history) <= 4

    def test_clear_resets_state(self):
        engine = IncrementalResponseTimeAnalysis()
        engine.analyse(make_taskset(0, 5, 0.5))
        engine.clear()
        assert engine.tasks_analysed == 0
        assert engine.reuse_rate == 0.0
        assert len(engine._history) == 0

    def test_rejects_nonpositive_history(self):
        with pytest.raises(ValueError):
            IncrementalResponseTimeAnalysis(history_limit=0)

    def test_revisiting_a_set_after_a_delta_is_exact(self):
        """Analysing a set again after a one-task delta of it (a -> b -> a)
        matches the cold analysis at every step."""
        engine = IncrementalResponseTimeAnalysis()
        a = make_taskset(13, 8, 0.7)
        tasks = a.tasks()
        b = rebuild(tasks[:-1] + [tasks[-1].scaled(1.3)])
        for taskset in (a, b, a):
            assert_equivalent(engine.analyse(taskset),
                              ResponseTimeAnalysis(taskset).analyse(),
                              "revisit after a delta")
