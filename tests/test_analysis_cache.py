"""Tests for the CPA memoization cache (repro.analysis.cache)."""

from __future__ import annotations

import pytest

from harness import cold_results
from repro.analysis.cache import AnalysisCache, taskset_key
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis
from repro.analysis.incremental import IncrementalResponseTimeAnalysis
from repro.mcc.acceptance import TimingAcceptanceTest
from repro.platform.tasks import Task, TaskSet
from repro.scenarios.infield_update import run_infield_update_scenario


def _taskset(wcet_high: float = 0.002) -> TaskSet:
    return TaskSet([
        Task("t_high", period=0.01, wcet=wcet_high, priority=0),
        Task("t_mid", period=0.02, wcet=0.005, priority=1),
        Task("t_low", period=0.05, wcet=0.010, priority=2),
    ])


def _variant(wcet_low: float) -> TaskSet:
    return TaskSet([
        Task("t_high", period=0.01, wcet=0.002, priority=0),
        Task("t_mid", period=0.02, wcet=0.005, priority=1),
        Task("t_low", period=0.05, wcet=wcet_low, priority=2),
    ])


@pytest.fixture
def analysed(monkeypatch):
    """``(task set, speed factor)`` of every cold analysis run in the
    test."""
    calls = []
    analyse = ResponseTimeAnalysis.analyse

    def counting(analysis):
        calls.append((analysis.taskset, analysis.speed_factor))
        return analyse(analysis)

    monkeypatch.setattr(ResponseTimeAnalysis, "analyse", counting)
    return calls


class TestTasksetKey:
    """The exact tuple key the cache stores analyses under."""

    def test_key_matches_for_equal_content(self):
        assert taskset_key(_taskset()) == taskset_key(_taskset())
        backward = TaskSet(list(reversed(_taskset().tasks())))
        assert taskset_key(_taskset()) == taskset_key(backward)

    def test_key_differs_on_any_parameter(self):
        base = taskset_key(_taskset())
        assert taskset_key(_taskset(wcet_high=0.003)) != base
        assert taskset_key(_taskset(), speed_factor=0.5) != base
        assert taskset_key(_taskset(), speed_factor=1.0 + 3e-13) != base
        assert taskset_key(
            _taskset(), event_models={"t_high": EventModel(0.01, 0.001)}) != base


class TestAnalyseMany:
    """Batched lookups: parity with per-set analyse, hit/miss accounting."""

    def test_batch_matches_per_set_calls(self):
        grids = [_taskset(), _taskset(wcet_high=0.003), _taskset(wcet_high=0.004)]
        batched = AnalysisCache().analyse_many(grids)
        reference = AnalysisCache()
        assert batched == [reference.analyse(taskset) for taskset in grids]

    def test_empty_batch(self):
        cache = AnalysisCache()
        assert cache.analyse_many([]) == []
        assert (cache.hits, cache.misses) == (0, 0)

    def test_intra_batch_duplicates_count_as_hits(self):
        cache = AnalysisCache()
        results = cache.analyse_many([_taskset(), _taskset(), _taskset()])
        assert (cache.hits, cache.misses) == (2, 1)
        assert results[0] == results[1] == results[2]
        results[1].clear()  # callers get independent dicts
        assert results[0] and results[2]

    def test_warm_store_answers_batches(self):
        cache = AnalysisCache()
        cache.analyse(_taskset())
        cache.analyse_many([_taskset(), _taskset(wcet_high=0.003)])
        assert (cache.hits, cache.misses) == (1, 2)

    def test_eviction_bound_respected_by_batches(self):
        cache = AnalysisCache(max_entries=2)
        cache.analyse_many([_taskset(wcet_high=w)
                            for w in (0.001, 0.002, 0.003, 0.004)])
        assert len(cache) == 2
        assert cache.evictions == 2

    def test_duplicates_do_not_inflate_misses_or_engine_work(self, analysed):
        """A batch with duplicate keys runs one analysis per distinct key:
        misses count distinct keys only, duplicates are hits."""
        cache = AnalysisCache()
        grids = [_taskset(), _taskset(wcet_high=0.003), _taskset(),
                 _taskset(wcet_high=0.003), _taskset()]
        results = cache.analyse_many(grids)
        assert (cache.hits, cache.misses) == (3, 2)
        assert results[0] == results[2] == results[4]
        assert results[1] == results[3]
        # Counters and analyses match the per-set analyse() sequence: the
        # duplicates trigger no extra analysis at all.
        assert analysed == [(grids[0], 1.0), (grids[1], 1.0)]
        reference = AnalysisCache()
        for taskset in grids:
            reference.analyse(taskset)
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert analysed[2:] == analysed[:2]

    def test_duplicates_do_not_inflate_evictions(self):
        """Duplicate keys insert one store entry, so a tight capacity sees
        one insertion per distinct key — not one per occurrence."""
        cache = AnalysisCache(max_entries=1)
        cache.analyse_many([_taskset(), _taskset(), _taskset()])
        assert len(cache) == 1
        assert cache.evictions == 0
        cache.analyse_many([_taskset(wcet_high=0.003),
                            _taskset(wcet_high=0.003)])
        assert cache.evictions == 1  # one distinct new key, one eviction

    def test_duplicate_of_an_evicted_key_within_one_batch(self):
        """Capacity smaller than the batch's distinct keys: a key evicted
        within the batch is analysed again, exactly as per-set calls do."""
        cache = AnalysisCache(max_entries=1)
        grids = [_taskset(), _taskset(wcet_high=0.003), _taskset()]
        results = cache.analyse_many(grids)
        reference = AnalysisCache()
        assert results == [reference.analyse(taskset) for taskset in grids]
        per_set = AnalysisCache(max_entries=1)
        for taskset in grids:
            per_set.analyse(taskset)
        assert (cache.hits, cache.misses, cache.evictions) == \
            (per_set.hits, per_set.misses, per_set.evictions) == (0, 3, 2)


class TestAnalysisCache:
    """Hit/miss behaviour and correctness of memoized results."""

    def test_miss_then_hit(self):
        cache = AnalysisCache()
        taskset = _taskset()
        first = cache.analyse(taskset)
        assert (cache.hits, cache.misses) == (0, 1)
        second = cache.analyse(_taskset())  # equal content, new object
        assert (cache.hits, cache.misses) == (1, 1)
        assert second == first
        assert cache.hit_rate == pytest.approx(0.5)

    def test_hits_are_isolated_from_caller_mutation(self):
        cache = AnalysisCache()
        polluted = cache.analyse(_taskset())
        polluted.pop("t_high")
        assert "t_high" in cache.analyse(_taskset())

    def test_different_speed_factor_misses(self):
        cache = AnalysisCache()
        cache.analyse(_taskset())
        cache.analyse(_taskset(), speed_factor=0.6)
        assert (cache.hits, cache.misses) == (0, 2)

    def test_cached_results_equal_uncached(self):
        cache = AnalysisCache()
        for speed in (1.0, 0.6):
            cached = cache.analyse(_taskset(), speed_factor=speed)
            direct = ResponseTimeAnalysis(_taskset(), speed_factor=speed).analyse()
            assert set(cached) == set(direct)
            for name in direct:
                assert cached[name].wcrt == pytest.approx(direct[name].wcrt)
                assert cached[name].schedulable == direct[name].schedulable

    def test_schedulable_verdict(self):
        cache = AnalysisCache()
        assert cache.schedulable(_taskset())
        assert not cache.schedulable(_taskset(), speed_factor=0.2)

    def test_eviction_bound(self):
        cache = AnalysisCache(max_entries=2)
        for wcet in (0.001, 0.002, 0.003):
            cache.analyse(_taskset(wcet_high=wcet))
        assert len(cache) == 2
        # The first entry was evicted; re-analysing it is a miss again.
        cache.analyse(_taskset(wcet_high=0.001))
        assert cache.misses == 4

    def test_lru_hit_refreshes_eviction_order(self):
        """True LRU: a hit protects the entry, the *least recently used* one
        is evicted instead (FIFO would evict the oldest insertion)."""
        cache = AnalysisCache(max_entries=2)
        cache.analyse(_taskset(wcet_high=0.001))  # A
        cache.analyse(_taskset(wcet_high=0.002))  # B
        cache.analyse(_taskset(wcet_high=0.001))  # hit on A -> most recent
        cache.analyse(_taskset(wcet_high=0.003))  # C evicts B (LRU), not A
        assert cache.evictions == 1
        cache.analyse(_taskset(wcet_high=0.001))  # still cached
        assert (cache.hits, cache.misses) == (2, 3)
        cache.analyse(_taskset(wcet_high=0.002))  # B was evicted -> miss
        assert cache.misses == 4

    def test_hit_ratio_under_cycling_working_set(self):
        """A working set equal to the capacity stays fully resident under
        LRU (the FIFO predecessor evicted on every insertion while full)."""
        cache = AnalysisCache(max_entries=3)
        wcets = (0.001, 0.002, 0.003)
        for _ in range(4):
            for wcet in wcets:
                cache.analyse(_taskset(wcet_high=wcet))
        assert cache.misses == len(wcets)
        assert cache.hits == len(wcets) * 3
        assert cache.evictions == 0
        assert cache.hit_rate == pytest.approx(0.75)

    def test_clear_resets_counters(self):
        cache = AnalysisCache()
        cache.analyse(_taskset())
        cache.analyse(_taskset())
        cache.clear()
        assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)
        assert cache.analyse(_taskset()) == cold_results(_taskset())
        assert (cache.hits, cache.misses, len(cache)) == (0, 1, 1)

    def test_misses_run_cold_without_an_analyser(self, analysed):
        """The cache keeps no analysis state: a miss on a near-identical
        task set is a cold analysis of the whole set."""
        cache = AnalysisCache()
        first, second = _variant(0.010), _variant(0.012)
        cache.analyse(first)
        cache.analyse(second, speed_factor=0.9)
        cache.analyse(_variant(0.012), speed_factor=0.9)
        assert (cache.hits, cache.misses) == (1, 2)
        assert analysed == [(first, 1.0), (second, 0.9)]
        assert not hasattr(cache, "engine")

    def test_misses_run_through_the_callers_analyser(self):
        """A caller that hands an incremental engine gets delta
        re-analyses on its misses: the unchanged higher-priority tasks are
        answered from the engine's previous snapshot.  A hit does not
        reach the engine."""
        engine = IncrementalResponseTimeAnalysis()
        cache = AnalysisCache()
        cache.analyse(_variant(0.010), analyser=engine)
        # Same names, lowest-priority task changed.
        results = cache.analyse(_variant(0.012), analyser=engine)
        assert cache.misses == 2
        assert engine.delta_analyses == 1
        assert engine.tasks_reused == 2  # t_high and t_mid untouched
        assert results == cold_results(_variant(0.012))
        cache.analyse(_variant(0.012), analyser=engine)
        cache.analyse(_variant(0.012))
        assert (cache.hits, engine.delta_analyses) == (2, 1)

    def test_speed_factors_key_exactly(self):
        """Speed factors 3e-13 apart are different analyses, so they are
        different entries."""
        cache = AnalysisCache()
        nominal = cache.analyse(_taskset(), 1.0)
        nudged = cache.analyse(_taskset(), 1.0 + 3e-13)
        assert (cache.hits, cache.misses) == (0, 2)
        assert nominal == cold_results(_taskset(), 1.0)
        assert nudged == cold_results(_taskset(), 1.0 + 3e-13)
        assert nudged["t_low"].wcrt != nominal["t_low"].wcrt

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AnalysisCache(max_entries=0)


class TestMccIntegration:
    """The cache plugs into the timing acceptance test and the E1 scenario."""

    def test_timing_acceptance_with_cache_matches_uncached(self, acc_contracts,
                                                           dual_core_platform):
        mapping = {"tracker": "cpu0", "controller": "cpu1", "actuator": "cpu1"}
        priorities = {"tracker.task": 0, "controller.task": 0, "actuator.task": 1}
        plain = TimingAcceptanceTest().run(acc_contracts, mapping, priorities,
                                           dual_core_platform)
        cache = AnalysisCache()
        cached = TimingAcceptanceTest(cache=cache).run(
            acc_contracts, mapping, priorities, dual_core_platform)
        assert cached.passed == plain.passed
        assert cached.metrics == pytest.approx(plain.metrics)
        assert cache.misses > 0
        # Re-running the identical configuration is answered from the cache.
        TimingAcceptanceTest(cache=cache).run(acc_contracts, mapping, priorities,
                                              dual_core_platform)
        assert cache.hits >= cache.misses

    def test_repeated_campaigns_share_cache_and_agree(self):
        cache = AnalysisCache()
        baseline = run_infield_update_scenario(num_requests=8, seed=3, deploy=False)
        first = run_infield_update_scenario(num_requests=8, seed=3, deploy=False,
                                            analysis_cache=cache)
        hits_after_first = cache.hits
        second = run_infield_update_scenario(num_requests=8, seed=3, deploy=False,
                                             analysis_cache=cache)
        # Identical campaign, identical acceptance outcome with and without
        # the cache; the repeat run is served almost entirely from the cache.
        for result in (first, second):
            assert result.accepted == baseline.accepted
            assert result.rejected == baseline.rejected
            assert result.rejected_by_viewpoint == baseline.rejected_by_viewpoint
        assert hits_after_first > 0
        assert cache.hits > hits_after_first


class TestBatchKernelOrderPreservation:
    """Regression: `analyse_many` must return results in input order when a
    wave interleaves hits, misses and in-wave duplicates across several
    task-set shapes."""

    @staticmethod
    def _grid():
        from harness import make_taskset, rebuild
        from repro.sim.random import SeededRNG
        rng = SeededRNG(31)
        sets = []
        for seed in range(3):  # three task-set shapes ...
            base = make_taskset(seed + 40, 5 + seed, 0.7).tasks()
            for _ in range(3):  # ... of three perturbed members each
                sets.append(rebuild([t.scaled(rng.uniform(0.8, 1.25))
                                     for t in base]))
        return sets

    def test_interleaved_hits_misses_and_duplicates(self):
        from harness import assert_equivalent, cold_results
        sets = self._grid()
        cache = AnalysisCache()
        # Warm three entries so the wave below interleaves hits with misses.
        cache.analyse_many([sets[0], sets[4], sets[8]])
        # Hit, miss, duplicate-miss, hit, miss — deliberately shuffled across
        # the shapes.
        wave = [sets[4], sets[1], sets[5], sets[1], sets[0],
                sets[7], sets[2], sets[8], sets[5], sets[6]]
        results = cache.analyse_many(wave)
        assert len(results) == len(wave)
        for position, taskset in enumerate(wave):
            assert set(results[position]) == {t.name for t in taskset}, position
            assert_equivalent(results[position], cold_results(taskset),
                              f"wave position={position}")
        # Duplicates within the wave are answered by the store, not re-analysed.
        assert cache.hits >= 2

    def test_batched_wave_equals_sequential_lookups(self):
        from harness import assert_equivalent
        sets = self._grid()
        batched_cache = AnalysisCache()
        sequential_cache = AnalysisCache()
        batched = batched_cache.analyse_many(sets)
        sequential = [sequential_cache.analyse(taskset) for taskset in sets]
        for position in range(len(sets)):
            assert_equivalent(batched[position], sequential[position],
                              f"position={position}")
