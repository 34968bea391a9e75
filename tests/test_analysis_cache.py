"""Tests for the CPA memoization cache (repro.analysis.cache)."""

from __future__ import annotations

import pytest

from repro.analysis.cache import (
    AnalysisCache,
    CachedResponseTimeAnalysis,
    fingerprint_taskset,
    taskset_key,
)
from repro.analysis.cpa import EventModel, ResponseTimeAnalysis
from repro.mcc.acceptance import TimingAcceptanceTest
from repro.platform.tasks import Task, TaskSet
from repro.scenarios.infield_update import run_infield_update_scenario


def _taskset(wcet_high: float = 0.002) -> TaskSet:
    return TaskSet([
        Task("t_high", period=0.01, wcet=wcet_high, priority=0),
        Task("t_mid", period=0.02, wcet=0.005, priority=1),
        Task("t_low", period=0.05, wcet=0.010, priority=2),
    ])


class TestFingerprint:
    """Fingerprints depend on content, not identity or insertion order."""

    def test_identical_content_same_fingerprint(self):
        assert fingerprint_taskset(_taskset()) == fingerprint_taskset(_taskset())

    def test_insertion_order_is_irrelevant(self):
        forward = _taskset()
        backward = TaskSet(list(reversed(forward.tasks())))
        assert fingerprint_taskset(forward) == fingerprint_taskset(backward)

    def test_parameter_changes_change_fingerprint(self):
        base = fingerprint_taskset(_taskset())
        assert fingerprint_taskset(_taskset(wcet_high=0.003)) != base
        assert fingerprint_taskset(_taskset(), speed_factor=0.5) != base
        assert fingerprint_taskset(
            _taskset(), event_models={"t_high": EventModel(0.01, 0.001)}) != base


class TestTasksetKey:
    """The exact tuple key underlying the fingerprint."""

    def test_key_matches_for_equal_content(self):
        assert taskset_key(_taskset()) == taskset_key(_taskset())
        backward = TaskSet(list(reversed(_taskset().tasks())))
        assert taskset_key(_taskset()) == taskset_key(backward)

    def test_key_differs_on_any_parameter(self):
        base = taskset_key(_taskset())
        assert taskset_key(_taskset(wcet_high=0.003)) != base
        assert taskset_key(_taskset(), speed_factor=0.5) != base
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

    def test_duplicates_do_not_inflate_misses_or_engine_work(self):
        """A batch with duplicate keys runs the engine once per distinct
        key: misses count distinct keys only, duplicates are hits."""
        cache = AnalysisCache()
        grids = [_taskset(), _taskset(wcet_high=0.003), _taskset(),
                 _taskset(wcet_high=0.003), _taskset()]
        results = cache.analyse_many(grids)
        assert (cache.hits, cache.misses) == (3, 2)
        assert results[0] == results[2] == results[4]
        assert results[1] == results[3]
        # Counters and engine work match the per-set analyse() sequence:
        # the duplicates trigger no extra engine traffic at all.
        reference = AnalysisCache()
        for taskset in grids:
            reference.analyse(taskset)
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert cache.engine.tasks_analysed <= reference.engine.tasks_analysed

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
        assert cache.engine.tasks_analysed == 0

    def test_misses_run_through_incremental_engine(self):
        """A miss on a near-identical task set is a delta re-analysis, not a
        from-scratch derivation: the unchanged higher-priority tasks are
        answered from the engine's previous snapshot."""
        def variant(wcet_low: float) -> TaskSet:
            return TaskSet([
                Task("t_high", period=0.01, wcet=0.002, priority=0),
                Task("t_mid", period=0.02, wcet=0.005, priority=1),
                Task("t_low", period=0.05, wcet=wcet_low, priority=2),
            ])

        cache = AnalysisCache()
        cache.analyse(variant(0.010))
        cache.analyse(variant(0.012))  # same names, lowest-priority task changed
        assert cache.misses == 2
        assert cache.engine.delta_analyses == 1
        assert cache.engine.tasks_reused == 2  # t_high and t_mid untouched

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            AnalysisCache(max_entries=0)


class TestSnapshotPersistence:
    """On-disk snapshots and cross-cache entry movement."""

    def test_snapshot_roundtrip(self, tmp_path):
        cache = AnalysisCache()
        expected = {w: cache.analyse(_taskset(wcet_high=w))
                    for w in (0.001, 0.002, 0.003)}
        path = str(tmp_path / "cache.pkl")
        assert cache.save_snapshot(path) == 3
        warm = AnalysisCache()
        assert warm.load_snapshot(path) == 3
        for w, results in expected.items():
            assert warm.analyse(_taskset(wcet_high=w)) == results
        # Every lookup was answered from the snapshot: no engine traffic.
        assert (warm.hits, warm.misses) == (3, 0)
        assert warm.engine.tasks_analysed == 0

    def test_load_merges_and_respects_capacity(self, tmp_path):
        cache = AnalysisCache()
        for w in (0.001, 0.002, 0.003):
            cache.analyse(_taskset(wcet_high=w))
        path = str(tmp_path / "cache.pkl")
        cache.save_snapshot(path)
        small = AnalysisCache(max_entries=2)
        loaded = small.load_snapshot(path)
        assert loaded == 3
        assert len(small) == 2  # LRU bound holds under loading too
        assert small.evictions == 1
        # Loading is not a lookup.
        assert (small.hits, small.misses) == (0, 0)

    def test_load_missing_snapshot(self, tmp_path):
        cache = AnalysisCache()
        missing = str(tmp_path / "absent.pkl")
        assert cache.load_snapshot(missing, missing_ok=True) == 0
        with pytest.raises(FileNotFoundError):
            cache.load_snapshot(missing)

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bogus.pkl"
        import pickle
        path.write_bytes(pickle.dumps({"something": "else"}))
        with pytest.raises(ValueError):
            AnalysisCache().load_snapshot(str(path))

    def test_merge_entries_refreshes_and_counts_inserts(self):
        source = AnalysisCache()
        source.analyse(_taskset(wcet_high=0.001))
        source.analyse(_taskset(wcet_high=0.002))
        target = AnalysisCache()
        target.analyse(_taskset(wcet_high=0.001))
        inserted = target.merge_entries(source.export_entries())
        assert inserted == 1  # the shared key already existed
        assert len(target) == 2
        assert (target.hits, target.misses) == (0, 1)  # merging is no lookup


class TestCachedResponseTimeAnalysis:
    """The drop-in facade matches the plain analysis."""

    def test_matches_plain_analysis(self):
        cache = AnalysisCache()
        cached = CachedResponseTimeAnalysis(_taskset(), cache)
        plain = ResponseTimeAnalysis(_taskset())
        assert cached.schedulable() == plain.schedulable()
        assert cached.utilization() == pytest.approx(plain.utilization())
        result = cached.response_time("t_mid")
        assert result.wcrt == pytest.approx(plain.response_time(
            plain.taskset.get("t_mid")).wcrt)
        # Second facade over an equal task set hits the shared cache.
        CachedResponseTimeAnalysis(_taskset(), cache).schedulable()
        assert cache.hits > 0


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
