"""Sharded campaign engine: parallel/sequential equivalence, shard protocol,
persistent cache warm-starts and checkpoint/resume.

The load-bearing guarantee of the parallel engine is *byte-identical
results*: for any fleet, any staging policy and any failure injection,
``workers=4`` must produce the same :class:`CampaignResult`, the same wave
records and the same per-vehicle rollout state as ``workers=1`` — including
campaigns that halt mid-rollout.  A hypothesis-seeded differential harness
pins that; deterministic tests cover the shard partition, snapshot
portability and resume-after-remediation.
"""

from __future__ import annotations

import os
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.fleet.shard as shard_module
from repro.analysis.cache import AnalysisCache
from repro.analysis.cache_store import SegmentStore
from repro.fleet.campaign import (Campaign, CampaignCheckpoint, CampaignError,
                                  CampaignResult, WavePolicy)
from repro.fleet.shard import (ShardItem, ShardTask, execute_shard,
                               plan_chunks, plan_shards)
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.mcc.configuration import ChangeKind, ChangeRequest
from repro.scenarios.fleet_campaign import build_update_contract


def make_factory():
    """Per-variant ADD update factory (one shared contract per variant)."""
    contracts = {}

    def factory(vehicle):
        contract = contracts.get(vehicle.variant.index)
        if contract is None:
            contract = build_update_contract(vehicle.wcet_factor)
            contracts[vehicle.variant.index] = contract
        return ChangeRequest(kind=ChangeKind.ADD_COMPONENT,
                             component=contract.component, contract=contract)

    return factory


def campaign_digest(result: CampaignResult):
    """Everything deterministic about a result (no cache/engine counters —
    those legitimately differ between worker layouts)."""
    return (result.fleet_size, result.batched, result.admitted,
            result.rejected, result.deviating, result.refined,
            result.rolled_back, result.halted, result.halted_wave,
            result.completed,
            [record.to_dict() for record in result.waves])


def fleet_digest(fleet):
    """Per-vehicle rollout state: flags, model version, installed set."""
    return [(vehicle.vehicle_id, vehicle.updated, vehicle.deviating,
             vehicle.rolled_back, vehicle.mcc.version,
             sorted(vehicle.mcc.model.components()),
             sorted(vehicle.mcc.model.mapping.items()))
            for vehicle in fleet]


def run_campaign(size, seed, workers, *, failure_rate=0.0, policy=None,
                 cache_path=None, checkpoint_path=None, num_variants=4,
                 **campaign_kwargs):
    spec = FleetSpec(size=size, seed=seed, num_variants=num_variants,
                     extra_components=2)
    cache = AnalysisCache()
    fleet = generate_fleet(spec, analysis_cache=cache)
    campaign = Campaign(fleet, make_factory(), policy=policy,
                        analysis_cache=cache, workers=workers,
                        failure_injection_rate=failure_rate,
                        feedback_seed=seed, cache_path=cache_path,
                        checkpoint_path=checkpoint_path, **campaign_kwargs)
    return fleet, campaign, campaign.run()


class TestShardPlanning:
    """The deterministic round-robin partition."""

    def test_round_robin_partition(self):
        assert plan_shards(5, 2) == [[0, 2, 4], [1, 3]]
        assert plan_shards(4, 4) == [[0], [1], [2], [3]]

    def test_fewer_items_than_workers(self):
        assert plan_shards(2, 8) == [[0], [1]]

    def test_degenerate_inputs(self):
        assert plan_shards(0, 4) == []
        assert plan_shards(3, 1) == [[0, 1, 2]]
        assert plan_shards(3, 0) == [[0, 1, 2]]

    def test_every_item_lands_exactly_once(self):
        shards = plan_shards(17, 5)
        flat = sorted(position for shard in shards for position in shard)
        assert flat == list(range(17))
        assert max(len(s) for s in shards) - min(len(s) for s in shards) <= 1

    @settings(max_examples=40, deadline=None)
    @given(item_count=st.integers(min_value=0, max_value=300),
           workers=st.integers(min_value=1, max_value=16))
    def test_fallback_is_within_one_balanced_for_any_count(self, item_count,
                                                           workers):
        """The documented contract of the deterministic fallback planner:
        every item exactly once, never more shards than workers, and shard
        sizes within one of each other — for ANY item count."""
        shards = plan_shards(item_count, workers)
        flat = sorted(position for shard in shards for position in shard)
        assert flat == list(range(item_count))
        assert len(shards) <= max(workers, 1)
        if shards:
            assert all(shard for shard in shards)  # no empty shards
            sizes = [len(shard) for shard in shards]
            assert max(sizes) - min(sizes) <= 1


class TestChunkPlanning:
    """The cost-model chunk planner of the work-stealing dispatch."""

    def test_degenerate_inputs(self):
        assert plan_chunks(0, 4) == []
        assert plan_chunks(3, 1) == [[0, 1, 2]]
        assert plan_chunks(3, 0) == [[0, 1, 2]]

    def test_every_item_lands_exactly_once(self):
        for item_count, workers in ((1, 4), (7, 2), (40, 4), (100, 3)):
            chunks = plan_chunks(item_count, workers)
            flat = sorted(position for chunk in chunks for position in chunk)
            assert flat == list(range(item_count))

    def test_produces_more_chunks_than_workers_for_stealing(self):
        # 40 uniform items on 4 workers: the shared queue needs spare
        # chunks for idle workers to pull — more than one per worker,
        # bounded by workers * chunks_per_worker.
        chunks = plan_chunks(40, 4)
        assert 4 < len(chunks) <= 16

    def test_group_members_are_co_located(self):
        # Three groups of 4 items each on 2 workers with a chunk target of
        # 4 chunks: every group fits under the oversize threshold, so no
        # group may be split across chunks.
        groups = [f"g{i // 4}" for i in range(12)]
        chunks = plan_chunks(12, 2, groups=groups, chunks_per_worker=2)
        chunk_of = {}
        for index, chunk in enumerate(chunks):
            for position in chunk:
                chunk_of[position] = index
        for start in (0, 4, 8):
            members = {chunk_of[position]
                       for position in range(start, start + 4)}
            assert len(members) == 1, f"group at {start} split across {members}"

    def test_oversized_group_is_split_in_order(self):
        # One giant group: it must split (a single chunk would kill
        # stealing) and the pieces must preserve item order.
        chunks = plan_chunks(64, 4, groups=["same"] * 64)
        assert len(chunks) > 1
        for chunk in chunks:
            assert chunk == sorted(chunk)

    def test_costly_items_dispatch_first(self):
        # LPT order: the first chunk's summed cost must be at least the
        # last chunk's — heavy work first, small tail chunks last.
        costs = [10.0] * 4 + [1.0] * 28
        chunks = plan_chunks(32, 4, costs=costs)
        chunk_cost = [sum(costs[i] for i in chunk) for chunk in chunks]
        assert chunk_cost[0] == max(chunk_cost)
        assert chunk_cost[-1] == min(chunk_cost)

    def test_cost_balancing_beats_count_balancing(self):
        # 2 heavy + 14 light items: cost-aware chunks never pack both heavy
        # items together with a pile of light ones.
        costs = [50.0, 50.0] + [1.0] * 14
        chunks = plan_chunks(16, 4, costs=costs)
        for chunk in chunks:
            assert sum(1 for i in chunk if costs[i] == 50.0) <= 1

    def test_zero_costs_degenerate_to_count_balancing(self):
        chunks = plan_chunks(16, 4, costs=[0.0] * 16)
        flat = sorted(position for chunk in chunks for position in chunk)
        assert flat == list(range(16))
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1

    def test_determinism(self):
        costs = [float((i * 7) % 5 + 1) for i in range(30)]
        groups = [i % 6 for i in range(30)]
        first = plan_chunks(30, 4, costs=costs, groups=groups)
        second = plan_chunks(30, 4, costs=costs, groups=groups)
        assert first == second

    def test_input_validation(self):
        with pytest.raises(ValueError, match="costs"):
            plan_chunks(4, 2, costs=[1.0])
        with pytest.raises(ValueError, match="groups"):
            plan_chunks(4, 2, groups=["a"])
        with pytest.raises(ValueError, match="chunks_per_worker"):
            plan_chunks(4, 2, chunks_per_worker=0)

    @settings(max_examples=40, deadline=None)
    @given(item_count=st.integers(min_value=0, max_value=120),
           workers=st.integers(min_value=1, max_value=8),
           num_groups=st.integers(min_value=1, max_value=10),
           seed=st.integers(min_value=0, max_value=1000))
    def test_partition_property(self, item_count, workers, num_groups, seed):
        """Whatever the costs and groups, the output is a partition."""
        costs = [((i * 31 + seed) % 17) / 4.0 for i in range(item_count)]
        groups = [(i * 13 + seed) % num_groups for i in range(item_count)]
        chunks = plan_chunks(item_count, workers, costs=costs, groups=groups)
        flat = sorted(position for chunk in chunks for position in chunk)
        assert flat == list(range(item_count))
        assert all(chunk for chunk in chunks)


class TestShardExecution:
    """execute_shard run in-process: the worker path without the pool."""

    def test_shard_verdicts_match_direct_integration(self, tmp_path):
        cache = AnalysisCache()
        fleet = generate_fleet(FleetSpec(size=2, seed=5, num_variants=2,
                                         extra_components=2),
                               analysis_cache=cache)
        factory = make_factory()
        requests = [factory(vehicle) for vehicle in fleet]
        snapshot_path = os.path.join(tmp_path, "cache.pkl")
        cache.save_snapshot(snapshot_path)
        # Pickle-roundtrip the task exactly as the pool would.
        task = pickle.loads(pickle.dumps(ShardTask(
            shard_index=0,
            items=[ShardItem(position=i, vehicle=vehicle, request=request)
                   for i, (vehicle, request) in enumerate(zip(fleet, requests))],
            cache_path=snapshot_path)))
        shard_result = execute_shard(task)
        # Reference: the same integrations on the original (unpickled) fleet.
        accepted = 0
        for verdict, vehicle, request in zip(shard_result.verdicts, fleet,
                                             requests):
            reference = vehicle.mcc.request_change(request)
            assert verdict.report.accepted == reference.accepted
            assert verdict.report.acceptance_results == \
                reference.acceptance_results
            if reference.accepted:
                accepted += 1
                assert verdict.mapping == dict(vehicle.mcc.model.mapping)
                assert verdict.priorities == dict(vehicle.mcc.model.priorities)
        assert accepted > 0  # the baseline fleet hosts this update

    def test_shard_returns_only_new_cache_entries(self, tmp_path):
        cache = AnalysisCache()
        fleet = generate_fleet(FleetSpec(size=1, seed=5, num_variants=1,
                                         extra_components=2),
                               analysis_cache=cache)
        fleet[0].provision()
        factory = make_factory()
        snapshot_path = os.path.join(tmp_path, "cache.pkl")
        preloaded = cache.save_snapshot(snapshot_path)
        assert preloaded > 0  # provisioning analyses are in the snapshot
        task = pickle.loads(pickle.dumps(ShardTask(
            shard_index=0,
            items=[ShardItem(position=0, vehicle=fleet[0],
                             request=factory(fleet[0]))],
            cache_path=snapshot_path)))
        shard_result = execute_shard(task)
        assert shard_result.cache_entries  # the candidate analyses are new
        returned = {key for key, _ in shard_result.cache_entries}
        warm = AnalysisCache()
        warm.load_snapshot(snapshot_path)
        preloaded_keys = {key for key, _ in warm.export_entries()}
        assert not returned & preloaded_keys  # fan-in excludes the warm-start


class TestWorkerInitializer:
    """initialize_worker: fork-seed preferred, snapshot fallback."""

    def teardown_method(self):
        shard_module._WORKER_CACHE = None
        shard_module._WORKER_STORE = None
        shard_module._FORK_SEED = None

    def test_fork_seed_wins(self, tmp_path):
        seed_cache = AnalysisCache(max_entries=5)
        shard_module._FORK_SEED = seed_cache
        shard_module.initialize_worker(str(tmp_path / "ignored.pkl"))
        assert shard_module._WORKER_CACHE is seed_cache

    def test_snapshot_fallback_without_seed(self, tmp_path):
        source = AnalysisCache()
        fleet = generate_fleet(FleetSpec(size=1, seed=5, num_variants=1,
                                         extra_components=1),
                               analysis_cache=source)
        fleet[0].provision()
        path = str(tmp_path / "snap.pkl")
        entries = source.save_snapshot(path)
        shard_module._FORK_SEED = None
        shard_module.initialize_worker(path)
        assert shard_module._WORKER_CACHE is not None
        assert len(shard_module._WORKER_CACHE) == entries

    def test_no_seed_no_snapshot(self):
        shard_module.initialize_worker(None)
        assert shard_module._WORKER_CACHE is not None
        assert len(shard_module._WORKER_CACHE) == 0

    def test_missing_snapshot_is_a_cold_start_not_an_error(self, tmp_path):
        # The first pooled run of a cache_path campaign: no snapshot yet.
        shard_module.initialize_worker(str(tmp_path / "never-written.pkl"))
        assert len(shard_module._WORKER_CACHE) == 0

    def test_parent_cache_configuration_is_plumbed(self, tmp_path):
        """Satellite of the work-stealing PR: a spawn-started worker must
        analyse with the parent cache's configuration, not hardcoded
        defaults."""
        shard_module.initialize_worker(None, max_entries=7, batch_kernel=True)
        assert shard_module._WORKER_CACHE.max_entries == 7
        assert shard_module._WORKER_CACHE.batch_kernel is True
        shard_module.initialize_worker(None)
        assert shard_module._WORKER_CACHE.max_entries == 16384
        assert shard_module._WORKER_CACHE.batch_kernel is False

    def test_store_path_warm_starts_and_installs_store(self, tmp_path):
        source = AnalysisCache()
        generate_fleet(FleetSpec(size=1, seed=5, num_variants=1,
                                 extra_components=1),
                       analysis_cache=source)[0].provision()
        store_path = str(tmp_path / "store")
        SegmentStore(store_path).append(source.export_entries())
        shard_module.initialize_worker(None, store_path=store_path)
        assert shard_module._WORKER_STORE is not None
        assert len(shard_module._WORKER_CACHE) == len(source)

    def test_fork_seed_skips_already_published_store_entries(self, tmp_path):
        store_path = str(tmp_path / "store")
        SegmentStore(store_path).append([(("old",), {"task": 1.0})])
        seed_cache = AnalysisCache()
        shard_module._FORK_SEED = seed_cache
        shard_module.initialize_worker(None, store_path=store_path)
        # The pre-pool entries are presumed in the fork seed already; the
        # worker's read offsets start past them.
        assert shard_module._WORKER_STORE.read_new() == []


class TestParallelSequentialEquivalence:
    """workers=1 vs workers=4 must be byte-identical, halt included."""

    def test_clean_rollout_equivalence(self):
        fleet_seq, _, sequential = run_campaign(12, seed=1, workers=1)
        fleet_par, _, parallel = run_campaign(12, seed=1, workers=4)
        assert campaign_digest(parallel) == campaign_digest(sequential)
        assert fleet_digest(fleet_par) == fleet_digest(fleet_seq)

    def test_mid_campaign_halt_equivalence(self):
        """A failure-injected campaign that halts mid-rollout: identical
        halted wave, identical rollback set, identical per-vehicle state."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.3, 1.0),
                            max_failure_rate=0.2)
        fleet_seq, _, sequential = run_campaign(16, seed=1, workers=1,
                                                failure_rate=0.5, policy=policy)
        fleet_par, _, parallel = run_campaign(16, seed=1, workers=4,
                                              failure_rate=0.5, policy=policy)
        # The scenario must actually exercise a *mid-campaign* halt.
        assert sequential.halted and sequential.halted_wave >= 1
        assert campaign_digest(parallel) == campaign_digest(sequential)
        assert fleet_digest(fleet_par) == fleet_digest(fleet_seq)
        rollback_seq = [v.vehicle_id for v in fleet_seq if v.rolled_back]
        rollback_par = [v.vehicle_id for v in fleet_par if v.rolled_back]
        assert rollback_par == rollback_seq

    def test_workers_knob_survives_daemonic_runner_workers(self):
        """The E10 scenario's `workers` knob inside the *parallel*
        experiment runner: a daemonic pool worker may not fork children, so
        the campaign must fall back to in-process sharding — identical
        records, no 'daemonic processes are not allowed to have children'."""
        from repro.experiments import ExperimentSpec, Runner
        spec = ExperimentSpec(
            name="nested", scenario="fleet_update_campaign",
            grid={"fleet_size": 6, "num_variants": 2, "extra_components": 2,
                  "workers": [1, 2]})
        parallel = Runner(parallel=True, workers=2).run(spec)
        assert parallel.ok(), [r.error for r in parallel.records]
        serial = Runner(parallel=False).run(spec)
        assert parallel.canonical_json() == serial.canonical_json()

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.3, 0.8]),
           size=st.integers(min_value=4, max_value=14))
    def test_differential_random_fleets(self, seed, failure_rate, size):
        """Hypothesis-seeded fleets: the parallel engine may never diverge
        from sequential admission, whatever the fleet or failure pattern."""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(size, seed=seed, workers=1,
                                                failure_rate=failure_rate,
                                                policy=policy)
        fleet_par, _, parallel = run_campaign(size, seed=seed, workers=4,
                                              failure_rate=failure_rate,
                                              policy=policy)
        assert campaign_digest(parallel) == campaign_digest(sequential)
        assert fleet_digest(fleet_par) == fleet_digest(fleet_seq)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(min_value=0, max_value=10_000),
           failure_rate=st.sampled_from([0.0, 0.4]),
           shard_planner=st.sampled_from(["cost", "round_robin"]),
           steal=st.booleans(),
           warm=st.sampled_from(["none", "snapshot", "store"]))
    def test_differential_random_schedules(self, tmp_path, seed, failure_rate,
                                           shard_planner, steal, warm):
        """The work-stealing extension of the differential harness: random
        planner × dispatch × persistence-medium combinations may never
        change a verdict relative to sequential admission.  (The chunk
        layout additionally varies with the measured costs feeding the cost
        model — exactly the degrees of freedom this pins.)"""
        policy = WavePolicy(canary_size=1, wave_fractions=(0.5, 1.0),
                            max_failure_rate=0.25)
        fleet_seq, _, sequential = run_campaign(10, seed=seed, workers=1,
                                                failure_rate=failure_rate,
                                                policy=policy)
        tag = f"{seed}-{shard_planner}-{steal}"
        media = {"none": {},
                 "snapshot": {"cache_path":
                              str(tmp_path / f"snap-{tag}.pkl")},
                 "store": {"cache_store": str(tmp_path / f"store-{tag}")}}
        fleet_par, _, parallel = run_campaign(10, seed=seed, workers=3,
                                              failure_rate=failure_rate,
                                              policy=policy,
                                              shard_planner=shard_planner,
                                              steal=steal, **media[warm])
        assert campaign_digest(parallel) == campaign_digest(sequential)
        assert fleet_digest(fleet_par) == fleet_digest(fleet_seq)

    def test_round_robin_and_no_steal_stay_equivalent(self):
        fleet_default, _, default = run_campaign(12, seed=3, workers=4)
        fleet_static, _, static = run_campaign(12, seed=3, workers=4,
                                               shard_planner="round_robin",
                                               steal=False)
        assert campaign_digest(static) == campaign_digest(default)
        assert fleet_digest(fleet_static) == fleet_digest(fleet_default)


class TestSpawnStartMethod:
    """End-to-end spawn pools: byte-identical to fork and to workers=1,
    warm-started from the on-disk media (no copy-on-write inheritance)."""

    def test_spawn_matches_fork_and_sequential(self, tmp_path):
        fleet_seq, _, sequential = run_campaign(8, seed=2, workers=1)
        fleet_fork, _, forked = run_campaign(
            8, seed=2, workers=2, start_method="fork")
        spawn_cache = os.path.join(tmp_path, "spawn.pkl")
        fleet_spawn, _, spawned = run_campaign(
            8, seed=2, workers=2, start_method="spawn",
            cache_path=spawn_cache)
        assert campaign_digest(spawned) == campaign_digest(sequential)
        assert campaign_digest(forked) == campaign_digest(sequential)
        assert fleet_digest(fleet_spawn) == fleet_digest(fleet_seq)
        assert fleet_digest(fleet_fork) == fleet_digest(fleet_seq)

    def test_spawn_workers_warm_start_from_snapshot(self, tmp_path):
        cache_path = os.path.join(tmp_path, "analyses.pkl")
        _, _, first = run_campaign(8, seed=2, workers=2,
                                   start_method="spawn",
                                   cache_path=cache_path)
        _, _, second = run_campaign(8, seed=2, workers=2,
                                    start_method="spawn",
                                    cache_path=cache_path)
        assert campaign_digest(second) == campaign_digest(first)
        # Parent cache counters describe the *parent's* traffic, which is
        # near-zero on pooled runs — the warm start shows up in the shard
        # telemetry: first-run workers derive the wave analyses (misses),
        # re-run workers answer them from the loaded snapshot.
        first_misses = sum(row["cache_misses"]
                           for row in first.shard_telemetry)
        second_misses = sum(row["cache_misses"]
                            for row in second.shard_telemetry)
        assert first_misses > 0
        assert second_misses < first_misses

    def test_spawn_workers_warm_start_from_segment_store(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        fleet_seq, _, sequential = run_campaign(8, seed=2, workers=1)
        fleet_spawn, _, spawned = run_campaign(8, seed=2, workers=2,
                                               start_method="spawn",
                                               cache_store=store)
        assert campaign_digest(spawned) == campaign_digest(sequential)
        assert fleet_digest(fleet_spawn) == fleet_digest(fleet_seq)
        # The store holds this campaign's analyses for the next run.
        assert len(SegmentStore(store).read_entries()) > 0


class TestSegmentStoreCampaign:
    """cache_store: mid-wave publication, cross-run warm starts, parity."""

    def test_store_backed_run_matches_plain_run(self, tmp_path):
        fleet_plain, _, plain = run_campaign(10, seed=4, workers=2)
        fleet_store, _, stored = run_campaign(
            10, seed=4, workers=2,
            cache_store=os.path.join(tmp_path, "store"))
        assert campaign_digest(stored) == campaign_digest(plain)
        assert fleet_digest(fleet_store) == fleet_digest(fleet_plain)

    def test_rerun_warm_starts_from_store(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        _, _, first = run_campaign(10, seed=4, workers=1, cache_store=store)
        assert first.cache_misses > 0
        _, _, second = run_campaign(10, seed=4, workers=1, cache_store=store)
        assert campaign_digest(second) == campaign_digest(first)
        assert second.cache_misses < first.cache_misses
        assert second.cache_hits > 0

    def test_parent_publishes_provisioning_before_the_pool(self, tmp_path):
        store = os.path.join(tmp_path, "store")
        _, campaign, _ = run_campaign(6, seed=4, workers=2, cache_store=store)
        entries = SegmentStore(store).read_entries()
        # Everything the parent cache holds is durable in the store.
        stored_keys = {key for key, _ in entries}
        cache_keys = set(campaign.analysis_cache.keys())
        assert cache_keys <= stored_keys

    def test_store_and_snapshot_are_mutually_exclusive(self, tmp_path):
        cache = AnalysisCache()
        fleet = generate_fleet(FleetSpec(size=2, seed=1, num_variants=1,
                                         extra_components=1),
                               analysis_cache=cache)
        with pytest.raises(CampaignError, match="mutually"):
            Campaign(fleet, make_factory(), analysis_cache=cache,
                     cache_path=str(tmp_path / "snap.pkl"),
                     cache_store=str(tmp_path / "store"))

    def test_store_requires_a_cache(self, tmp_path):
        fleet = []
        with pytest.raises(CampaignError, match="cache_store"):
            Campaign(fleet, make_factory(), batch_admission=False,
                     cache_store=str(tmp_path / "store"))

    def test_knob_validation(self):
        cache = AnalysisCache()
        with pytest.raises(CampaignError, match="shard_planner"):
            Campaign([], make_factory(), analysis_cache=cache,
                     shard_planner="magic")
        with pytest.raises(CampaignError, match="start_method"):
            Campaign([], make_factory(), analysis_cache=cache,
                     start_method="teleport")


class TestShardTelemetry:
    """Per-shard timing/steal/cache telemetry on pooled campaigns."""

    def test_pooled_run_reports_telemetry(self, tmp_path):
        _, _, result = run_campaign(
            12, seed=1, workers=3,
            cache_store=os.path.join(tmp_path, "store"))
        assert result.shard_telemetry
        waves_seen = set()
        for row in result.shard_telemetry:
            assert set(row) == {"wave", "shard", "items", "worker_pid",
                                "elapsed_s", "cache_hits", "cache_misses",
                                "published_entries", "absorbed_entries"}
            assert row["items"] > 0
            assert row["worker_pid"] > 0
            assert row["elapsed_s"] >= 0.0
            waves_seen.add(row["wave"])
        # Wave 0 always ships representatives; later waves may dedupe to
        # zero new representatives (then no shards run for them).
        assert 0 in waves_seen
        # Workers published their derivations to the store mid-wave.
        assert sum(row["published_entries"]
                   for row in result.shard_telemetry) > 0

    def test_in_process_run_has_no_telemetry(self):
        _, _, result = run_campaign(8, seed=1, workers=1)
        assert result.shard_telemetry == []

    def test_telemetry_is_not_part_of_the_canonical_digest(self):
        # Two layouts, identical digests, (potentially) different telemetry:
        # the digest helpers must not look at it.
        _, _, stealing = run_campaign(10, seed=1, workers=3)
        _, _, static = run_campaign(10, seed=1, workers=2,
                                    shard_planner="round_robin", steal=False)
        assert campaign_digest(stealing) == campaign_digest(static)

    def test_cost_model_learns_from_pooled_waves(self):
        _, campaign, _ = run_campaign(12, seed=1, workers=3)
        assert campaign._cost_model
        assert all(cost >= 0.0 for cost in campaign._cost_model.values())

    def test_checkpoint_keeps_executed_waves_telemetry(self, tmp_path):
        """The checkpoint persists the telemetry of the waves it aggregates
        (the halting wave's rows are dropped — it re-runs on resume)."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                            max_failure_rate=0.1)
        checkpoint_path = os.path.join(tmp_path, "c.ckpt")
        fleet, campaign, halted = run_campaign(
            18, seed=1, workers=3, failure_rate=0.4, policy=policy,
            checkpoint_path=checkpoint_path)
        assert halted.halted
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        persisted = {row["wave"] for row in checkpoint.result.shard_telemetry}
        executed = {record.index for record in checkpoint.result.waves}
        assert persisted  # pre-halt pooled waves came with telemetry
        assert persisted <= executed
        assert halted.halted_wave not in persisted

    def test_resumed_telemetry_covers_all_pooled_waves(self, tmp_path):
        """Regression: a resumed campaign's telemetry must cover the same
        waves an uninterrupted run's does — pre-halt rows used to be
        silently dropped from the checkpoint."""
        policy = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                            max_failure_rate=0.1)
        checkpoint_path = os.path.join(tmp_path, "c.ckpt")
        fleet, campaign, halted = run_campaign(
            18, seed=1, workers=3, failure_rate=0.4, policy=policy,
            checkpoint_path=checkpoint_path)
        assert halted.halted
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        for vehicle in fleet:
            vehicle.restore_state(
                {s.vehicle_id: s for s in checkpoint.vehicle_states}
                [vehicle.vehicle_id])
        remediated = Campaign(fleet, make_factory(),
                              policy=WavePolicy(canary_size=2,
                                                wave_fractions=(0.4, 1.0),
                                                max_failure_rate=1.0),
                              analysis_cache=AnalysisCache(), workers=3,
                              failure_injection_rate=0.4, feedback_seed=1)
        resumed = remediated.run(resume_from=checkpoint)
        assert resumed.completed
        # An uninterrupted run at the tolerant threshold covers the same
        # fleet and staging; its telemetry wave coverage is the reference.
        _, _, uninterrupted = run_campaign(
            18, seed=1, workers=3, failure_rate=0.4,
            policy=WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                              max_failure_rate=1.0))
        resumed_waves = {row["wave"] for row in resumed.shard_telemetry}
        reference_waves = {row["wave"]
                           for row in uninterrupted.shard_telemetry}
        assert resumed_waves == reference_waves


class TestPersistentCache:
    """On-disk snapshots: warm-starts change wall time, never results."""

    def test_rerun_warm_starts_from_snapshot(self, tmp_path):
        cache_path = os.path.join(tmp_path, "analyses.pkl")
        _, _, first = run_campaign(10, seed=4, workers=1,
                                   cache_path=cache_path)
        assert os.path.exists(cache_path)
        assert first.cache_misses > 0
        _, _, second = run_campaign(10, seed=4, workers=1,
                                    cache_path=cache_path)
        assert campaign_digest(second) == campaign_digest(first)
        # The repeat run's wave analyses are answered from the snapshot.
        assert second.cache_misses < first.cache_misses
        assert second.cache_hits > 0

    def test_snapshot_roundtrip_under_parallel_run(self, tmp_path):
        cache_path = os.path.join(tmp_path, "analyses.pkl")
        _, _, parallel = run_campaign(10, seed=4, workers=3,
                                      cache_path=cache_path)
        _, _, sequential = run_campaign(10, seed=4, workers=1)
        assert campaign_digest(parallel) == campaign_digest(sequential)
        restored = AnalysisCache()
        assert restored.load_snapshot(cache_path) > 0


class TestCheckpointResume:
    """A halted campaign resumes — remediated — to the reference result."""

    POLICY_STRICT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                               max_failure_rate=0.1)
    POLICY_TOLERANT = WavePolicy(canary_size=2, wave_fractions=(0.4, 1.0),
                                 max_failure_rate=1.0)

    def _halting_setup(self, tmp_path, workers=1):
        checkpoint_path = os.path.join(tmp_path, "campaign.ckpt")
        fleet, campaign, halted = run_campaign(
            18, seed=1, workers=workers, failure_rate=0.4,
            policy=self.POLICY_STRICT, checkpoint_path=checkpoint_path)
        assert halted.halted
        assert os.path.exists(checkpoint_path)
        assert campaign.last_checkpoint is not None
        return fleet, halted, checkpoint_path

    def test_resume_reaches_reference_result(self, tmp_path):
        fleet, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, seed=1, workers=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        # Remediation: the operator raises the tolerance and resumes the
        # SAME fleet from the checkpoint (live objects, same process).
        cache = AnalysisCache()
        resumed = Campaign(fleet, make_factory(), policy=self.POLICY_TOLERANT,
                           analysis_cache=cache, failure_injection_rate=0.4,
                           feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_resume_on_regenerated_fleet(self, tmp_path):
        """The checkpoint restores vehicles of a *freshly generated* fleet —
        the cross-process story (pickled MCC snapshots are portable)."""
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        _, _, reference = run_campaign(18, seed=1, workers=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        resumed = Campaign(fresh_fleet, make_factory(),
                           policy=self.POLICY_TOLERANT, analysis_cache=cache,
                           failure_injection_rate=0.4, feedback_seed=1).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_resume_with_parallel_workers(self, tmp_path):
        _, halted, checkpoint_path = self._halting_setup(tmp_path, workers=4)
        _, _, reference = run_campaign(18, seed=1, workers=1, failure_rate=0.4,
                                       policy=self.POLICY_TOLERANT)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fresh_fleet = generate_fleet(spec, analysis_cache=cache)
        resumed = Campaign(fresh_fleet, make_factory(),
                           policy=self.POLICY_TOLERANT, analysis_cache=cache,
                           failure_injection_rate=0.4, feedback_seed=1,
                           workers=4).run(
            resume_from=CampaignCheckpoint.load(checkpoint_path))
        assert campaign_digest(resumed) == campaign_digest(reference)

    def test_checkpoint_excludes_the_halting_wave(self, tmp_path):
        _, halted, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        assert checkpoint.next_wave == halted.halted_wave
        assert len(checkpoint.result.waves) == halted.halted_wave
        assert not checkpoint.result.halted
        # Halting-wave members are stored pre-wave: clean flags.
        halting_ids = set(halted.waves[-1].vehicle_ids)
        for state in checkpoint.vehicle_states:
            if state.vehicle_id in halting_ids:
                assert not (state.updated or state.deviating
                            or state.rolled_back)

    def test_resume_rejects_diverging_fleet(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=5, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        wrong_fleet = generate_fleet(spec, analysis_cache=cache)
        with pytest.raises(CampaignError):
            Campaign(wrong_fleet, make_factory(), policy=self.POLICY_TOLERANT,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_resume_rejects_diverging_staging(self, tmp_path):
        _, _, checkpoint_path = self._halting_setup(tmp_path)
        checkpoint = CampaignCheckpoint.load(checkpoint_path)
        spec = FleetSpec(size=18, seed=1, num_variants=4, extra_components=2)
        cache = AnalysisCache()
        fleet = generate_fleet(spec, analysis_cache=cache)
        reshaped = WavePolicy(canary_size=5, wave_fractions=(1.0,),
                              max_failure_rate=1.0)
        with pytest.raises(CampaignError):
            Campaign(fleet, make_factory(), policy=reshaped,
                     analysis_cache=cache).run(resume_from=checkpoint)

    def test_checkpoint_file_validation(self, tmp_path):
        bogus = os.path.join(tmp_path, "bogus.ckpt")
        with open(bogus, "wb") as stream:
            pickle.dump({"not": "a checkpoint"}, stream)
        with pytest.raises(CampaignError):
            CampaignCheckpoint.load(bogus)
