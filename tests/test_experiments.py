"""Tests for the experiment orchestration subsystem (repro.experiments)."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    SCENARIOS,
    ExperimentSpec,
    Runner,
    RunSpec,
    ScenarioError,
    SpecError,
    builtin_specs,
    diff_records,
    execute_run,
    format_table,
    percentile,
    run_scenario,
    summarize,
)
from repro.experiments.aggregate import summarize_result
from repro.experiments.cli import main as cli_main
from repro.sim.random import derive_seed


class TestRegistry:
    """The scenario registry wraps all ten scenarios uniformly."""

    def test_all_ten_scenarios_registered(self):
        assert SCENARIOS.names() == ["distributed_e2e_update",
                                     "fleet_update_campaign", "fog_platooning",
                                     "infield_update", "intrusion",
                                     "intrusion_campaign",
                                     "lossy_ota_campaign", "thermal",
                                     "thermal_campaign", "weather_routing"]

    def test_unknown_scenario_raises(self):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            SCENARIOS.get("nope")

    def test_unknown_parameter_raises(self):
        with pytest.raises(ScenarioError, match="unknown parameters"):
            run_scenario("thermal", not_a_knob=1)

    def test_enum_coercion_from_json_level_values(self):
        record = run_scenario("thermal", strategy="no_reaction", duration_s=50.0)
        assert record["strategy"] == "no_reaction"
        with pytest.raises(ScenarioError, match="strategy"):
            run_scenario("thermal", strategy="bogus", duration_s=50.0)

    def test_records_are_json_serializable(self):
        for name, params in [
            ("intrusion", {"duration_s": 12.0, "attack_time_s": 2.0}),
            ("thermal", {"duration_s": 50.0}),
            ("fog_platooning", {}),
            ("weather_routing", {"severity": 0.7}),
            ("infield_update", {"num_requests": 5}),
            ("fleet_update_campaign", {"fleet_size": 6, "num_variants": 3,
                                       "extra_components": 2}),
        ]:
            record = run_scenario(name, **params)
            json.dumps(record)  # must not raise
            assert "sim_time_s" in record and "event_count" in record

    def test_defaults_cover_every_parameter(self):
        for scenario in SCENARIOS:
            defaults = scenario.defaults()
            assert sorted(defaults) == sorted(scenario.parameter_names())


class TestSpec:
    """Spec validation and grid expansion."""

    def test_expansion_counts_and_ids(self):
        spec = ExperimentSpec(name="s", scenario="weather_routing",
                              grid={"severity": [0.1, 0.5], "risk_aversion": 1.0})
        runs = spec.expand()
        assert spec.num_runs() == len(runs) == 2
        assert [r.run_id() for r in runs] == ["s/weather_routing#0000",
                                              "s/weather_routing#0001"]
        assert runs[0].params == {"severity": 0.1, "risk_aversion": 1.0}

    def test_seeds_multiply_runs_and_bind_seed_param(self):
        spec = ExperimentSpec(name="s", scenario="intrusion",
                              grid={"duration_s": 12.0}, seeds=[3, 4])
        runs = spec.expand()
        assert [r.params["seed"] for r in runs] == [3, 4]

    def test_base_seed_derives_per_run_seeds(self):
        spec = ExperimentSpec(name="s", scenario="intrusion",
                              grid={"duration_s": 12.0}, seeds=[0, 0],
                              base_seed=99)
        runs = spec.expand()
        seeds = [r.params["seed"] for r in runs]
        assert seeds == [derive_seed(99, "s", 0), derive_seed(99, "s", 1)]
        assert seeds[0] != seeds[1]

    def test_validation_rejects_bad_specs(self):
        with pytest.raises(SpecError, match="unknown scenario"):
            ExperimentSpec(name="s", scenario="nope").validate()
        with pytest.raises(SpecError, match="unknown parameters"):
            ExperimentSpec(name="s", scenario="thermal",
                           grid={"bogus": [1]}).validate()
        with pytest.raises(SpecError, match="unknown parameters"):
            # The on-disk analysis-cache snapshot is gone; a spec that
            # still names its path fails instead of running cold.
            ExperimentSpec(name="s", scenario="fleet_update_campaign",
                           grid={"cache_path": ["analyses.pkl"]}).validate()
        with pytest.raises(SpecError, match="seeds"):
            ExperimentSpec(name="s", scenario="thermal", seeds=[]).validate()
        with pytest.raises(SpecError, match="invalid experiment name"):
            ExperimentSpec(name="a/b", scenario="thermal").validate()
        with pytest.raises(SpecError, match="controlled by"):
            ExperimentSpec(name="s", scenario="intrusion",
                           grid={"seed": [1, 2]}).validate()

    def test_empty_axis_expands_to_zero_runs(self):
        """An empty grid axis is a degenerate-but-valid sweep: zero runs,
        zero num_runs, no error (programmatic grids filter axes empty)."""
        spec = ExperimentSpec(name="s", scenario="thermal",
                              grid={"strategy": []})
        spec.validate()
        assert spec.num_runs() == 0
        assert spec.expand() == []

    def test_json_round_trip(self):
        spec = ExperimentSpec(name="s", scenario="thermal",
                              grid={"strategy": ["cross_layer"]}, seeds=[1],
                              base_seed=7, description="d")
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        with pytest.raises(SpecError, match="unknown spec fields"):
            ExperimentSpec.from_dict({"name": "s", "scenario": "thermal",
                                      "bogus": 1})
        with pytest.raises(SpecError, match="missing required field"):
            ExperimentSpec.from_dict({"name": "s"})

    def test_builtin_suite_meets_sweep_floor(self):
        """The default CLI suite: >= 12 runs over >= 3 distinct scenarios."""
        specs = builtin_specs()
        for spec in specs:
            spec.validate()
        assert sum(spec.num_runs() for spec in specs) >= 12
        assert len({spec.scenario for spec in specs}) >= 3


class TestRunner:
    """Serial/parallel execution and record structure."""

    def _spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            name="mix", scenario="weather_routing",
            grid={"severity": [0.0, 0.3, 0.6, 0.9]})

    def test_serial_records_in_expansion_order(self):
        result = Runner().run(self._spec())
        assert result.ok()
        assert [r.index for r in result.records] == [0, 1, 2, 3]
        assert result.records[0].wall_time_s >= 0.0
        json.dumps(result.to_dict())  # full result is JSON-serializable

    def test_parallel_records_byte_identical_to_serial(self):
        spec = ExperimentSpec(
            name="par", scenario="infield_update",
            grid={"num_requests": 6, "risky_fraction": [0.0, 0.3, 0.6]},
            seeds=[0, 1])
        serial = Runner(parallel=False).run(spec)
        parallel = Runner(parallel=True, workers=2).run(spec)
        assert parallel.parallel and parallel.workers == 2
        assert serial.canonical_json() == parallel.canonical_json()

    def test_failed_run_is_captured_not_raised(self):
        run = RunSpec(experiment="x", scenario="intrusion", index=0,
                      params={"attack_time_s": 10.0, "duration_s": 5.0, "seed": 0})
        record = execute_run(run)
        assert not record.ok
        assert "ValueError" in record.error
        assert record.metrics == {}

    def test_runner_rejects_nonpositive_workers(self):
        """``workers=0`` is an error, not a silent "auto" (a falsy-or
        default would conflate the two); ``None`` is the explicit auto."""
        with pytest.raises(ValueError):
            Runner(workers=0)
        with pytest.raises(ValueError):
            Runner(workers=-2)
        assert Runner(workers=None).workers is None  # auto-sizing survives

    def test_runner_revalidates_mutated_workers(self):
        runner = Runner(parallel=True, workers=2)
        runner.workers = 0  # post-construction mutation must not sneak by
        with pytest.raises(ValueError):
            runner.run(self._spec())

    def test_empty_grid_is_a_clean_noop(self):
        """An axis bound to zero values expands to zero runs: both the
        serial and the parallel runner return an empty, well-formed result
        instead of sizing a pool over ``len(runs) == 0``."""
        spec = ExperimentSpec(name="empty", scenario="weather_routing",
                              grid={"severity": []})
        assert spec.expand() == []
        for runner in (Runner(), Runner(parallel=True, workers=4)):
            result = runner.run(spec)
            assert result.records == []
            assert result.ok()
            assert not result.parallel
            assert result.workers == 1
            json.dumps(result.to_dict())


class TestAggregate:
    """Summary statistics and baseline diffing."""

    def test_percentile(self):
        assert percentile([1.0], 95) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0) == 1.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 100) == 4.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 50) == 2.5
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 150)

    def test_summarize_skips_bools_and_non_numerics(self):
        result = Runner().run(ExperimentSpec(
            name="s", scenario="weather_routing", grid={"severity": [0.0, 0.9]}))
        rows = summarize(result.records)
        metrics = {row["metric"] for row in rows}
        assert "severity" in metrics
        assert "aware_takes_detour" not in metrics  # bool
        assert "aware_route" not in metrics  # list
        severity_row = next(row for row in rows if row["metric"] == "severity")
        assert severity_row["n"] == 2
        assert severity_row["mean"] == pytest.approx(0.45)

    def test_aggregation_over_zero_records(self):
        """Empty grids produce zero records; every aggregation entry point
        must degrade to empty output instead of hitting the percentile/mean
        math on empty sequences."""
        empty_result = Runner().run(ExperimentSpec(
            name="empty", scenario="weather_routing", grid={"severity": []}))
        assert summarize(empty_result.records) == []
        assert summarize_result(empty_result) == []
        assert diff_records([], empty_result.records) == []
        table = format_table("empty", summarize(empty_result.records))
        assert "(no rows)" in table

    def test_diff_records_reports_changes_and_missing_runs(self):
        result = Runner().run(ExperimentSpec(
            name="s", scenario="weather_routing", grid={"severity": [0.0]}))
        baseline = [json.loads(json.dumps(r.canonical())) for r in result.records]
        assert diff_records(baseline, result.records) == []

        mutated = [dict(entry, metrics=dict(entry["metrics"],
                                            aware_route_km=999.0))
                   for entry in baseline]
        rows = diff_records(mutated, result.records)
        assert any(row["metric"] == "aware_route_km" for row in rows)

        rows = diff_records([], result.records)
        assert rows == [{"run_id": result.records[0].run_id, "metric": "<run>",
                         "baseline": "<absent>", "current": "<present>"}]

    def test_format_table_handles_rows_and_empty(self):
        text = format_table("t", [{"a": 1.23456, "b": "x"}])
        assert "=== t ===" in text and "1.235" in text and "x" in text
        assert "(no rows)" in format_table("t", [])


class TestCli:
    """End-to-end CLI behaviour (in-process, no subprocess)."""

    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS.names():
            assert name in out

    def test_run_with_spec_file_and_compare(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "tiny", "scenario": "weather_routing",
            "grid": {"severity": [0.0, 0.9]}}))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert cli_main(["run", "--spec", str(spec_file),
                         "--output", str(out_a)]) == 0
        assert cli_main(["run", "--spec", str(spec_file), "--parallel",
                         "--workers", "2", "--output", str(out_b)]) == 0
        capsys.readouterr()
        assert cli_main(["compare", str(out_a), str(out_b)]) == 0
        assert "no metric differences" in capsys.readouterr().out

    def test_run_rejects_bad_spec_file(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.json"
        spec_file.write_text(json.dumps({"name": "x", "scenario": "nope"}))
        assert cli_main(["run", "--spec", str(spec_file)]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_compare_detects_differences(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "name": "tiny", "scenario": "weather_routing",
            "grid": {"severity": [0.0]}}))
        out_a = tmp_path / "a.json"
        cli_main(["run", "--spec", str(spec_file), "--output", str(out_a)])
        document = json.loads(out_a.read_text())
        document[0]["records"][0]["metrics"]["aware_route_km"] = 1e9
        out_b = tmp_path / "b.json"
        out_b.write_text(json.dumps(document))
        capsys.readouterr()
        assert cli_main(["compare", str(out_a), str(out_b)]) == 1
        assert "aware_route_km" in capsys.readouterr().out
