"""Tests for the benchmark perf-record history tool (`bench-history`)."""

from __future__ import annotations

import json

import pytest

from repro.experiments.bench_history import (bench_history_rows,
                                             bench_trajectory,
                                             compare_bench_records,
                                             load_bench_records, record_mode)
from repro.experiments.cli import main


def _write_record(directory, name, payload, quick=False, **extra):
    document = {"name": name, "created_utc": "2026-08-08T12:00:00Z",
                "python": "3.x", "platform": "test", "quick_mode": quick,
                "payload": payload}
    document.update(extra)
    suffix = ".quick.json" if quick else ".json"
    path = directory / f"BENCH_{name}{suffix}"
    path.write_text(json.dumps(document), encoding="utf-8")
    return path


@pytest.fixture
def records_dir(tmp_path):
    _write_record(tmp_path, "e12_lane_grid",
                  {"lanes": 800, "tasks_per_lane": 16, "numpy": True,
                   "scalar_s": 0.30, "batch_s": 0.05, "speedup": 6.0})
    _write_record(tmp_path, "e9_incremental_speedup",
                  {"task_sets": 66, "pr1_baseline_s": 1.2, "incremental_s": 0.2,
                   "speedup_vs_pr1": 6.0, "reuse_rate": 0.8}, quick=True)
    _write_record(tmp_path, "e12_pure_path",
                  {"lanes": 80, "pure_python_s": 0.02, "groups_solved": 2})
    return tmp_path


class TestLoadBenchRecords:
    def test_loads_and_sorts_by_name(self, records_dir):
        records, skipped = load_bench_records(str(records_dir))
        assert [r["name"] for r in records] == [
            "e12_lane_grid", "e12_pure_path", "e9_incremental_speedup"]
        assert skipped == []

    def test_corrupt_and_foreign_files_are_skipped_not_fatal(self, records_dir):
        (records_dir / "BENCH_broken.json").write_text("{not json", encoding="utf-8")
        (records_dir / "BENCH_list.json").write_text("[1, 2]", encoding="utf-8")
        (records_dir / "BENCH_noenvelope.json").write_text(
            json.dumps({"speedup": 2.0}), encoding="utf-8")
        (records_dir / "unrelated.json").write_text("0", encoding="utf-8")
        records, skipped = load_bench_records(str(records_dir))
        assert len(records) == 3
        assert sorted(skipped) == ["BENCH_broken.json", "BENCH_list.json",
                                   "BENCH_noenvelope.json"]

    def test_empty_directory(self, tmp_path):
        assert load_bench_records(str(tmp_path)) == ([], [])


class TestBenchHistoryRows:
    def test_headline_speedup_is_promoted(self, records_dir):
        records, _ = load_bench_records(str(records_dir))
        rows = bench_history_rows(records)
        by_bench = {row["bench"]: row for row in rows}
        assert by_bench["e12_lane_grid"]["speedup"] == "6.00x"
        assert by_bench["e9_incremental_speedup"]["speedup"] == "6.00x"
        assert by_bench["e12_pure_path"]["speedup"] == "-"

    def test_rows_carry_provenance_and_metrics(self, records_dir):
        records, _ = load_bench_records(str(records_dir))
        rows = bench_history_rows(records)
        by_bench = {row["bench"]: row for row in rows}
        assert by_bench["e9_incremental_speedup"]["quick"] is True
        assert by_bench["e12_lane_grid"]["quick"] is False
        assert "lanes=800" in by_bench["e12_lane_grid"]["metrics"]
        assert "batch_s=0.05" in by_bench["e12_lane_grid"]["metrics"]
        # The headline key stays out of the catch-all metrics column.
        assert "speedup=" not in by_bench["e12_lane_grid"]["metrics"]

    def test_booleans_are_not_mistaken_for_metrics(self, records_dir):
        records, _ = load_bench_records(str(records_dir))
        row = next(r for r in bench_history_rows(records)
                   if r["bench"] == "e12_lane_grid")
        assert "numpy=" not in row["metrics"]


class TestCli:
    def test_bench_history_command(self, records_dir, capsys):
        assert main(["bench-history", "--dir", str(records_dir)]) == 0
        out = capsys.readouterr().out
        assert "e12_lane_grid" in out
        assert "6.00x" in out

    def test_bench_history_warns_on_corrupt_records(self, records_dir, capsys):
        (records_dir / "BENCH_broken.json").write_text("{", encoding="utf-8")
        assert main(["bench-history", "--dir", str(records_dir)]) == 0
        captured = capsys.readouterr()
        assert "BENCH_broken.json" in captured.err
        assert "e12_pure_path" in captured.out

    def test_bench_history_missing_directory(self, tmp_path, capsys):
        assert main(["bench-history", "--dir", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_bench_history_empty_directory(self, tmp_path, capsys):
        assert main(["bench-history", "--dir", str(tmp_path)]) == 0
        assert "no BENCH_*.json records" in capsys.readouterr().out


class TestRecordMode:
    def test_explicit_mode_field_wins(self):
        assert record_mode({"mode": "quick", "quick_mode": False}) == "quick"
        assert record_mode({"mode": "full", "quick_mode": True}) == "full"

    def test_legacy_records_classified_by_quick_flag(self):
        assert record_mode({"quick_mode": True}) == "quick"
        assert record_mode({"quick_mode": False}) == "full"
        assert record_mode({}) == "full"


class TestBenchTrajectory:
    @staticmethod
    def _record(name, speedup, mode="full", created="2026-08-08T12:00:00Z",
                metric="speedup"):
        return {"name": name, "mode": mode, "created_utc": created,
                "payload": {metric: speedup}}

    def test_mixed_modes_yield_separate_series(self):
        records = [
            self._record("e10", 2.0, mode="full"),
            self._record("e10", 0.5, mode="quick"),
            self._record("e12", 6.0, mode="full"),
        ]
        trajectory = bench_trajectory(records)
        assert trajectory["schema"] == 1
        keys = [(entry["bench"], entry["mode"])
                for entry in trajectory["series"]]
        assert keys == [("e10", "full"), ("e10", "quick"), ("e12", "full")]
        e10_full = trajectory["series"][0]
        assert e10_full["points"] == [{"created_utc": "2026-08-08T12:00:00Z",
                                       "metric": "speedup", "value": 2.0}]

    def test_points_ordered_by_created_utc(self):
        records = [
            self._record("e10", 3.0, created="2026-08-08T12:00:00Z"),
            self._record("e10", 2.0, created="2026-08-01T12:00:00Z"),
            self._record("e10", 2.5, created="2026-08-04T12:00:00Z"),
        ]
        series = bench_trajectory(records)["series"]
        assert len(series) == 1
        assert [point["value"] for point in series[0]["points"]] == [2.0, 2.5, 3.0]

    def test_headline_key_priority_and_unplotted(self):
        records = [
            self._record("e9", 6.0, metric="speedup_vs_pr1"),
            self._record("e13", 1.4, metric="admission_speedup"),
            {"name": "e12_pure", "mode": "full",
             "payload": {"pure_python_s": 0.02}},
        ]
        trajectory = bench_trajectory(records)
        metrics = {entry["bench"]: entry["points"][0]["metric"]
                   for entry in trajectory["series"]}
        assert metrics == {"e9": "speedup_vs_pr1", "e13": "admission_speedup"}
        assert trajectory["unplotted"] == ["e12_pure[full]"]

    def test_boolean_payload_values_are_not_headlines(self):
        trajectory = bench_trajectory([
            {"name": "e10", "mode": "full", "payload": {"speedup": True}}])
        assert trajectory["series"] == []
        assert trajectory["unplotted"] == ["e10[full]"]

    def test_throughput_keys_plot_as_their_own_series(self):
        # The E17 admission-service record carries admissions_per_s: an
        # absolute rate that must chart in the trajectory without being
        # mistaken for a speedup ratio.
        records = [
            self._record("e17_admission_service", 120.5,
                         metric="admissions_per_s"),
            self._record("e12", 6.0),
        ]
        trajectory = bench_trajectory(records)
        metrics = {entry["bench"]: entry["points"][0]["metric"]
                   for entry in trajectory["series"]}
        assert metrics == {"e17_admission_service": "admissions_per_s",
                           "e12": "speedup"}
        assert trajectory["unplotted"] == []

    def test_headline_keys_take_priority_over_throughput(self):
        trajectory = bench_trajectory([
            {"name": "e17", "mode": "full",
             "payload": {"speedup": 2.0, "admissions_per_s": 99.0}}])
        assert trajectory["series"][0]["points"][0]["metric"] == "speedup"

    def test_cli_json_flag_writes_trajectory(self, records_dir, tmp_path,
                                             capsys):
        out_path = tmp_path / "out" / "trajectory.json"
        out_path.parent.mkdir()
        assert main(["bench-history", "--dir", str(records_dir),
                     "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document["schema"] == 1
        assert {(entry["bench"], entry["mode"])
                for entry in document["series"]} == {
                    ("e12_lane_grid", "full"),
                    ("e9_incremental_speedup", "quick")}
        assert document["unplotted"] == ["e12_pure_path[full]"]
        assert "trajectory written to" in capsys.readouterr().out

    def test_cli_json_flag_on_empty_directory_writes_empty_document(
            self, tmp_path, capsys):
        out_path = tmp_path / "trajectory.json"
        assert main(["bench-history", "--dir", str(tmp_path),
                     "--json", str(out_path)]) == 0
        document = json.loads(out_path.read_text(encoding="utf-8"))
        assert document == {"schema": 1, "series": [], "unplotted": []}


class TestCompareBenchRecords:
    @staticmethod
    def _record(name, speedup, mode="full"):
        return {"name": name, "mode": mode,
                "payload": {"speedup": speedup}}

    def test_no_regression_within_tolerance(self):
        current = [self._record("e10", 1.5)]
        baseline = [self._record("e10", 2.0)]
        # 25% drop, tolerance 30% — passes.
        assert compare_bench_records(current, baseline, tolerance=0.3) == []

    def test_regression_beyond_tolerance_is_reported(self):
        current = [self._record("e10", 1.2)]
        baseline = [self._record("e10", 2.0)]
        regressions = compare_bench_records(current, baseline, tolerance=0.3)
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression["bench"] == "e10"
        assert regression["metric"] == "speedup"
        assert regression["baseline"] == 2.0
        assert regression["current"] == 1.2
        assert regression["drop"] == pytest.approx(0.4)

    def test_improvements_never_regress(self):
        current = [self._record("e10", 5.0)]
        baseline = [self._record("e10", 2.0)]
        assert compare_bench_records(current, baseline) == []

    def test_modes_never_cross_compare(self):
        # A quick-mode smoke number far below the committed full-fidelity
        # record is NOT a regression — the grids are incomparable.
        current = [self._record("e10", 0.5, mode="quick")]
        baseline = [self._record("e10", 8.0, mode="full")]
        assert compare_bench_records(current, baseline) == []
        # But a quick baseline does gate a quick current.
        baseline_quick = [self._record("e10", 8.0, mode="quick")]
        assert len(compare_bench_records(current, baseline_quick)) == 1

    def test_unpaired_records_are_ignored(self):
        current = [self._record("brand_new", 1.0)]
        baseline = [self._record("retired", 9.0)]
        assert compare_bench_records(current, baseline) == []

    def test_non_numeric_and_missing_headlines_are_skipped(self):
        current = [{"name": "e10", "mode": "full",
                    "payload": {"speedup": "broken"}}]
        baseline = [self._record("e10", 2.0)]
        assert compare_bench_records(current, baseline) == []

    def test_tolerance_validation(self):
        with pytest.raises(ValueError):
            compare_bench_records([], [], tolerance=1.0)
        with pytest.raises(ValueError):
            compare_bench_records([], [], tolerance=-0.1)

    def test_throughput_keys_never_gate(self):
        # Absolute admissions/sec is machine-dependent: a slower CI runner
        # must not fail the gate on it, however large the drop.
        current = [{"name": "e17_admission_service", "mode": "full",
                    "payload": {"admissions_per_s": 10.0}}]
        baseline = [{"name": "e17_admission_service", "mode": "full",
                     "payload": {"admissions_per_s": 500.0}}]
        assert compare_bench_records(current, baseline) == []


class TestCliRegressionGate:
    def test_gate_passes_and_reports(self, tmp_path, capsys):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir(), baseline.mkdir()
        _write_record(current, "e10", {"speedup": 2.0})
        _write_record(baseline, "e10", {"speedup": 2.1})
        assert main(["bench-history", "--dir", str(current),
                     "--baseline", str(baseline),
                     "--fail-on-regression"]) == 0
        assert "no headline regressions" in capsys.readouterr().out

    def test_gate_fails_loud_on_regression(self, tmp_path, capsys):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir(), baseline.mkdir()
        _write_record(current, "e10", {"speedup": 1.0})
        _write_record(baseline, "e10", {"speedup": 2.0})
        assert main(["bench-history", "--dir", str(current),
                     "--baseline", str(baseline),
                     "--fail-on-regression"]) == 1
        captured = capsys.readouterr()
        assert "regressed" in captured.err
        assert "e10" in captured.out

    def test_regression_without_fail_flag_reports_but_passes(self, tmp_path,
                                                             capsys):
        current, baseline = tmp_path / "current", tmp_path / "baseline"
        current.mkdir(), baseline.mkdir()
        _write_record(current, "e10", {"speedup": 1.0})
        _write_record(baseline, "e10", {"speedup": 2.0})
        assert main(["bench-history", "--dir", str(current),
                     "--baseline", str(baseline)]) == 0
        assert "headline regressions" in capsys.readouterr().out

    def test_missing_baseline_directory(self, tmp_path, capsys):
        _write_record(tmp_path, "e10", {"speedup": 1.0})
        assert main(["bench-history", "--dir", str(tmp_path),
                     "--baseline", str(tmp_path / "nope")]) == 2
        assert "not a directory" in capsys.readouterr().err

    def test_quick_records_use_distinct_filenames(self, tmp_path):
        full = _write_record(tmp_path, "e10", {"speedup": 2.0})
        quick = _write_record(tmp_path, "e10", {"speedup": 0.5}, quick=True)
        assert full.name == "BENCH_e10.json"
        assert quick.name == "BENCH_e10.quick.json"
        records, skipped = load_bench_records(str(tmp_path))
        assert skipped == []
        assert len(records) == 2
