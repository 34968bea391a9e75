"""Campaign observability: tracer, engine instrumentation, wave latencies
and the dashboard.

The load-bearing guarantees pinned here:

* **Read-only tracing** — a traced campaign returns a field-for-field
  identical :class:`CampaignResult` to an untraced one.
* **Deterministic traces** — ``deterministic=True`` strips every
  wall-clock field and makes equal runs write byte-identical JSONL files.
* **Offline dashboard** — ``report`` renders self-contained HTML with no
  scripts and no network references from any subset of inputs.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.analysis.cache import AnalysisCache
from repro.fleet.campaign import Campaign, WavePolicy
from repro.fleet.engine import CampaignEngine
from repro.fleet.vehicle import FleetSpec, generate_fleet
from repro.observability import (WALL_CLOCK_FIELDS, CampaignTracer,
                                 TraceError, flatten_result_documents,
                                 load_trace, render_dashboard, wave_latencies)
from test_parallel_campaign import (campaign_digest, fleet_digest,
                                    make_factory, run_campaign)


class TestTracerUnit:
    def test_emit_orders_and_contextualizes(self):
        tracer = CampaignTracer()
        first = tracer.emit("wave.begin", wave=0, staged=5)
        second = tracer.emit("vehicle.admit", wave=0, vehicle="veh0001",
                             accepted=True)
        assert first["seq"] == 0 and second["seq"] == 1
        assert second["vehicle"] == "veh0001" and second["accepted"] is True
        assert "t_s" in first
        assert len(tracer) == 2
        assert [e["event"] for e in tracer.select("wave.begin")] == ["wave.begin"]

    def test_deterministic_mode_strips_wall_clock_fields(self):
        tracer = CampaignTracer(deterministic=True)
        record = tracer.emit("vehicle.admit", wave=1, vehicle="veh0003",
                             accepted=True)
        assert set(record) & WALL_CLOCK_FIELDS == set()
        assert record["accepted"] is True and record["vehicle"] == "veh0003"

    def test_flush_writes_jsonl_and_streams_appends(self, tmp_path):
        path = tmp_path / "deep" / "trace.jsonl"
        tracer = CampaignTracer(path=str(path))
        tracer.emit("campaign.begin", fleet_size=10)
        assert tracer.flush() == 1
        tracer.emit("campaign.end", admitted=10)
        assert tracer.flush() == 1
        assert tracer.flush() == 0
        events = load_trace(str(path))
        assert [e["event"] for e in events] == ["campaign.begin",
                                               "campaign.end"]

    def test_context_manager_flushes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with CampaignTracer(path=str(path)) as tracer:
            tracer.emit("wave.begin", wave=0)
        assert len(load_trace(str(path))) == 1

    def test_keep_events_false_bounds_memory(self, tmp_path):
        tracer = CampaignTracer(path=str(tmp_path / "t.jsonl"),
                                keep_events=False)
        tracer.emit("wave.begin", wave=0)
        assert tracer.events == [] and len(tracer) == 1
        assert tracer.flush() == 1

    def test_load_trace_rejects_damage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(TraceError):
            load_trace(str(path))
        path.write_text('[1, 2]\n', encoding="utf-8")
        with pytest.raises(TraceError):
            load_trace(str(path))
        path.write_text('{"no_event": 1}\n', encoding="utf-8")
        with pytest.raises(TraceError):
            load_trace(str(path))
        with pytest.raises(TraceError):
            load_trace(str(tmp_path / "missing.jsonl"))


class TestTracedCampaigns:
    def test_trace_covers_every_layer(self, tmp_path):
        tracer = CampaignTracer(path=str(tmp_path / "trace.jsonl"))
        _, _, result = run_campaign(40, 2, tracer=tracer)
        kinds = {event["event"] for event in tracer.events}
        assert {"campaign.begin", "wave.begin", "cache.analyse",
                "vehicle.admit", "feedback.observe", "wave.end",
                "campaign.end"} <= kinds
        # The campaign flushed at run end without an explicit close.
        file_events = load_trace(str(tmp_path / "trace.jsonl"))
        assert len(file_events) == len(tracer.events)
        ends = tracer.select("campaign.end")
        assert len(ends) == 1
        assert ends[0]["admitted"] == result.admitted
        assert ends[0]["waves"] == len(result.waves)

    def test_untraced_resume_on_a_shared_cache_stays_untraced(self):
        """A traced campaign halts at its canary; an untraced resume on the
        same fleet and cache adds no event to the first campaign's trace."""
        tracer = CampaignTracer()
        fleet, campaign, halted = run_campaign(
            12, 1, failure_rate=1.0, tracer=tracer,
            policy=WavePolicy(canary_size=2, max_failure_rate=0.0))
        assert halted.halted_wave == 0
        emitted = len(tracer)
        cache = campaign.analysis_cache
        resumed = Campaign(fleet, make_factory(),
                           policy=WavePolicy(canary_size=2,
                                             max_failure_rate=1.0),
                           analysis_cache=cache, failure_injection_rate=1.0,
                           feedback_seed=1).run(
            resume_from=campaign.last_checkpoint)
        assert resumed.completed and resumed.admitted == 12
        assert len(tracer) == emitted
        assert cache.tracer is None

    def test_a_resume_traces_only_the_waves_after_its_replay(self):
        """A traced resume from wave 2 replays waves 0 and 1 silently: its
        trace is the uninterrupted trace's from wave 2 on, between its own
        campaign.begin and campaign.end."""
        def traced(resume_from=None):
            tracer = CampaignTracer(deterministic=True)
            spec = FleetSpec(size=12, seed=3, num_variants=3,
                             extra_components=2)
            cache = AnalysisCache()
            campaign = Campaign(generate_fleet(spec, analysis_cache=cache),
                                make_factory(), analysis_cache=cache,
                                failure_injection_rate=0.2, feedback_seed=3,
                                tracer=tracer)
            engine = CampaignEngine(campaign, resume_from=resume_from)
            checkpoints = []
            while not engine.done:
                checkpoints.append(engine.checkpoint())
                engine.step()
            engine.finalize()
            return tracer.events, checkpoints

        def body(events):
            return [{key: value for key, value in event.items()
                     if key != "seq"} for event in events[1:-1]]

        uninterrupted, checkpoints = traced()
        resumed, _ = traced(checkpoints[2])
        assert resumed[0]["event"] == "campaign.begin" and resumed[0]["resumed"]
        first = next(position for position, event in enumerate(uninterrupted)
                     if event.get("wave") == 2)
        assert body(resumed) == body([None] + uninterrupted[first:])

    def test_tracer_none_leaves_result_unchanged_field_for_field(self):
        fleet_a, _, traced = run_campaign(25, 7, failure_rate=0.2,
                                          tracer=CampaignTracer())
        fleet_b, _, untraced = run_campaign(25, 7, failure_rate=0.2)
        assert campaign_digest(traced) == campaign_digest(untraced)
        assert fleet_digest(fleet_a) == fleet_digest(fleet_b)
        # Field-for-field, counters included: the same admission path, so
        # even the non-canonical fields must agree.
        assert traced.cache_hits == untraced.cache_hits
        assert traced.cache_misses == untraced.cache_misses

    def test_deterministic_trace_is_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            tracer = CampaignTracer(path=str(path), deterministic=True)
            run_campaign(20, 3, failure_rate=0.3, tracer=tracer)
        assert paths[0].read_bytes() == paths[1].read_bytes()
        for event in load_trace(str(paths[0])):
            assert set(event) & WALL_CLOCK_FIELDS == set()

    def test_traced_run_matches_untraced_canonical_record(self):
        # The tracer must not perturb the scenario's canonical record
        # either (the experiments layer extracts from the same result).
        from repro.scenarios.fleet_campaign import run_fleet_campaign_scenario
        traced = run_fleet_campaign_scenario(
            fleet_size=18, seed=5, trace_path=os.devnull)
        untraced = run_fleet_campaign_scenario(fleet_size=18, seed=5)
        assert traced.waves == untraced.waves
        assert traced.admitted == untraced.admitted
        assert traced.completed == untraced.completed

class TestMetricsBridge:
    def test_wave_latencies_from_wall_clock_trace(self):
        events = [
            {"event": "wave.begin", "wave": 0, "t_s": 1.0},
            {"event": "wave.end", "wave": 0, "t_s": 1.5},
            {"event": "wave.begin", "wave": 1, "t_s": 2.0},
            {"event": "wave.end", "wave": 1, "t_s": 3.25},
            {"event": "wave.begin", "wave": 2},  # deterministic: no t_s
            {"event": "wave.end", "wave": 2},
        ]
        assert wave_latencies(events) == {0: 0.5, 1: 1.25}


class TestDashboard:
    @staticmethod
    def _campaign_record():
        return {
            "run_id": "e10_small/000", "experiment": "e10_small",
            "scenario": "fleet_update_campaign", "index": 0, "params": {},
            "metrics": {
                "admitted": 4, "rejected": 1, "halted": False,
                "waves": [
                    {"index": 0, "kind": "canary", "size": 2, "admitted": 2,
                     "rejected": 0, "deviating": 0, "undelivered": 0,
                     "rolled_back": 0, "failure_rate": 0.0},
                    {"index": 1, "kind": "fraction", "size": 3, "admitted": 2,
                     "rejected": 1, "deviating": 0, "undelivered": 0,
                     "rolled_back": 0, "failure_rate": 1 / 3},
                ],
            },
        }

    @staticmethod
    def _distributed_record():
        return {
            "run_id": "e11/000", "scenario": "distributed_e2e_update",
            "metrics": {"rejected_by_viewpoint": {"timing": 3, "safety": 1},
                        "rejected_distributed_only": 2},
        }

    def test_full_page_is_offline_and_self_contained(self):
        trace = [
            {"event": "wave.begin", "wave": 0, "t_s": 0.0},
            {"event": "vehicle.admit", "wave": 0, "vehicle": "veh0000",
             "accepted": True},
            {"event": "wave.end", "wave": 0, "t_s": 0.4},
        ]
        bench = [{"name": "e10", "mode": "full", "quick_mode": False,
                  "created_utc": "2026-08-08T12:00:00Z",
                  "payload": {"speedup": 2.0}}]
        page = render_dashboard(
            run_records=[self._campaign_record(),
                         self._distributed_record()],
            trace=trace, bench_records=bench)
        assert page.startswith("<!DOCTYPE html>")
        assert "<script" not in page
        assert "http" not in page.replace("http://www.w3.org/2000/svg", "")
        for section in ["Admission funnel", "Wave outcomes",
                        "Rejection reasons", "Admission latency", "Trace event volume",
                        "Latest benchmark speedups"]:
            assert section in page, section
        # rejected_distributed_only surfaces as its own reason bar.
        assert "distributed only" in page
        # Balanced markup for the generated chart containers.
        for tag in ["svg", "section", "table", "details", "figure", "path"]:
            assert page.count(f"<{tag}") == page.count(f"</{tag}>"), tag

    def test_empty_inputs_still_render_valid_page(self):
        page = render_dashboard()
        assert page.startswith("<!DOCTYPE html>")
        assert "No campaign run records" in page
        assert "No tracer files" in page
        assert "No BENCH_*.json records" in page

    def test_speedup_trajectory_appears_with_multi_point_series(self):
        bench = [
            {"name": "e10", "mode": "full",
             "created_utc": "2026-08-01T00:00:00Z",
             "payload": {"speedup": 1.5}},
            {"name": "e10", "mode": "full",
             "created_utc": "2026-08-08T00:00:00Z",
             "payload": {"speedup": 2.5}},
        ]
        page = render_dashboard(bench_records=bench)
        assert "Speedup trajectory" in page

    def test_values_are_escaped(self):
        record = self._campaign_record()
        record["run_id"] = "<img src=x>"
        page = render_dashboard(run_records=[record])
        assert "<img" not in page

    def test_flatten_result_documents(self):
        documents = [[{"records": [{"run_id": "a"}, {"run_id": "b"}]},
                      {"records": [{"run_id": "c"}]}],
                     {"records": [{"run_id": "d"}]}]
        flattened = flatten_result_documents(documents)
        assert [entry["run_id"] for entry in flattened] == ["a", "b", "c", "d"]


class TestReportCli:
    def test_report_renders_from_files(self, tmp_path, capsys):
        from repro.experiments.cli import main
        results = tmp_path / "results.json"
        results.write_text(json.dumps([{"records": [
            TestDashboard._campaign_record()]}]), encoding="utf-8")
        trace_path = tmp_path / "trace.jsonl"
        tracer = CampaignTracer(path=str(trace_path))
        tracer.emit("wave.begin", wave=0)
        tracer.close()
        bench_dir = tmp_path / "records"
        bench_dir.mkdir()
        (bench_dir / "BENCH_e10.json").write_text(json.dumps(
            {"name": "e10", "created_utc": "2026-08-08T12:00:00Z",
             "quick_mode": False, "payload": {"speedup": 2.0}}),
            encoding="utf-8")
        output = tmp_path / "sub" / "dashboard.html"
        assert main(["report", "--results", str(results),
                     "--trace", str(trace_path),
                     "--bench-dir", str(bench_dir),
                     "--output", str(output)]) == 0
        page = output.read_text(encoding="utf-8")
        assert page.startswith("<!DOCTYPE html>")
        assert "Admission funnel" in page
        assert "dashboard written to" in capsys.readouterr().out

    def test_report_fails_loud_on_corrupt_inputs(self, tmp_path, capsys):
        from repro.experiments.cli import main
        bad = tmp_path / "bad.json"
        bad.write_text("{nope", encoding="utf-8")
        assert main(["report", "--results", str(bad),
                     "--output", str(tmp_path / "o.html")]) == 2
        assert "cannot read results" in capsys.readouterr().err
        bad_trace = tmp_path / "bad.jsonl"
        bad_trace.write_text("not json\n", encoding="utf-8")
        assert main(["report", "--trace", str(bad_trace),
                     "--output", str(tmp_path / "o.html")]) == 2
