"""Static HTML fleet dashboard, rendered offline with zero dependencies.

``python -m repro.experiments report`` folds three machine-readable record
families into one self-contained HTML page:

* **campaign run records** (``run --output`` files) — admission funnels,
  per-wave outcome stacks and rejection-reason breakdowns (including the
  distributed viewpoint's ``rejected_distributed_only`` exclusives);
* **tracer files** (:func:`~repro.observability.tracer.load_trace`) —
  per-wave admission latencies, via the same fold as
  :mod:`repro.observability.metrics_bridge`, and the event volume;
* **benchmark records** (``benchmarks/records/BENCH_*.json``) — the
  headline speedup trajectory from
  :func:`~repro.experiments.bench_history.bench_trajectory`.

The page is a single file: inline CSS, inline SVG charts, the system sans,
no scripts and no network fetches — it renders identically from a CI
artifact, a mail attachment or ``file://``.  Charts carry hover tooltips
via SVG ``<title>`` elements and every figure ships its data table, so the
numbers survive printing, forced-colors mode and screen readers.  Colors
are CSS custom properties with light and dark values (the validated
reference palette), so the page follows ``prefers-color-scheme``.

Like the metrics bridge, this module never imports the campaign engine —
it consumes the plain dicts the record files already contain.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.observability.metrics_bridge import wave_latencies

#: Campaign run records beyond this many get the table, not a chart each.
MAX_CAMPAIGN_CHARTS = 6
#: Series beyond the first four fold into the trajectory table (the
#: reference palette validates four adjacent categorical slots).
MAX_TRAJECTORY_SERIES = 4

_WIDTH = 720
_GUTTER = 170
_PLOT_W = 500
_BAR_H = 18
_PITCH = 26
_ROUND = 4

# Fixed categorical slot order (reference palette); never cycled.
_SLOTS = ("var(--series-1)", "var(--series-2)", "var(--series-3)",
          "var(--series-4)")


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 100 or value == int(value):
            return f"{value:.0f}"
        return f"{value:.3g}"
    return str(value)


def _axis(maximum: float) -> Tuple[float, List[float]]:
    """Nice axis top and 5 tick values (0 included) covering ``maximum``."""
    if maximum <= 0:
        maximum = 1.0
    raw = maximum / 4
    magnitude = 10.0 ** math.floor(math.log10(raw))
    step = magnitude
    for multiple in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = multiple * magnitude
        if step * 4 >= maximum:
            break
    return step * 4, [step * index for index in range(5)]


def _bar_end_path(x: float, y: float, width: float, height: float) -> str:
    """A left-anchored bar with only its data end rounded (4px), square at
    the baseline."""
    radius = min(_ROUND, width, height / 2)
    return (f"M{x:.1f},{y:.1f} h{width - radius:.1f} "
            f"a{radius},{radius} 0 0 1 {radius},{radius} "
            f"v{height - 2 * radius:.1f} "
            f"a{radius},{radius} 0 0 1 -{radius},{radius} "
            f"h-{width - radius:.1f} z")


def _grid(ticks: Sequence[float], top: float, height: float,
          fmt=None) -> List[str]:
    fmt = fmt or _fmt
    parts = []
    for tick in ticks:
        x = _GUTTER + _PLOT_W * (tick / top if top else 0.0)
        parts.append(f'<line class="grid" x1="{x:.1f}" y1="0" '
                     f'x2="{x:.1f}" y2="{height - 16:.1f}"/>')
        parts.append(f'<text class="tick" x="{x:.1f}" '
                     f'y="{height - 4:.1f}" text-anchor="middle">'
                     f'{_esc(fmt(tick))}</text>')
    return parts


def _hbar_chart(rows: Sequence[Tuple[str, float, str]],
                color: str = _SLOTS[0], fmt=None) -> str:
    """Horizontal bars for one measure: ``rows`` of (label, value, hover)."""
    fmt = fmt or _fmt
    height = len(rows) * _PITCH + 20
    top, ticks = _axis(max((value for _, value, _ in rows), default=1.0))
    parts = [f'<svg role="img" viewBox="0 0 {_WIDTH} {height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    parts.extend(_grid(ticks, top, height, fmt))
    for index, (label, value, hover) in enumerate(rows):
        y = index * _PITCH + (_PITCH - _BAR_H) / 2
        width = _PLOT_W * (value / top if top else 0.0)
        parts.append(f'<text class="lbl" x="{_GUTTER - 8}" '
                     f'y="{y + _BAR_H - 4:.1f}" text-anchor="end">'
                     f'{_esc(label)}</text>')
        if width > 0.5:
            parts.append(f'<path d="{_bar_end_path(_GUTTER, y, width, _BAR_H)}"'
                         f' fill="{color}"><title>{_esc(hover)}</title></path>')
        parts.append(f'<text class="val" x="{_GUTTER + width + 6:.1f}" '
                     f'y="{y + _BAR_H - 4:.1f}">{_esc(fmt(value))}</text>')
    parts.append("</svg>")
    return "".join(parts)


def _stacked_chart(rows: Sequence[Tuple[str, List[Tuple[str, float, str]]]],
                   total_max: float) -> str:
    """Per-row stacked horizontal bars.

    ``rows`` pairs a row label with ordered segments of (hover, value,
    color); segments are separated by 2px surface gaps and only the last
    segment carries the rounded data end.
    """
    height = len(rows) * _PITCH + 20
    top, ticks = _axis(total_max)
    parts = [f'<svg role="img" viewBox="0 0 {_WIDTH} {height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    parts.extend(_grid(ticks, top, height))
    for index, (label, segments) in enumerate(rows):
        y = index * _PITCH + (_PITCH - _BAR_H) / 2
        parts.append(f'<text class="lbl" x="{_GUTTER - 8}" '
                     f'y="{y + _BAR_H - 4:.1f}" text-anchor="end">'
                     f'{_esc(label)}</text>')
        x = float(_GUTTER)
        drawn = [(hover, value, color) for hover, value, color in segments
                 if value > 0]
        for position, (hover, value, color) in enumerate(drawn):
            width = _PLOT_W * (value / top if top else 0.0)
            if width < 1.0:
                width = 1.0
            if position == len(drawn) - 1:
                shape = (f'<path d="{_bar_end_path(x, y, width, _BAR_H)}" '
                         f'fill="{color}">')
            else:
                shape = (f'<rect x="{x:.1f}" y="{y:.1f}" width="{width:.1f}" '
                         f'height="{_BAR_H}" fill="{color}">')
            parts.append(f'{shape}<title>{_esc(hover)}</title>'
                         f'{"</path>" if position == len(drawn) - 1 else "</rect>"}')
            x += width + 2  # 2px surface gap between stacked fills
    parts.append("</svg>")
    return "".join(parts)


def _line_chart(categories: Sequence[str],
                series: Sequence[Tuple[str, str, Dict[str, float]]],
                fmt=None) -> str:
    """2px lines with 8px markers over shared x categories.

    ``series`` entries are (name, color, {category: value}).
    """
    fmt = fmt or _fmt
    height = 180
    plot_h = height - 28
    values = [value for _, _, points in series for value in points.values()]
    top, ticks = _axis(max(values, default=1.0))
    parts = [f'<svg role="img" viewBox="0 0 {_WIDTH} {height}" '
             f'xmlns="http://www.w3.org/2000/svg">']
    for tick in ticks:
        y = plot_h - plot_h * (tick / top if top else 0.0) + 8
        parts.append(f'<line class="grid" x1="{_GUTTER}" y1="{y:.1f}" '
                     f'x2="{_GUTTER + _PLOT_W}" y2="{y:.1f}"/>')
        parts.append(f'<text class="tick" x="{_GUTTER - 8}" y="{y + 4:.1f}" '
                     f'text-anchor="end">{_esc(fmt(tick))}</text>')

    def x_of(index: int) -> float:
        if len(categories) <= 1:
            return _GUTTER + _PLOT_W / 2
        return _GUTTER + _PLOT_W * index / (len(categories) - 1)

    label_step = max(1, len(categories) // 8)
    for index, category in enumerate(categories):
        if index % label_step == 0 or index == len(categories) - 1:
            parts.append(f'<text class="tick" x="{x_of(index):.1f}" '
                         f'y="{height - 4}" text-anchor="middle">'
                         f'{_esc(category)}</text>')
    for name, color, points in series:
        coords = [(x_of(index), plot_h - plot_h *
                   (points[category] / top if top else 0.0) + 8)
                  for index, category in enumerate(categories)
                  if category in points]
        if len(coords) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            parts.append(f'<polyline class="line" points="{path}" '
                         f'stroke="{color}"/>')
        for (x, y), category in zip(
                coords, [c for c in categories if c in points]):
            parts.append(
                f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" fill="{color}" '
                f'stroke="var(--surface-1)" stroke-width="2">'
                f'<title>{_esc(name)} — {_esc(category)}: '
                f'{_esc(fmt(points[category]))}</title></circle>')
    parts.append("</svg>")
    return "".join(parts)


def _legend(entries: Sequence[Tuple[str, str]]) -> str:
    chips = "".join(
        f'<span class="chip"><span class="swatch" '
        f'style="background:{color}"></span>{_esc(label)}</span>'
        for label, color in entries)
    return f'<div class="legend">{chips}</div>'


def _table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    head = "".join(f"<th>{_esc(header)}</th>" for header in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(_fmt(cell))}</td>" for cell in row)
        + "</tr>" for row in rows)
    return (f'<details class="tbl"><summary>Data table</summary>'
            f'<table><thead><tr>{head}</tr></thead>'
            f'<tbody>{body}</tbody></table></details>')


def _figure(title: str, chart: str, caption: str = "",
            legend: str = "", table: str = "") -> str:
    caption_html = f'<p class="cap">{_esc(caption)}</p>' if caption else ""
    return (f'<section><h2>{_esc(title)}</h2>{caption_html}{legend}'
            f'<figure>{chart}</figure>{table}</section>')


def _tiles(entries: Sequence[Tuple[str, str, str]]) -> str:
    cells = "".join(
        f'<div class="tile"><div class="tile-v">{_esc(value)}</div>'
        f'<div class="tile-l">{_esc(label)}</div>'
        f'<div class="tile-s">{_esc(sub)}</div></div>'
        for label, value, sub in entries)
    return f'<section class="tiles">{cells}</section>'


# ---------------------------------------------------------------------------
# Record extraction.
# ---------------------------------------------------------------------------

def flatten_result_documents(documents: Iterable[Any]) -> List[Dict[str, Any]]:
    """Run records of one or more ``run --output`` documents, flattened."""
    records: List[Dict[str, Any]] = []
    for document in documents:
        for result in document if isinstance(document, list) else [document]:
            if isinstance(result, dict):
                records.extend(entry for entry in result.get("records", [])
                               if isinstance(entry, dict))
    return records


def _campaign_records(run_records: Sequence[Dict[str, Any]]
                      ) -> List[Dict[str, Any]]:
    return [record for record in run_records
            if isinstance(record.get("metrics", {}).get("waves"), list)]


def _run_label(record: Dict[str, Any]) -> str:
    return str(record.get("run_id")
               or record.get("experiment")
               or record.get("scenario") or "run")


def _funnel_section(campaigns: Sequence[Dict[str, Any]]) -> str:
    rows: List[Tuple[str, float, str]] = []
    table_rows: List[List[Any]] = []
    for record in campaigns[:MAX_CAMPAIGN_CHARTS]:
        metrics = record["metrics"]
        waves = [dict(wave) for wave in metrics["waves"]]
        staged = sum(int(wave.get("size", 0)) for wave in waves)
        undelivered = sum(int(wave.get("undelivered", 0)) for wave in waves)
        admitted = int(metrics.get("admitted", 0))
        label = _run_label(record)
        delivered = staged - undelivered
        rows.extend([
            (f"{label} · staged", float(staged),
             f"{label}: {staged} vehicle slots staged across "
             f"{len(waves)} waves"),
            (f"{label} · delivered", float(delivered),
             f"{label}: {delivered} deliveries succeeded "
             f"({undelivered} dropped)"),
            (f"{label} · admitted", float(admitted),
             f"{label}: {admitted} admissions passed the acceptance test"),
        ])
        table_rows.append([label, staged, delivered, admitted,
                           metrics.get("rejected", 0),
                           metrics.get("halted", False)])
    chart = _hbar_chart(rows)
    return _figure(
        "Admission funnel", chart,
        caption="Staged wave slots, successful deliveries and admitted "
                "vehicles per campaign run — one ordinal measure, so all "
                "stages share the sequential hue.",
        table=_table(["run", "staged", "delivered", "admitted", "rejected",
                      "halted"], table_rows))


def _waves_section(campaigns: Sequence[Dict[str, Any]]) -> str:
    segments = (("admitted", _SLOTS[0]), ("rejected", _SLOTS[1]),
                ("deviating", _SLOTS[2]), ("undelivered", "var(--muted)"))
    parts: List[str] = []
    for record in campaigns[:MAX_CAMPAIGN_CHARTS]:
        label = _run_label(record)
        waves = [dict(wave) for wave in record["metrics"]["waves"]]
        rows: List[Tuple[str, List[Tuple[str, float, str]]]] = []
        table_rows: List[List[Any]] = []
        for wave in waves:
            name = f"wave {wave.get('index', '?')} ({wave.get('kind', '?')})"
            rows.append((name, [
                (f"{name}: {wave.get(key, 0)} {key}",
                 float(wave.get(key, 0)), color)
                for key, color in segments]))
            table_rows.append([wave.get("index", "?"), wave.get("kind", "?"),
                               wave.get("size", 0), wave.get("admitted", 0),
                               wave.get("rejected", 0),
                               wave.get("deviating", 0),
                               wave.get("undelivered", 0),
                               wave.get("rolled_back", 0),
                               wave.get("failure_rate", 0.0)])
        total_max = max((float(wave.get("size", 0)) for wave in waves),
                        default=1.0)
        chart = _stacked_chart(rows, total_max)
        parts.append(_figure(
            f"Wave outcomes — {label}", chart,
            legend=_legend([(key, color) for key, color in segments]),
            table=_table(["wave", "kind", "size", "admitted", "rejected",
                          "deviating", "undelivered", "rolled_back",
                          "failure_rate"], table_rows)))
    dropped = len(campaigns) - min(len(campaigns), MAX_CAMPAIGN_CHARTS)
    if dropped > 0:
        parts.append(f'<p class="cap">{dropped} further campaign run(s) not '
                     f'charted — see the admission funnel table.</p>')
    return "".join(parts)


def _rejections_section(run_records: Sequence[Dict[str, Any]]) -> str:
    reasons: Dict[str, int] = {}
    sources = 0
    for record in run_records:
        metrics = record.get("metrics", {})
        viewpoints = metrics.get("rejected_by_viewpoint")
        if not isinstance(viewpoints, dict):
            continue
        sources += 1
        for viewpoint, count in viewpoints.items():
            reasons[str(viewpoint)] = reasons.get(str(viewpoint), 0) + int(count)
        distributed = metrics.get("rejected_distributed_only")
        if isinstance(distributed, (int, float)) and distributed:
            reasons["distributed only"] = (reasons.get("distributed only", 0)
                                           + int(distributed))
    if not reasons:
        return ""
    ordered = sorted(reasons.items(), key=lambda item: -item[1])
    rows = [(reason, float(count),
             f"{count} rejections attributed to the {reason} viewpoint")
            for reason, count in ordered]
    return _figure(
        "Rejection reasons", _hbar_chart(rows, color=_SLOTS[1]),
        caption=f"Rejections by vetoing viewpoint across {sources} run(s); "
                "'distributed only' counts updates every local viewpoint "
                "accepted but the cross-vehicle analysis refused.",
        table=_table(["viewpoint", "rejections"],
                     [[reason, count] for reason, count in ordered]))


def _trace_sections(trace: Sequence[Dict[str, Any]]) -> str:
    parts: List[str] = []
    latencies = wave_latencies(trace)
    if latencies:
        categories = [str(wave) for wave in sorted(latencies)]
        points = {str(wave): latency for wave, latency
                  in latencies.items()}
        chart = _line_chart(categories,
                            [("admission latency", _SLOTS[0], points)],
                            fmt=lambda v: f"{v:.3g}s")
        parts.append(_figure(
            "Admission latency by wave", chart,
            caption="Wall time between each wave.begin and wave.end trace "
                    "event (absent from deterministic traces, which carry "
                    "no wall clock).",
            table=_table(["wave", "latency"],
                         [[wave, f"{latency:.4f} s"] for wave, latency
                          in sorted(latencies.items())])))
    if trace:
        counts: Dict[str, int] = {}
        for event in trace:
            name = str(event.get("event", "?"))
            counts[name] = counts.get(name, 0) + 1
        parts.append(_figure(
            "Trace event volume", "",
            table=_table(["event", "count"],
                         sorted(counts.items(), key=lambda item: -item[1]))))
    return "".join(parts)


def _bench_section(bench_records: Sequence[Dict[str, Any]]) -> str:
    # Imported here, not at module level: the campaign engine loads this
    # package, and repro.experiments loads the scenarios that load the
    # campaign engine — a top-level import would close that cycle.
    from repro.experiments.bench_history import bench_trajectory
    trajectory = bench_trajectory(list(bench_records))
    series = trajectory["series"]
    if not series:
        return ""
    parts: List[str] = []
    multi = [entry for entry in series if len(entry["points"]) > 1]
    if multi:
        charted = multi[:MAX_TRAJECTORY_SERIES]
        categories: List[str] = []
        for entry in charted:
            for point in entry["points"]:
                if point["created_utc"] not in categories:
                    categories.append(point["created_utc"])
        categories.sort()
        short = [category[:10] for category in categories]
        chart_series = []
        for slot, entry in enumerate(charted):
            points = {point["created_utc"][:10]: point["value"]
                      for point in entry["points"]}
            chart_series.append((f"{entry['bench']} [{entry['mode']}]",
                                 _SLOTS[slot], points))
        legend = _legend([(name, color)
                          for name, color, _ in chart_series])
        parts.append(_figure(
            "Speedup trajectory", _line_chart(short, chart_series,
                                              fmt=lambda v: f"{v:.3g}x"),
            caption="Headline speedup of each benchmark over its recorded "
                    "runs (quick-mode smokes plotted separately from "
                    "full-fidelity runs).",
            legend=legend))
        if len(multi) > MAX_TRAJECTORY_SERIES:
            parts.append(f'<p class="cap">{len(multi) - MAX_TRAJECTORY_SERIES}'
                         ' further trajectories not charted — see the '
                         'table.</p>')
    latest = [(f"{entry['bench']} [{entry['mode']}]",
               entry["points"][-1]["value"],
               f"{entry['bench']} ({entry['mode']}): "
               f"{entry['points'][-1]['value']:.2f}x "
               f"{entry['points'][-1]['metric']}")
              for entry in series]
    table_rows = [[f"{entry['bench']} [{entry['mode']}]",
                   point["created_utc"], point["metric"],
                   f"{point['value']:.3f}"]
                  for entry in series for point in entry["points"]]
    parts.append(_figure(
        "Latest benchmark speedups",
        _hbar_chart(latest, fmt=lambda v: f"{v:.3g}x"),
        caption="Most recent headline speedup per benchmark and fidelity "
                "mode.",
        table=_table(["bench", "recorded", "metric", "speedup"], table_rows)))
    if trajectory["unplotted"]:
        parts.append('<p class="cap">No headline metric (not plotted): '
                     f'{_esc(", ".join(trajectory["unplotted"]))}.</p>')
    return "".join(parts)


def _overview_tiles(campaigns: Sequence[Dict[str, Any]],
                    run_records: Sequence[Dict[str, Any]],
                    trace: Sequence[Dict[str, Any]],
                    bench_records: Sequence[Dict[str, Any]]) -> str:
    admitted = sum(int(record["metrics"].get("admitted", 0))
                   for record in campaigns)
    rejected = sum(int(record["metrics"].get("rejected", 0))
                   for record in campaigns)
    halted = sum(1 for record in campaigns
                 if record["metrics"].get("halted"))
    entries = [
        ("campaign runs", str(len(campaigns)),
         f"of {len(run_records)} run records"),
        ("vehicles admitted", str(admitted),
         f"{rejected} rejected"),
        ("halted campaigns", str(halted),
         "rollout guard triggered" if halted else "no halts"),
    ]
    if trace:
        entries.append(("trace events", str(len(trace)), "from tracer files"))
    if bench_records:
        entries.append(("bench records", str(len(bench_records)),
                        "BENCH_*.json"))
    return _tiles(entries)


_STYLE = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --plane: #f9f9f7;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --series-1: #2a78d6; --series-2: #eb6834;
  --series-3: #1baf7a; --series-4: #eda100;
  --border: rgba(11,11,11,0.10);
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --plane: #0d0d0d;
    --ink: #ffffff; --ink-2: #c3c2b7;
    --grid: #2c2c2a; --baseline: #383835;
    --series-1: #3987e5; --series-2: #d95926;
    --series-3: #199e70; --series-4: #c98500;
    --border: rgba(255,255,255,0.10);
  }
}
body { margin: 0; padding: 24px; background: var(--plane); color: var(--ink);
  font: 14px/1.5 system-ui, -apple-system, "Segoe UI", sans-serif; }
main { max-width: 860px; margin: 0 auto; }
h1 { font-size: 22px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 0 0 8px; }
.sub, .cap { color: var(--ink-2); margin: 0 0 12px; font-size: 13px; }
section { background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 20px; margin: 16px 0; }
figure { margin: 8px 0 0; }
svg { width: 100%; height: auto; display: block; }
svg text { font: 11px system-ui, -apple-system, "Segoe UI", sans-serif;
  fill: var(--ink-2); }
svg .val { fill: var(--ink); font-variant-numeric: tabular-nums; }
svg .tick { fill: var(--muted); font-variant-numeric: tabular-nums; }
svg .grid { stroke: var(--grid); stroke-width: 1; }
svg .line { fill: none; stroke-width: 2; stroke-linejoin: round; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; background: none;
  border: none; padding: 0; }
.tile { flex: 1 1 140px; background: var(--surface-1);
  border: 1px solid var(--border); border-radius: 8px; padding: 12px 16px; }
.tile-v { font-size: 24px; font-weight: 600; }
.tile-l { color: var(--ink-2); font-size: 13px; }
.tile-s { color: var(--muted); font-size: 12px; }
.legend { display: flex; flex-wrap: wrap; gap: 12px; margin: 4px 0;
  font-size: 12px; color: var(--ink-2); }
.chip { display: inline-flex; align-items: center; gap: 6px; }
.swatch { width: 10px; height: 10px; border-radius: 3px; display: inline-block; }
.tbl { margin-top: 10px; font-size: 13px; }
.tbl summary { color: var(--ink-2); cursor: pointer; }
table { border-collapse: collapse; margin-top: 8px; width: 100%; }
th, td { text-align: left; padding: 4px 10px 4px 0;
  border-bottom: 1px solid var(--grid);
  font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; }
footer { color: var(--muted); font-size: 12px; margin: 24px 0 8px; }
"""


def render_dashboard(run_records: Optional[Sequence[Dict[str, Any]]] = None,
                     trace: Optional[Sequence[Dict[str, Any]]] = None,
                     bench_records: Optional[Sequence[Dict[str, Any]]] = None,
                     title: str = "Fleet campaign observability") -> str:
    """Render the complete dashboard page; always returns valid HTML.

    All inputs are optional — the page renders whatever record families it
    is given and says plainly which are absent, so a partial invocation
    (trace only, benches only) still produces a useful artifact.
    """
    run_records = list(run_records or [])
    trace = list(trace or [])
    bench_records = list(bench_records or [])
    campaigns = _campaign_records(run_records)
    body: List[str] = [_overview_tiles(campaigns, run_records, trace,
                                       bench_records)]
    if campaigns:
        body.append(_funnel_section(campaigns))
        body.append(_waves_section(campaigns))
    rejections = _rejections_section(run_records)
    if rejections:
        body.append(rejections)
    if not campaigns and not rejections:
        body.append('<section><h2>Campaigns</h2><p class="cap">No campaign '
                    'run records given — pass `--results` files written by '
                    '`run --output`.</p></section>')
    if trace:
        body.append(_trace_sections(trace))
    else:
        body.append('<section><h2>Traces</h2><p class="cap">No tracer files '
                    'given — run a campaign with a trace path and pass '
                    '`--trace`.</p></section>')
    if bench_records:
        body.append(_bench_section(bench_records))
    else:
        body.append('<section><h2>Benchmarks</h2><p class="cap">No '
                    'BENCH_*.json records found.</p></section>')
    return (
        '<!DOCTYPE html><html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f'<title>{_esc(title)}</title><style>{_STYLE}</style></head>'
        f'<body><main><header><h1>{_esc(title)}</h1>'
        '<p class="sub">Self-contained static report — no scripts, no '
        'network. Hover marks for values; every figure ships its data '
        'table.</p></header>'
        + "".join(body) +
        '<footer>Generated by `python -m repro.experiments report`.</footer>'
        '</main></body></html>')


__all__ = ["MAX_CAMPAIGN_CHARTS", "MAX_TRAJECTORY_SERIES",
           "flatten_result_documents", "render_dashboard"]
