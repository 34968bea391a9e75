"""Shared helpers for the benchmark harness.

Every benchmark regenerates the rows/series of one experiment from
DESIGN.md/EXPERIMENTS.md and prints them (run pytest with ``-s`` to see the
tables).  ``pytest-benchmark`` provides the timing statistics; the printed
tables carry the reproduced quantities.

Perf records
------------
:func:`write_bench_record` additionally emits machine-readable
``BENCH_<name>.json`` files (default: ``benchmarks/records/``, override with
``REPRO_BENCH_DIR``) so the performance trajectory — speedups, wall times,
cache/engine counters — can be tracked and diffed across PRs instead of
living only in CI logs.  ``quick_mode()`` reflects the ``REPRO_BENCH_QUICK``
environment variable; benchmarks shrink their grids under it so CI can smoke
the full path in seconds.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List

from repro.fleet.vehicle import generate_fleet


def quick_mode() -> bool:
    """Whether benchmarks should run with reduced samples (CI smoke)."""
    return os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")


def write_bench_record(name: str, payload: Dict[str, Any]) -> Path:
    """Write one machine-readable perf record as ``BENCH_<name>.json``.

    The record wraps ``payload`` with enough execution metadata (timestamp,
    interpreter, platform, quick-mode flag) to compare runs across machines
    and PRs.  Returns the path written.

    Quick-mode records land as ``BENCH_<name>.quick.json`` so a CI smoke run
    never overwrites a committed full-fidelity record — and so the
    regression gate (``bench-history --baseline --fail-on-regression``)
    only ever compares records of the same mode against each other.
    """
    out_dir = Path(os.environ.get("REPRO_BENCH_DIR",
                                  Path(__file__).resolve().parent / "records"))
    out_dir.mkdir(parents=True, exist_ok=True)
    quick = quick_mode()
    document = {
        "name": name,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "quick_mode": quick,
        "mode": "quick" if quick else "full",
        "payload": payload,
    }
    path = out_dir / (f"BENCH_{name}.quick.json" if quick
                      else f"BENCH_{name}.json")
    with path.open("w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True, indent=2)
        handle.write("\n")
    return path


def provisioned_fleet(spec, analysis_cache=None):
    """``generate_fleet(spec)`` with every vehicle provisioned, in index order.

    Vehicles provision on first touch; benchmarks that time admission alone
    call this outside their timers, so provisioning stays out of both arms
    of a speedup.
    """
    fleet = generate_fleet(spec, analysis_cache=analysis_cache)
    for vehicle in fleet:
        vehicle.provision()
    return fleet


def best_of(fn, repeats: int = 3):
    """Minimum wall time of ``fn()`` over ``repeats`` runs, plus the last
    result.

    min-of-N on both sides of a speedup comparison keeps a single scheduler
    stall on a loaded CI runner from flipping a hard speedup assertion; the
    E9 and E11 speedup benchmarks share this helper so their methodology
    stays consistent.
    """
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


def print_table(title: str, rows: List[Dict[str, object]]) -> None:
    """Render a list of row dictionaries as an aligned text table."""
    print(f"\n=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    columns = list(rows[0].keys())
    widths = {c: max(len(str(c)), *(len(_fmt(r[c])) for r in rows)) for c in columns}
    header = "  ".join(str(c).rjust(widths[c]) for c in columns)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row[c]).rjust(widths[c]) for c in columns))


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
