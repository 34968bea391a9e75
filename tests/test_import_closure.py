"""The modules a run loads: the import closure of the library's entry points.

Every package ``__init__`` but ``repro.fleet`` re-exports its names lazily
(``repro._lazy``), and ``repro.analysis.threat`` imports ``networkx`` only
when a ``ThreatModel`` is built, so a run loads the layers it uses and no
more (docs/ARCHITECTURE.md, "Import rule").  Each test here runs a fresh
interpreter with ``PYTHONPATH=src`` and compares only the ``repro.*``
modules and ``networkx``: the standard library's module set differs from
one Python version to the next.

:data:`WORKLOAD_MODULES` pins the ``repro`` modules that the benchmark's
workloads (``perfbench/workloads.py``) import, so a new eager import shows
as a diff.  A change that moves the list pastes the new one, printed by::

    PYTHONPATH=src python tests/test_import_closure.py

and explains the move in CHANGES.md.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parent.parent

#: The ``repro`` modules loaded by the ``repro`` imports of
#: ``perfbench/workloads.py``.
WORKLOAD_MODULES = [
    "repro",
    "repro._lazy",
    "repro.analysis",
    "repro.analysis.cache",
    "repro.analysis.compositional",
    "repro.analysis.compositional.can_rta",
    "repro.analysis.compositional.system",
    "repro.analysis.cpa",
    "repro.analysis.incremental",
    "repro.analysis.safety",
    "repro.analysis.threat",
    "repro.can",
    "repro.can.frame",
    "repro.contracts",
    "repro.contracts.language",
    "repro.contracts.model",
    "repro.fleet",
    "repro.fleet.adversity",
    "repro.fleet.campaign",
    "repro.fleet.engine",
    "repro.fleet.vehicle",
    "repro.mcc",
    "repro.mcc.acceptance",
    "repro.mcc.configuration",
    "repro.mcc.controller",
    "repro.mcc.integration",
    "repro.mcc.mapping",
    "repro.monitoring",
    "repro.monitoring.anomaly",
    "repro.monitoring.deviation",
    "repro.monitoring.metrics",
    "repro.observability",
    "repro.observability.tracer",
    "repro.platform",
    "repro.platform.components",
    "repro.platform.resources",
    "repro.platform.rte",
    "repro.platform.tasks",
    "repro.platform.thermal",
    "repro.scenarios",
    "repro.scenarios.fleet_campaign",
    "repro.security",
    "repro.security.ids",
    "repro.service",
    "repro.service.admission",
    "repro.service.schemas",
    "repro.sim",
    "repro.sim.random",
    "repro.sim.trace",
]


def run_fresh(script: str) -> object:
    """The JSON value that a fresh interpreter running ``script`` prints
    last."""
    environment = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, "-c", script], env=environment,
                               check=True, capture_output=True, text=True)
    return json.loads(completed.stdout.splitlines()[-1])


def loaded_after(script: str) -> List[str]:
    """The sorted ``repro.*`` and ``networkx`` modules a fresh interpreter
    has loaded after running ``script``."""
    return run_fresh(script + (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(name for name in sys.modules if name in "
        "('repro', 'networkx') or name.startswith('repro.'))))\n"))


def workload_imports() -> str:
    """The ``repro`` import statements of ``perfbench/workloads.py``."""
    source = (ROOT / "perfbench" / "workloads.py").read_text()
    lines = source.splitlines()
    statements = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(name == "repro" or name.startswith("repro.") for name in names):
            statements.append("\n".join(lines[node.lineno - 1:node.end_lineno]))
    return "\n".join(statements)


def test_import_repro_loads_no_subpackage():
    assert loaded_after("import repro") == ["repro", "repro._lazy"]


def test_workload_imports_load_the_pinned_modules_and_no_networkx():
    loaded = loaded_after(workload_imports())
    assert "networkx" not in loaded
    assert loaded == WORKLOAD_MODULES


def test_a_second_campaign_and_service_round_load_no_module():
    """What a campaign and a service round use is loaded by the first of
    each, as the benchmark's warm-up assumes of its timed units."""
    script = """
import asyncio, json, sys
from repro.analysis.cache import AnalysisCache
from repro.fleet import Campaign, FleetSpec, generate_fleet
from repro.scenarios.fleet_campaign import add_component_update
from repro.service import AdmissionService, ResumeRequest, SubmitCampaign
from repro.service.schemas import JobState

def campaign(seed):
    cache = AnalysisCache()
    fleet = generate_fleet(FleetSpec(size=6, seed=seed, num_variants=3),
                           analysis_cache=cache)
    Campaign(fleet, add_component_update(), analysis_cache=cache).run()

async def service_round(seed):
    async with AdmissionService() as service:
        receipt = await service.submit(SubmitCampaign(
            tenant="t", fleet_size=6, seed=seed, failure_injection_rate=0.1))
        while True:
            async for _ in service.stream(receipt.job_id):
                pass
            if service.status(receipt.job_id).state != JobState.HALTED:
                break
            await service.resume(ResumeRequest(job_id=receipt.job_id,
                                               max_failure_rate=1.0))

campaign(1)
asyncio.run(service_round(1))
first = set(sys.modules)
campaign(2)
asyncio.run(service_round(2))
print(json.dumps(sorted(set(sys.modules) - first)))
"""
    assert run_fresh(script) == []


if __name__ == "__main__":
    print(json.dumps(loaded_after(workload_imports()), indent=4))
