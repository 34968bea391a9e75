"""Host speed calibration: fixed reference work timed next to what is measured.

The shared virtual machine the benchmark was written on runs the same Python
code at speeds up to 1.7x apart, in spells that last from a fraction of a
second to over a minute.  The CPU clock follows those spells (the kernel
already leaves steal out of it), so one campaign re-run 150 times in a row
took anywhere from 72 to 148 ms of CPU time, and a whole run that fell in one
fast spell read an 80 ms median where the runs around it read 117-128 ms.

So the benchmark times :func:`reference_loop` -- a fixed workload that uses
nothing from the program -- before the first unit and after every unit, and
scales a unit's CPU times by :data:`REFERENCE_S` over the mean of the two
loop times that bracket it.  Every reported time is thereby CPU time at the
reference speed: the speed at which the loop takes ``REFERENCE_S``.  A
change to the program moves its scaled times exactly as it moves its CPU
times; a change in the host's speed moves the loop too and cancels out.

Set-up is mostly importing, which follows the host's spells less than the
loop does, so set-up is scaled by its own reference (:func:`setup_scale`):
the loop plus a replay of the bytecode of fixed standard-library modules,
which follows the spells less than set-up does.
"""

from __future__ import annotations

import gc
import heapq
import importlib.util
import marshal
import time
from typing import List, Tuple

#: CPU seconds the reference loop takes at the reference speed.  It took
#: 10-12 ms in the slow, steady spells of the 2-core machine the benchmark
#: was written on.
REFERENCE_S = 0.010

#: Standard-library modules whose bytecode :func:`setup_scale` replays.
#: Their module bodies only define names and import other modules.
IMPORT_MODULES = ("argparse", "ast", "calendar", "configparser", "csv",
                  "dataclasses", "difflib", "email.message", "fractions",
                  "inspect", "json.decoder", "pickle", "statistics", "string",
                  "tarfile", "textwrap", "tokenize", "zipfile")

#: CPU seconds one replay of :data:`IMPORT_MODULES` takes at the reference
#: speed, on the same terms as :data:`REFERENCE_S`.
IMPORT_REFERENCE_S = 0.012


class _Task:
    __slots__ = ("name", "wcet", "period", "interferers")

    def __init__(self, name: str, wcet: float, period: float) -> None:
        self.name = name
        self.wcet = wcet
        self.period = period
        self.interferers: list = []

    def utilization(self) -> float:
        return self.wcet / self.period


def reference_loop() -> float:
    """A fixed mix of the work the program does: objects, method calls,
    float fix-point iterations, sorting, a heap, and a churn of short-lived
    dicts, lists and strings.

    The churn makes the loop follow the host's speed the way the program
    does: timed alone, the object part sped up more in the host's fast
    spells than a campaign did, and the dict churn less.
    """
    tasks = [_Task(f"t{i}", 1.0 + (i * 7919) % 13, 10.0 + (i * 104729) % 97)
             for i in range(300)]
    for i, task in enumerate(tasks):
        task.interferers = [tasks[(i * 31 + j) % 300] for j in range(3)]
    total = 0.0
    for _ in range(2):
        for task in sorted(tasks, key=_Task.utilization):
            response = task.wcet
            for _ in range(4):
                response = task.wcet + sum(-(-response // other.period) * other.wcet
                                           for other in task.interferers)
            total += response
        heap = [(task.utilization(), task.name) for task in tasks]
        heapq.heapify(heap)
        while heap:
            heapq.heappop(heap)
        index = {task.name: (task.wcet, tuple(other.name for other in
                                              task.interferers))
                 for task in tasks}
        total += len(index)
    recent: list = []
    for i in range(6000):
        recent.append({"name": f"c{i}", "wcet": i * 0.5, "deps": [i, i + 1, i + 2]})
        if len(recent) > 2000:
            recent = recent[1000:]
    return total + len(recent)


def loop_seconds() -> float:
    """CPU seconds one :func:`reference_loop` takes now.

    The collector is held off while the loop runs: a collection it happened
    to trigger would time the heap, not the host.  The few hundred cycles
    its tasks form are left to the next collection.
    """
    gc.disable()
    try:
        started = time.process_time()
        reference_loop()
        return time.process_time() - started
    finally:
        gc.enable()


def scale(before: float, after: float) -> float:
    """Factor that turns CPU time measured between two loop timings into
    CPU time at the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)


def _compiled_modules() -> List[Tuple[str, bytes]]:
    """Each module's bytecode, as its cached ``.pyc`` holds it."""
    modules = []
    for name in IMPORT_MODULES:
        loader = importlib.util.find_spec(name).loader
        modules.append((name, marshal.dumps(loader.get_code(name))))
    return modules


def _replay_seconds(modules: List[Tuple[str, bytes]]) -> float:
    gc.disable()
    try:
        started = time.process_time()
        for name, blob in modules:
            exec(marshal.loads(blob), {"__name__": name})
        return time.process_time() - started
    finally:
        gc.enable()


def setup_scale() -> float:
    """Factor that turns set-up CPU time measured just now into CPU time at
    the reference speed.

    The replay unmarshals and runs the module bodies of
    :data:`IMPORT_MODULES`, the two steps that dominate an import, in
    throwaway namespaces: once untimed, to load what they import, then
    twice timed, each time followed by the reference loop.  Call it after
    the set-up it scales, so that nothing it imports is spared to the
    set-up.
    """
    modules = _compiled_modules()
    _replay_seconds(modules)
    took = sum(_replay_seconds(modules) + loop_seconds() for _ in range(2))
    return (IMPORT_REFERENCE_S + REFERENCE_S) / (took / 2.0)
