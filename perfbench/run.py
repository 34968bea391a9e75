"""Run one workload of the campaign-to-verdict benchmark.

    python3 perfbench/run.py --workload clustered_rollout --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the program is imported from ``src``.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` prints the
per-layer table and writes the run's spans to ``.bench_out/``.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _arguments(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="clustered_rollout, diverged_rebudget or tenant_mix")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="few-second inputs, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _arguments(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing ({source}); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(source)]
    started = time.process_time()
    from perfbench import measure, workloads
    import_s = time.process_time() - started
    scale = workloads.TINY if args.tiny else workloads.FULL
    if args.setup_probe:  # the set-up that setup_s times
        workloads.build(args.workload, args.seed, scale).warm_up()
        ready = workloads.CLOCK()
        from perfbench import speed
        print("ready", ready, speed.setup_scale())
        return 0
    result = measure.run(args.workload, args.seed, args.seconds,
                         bool(args.trace), import_s, scale,
                         out_dir=str(ROOT / ".bench_out"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
