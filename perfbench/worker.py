"""One benchmark worker: set up a workload, time it, check every output.

``run.py`` starts this process and times it from spawn to the ``READY``
line, which the worker prints just before its first timed operation.  With
``--probe`` the worker exits right there (a set-up sample); otherwise it
runs the timed window and prints ``RESULT <json>`` as its last line.

    python3 perfbench/worker.py --workload he_bootstrap --seed 1 --seconds 20 --trace 0
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys

from common import ROOT

WORKLOADS = ("ntt_batch", "he_bootstrap", "serve_mix")


def _ready() -> None:
    print("READY", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="exit once set-up is done (a set-up time sample)")
    args = parser.parse_args(argv)
    # SIGTERM from the runner unwinds through every finally block, which is
    # what stops the serve_mix server process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = importlib.import_module(args.workload)
    if args.probe:
        def ready():
            _ready()
            raise _ProbeDone
        try:
            workload.run(args.seed, args.seconds, bool(args.trace), ready)
        except _ProbeDone:
            pass
        return 0

    result = workload.run(args.seed, args.seconds, bool(args.trace), _ready)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        # Every per-layer metric is reported on every workload; a layer the
        # workload does not exercise in the measured process reads 0.
        metrics = {m["name"]: 0 for m in spec["per_layer"]}
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        metrics, units = {}, {m["name"]: m["unit"] for m in spec["end_to_end"]}
    unknown = set(result["metrics"]) - set(units)
    if unknown:
        raise KeyError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    metrics.update(result["metrics"])
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


class _ProbeDone(Exception):
    """Raised from ``ready`` to stop a probe at its first timed operation."""


if __name__ == "__main__":
    sys.exit(main())
