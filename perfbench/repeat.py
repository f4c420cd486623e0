"""Run the benchmark over several seeds and summarise each metric.

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and their
spread as a share of the median, next to the metric's bound.  With
``--record LABEL`` the summary is appended to ``perfbench/trajectory.json``.

    python3 perfbench/repeat.py --seeds 1-10
    python3 perfbench/repeat.py --workloads serve_mix --seeds 1-5
    python3 perfbench/repeat.py --seeds 1-10 --record "seed commit"
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s seed %d failed (%d):\n%s%s"
                           % (workload, seed, proc.returncode, proc.stdout, proc.stderr))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="LABEL", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    summary: dict = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, spec["run_seconds"], args.trace)
            if not result["correct"]:
                raise RuntimeError("%s seed %d: incorrect output" % (workload, seed))
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print("%s seed %d: %s" % (workload, seed, json.dumps(
                {k: round(v["value"], 4) for k, v in result["metrics"].items()})), flush=True)
        summary[workload] = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else 0.0
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "n": len(series)}
            bound = bounds.get(name)
            print("  %-12s %-28s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.3f%s"
                  % (workload, name, median, q1, q3, spread,
                     "  (bound %.2f)" % bound if bound is not None else ""), flush=True)
    if args.record:
        trajectory = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        trajectory.append({"label": args.record, "seeds": args.seeds,
                           "run_seconds": spec["run_seconds"], "workloads": summary})
        TRAJECTORY.write_text(json.dumps(trajectory, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
